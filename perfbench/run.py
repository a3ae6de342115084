"""Repository benchmark: three closed-loop workloads on the simulated store.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_writes --seed 0 --seconds 12 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` wall
seconds (at least twice) and prints the end-to-end metrics; ``--trace 1``
runs it untraced, then once more with the span recorder and the layer
wrappers attached, and prints the per-layer metrics.  Either way the
correctness gate checks the first repetition and the determinism gate
requires every repetition of the seed to produce bit-identical simulated
results.  The last line of standard output is one JSON object; the exit
code is 0 only when every gate passed.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: repetitions before the determinism gate has something to compare.
MIN_REPS = 2
MAX_REPS = 12
#: set-up samples behind the setup_s median.
MIN_SETUPS = 7
#: stop starting repetitions after this many wall seconds in all.
WALL_CAP = 110.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from driver import drive, set_up
    from gates import check_correctness, compare_signatures, is_window_miss, signature
    from layers import LayerTracer
    from metrics import (END_TO_END, PER_LAYER, describe, end_to_end, exact_layer_metrics,
                         per_layer, summarize, traced_layer_metrics)
    from specs import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    problems = []
    summaries, setups_s, raw_setups_s = [], [], []
    reference = None
    exact = {}
    window_misses = []

    def check_same(rep, sim_metrics, label):
        nonlocal reference
        sig = signature(rep, sim_metrics)
        if reference is None:
            reference = sig
        else:
            problems.extend(compare_signatures(reference, sig, label))

    # Untraced repetitions.  The first is fully checked and gives the
    # exact counts; every later one must reproduce it bit for bit.  Only
    # summaries are kept, so one deployment is alive at a time.
    measured = 0.0
    budget = args.seconds / 2 if args.trace else args.seconds
    while (len(summaries) < (1 if args.trace else MIN_REPS)
           or (measured < budget and len(summaries) < MAX_REPS
               and time.perf_counter() - started < WALL_CAP)):
        t0 = time.perf_counter()
        rep = drive(set_up(spec, args.seed))
        measured += time.perf_counter() - t0
        summary = summarize(rep)
        check_same(rep, summary["sim"], f"repetition {len(summaries) + 1}")
        if not summaries:
            problems.extend(check_correctness(rep, traced=False))
            exact = exact_layer_metrics(rep)
            window_misses = [f for f in rep.driver.failures if is_window_miss(rep, f)]
        summaries.append(summary)
        setups_s.append(summary["setup_s"])
        raw_setups_s.append(rep.setup.setup_s)
        del rep
    while not args.trace and len(setups_s) < MIN_SETUPS:
        setup = set_up(spec, args.seed)
        setups_s.append(setup.setup_s * setup.host_factor)
        raw_setups_s.append(setup.setup_s)
        del setup

    first = summaries[0]
    print(f"perfbench {spec.name} seed={args.seed}: {len(summaries)} untraced repetitions "
          f"of {first['completed']} ops in {spec.end:g} sim-s "
          f"(window {spec.warmup:g}-{spec.end:g} sim-s), "
          f"{first['failed']} failed ({first['not_found']} gets found a preloaded key absent)")
    factors = " ".join(f"{r['host_factor']:.3f}" for r in summaries)
    raw_rates = " ".join(f"{r['ops_per_raw_s']:.0f}" for r in summaries)
    raw_setups = " ".join(f"{s:.4f}" for s in raw_setups_s)
    print(f"  host speed factor per repetition: {factors}; "
          f"uncorrected ops per host second: {raw_rates}; "
          f"uncorrected set-up seconds: {raw_setups}")

    if args.trace:
        tracer = LayerTracer()
        traced = drive(set_up(spec, args.seed, traced=True), layers=tracer)
        check_same(traced, summarize(traced)["sim"], "traced repetition")
        problems.extend(check_correctness(traced, traced=True))
        metrics = {} if problems else per_layer(
            exact, traced_layer_metrics(traced, tracer), summaries,
            traced.load_wall_s * traced.host_factor)
        units, samples = PER_LAYER, {}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {} if problems else end_to_end(first, summaries, setups_s, rss_mb)
        units, samples = END_TO_END, first["samples"]

    for name, value in metrics.items():
        print(describe(name, value, units[name], samples.get(name)))
    if window_misses:
        print(f"KNOWN DEFECT: {len(window_misses)} gets of moved keys by clients still in "
              f"the reshard window raised KeyNotFound; counted as failed ops, e.g. "
              f"{window_misses[0]}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
