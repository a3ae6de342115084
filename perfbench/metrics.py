"""Derive the end-to-end and per-layer metrics from measured repetitions.

Simulated metrics and exact counts come from untraced repetitions (and
are bit-identical in every repetition of a seed); per-layer host times
come from the traced repetition's :class:`layers.LayerTracer`.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.controlet import Controlet
from repro.datalet import DataletActor
from repro.sharedlog import SharedLogActor

from driver import Rep, percentile

__all__ = ["END_TO_END", "PER_LAYER", "sim_metrics", "summarize", "end_to_end",
           "exact_layer_metrics", "traced_layer_metrics", "per_layer", "describe"]

#: name -> unit, for every metric printed with tracing off.
END_TO_END: Dict[str, str] = {
    "sim_qps": "ops/sim-s",
    "sim_get_p50_ms": "sim-ms",
    "sim_get_p99_ms": "sim-ms",
    "sim_put_p50_ms": "sim-ms",
    "sim_put_p99_ms": "sim-ms",
    "ok_op_ratio": "fraction",
    "ops_per_wall_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit, for every metric printed by the traced run.
PER_LAYER: Dict[str, str] = {
    "sim.events_per_op": "events/op",
    "sim.kernel_self_us_per_op": "us/op",
    "sim.cpu_submits_per_op": "calls/op",
    "sim.cpu_wait_ms": "sim-ms",
    "net.msgs_per_op": "msgs/op",
    "net.bytes_per_op": "B/op",
    "net.self_us_per_op": "us/op",
    "net.calls_per_op": "calls/op",
    "net.sim_ms": "sim-ms",
    "core.self_us_per_op": "us/op",
    "core.calls_per_op": "calls/op",
    "core.chain_frame_size_mean": "ops/frame",
    "core.group_commit_size_mean": "ops/batch",
    "core.dup_writes_per_kop": "1/kop",
    "core.converge_s": "sim-s",
    "datalet.self_us_per_op": "us/op",
    "datalet.calls_per_op": "calls/op",
    "datalet.engine_ops_per_op": "ops/op",
    "sharedlog.self_us_per_op": "us/op",
    "sharedlog.calls_per_op": "calls/op",
    "sharedlog.entries_per_append": "entries",
    "sharedlog.dup_appends_per_kop": "1/kop",
    "client.self_us_per_op": "us/op",
    "client.calls_per_op": "calls/op",
    "client.rpc_attempts_per_op": "attempts/op",
    "client.timeouts_per_kop": "1/kop",
    "client.not_found_per_kop": "1/kop",
    "hashing.lookups_per_op": "calls/op",
    "hashing.self_us_per_op": "us/op",
    "workloads.next_op_us": "us/call",
    "workloads.build_s": "s",
    "harness.preload_s": "s",
    "cluster.reshard_window_s": "sim-s",
    "cluster.reshard_floor_ratio": "ratio",
    "cluster.keys_moved": "count",
    "cluster.migrate_self_us": "us",
    "coordinator.self_us_per_op": "us/op",
    "coordinator.calls_per_op": "calls/op",
    "obs.trace_overhead_ratio": "ratio",
    "stage.rpc_ms": "sim-ms/op",
    "stage.net_ms": "sim-ms/op",
    "stage.cpu_ms": "sim-ms/op",
    "stage.backoff_ms": "sim-ms/op",
}


def sim_metrics(rep: Rep) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Simulated end-to-end metrics and their sample counts."""
    lat = {op: sorted(samples) for op, samples in rep.driver.latency.items()}
    out = {"sim_qps": sum(len(s) for s in lat.values()) / rep.spec.window}
    counts = {}
    for op in ("get", "put"):
        for q in (50, 99):
            name = f"sim_{op}_p{q}_ms"
            out[name] = percentile(lat[op], q / 100) * 1e3 if lat[op] else 0.0
            counts[name] = len(lat[op])
    return out, counts


def end_to_end(first: Dict[str, Any], reps: List[Dict[str, Any]], setups_s: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """``first`` is the first repetition's summary, ``reps`` all of them;
    ``setups_s`` are set-up times at reference host speed."""
    out = dict(first["sim"])
    out["ok_op_ratio"] = (first["attempted"] - first["failed"]) / first["attempted"]
    out["ops_per_wall_s"] = statistics.median(r["ops_per_ref_s"] for r in reps)
    out["setup_s"] = statistics.median(setups_s)
    out["peak_rss_mb"] = peak_rss_mb
    return {name: out[name] for name in END_TO_END}


def summarize(rep: Rep) -> Dict[str, Any]:
    """What the metrics need from one repetition, so the deployment can go.
    Host times are stated at reference host speed (see hostspeed.py)."""
    sim, counts = sim_metrics(rep)
    d, setup = rep.driver, rep.setup
    return {"sim": sim, "samples": counts, "attempted": d.attempted, "failed": d.failed,
            "completed": d.completed, "not_found": d.not_found,
            "ops_per_raw_s": d.completed / rep.load_wall_s,
            "ops_per_ref_s": d.completed / (rep.load_wall_s * rep.host_factor),
            "load_ref_s": rep.load_wall_s * rep.host_factor,
            "host_factor": rep.host_factor,
            "setup_s": setup.setup_s * setup.host_factor,
            "preload_s": setup.preload_s * setup.host_factor,
            "build_s": setup.build_s * setup.host_factor}


# -- exact counts from the metrics registry -------------------------------
def _group_delta(rep: Rep, match: Callable[[str], bool], field: str) -> float:
    before = rep.registry_before["groups"]
    total = 0.0
    for prefix, values in rep.registry_after["groups"].items():
        if match(prefix):
            total += values.get(field, 0.0) - before.get(prefix, {}).get(field, 0.0)
    return total


def _actor_match(rep: Rep, cls: type) -> Callable[[str], bool]:
    actors = rep.dep.cluster.actors
    return lambda prefix: isinstance(actors.get(prefix), cls)


def _histogram_mean(rep: Rep, name: str) -> float:
    after = rep.registry_after["histograms"].get(name)
    if after is None:
        return 0.0
    before = rep.registry_before["histograms"].get(name, {"count": 0.0, "sum": 0.0})
    count = after["count"] - before["count"]
    return (after["sum"] - before["sum"]) / count if count else 0.0


def _reshard_floor_ratio(rep: Rep) -> float:
    """Worst whole sim second inside the cutover window over the mean
    second between warm-up and the reshard request (0 without a reshard)."""
    reshard = rep.reshard
    if "committed_at" not in reshard:
        return 0.0
    per_second = rep.driver.per_second
    requested, committed = reshard["requested_at"], reshard["committed_at"]
    before = [per_second.get(s, 0) for s in range(math.ceil(rep.spec.warmup), int(requested))]
    inside = [per_second.get(s, 0) for s in range(math.ceil(requested), int(committed))]
    if not before or not inside:
        return 0.0
    return min(inside) / statistics.mean(before)


def _span_stats(recorder: Any, start: float, end: float) -> Tuple[int, Dict[str, List[float]]]:
    """Client ops opened in the load phase, and the durations of every
    span opened in it, grouped by stage (the span-name prefix)."""
    ops = 0
    stages: Dict[str, List[float]] = {}
    for span in recorder.spans:
        if not start <= span.start < end or span.end is None:
            continue
        stage = span.name.split(":", 1)[0]
        if stage == "op":
            ops += 1
        else:
            stages.setdefault(stage, []).append(span.end - span.start)
    return ops, stages


def exact_layer_metrics(rep: Rep) -> Dict[str, float]:
    """Per-layer counts of an untraced repetition (exact, seed-determined)."""
    ops = rep.driver.completed
    per_op = lambda x: x / ops  # noqa: E731
    per_kop = lambda x: x * 1e3 / ops  # noqa: E731
    is_client = lambda prefix: prefix.startswith("client.")  # noqa: E731
    client_ops = _group_delta(rep, is_client, "ops")
    engine_ops = sum(_group_delta(rep, _actor_match(rep, DataletActor), f"ops_{op}")
                     for op in ("put", "get", "del"))
    log = _actor_match(rep, SharedLogActor)
    batch_appends = _group_delta(rep, log, "batch_appends")
    reshard = rep.reshard
    return {
        "sim.events_per_op": per_op(rep.events),
        "net.msgs_per_op": per_op(rep.msgs),
        "net.bytes_per_op": per_op(rep.bytes),
        "core.chain_frame_size_mean": _histogram_mean(rep, "batch.chain_frame_size"),
        "core.group_commit_size_mean": _histogram_mean(rep, "batch.group_commit_size"),
        "core.dup_writes_per_kop": per_kop(_group_delta(rep, _actor_match(rep, Controlet),
                                                        "dup_writes")),
        "core.converge_s": rep.converge_s,
        "datalet.engine_ops_per_op": per_op(engine_ops),
        "sharedlog.entries_per_append": (_group_delta(rep, log, "batched_entries") / batch_appends
                                         if batch_appends else 0.0),
        "sharedlog.dup_appends_per_kop": per_kop(_group_delta(rep, log, "dup_appends")),
        "client.rpc_attempts_per_op": ((client_ops + _group_delta(rep, is_client, "retries"))
                                       / client_ops),
        "client.timeouts_per_kop": per_kop(_group_delta(rep, is_client, "timeouts")),
        "client.not_found_per_kop": per_kop(rep.driver.not_found),
        "cluster.reshard_window_s": (reshard["committed_at"] - reshard["requested_at"]
                                     if "committed_at" in reshard else 0.0),
        "cluster.reshard_floor_ratio": _reshard_floor_ratio(rep),
        "cluster.keys_moved": float(reshard.get("moved", 0)),
    }


def traced_layer_metrics(rep: Rep, tracer: Any) -> Dict[str, float]:
    """Per-layer host self time (at reference host speed) and call
    counts, and the simulated stage split, of the traced repetition."""
    ops = rep.driver.completed
    to_us = rep.host_factor * 1e6
    us_per_op = lambda layer, entry="": tracer.layer_self_s(layer, entry) * to_us / ops  # noqa: E731
    calls_per_op = lambda layer, entry="": tracer.layer_calls(layer, entry) / ops  # noqa: E731
    next_op_calls = tracer.layer_calls("workloads")
    span_ops, stages = _span_stats(rep.setup.recorder, rep.driver.start, rep.driver.end)
    stage_ms = lambda stage: sum(stages.get(stage, ())) * 1e3 / span_ops if span_ops else 0.0  # noqa: E731
    mean_ms = lambda stage: statistics.mean(stages[stage]) * 1e3 if stages.get(stage) else 0.0  # noqa: E731
    return {
        "sim.kernel_self_us_per_op": us_per_op("sim", "kernel"),
        "sim.cpu_submits_per_op": calls_per_op("sim", "cpu_submit"),
        "sim.cpu_wait_ms": mean_ms("cpu"),
        "net.self_us_per_op": us_per_op("net"),
        "net.calls_per_op": calls_per_op("net", "route"),
        "net.sim_ms": mean_ms("net"),
        "core.self_us_per_op": us_per_op("core"),
        "core.calls_per_op": calls_per_op("core"),
        "datalet.self_us_per_op": us_per_op("datalet"),
        "datalet.calls_per_op": calls_per_op("datalet", "deliver"),
        "sharedlog.self_us_per_op": us_per_op("sharedlog"),
        "sharedlog.calls_per_op": calls_per_op("sharedlog"),
        "client.self_us_per_op": us_per_op("client"),
        "client.calls_per_op": calls_per_op("client"),
        "hashing.lookups_per_op": calls_per_op("hashing"),
        "hashing.self_us_per_op": us_per_op("hashing"),
        "workloads.next_op_us": (tracer.layer_self_s("workloads") * to_us / next_op_calls
                                 if next_op_calls else 0.0),
        "cluster.migrate_self_us": tracer.layer_self_s("cluster") * to_us,
        "coordinator.self_us_per_op": us_per_op("coordinator"),
        "coordinator.calls_per_op": calls_per_op("coordinator"),
        "stage.rpc_ms": stage_ms("rpc"),
        "stage.net_ms": stage_ms("net"),
        "stage.cpu_ms": stage_ms("cpu"),
        "stage.backoff_ms": stage_ms("backoff"),
    }


def per_layer(exact: Dict[str, float], traced: Dict[str, float], reps: List[Dict[str, Any]],
              traced_ref_s: float) -> Dict[str, float]:
    """Every per-layer metric: exact counts, traced self times, and the
    set-up parts and tracing overhead from the repetition summaries."""
    out = dict(exact)
    out.update(traced)
    out["workloads.build_s"] = statistics.median(r["build_s"] for r in reps)
    out["harness.preload_s"] = statistics.median(r["preload_s"] for r in reps)
    out["obs.trace_overhead_ratio"] = traced_ref_s / statistics.median(
        r["load_ref_s"] for r in reps)
    return {name: out[name] for name in PER_LAYER}


def describe(name: str, value: float, unit: str, samples: Optional[int] = None) -> str:
    line = f"  {name:<30} {value:>14.6g} {unit}"
    if samples is not None:
        line += f"  (n={samples})"
    return line
