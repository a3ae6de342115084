"""Correctness and determinism gates.

The correctness gate runs on a quiesced deployment after the load has
stopped.  The determinism gate compares the seed-determined signature of
every repetition in one invocation, traced and untraced alike.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from repro.hashing import HashRing

from driver import Failure, Rep, shard_contents

__all__ = ["check_correctness", "is_window_miss", "signature", "compare_signatures"]

#: concurrent read-back sessions of the verifying client.
READBACK_SESSIONS = 64


def check_correctness(rep: Rep, traced: bool) -> List[str]:
    """Every failed check as one line; empty when the run is correct.

    A traced repetition gets its span tree validated instead of reading
    every preloaded key back: the determinism gate already holds its final
    state equal to an untraced repetition that was read back."""
    problems: List[str] = []
    driver = rep.driver
    if not rep.drained:
        problems.append(f"{driver.active} sessions still in flight after the drain limit")
    if driver.bad_reads:
        problems.append(f"{driver.bad_reads} reads returned a value never written")
    unexpected = [f for f in driver.failures if not is_window_miss(rep, f)]
    if unexpected:
        problems.append(f"{len(unexpected)} ops raised to the caller, e.g. {unexpected[0]}")

    # every shard's replicas hold identical engine snapshots
    contents: Dict[str, Dict[str, str]] = {}
    for sid, snaps in shard_contents(rep.dep).items():
        if any(s != snaps[0] for s in snaps[1:]):
            keys = set().union(*snaps)
            diff = sum(1 for k in keys if any(s.get(k) != snaps[0].get(k) for s in snaps))
            problems.append(f"shard {sid}: replicas diverge on {diff} keys")
        contents[sid] = snaps[0]

    dep = rep.dep
    keys = sorted(rep.setup.items)
    if not traced:
        problems.extend(_read_back(rep, keys, contents))

    if rep.spec.reshard_at is not None:
        reshard = rep.reshard
        if "committed_at" not in reshard:
            problems.append("the reshard did not commit during the load phase")
        elif reshard["committed_at"] > rep.spec.end:
            problems.append(f"the reshard committed at {reshard['committed_at']:.2f}s, "
                            f"after the load phase")
        if int(reshard.get("moved", 0)) <= 0:
            problems.append("the reshard moved no keys")
        # each moved key is held by its new-ring owner (the read-back above
        # already routed it there through the committed ring)
        old, new = _rings(rep)
        moved = [k for k in keys if old.lookup(k) != new.lookup(k)]
        missing = [k for k in moved if k not in contents[new.lookup(k)]]
        if not moved:
            problems.append("no key changed owner between the old and new ring")
        if missing:
            problems.append(f"{len(missing)} moved keys absent at their new owner, "
                            f"e.g. {missing[0]}")

    if traced:
        span_errors = rep.setup.recorder.validate()
        if span_errors:
            problems.append(f"{len(span_errors)} span-tree errors, e.g. {span_errors[0]}")
    return problems


def _rings(rep: Rep) -> Tuple[HashRing, HashRing]:
    """The rings before and after the reshard."""
    return (HashRing([f"s{i}" for i in range(rep.spec.shards)]),
            HashRing(rep.dep.map.shard_ids()))


def is_window_miss(rep: Rep, failure: Failure) -> bool:
    """A get of a key the reshard moved that found it absent, issued after
    the reshard was requested by a client still routing through the
    reshard window (its map epoch below the commit epoch).  A known store
    defect: the dual-routed read misses on the new owner's replica, which
    has not applied the migrated copy yet, and on the fenced old owner.
    Such ops count as failed; the gate lets only these through."""
    reshard = rep.reshard
    if (failure.op != "get" or failure.error != "KeyNotFound"
            or "epoch" not in reshard or failure.started < reshard["requested_at"]
            or failure.epoch >= reshard["epoch"]):
        return False
    old, new = _rings(rep)
    return old.lookup(failure.key) != new.lookup(failure.key)


def _read_back(rep: Rep, keys: List[str], contents: Dict[str, Dict[str, str]]) -> List[str]:
    """Read every key through a fresh client; the value read must be the
    one its owner shard holds."""
    sim = rep.dep.sim
    client = rep.dep.client("verifier")
    sim.run_future(client.connect())
    mismatched: List[str] = []

    def reader(part: List[str]):
        for key in part:
            owner = client.shard_for(key).shard_id
            try:
                value = yield client.get(key)
            except Exception as exc:  # a crash is as unreadable as an error
                mismatched.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if value != contents[owner].get(key):
                mismatched.append(f"{key}: read {value!r}, owner {owner} holds "
                                  f"{contents[owner].get(key)!r}")

    sim.run_future(sim.gather(sim.spawn(reader(keys[i::READBACK_SESSIONS]))
                              for i in range(READBACK_SESSIONS)))
    if mismatched:
        return [f"{len(mismatched)} preloaded keys not readable, e.g. {mismatched[0]}"]
    return []


def signature(rep: Rep, sim_metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The seed-determined facts of one repetition: simulated metrics,
    exact counts and a digest of every replica's final contents."""
    digest = hashlib.sha256()
    for sid, snaps in shard_contents(rep.dep).items():
        for snap in snaps:
            digest.update(sid.encode())
            for key in sorted(snap):
                digest.update(f"{key}={snap[key]};".encode())
    driver = rep.driver
    return {
        "metrics": dict(sim_metrics),
        "attempted": driver.attempted,
        "failed": driver.failed,
        "completed": driver.completed,
        "failures": [str(f) for f in driver.failures],
        "per_second": dict(driver.per_second),
        "events": rep.events,
        "msgs": rep.msgs,
        "bytes": rep.bytes,
        "registry": rep.registry_after,
        "reshard": dict(rep.reshard),
        "converge_s": rep.converge_s,
        "state": digest.hexdigest(),
    }


def compare_signatures(reference: Dict[str, Any], other: Dict[str, Any],
                       label: str) -> List[str]:
    """Every top-level field where ``other`` differs from ``reference``."""
    return [f"{label}: {key} differs from the first repetition"
            for key in reference if reference[key] != other.get(key)]
