"""End-to-end tests for online resharding with live key migration.

Each test deploys a real combo, drives the coordinator's double-ring
cutover through ``Deployment.request_reshard``, and asserts the one
property the whole protocol exists for: **no acked write is lost and
no stale copy resurfaces**, no matter how the migration pump
interleaves with live traffic.

``test_reshard_preserves_last_write`` is also the regression anchor
for the cross-reshard clobber bug: after an ``add`` window commits,
moved keys are *not* purged from their old owner; a later ``remove``
window's census must consult the old ring and skip those leftovers, or
they re-migrate and overwrite newer values at the true owner.
"""

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import KeyNotFound
from repro.harness.deploy import Deployment, DeploymentSpec

COMBOS = [
    pytest.param(Topology.MS, Consistency.STRONG, id="ms-sc"),
    pytest.param(Topology.MS, Consistency.EVENTUAL, id="ms-ec"),
    pytest.param(Topology.AA, Consistency.STRONG, id="aa-sc"),
    pytest.param(Topology.AA, Consistency.EVENTUAL, id="aa-ec"),
]

KEYS = [f"k{i}" for i in range(36)]


def _deploy(topo, cons, seed=7):
    spec = DeploymentSpec(shards=2, replicas=3, topology=topo,
                          consistency=cons, seed=seed, standbys=1)
    dep = Deployment(spec)
    dep.start()
    return dep


def _get_eventual(client, key, rounds=40):
    """Read with staleness retries: EC replicas serve not_found until
    replay catches up with the migrated copies."""
    for _ in range(rounds):
        try:
            val = yield client.get(key)
            return val
        except KeyNotFound:
            yield 0.5
    raise AssertionError(f"{key} never converged")


def _gone_eventual(client, key, rounds=40):
    """The mirror image: a deleted key may stay visible on lagging
    replicas until replay applies the tombstone."""
    for _ in range(rounds):
        try:
            yield client.get(key)
            yield 0.5
        except KeyNotFound:
            return True
    raise AssertionError(f"{key} never disappeared")


def _run(dep, gen, until=900.0):
    fut = dep.sim.spawn(gen)
    dep.sim.run(until=until)
    assert fut.done, "scenario did not finish within the sim horizon"
    return fut.result()


# ---------------------------------------------------------------------------
# quiescent cutovers: values survive add and remove, including the
# stale-leftover regression (overwrite between the two windows)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", COMBOS)
def test_reshard_preserves_last_write(topo, cons):
    dep = _deploy(topo, cons)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.v0")
        stats_add = yield dep.request_reshard("add")
        yield client.connect()  # adopt the committed ring
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            assert val == f"{k}.v0", f"{k} lost across add: {val!r}"
        # overwrite everything: the copies left behind at the old
        # owners are now STALE — the remove window must not ship them
        for k in KEYS:
            yield client.put(k, f"{k}.v1")
        stats_rm = yield dep.request_reshard("remove", shard="s0")
        yield client.connect()
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            assert val == f"{k}.v1", f"stale copy resurfaced for {k}: {val!r}"
        return stats_add, stats_rm

    stats_add, stats_rm = _run(dep, proc())
    assert stats_add["moved"] > 0  # the new shard took over a slice
    assert stats_rm["moved"] > 0   # the drained shard shipped its keys
    assert dep.coordinator.view.reshard is None
    assert dep.coordinator.view.ring_gen == 2


# ---------------------------------------------------------------------------
# live traffic racing the migration window
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", COMBOS)
def test_writes_racing_migration_window(topo, cons):
    dep = _deploy(topo, cons)
    client = dep.client("c1")
    writer = dep.client("c2")
    sim = dep.sim

    def write_rounds():
        yield writer.connect()
        # four rounds of overwrites with small gaps so they land
        # before, during, and after the migration window
        for r in range(1, 5):
            for k in KEYS:
                yield writer.put(k, f"{k}.r{r}")
            yield 0.3

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.r0")
        racer = sim.spawn(write_rounds())
        stats = yield dep.request_reshard("add")
        yield racer
        yield client.connect()
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            # dirty-skip: an in-window write must never be clobbered
            # by the migration copy — the last round always wins
            assert val == f"{k}.r4", f"{k}: migration clobbered {val!r}"
        # deletes route through the same dual-write path
        for k in KEYS[:6]:
            yield client.delete(k)
        for k in KEYS[:6]:
            yield from _gone_eventual(client, k)
        return stats

    stats = _run(dep, proc())
    assert stats["moved"] + stats["skipped"] == stats["total"]


# ---------------------------------------------------------------------------
# the coordinator's view of a cutover
# ---------------------------------------------------------------------------
def test_reshard_stats_and_view_log():
    dep = _deploy(Topology.MS, Consistency.STRONG)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, "v")
        e0 = dep.coordinator.view.epoch
        stats = yield dep.request_reshard("add")
        return e0, stats

    e0, stats = _run(dep, proc())
    view = dep.coordinator.view
    # the window bumps the epoch twice: once opening, once committing
    assert stats["epoch"] >= e0 + 2
    assert stats["shard"] == "s2"
    # the census is the moved slice, not the whole keyspace
    assert stats["moved"] + stats["skipped"] == stats["total"]
    assert 0 < stats["total"] < len(KEYS)
    kinds = [t.kind for t in view.log]
    assert "reshard-begin" in kinds and "reshard-commit" in kinds
    assert kinds.index("reshard-begin") < kinds.index("reshard-commit")
    assert view.reshard is None and view.ring_gen == 1
    assert "s2" in view.ring_members()


# ---------------------------------------------------------------------------
# client keeps (and patches) its ring instead of rebuilding
# ---------------------------------------------------------------------------
def test_client_ring_is_patched_incrementally():
    dep = _deploy(Topology.MS, Consistency.EVENTUAL)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        ring = client._ring
        epoch, gen = client.map.epoch, client._ring_gen
        yield client.connect()  # same epoch + gen: everything kept
        assert client._ring is ring
        assert (client.map.epoch, client._ring_gen) == (epoch, gen)
        yield dep.request_reshard("add")
        yield client.connect()
        # membership changed, but the ring object was diffed in place
        assert client._ring is ring
        assert "s2" in client._ring.members
        assert client._ring_gen == 1
        # the window is committed, so no dual-route state lingers
        assert client._window is None

    _run(dep, proc())
