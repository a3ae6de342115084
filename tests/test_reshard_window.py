"""Unit tests for the reshard window and its dirty marks.

The window gate (:class:`repro.cluster.window.ReshardWindow`) is shared
by the DLM, the shard-log sequencers, the controlets and the client;
these tests pin its decisions directly instead of only end to end
through ``tests/test_reshard.py``.
"""

import itertools

import pytest

from repro.cluster.window import ReshardWindow
from repro.core.config import ControlConfig
from repro.core.controlet import Controlet
from repro.core.ms_sc import MSStrongControlet
from repro.core.types import Consistency, Replica, ShardInfo, Topology
from repro.datalet import DataletActor, HashTableEngine
from repro.dlm import LockManagerActor
from repro.harness.deploy import Deployment, DeploymentSpec
from repro.net import SimCluster
from repro.sharedlog import SharedLogActor

GEN = 3
DESC = {"gen": GEN, "old": ["s0", "s1"], "new": ["s0", "s1", "s2"]}


def _keys():
    """One key the window moves and one it leaves in place."""
    win = ReshardWindow(DESC)
    keys = (f"k{i}" for i in itertools.count())
    moved = next(k for k in keys if win.moves(k))
    unmoved = next(k for k in keys if not win.moves(k))
    return moved, unmoved


MOVED, UNMOVED = _keys()


# ---------------------------------------------------------------------------
# the gate, one decision per row
# ---------------------------------------------------------------------------
#: (moved, mig, stamped gen, dirty before) -> (admit verdict, dirty after)
GATE = [
    (True, False, GEN, False, None, True),
    (True, False, GEN, True, None, True),
    (True, False, GEN - 1, False, "wrong_shard", False),
    (True, False, GEN - 1, True, "wrong_shard", True),
    (True, True, GEN, False, None, False),
    (True, True, GEN, True, "skipped", True),
    (True, True, GEN - 1, False, None, False),
    (True, True, GEN - 1, True, "skipped", True),
    (False, False, GEN, False, None, False),
    (False, False, GEN, True, None, True),
    (False, False, GEN - 1, False, None, False),
    (False, False, GEN - 1, True, None, True),
    (False, True, GEN, False, None, False),
    (False, True, GEN, True, None, True),
    (False, True, GEN - 1, False, None, False),
    (False, True, GEN - 1, True, None, True),
]


@pytest.mark.parametrize("moved,mig,gen,dirty,verdict,dirty_after", GATE)
def test_window_gate(moved, mig, gen, dirty, verdict, dirty_after):
    key = MOVED if moved else UNMOVED
    win = ReshardWindow(DESC, marks=[key] if dirty else [])
    assert win.moves(key) is moved
    assert win.admit(key, gen, mig) == verdict
    assert (key in win.dirty) is dirty_after
    if not mig:
        # the DLM's split form of the same decision: the stale check at
        # lock request, the mark at grant
        split = ReshardWindow(DESC, marks=[key] if dirty else [])
        assert split.stale(key, gen) is (verdict == "wrong_shard")
        if not split.stale(key, gen):
            split.mark(key)
        assert split.dirty == win.dirty


def test_window_ownership_and_copy_rid():
    win = ReshardWindow(dict(DESC, entries={"s2": "c2.0"}))
    assert win.old_owner(MOVED) != win.new_owner(MOVED)
    assert win.old_owner(UNMOVED) == win.new_owner(UNMOVED)
    assert win.entries == {"s2": "c2.0"}
    assert win.copy_rid("a") == f"mig.g{GEN}.a"


def test_adopt_keeps_a_held_window_of_the_same_generation():
    held = ReshardWindow(DESC, marks=["a"])
    assert ReshardWindow.adopt(held, DESC, marks=["b"]) is held
    assert held.dirty == {"a"}
    fresh = ReshardWindow.adopt(held, dict(DESC, gen=GEN + 1), marks=["b"])
    assert fresh is not held and fresh.dirty == {"b"}


# ---------------------------------------------------------------------------
# the authorities' begin/end handlers
# ---------------------------------------------------------------------------
def _sequencer_write(c, port, key, gen, mig=False):
    payload = {"op": "put", "key": key, "val": "v", "gen": gen}
    if mig:
        payload["mig"] = True
    resp = c.sim.run_future(port.request("auth", "log_append", payload))
    r = resp.payload
    return "skipped" if r.get("skipped") else "wrong_shard" if r.get("wrong_shard") else "ok"


def _dlm_write(c, port, key, gen, mig=False):
    payload = {"key": key, "mode": "w", "gen": gen}
    if mig:
        payload["mig"] = True
    resp = c.sim.run_future(port.request("auth", "lock", payload))
    if resp.type == "error":
        return resp.payload["error"]
    c.sim.run_future(port.request("auth", "unlock", {"key": key}))
    return "skipped" if resp.payload.get("dirty") else "ok"


AUTHORITIES = [
    pytest.param(lambda: SharedLogActor("auth"), _sequencer_write, id="sequencer"),
    pytest.param(lambda: LockManagerActor("auth"), _dlm_write, id="dlm"),
]


@pytest.mark.parametrize("make,write", AUTHORITIES)
def test_authority_begin_end(make, write):
    c = SimCluster()
    c.add_actor(make())
    port = c.add_port("p")
    c.start()

    def begin(gen):
        resp = c.sim.run_future(port.request("auth", "reshard_begin", dict(DESC, gen=gen)))
        assert resp.type == "ok" and resp.payload["gen"] == gen

    def end(gen):
        port.send("auth", "reshard_end", {"gen": gen})
        c.sim.run_until(c.sim.now + 0.1)

    begin(GEN)
    assert write(c, port, MOVED, GEN) == "ok"  # marks the moved key
    assert write(c, port, UNMOVED, GEN - 1) == "ok"
    assert write(c, port, MOVED, GEN - 1) == "wrong_shard"
    # the coordinator re-asks on timeout: the repeat keeps the marks
    begin(GEN)
    assert write(c, port, MOVED, GEN, mig=True) == "skipped"
    # an end for another generation is ignored
    end(GEN + 1)
    assert c.actor("auth").window_gen == GEN
    assert write(c, port, MOVED, GEN, mig=True) == "skipped"
    end(GEN)
    assert c.actor("auth").window_gen == 0
    assert write(c, port, MOVED, GEN - 1) == "ok"
    assert write(c, port, MOVED, GEN, mig=True) == "ok"


# ---------------------------------------------------------------------------
# controlet dirty marks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", [
    (Topology.MS, Consistency.STRONG),
    (Topology.AA, Consistency.EVENTUAL),
])
def test_writes_without_a_reshard_leave_no_marks(topo, cons):
    dep = Deployment(DeploymentSpec(shards=2, replicas=3, topology=topo,
                                    consistency=cons, seed=3))
    dep.start()
    client = dep.client("c1")
    keys = [f"k{i}" for i in range(24)]

    def proc():
        yield client.connect()
        for k in keys:
            yield client.put(k, "v")
        for k in keys[::3]:
            yield client.delete(k)

    fut = dep.sim.spawn(proc())
    dep.sim.run(until=120.0)
    assert fut.done
    fut.result()
    ctls = [a for a in dep.cluster.actors.values() if isinstance(a, Controlet)]
    assert len(ctls) == 6
    marked = [(c.node_id, k) for c in ctls for k in keys if c._marked(k)]
    assert marked == []


def _wire_head():
    cluster = SimCluster()
    shard = ShardInfo("s0", Topology.MS, Consistency.STRONG,
                      [Replica("c0", "d0", "h0", 0)])
    cluster.add_actor(DataletActor("d0", HashTableEngine()), host="h0")
    cluster.add_actor(
        MSStrongControlet("c0", shard=shard, datalet="d0",
                          coordinator="nocoord", config=ControlConfig()),
        host="h0",
    )
    port = cluster.add_port("client")
    cluster.start()
    return cluster, port, cluster.actor("c0")


def test_write_stamped_ahead_of_our_ring_is_marked():
    """A client that learned the window before this controlet did
    stamps a newer ring generation: that write is marked, and the mark
    survives into the window when its config arrives."""
    cluster, port, ctl = _wire_head()

    def put(key, gen):
        resp = cluster.sim.run_future(
            port.request("c0", "put", {"key": key, "val": "new", "gen": gen}))
        assert resp.type == "ok"

    put("ahead", 1)
    put("settled", 0)
    assert ctl._marked("ahead") and not ctl._marked("settled")

    desc = {"gen": 1, "old": ["s0"], "new": ["s0", "s1"], "entries": {"s0": "c0"}}
    ctl._install_ring({"gen": 1, "ids": ["s0", "s1"], "reshard": desc}, "hash")
    assert ctl._window is not None and ctl._window.dirty == {"ahead"}

    def migrate(key):
        resp = cluster.sim.run_future(port.request(
            "c0", "migrate_put",
            {"key": key, "val": "old", "gen": 1, "rid": f"mig.g1.{key}", "mig": True}))
        assert resp.type == "ok"
        return bool(resp.payload.get("skipped"))

    assert migrate("ahead") is True
    assert migrate("settled") is False
    assert cluster.actor("d0").engine.get("ahead") == "new"

    # commit: the window and its marks go
    ctl._install_ring({"gen": 1, "ids": ["s0", "s1"]}, "hash")
    assert ctl._window is None and not ctl._marked("ahead")
