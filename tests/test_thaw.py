"""A thawed host must not keep calls its freeze orphaned.

A thaw (``SimCluster.restart_host``) brings a frozen process back with
its in-memory state intact.  A reply dropped while the host was dead
never arrives, and a timeout timer that fired meanwhile was dropped
too, so without the transport expiring those calls at thaw, every
pump with a call in flight stays busy forever — a live, unfenced head
whose writes all time out.
"""

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import BespoError
from repro.harness import Deployment, DeploymentSpec


def _build(topology, consistency):
    dep = Deployment(DeploymentSpec(shards=1, replicas=3, topology=topology,
                                    consistency=consistency, standbys=2))
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    for i in range(5):
        dep.sim.run_future(client.put(f"warm{i}", str(i)))
    return dep, client


def _settled_puts(dep, client, prefix, n):
    ok = 0
    for i in range(n):
        try:
            dep.sim.run_future(client.put(f"{prefix}{i}", "v"))
            ok += 1
        except BespoError:
            pass
    return ok


@pytest.mark.parametrize("topology,consistency,busy_key,freeze", [
    (Topology.MS, Consistency.STRONG, "accept_busy", 0.5),
    (Topology.MS, Consistency.EVENTUAL, "accept_busy", 0.5),
    # longer than replication_timeout: the sequencer call's timeout
    # timer fires (and is dropped) while the host is down
    (Topology.AA, Consistency.EVENTUAL, "order_busy", 2.0),
])
def test_freeze_with_call_in_flight_does_not_wedge_the_pump(
        topology, consistency, busy_key, freeze):
    dep, client = _build(topology, consistency)
    ctls = [dep.cluster.actor(r.controlet) for r in dep.shard(0).ordered()]
    for i in range(6):
        client.put(f"burst{i}", "v")
    # step until some controlet's accept batch is in flight, then
    # freeze its host right there
    busy = None
    while busy is None:
        dep.sim.step_one()
        busy = next((c for c in ctls if c.snapshot_state()[busy_key]), None)
    host = dep.cluster.host_of(busy.node_id)
    dep.cluster.kill_host(host)
    dep.sim.run_until(dep.sim.now + freeze)
    dep.cluster.restart_host(host)
    dep.sim.run_until(dep.sim.now + 10.0)

    # too short a freeze for failure detection: same member, unfenced
    assert busy.node_id in dep.shard(0).controlets()
    assert not busy.retired
    assert not busy.snapshot_state()[busy_key]
    assert _settled_puts(dep, client, "after", 5) == 5
    assert not busy.snapshot_state()[busy_key]
