"""One repetition of a workload: set up, drive closed-loop load, quiesce.

The session driver is the benchmark's own, not ``LoadGenerator``: it
records each op's type with its simulated start and end, so latency is
exact per op type.  Everything simulated here is a pure function of the
seed; only the ``*_s`` wall-clock fields vary between repetitions.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import BespoError
from repro.harness import Deployment, DeploymentSpec
from repro.harness.loadgen import preload
from repro.harness.stats import collect_registry
from repro.sim import CostModel

from hostspeed import PROBE_GAP_S, HostSpeed
from specs import CPU_SCALE, WorkloadSpec, preload_items, session_workload

__all__ = ["Failure", "SessionDriver", "Setup", "Rep", "set_up", "drive", "shard_contents",
           "percentile"]

#: sim seconds allowed for in-flight ops to finish after the load stops.
DRAIN_LIMIT = 60.0
#: sim seconds allowed for eventual replicas to converge after the drain.
CONVERGE_LIMIT = 120.0
#: the load phase runs in slices of this many sim seconds, with a
#: host-speed probe between slices every PROBE_GAP_S wall seconds.  Back
#: to back ``run_until`` calls execute exactly the events one call would.
SLICE = 0.05
#: probes taken before and after each set-up.
SETUP_PROBES = 3


@dataclass(frozen=True)
class Failure:
    """One op that raised to the caller; times are sim seconds from load
    start."""

    op: str
    key: str
    started: float
    ended: float
    error: str
    detail: str
    #: the map epoch of the issuing client when the op raised.
    epoch: int

    def __str__(self) -> str:
        return (f"{self.op} {self.key} ({self.started:.3f}-{self.ended:.3f} sim-s, "
                f"client epoch {self.epoch}): {self.error}: {self.detail}")


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list (0 < q <= 1)."""
    return samples[max(0, math.ceil(q * len(samples)) - 1)]


class SessionDriver:
    """Closed-loop sessions with exact per-op-type latency samples."""

    def __init__(self, sim, start: float, spec: WorkloadSpec, legal_values: set):
        self.sim = sim
        self.start = start
        self.window_start = start + spec.warmup
        self.end = start + spec.end
        self.legal_values = legal_values
        self.running = True
        self.active = 0
        self.attempted = 0
        #: every op that raised to the caller, whatever it raised.
        self.failures: List[Failure] = []
        #: ops completed by ``end`` (warm-up included): the load phase.
        self.completed = 0
        #: ops whose result was not a value ever written.
        self.bad_reads = 0
        #: sim latency of ops completed inside the window, by type.
        self.latency: Dict[str, List[float]] = {"get": [], "put": []}
        #: completions per whole sim second since load start.
        self.per_second: Dict[int, int] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def not_found(self) -> int:
        """Gets that raised ``KeyNotFound``; every key is preloaded."""
        return sum(1 for f in self.failures if f.error == "KeyNotFound")

    def _fail(self, op, t0: float, exc: Exception, client) -> None:
        self.failures.append(Failure(op[0], op[1], t0 - self.start, self.sim.now - self.start,
                                     type(exc).__name__, str(exc), client.map.epoch))

    def session(self, client, workload):
        sim = self.sim
        self.active += 1
        try:
            while self.running:
                op = workload.next_op()
                self.attempted += 1
                t0 = sim.now
                try:
                    if op[0] == "get":
                        value = yield client.get(op[1])
                        if value not in self.legal_values:
                            self.bad_reads += 1
                    else:
                        yield client.put(op[1], op[2])
                except BespoError as exc:
                    self._fail(op, t0, exc, client)
                    continue
                except Exception as exc:
                    # a crash in client or store code: record it and end
                    # the session, which fails the correctness gate
                    self._fail(op, t0, exc, client)
                    return
                t1 = sim.now
                if t1 > self.end:
                    continue
                self.completed += 1
                second = int(t1 - self.start)
                self.per_second[second] = self.per_second.get(second, 0) + 1
                if t1 >= self.window_start:
                    self.latency[op[0]].append(t1 - t0)
        finally:
            self.active -= 1


@dataclass
class Setup:
    """A deployed, preloaded cluster with connected clients and built
    session generators, ready to drive."""

    spec: WorkloadSpec
    dep: Deployment
    recorder: Any
    items: Dict[str, str]
    workloads: List[Any]
    clients: List[Any]
    #: wall seconds: the whole set-up, and its preload and generator parts
    setup_s: float
    preload_s: float
    build_s: float
    #: reference-host seconds per host second around the set-up
    host_factor: float


@dataclass
class Rep:
    """Everything one repetition measured."""

    setup: Setup
    driver: SessionDriver
    reshard: Dict[str, Any]
    #: wall seconds of the load phase, probes excluded
    load_wall_s: float
    #: reference-host seconds per host second during the load phase
    host_factor: float
    #: exact counts over the load phase
    events: int
    msgs: int
    bytes: int
    registry_before: Dict[str, Any]
    registry_after: Dict[str, Any]
    #: sim seconds after the load phase until every shard's replicas matched
    converge_s: float
    drained: bool

    @property
    def spec(self) -> WorkloadSpec:
        return self.setup.spec

    @property
    def dep(self) -> Deployment:
        return self.setup.dep


def set_up(spec: WorkloadSpec, seed: int, traced: bool = False) -> Setup:
    """Deploy and start, preload, build every session's generator and
    connect the clients; ``traced`` attaches the cluster's span recorder."""
    gc.collect()
    host = HostSpeed()
    host.sample(SETUP_PROBES)
    t_setup = time.perf_counter()
    dep = Deployment(DeploymentSpec(
        shards=spec.shards, replicas=3, topology=spec.topology,
        consistency=spec.consistency, datalet_kinds=("ht",),
        costs=CostModel(cpu_scale=CPU_SCALE), standbys=1, seed=seed,
    ))
    recorder = dep.cluster.attach_obs() if traced else None
    dep.start()
    sim = dep.sim

    t0 = time.perf_counter()
    items = preload_items(spec, seed)
    preload(dep, items)
    preload_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    workloads = [session_workload(spec, seed, i) for i in range(spec.sessions)]
    build_s = time.perf_counter() - t0

    clients = [dep.client(f"bench{i}") for i in range(spec.clients)]
    sim.run_future(sim.gather([c.connect() for c in clients]))
    setup_s = time.perf_counter() - t_setup
    host.sample(SETUP_PROBES)
    return Setup(spec=spec, dep=dep, recorder=recorder, items=items,
                 workloads=workloads, clients=clients, setup_s=setup_s,
                 preload_s=preload_s, build_s=build_s, host_factor=host.factor)


def shard_contents(dep: Deployment) -> Dict[str, List[Dict[str, str]]]:
    """Each shard's engine contents, one dict per replica."""
    return {sid: [dict(dep.cluster.actor(r.datalet).engine.snapshot())
                  for r in dep.map.shard(sid).ordered()]
            for sid in dep.map.shard_ids()}


def _replicas_match(dep: Deployment) -> bool:
    return all(all(s == snaps[0] for s in snaps[1:])
               for snaps in shard_contents(dep).values())


def drive(setup: Setup, layers: Optional[Any] = None) -> Rep:
    """Run the load phase, then stop the sessions and quiesce.

    ``layers`` (a :class:`layers.LayerTracer`) is installed for the load
    phase only."""
    spec, dep = setup.spec, setup.dep
    sim = dep.sim
    legal = set(setup.items.values())
    for wl in setup.workloads:
        legal.update(wl._value_pool)
    start = sim.now
    driver = SessionDriver(sim, start, spec, legal)
    for i, wl in enumerate(setup.workloads):
        sim.spawn(driver.session(setup.clients[i // spec.sessions_per_client], wl))
    reshard: Dict[str, Any] = {}
    if spec.reshard_at is not None:
        def do_reshard():
            reshard["requested_at"] = sim.now - start
            stats = yield dep.request_reshard("add")
            reshard.update(stats)
            reshard["committed_at"] = sim.now - start
        sim.call_at(start + spec.reshard_at, lambda: sim.spawn(do_reshard()))

    events0 = sim.events_processed
    net = dep.cluster.network
    msgs0, bytes0 = net.messages_sent, net.bytes_sent
    registry_before = collect_registry(dep)
    host = HostSpeed()
    host.sample()
    clock = time.perf_counter
    load_wall_s = since_probe = 0.0
    if layers is not None:
        layers.install()
    try:
        while sim.now < driver.end:
            t0 = clock()
            sim.run_until(min(sim.now + SLICE, driver.end))
            elapsed = clock() - t0
            load_wall_s += elapsed
            since_probe += elapsed
            if since_probe >= PROBE_GAP_S:
                host.sample()
                since_probe = 0.0
    finally:
        if layers is not None:
            layers.uninstall()
    host.sample()
    events = sim.events_processed - events0
    msgs, nbytes = net.messages_sent - msgs0, net.bytes_sent - bytes0
    registry_after = collect_registry(dep)

    # stop issuing and let in-flight ops finish; then wait, a sim second
    # at a time, until every shard's replicas hold the same contents
    driver.running = False
    limit = sim.now + DRAIN_LIMIT
    while driver.active and sim.now < limit:
        sim.run_until(sim.now + 0.5)
    limit = sim.now + CONVERGE_LIMIT
    while not _replicas_match(dep) and sim.now < limit:
        sim.run_until(sim.now + 1.0)
    converge_s = sim.now - driver.end

    return Rep(setup=setup, driver=driver, reshard=reshard, load_wall_s=load_wall_s,
               host_factor=host.factor, events=events, msgs=msgs, bytes=nbytes,
               registry_before=registry_before, registry_after=registry_after,
               converge_s=converge_s, drained=driver.active == 0)
