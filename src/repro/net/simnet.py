"""Simulated cluster transport: actors + network model + per-host CPUs.

This is where protocol code meets the discrete-event kernel.  Every
actor (controlet, datalet, coordinator, DLM, shared-log node) is placed
on a *host*; colocated actors (the paper's 1:1 controlet-datalet pair on
one VM) share that host's CPU :class:`~repro.sim.resources.Server` and
talk over loopback.  Message delivery charges the receiving host:

    network delay  →  [CPU: per-message stack cost + actor.service_demand]  →  handler

so saturation throughput per node and queueing delay under load are
emergent properties of the cost model, not scripted numbers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import BespoError
from repro.net.actor import Actor
from repro.net.message import Message
from repro.obs.metrics import MetricsRegistry
from repro.sim import (
    DEFAULT_COSTS,
    CostModel,
    DurableStore,
    Network,
    NetworkParams,
    RngRegistry,
    Server,
    SimFuture,
    Simulator,
)

__all__ = ["SimCluster", "ClientPort"]

#: vCPUs per host, matching the paper's n1-standard-4 instances.
DEFAULT_HOST_CPUS = 4


class _Host:
    __slots__ = ("name", "cpu", "dpdk", "free", "actors")

    def __init__(self, name: str, cpu: Server, dpdk: bool, free: bool):
        self.name = name
        self.cpu = cpu
        self.dpdk = dpdk
        self.free = free
        self.actors: list[str] = []


class _NodeCtx:
    """Per-actor runtime services bound to one cluster."""

    __slots__ = ("node_id", "_cluster")

    def __init__(self, node_id: str, cluster: "SimCluster"):
        self.node_id = node_id
        self._cluster = cluster

    def transmit(self, msg: Message) -> None:
        self._cluster.route(msg)

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Any:
        tracer = self._cluster.race_tracer
        if tracer is None:
            return self._cluster.sim.call_later(delay, fn)
        node_id = self.node_id
        label = f"timer:{getattr(fn, 'timer_label', 'fn')}"

        def traced() -> None:
            tracer.record_access(node_id, label)
            fn()

        # keep the label visible to kernel introspection (armed_events)
        traced.timer_label = getattr(fn, "timer_label", "fn")  # type: ignore[attr-defined]
        return self._cluster.sim.call_later(delay, traced)

    def now(self) -> float:
        return self._cluster.sim.now


class ClientPort(Actor):
    """Load-generator endpoint: issues requests, awaits responses.

    Runs on a *free* host (no CPU charge) because the paper saturates
    servers from a separately provisioned, oversized client cluster.
    """

    def __init__(self, node_id: str):
        super().__init__(node_id)

    def request(
        self,
        dst: str,
        type: str,
        payload: Dict[str, Any] | None = None,
        timeout: Optional[float] = None,
        ctx: Any = None,
    ) -> SimFuture:
        """Send a request; the returned future resolves with the response
        :class:`Message` or raises :class:`RequestTimeout`.

        ``ctx`` is the client's :class:`~repro.obs.context.RequestContext`
        (request identity + tracing); it rides the message envelope end
        to end."""
        if self._ctx is None:
            raise BespoError(f"port {self.node_id} not attached")
        fut: SimFuture = self._ctx._cluster.sim.create_future()  # type: ignore[attr-defined]

        def done(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None:
                fut.set_exception(err)
            else:
                fut.set_result(resp)

        self.call(dst, type, payload, callback=done, timeout=timeout, ctx=ctx)
        return fut


class SimCluster:
    """Container wiring actors, hosts, the network and the clock."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        costs: CostModel = DEFAULT_COSTS,
        net_params: Optional[NetworkParams] = None,
        seed: int = 0,
    ):
        self.sim = sim or Simulator()
        self.costs = costs
        self.rng = RngRegistry(seed)
        self.network = Network(self.sim, net_params or NetworkParams(), self.rng)
        self._hosts: Dict[str, _Host] = {}
        self._actors: Dict[str, Actor] = {}
        self._actor_host: Dict[str, str] = {}
        self._started = False
        #: optional :class:`repro.analysis.races.RaceDetector`; see
        #: :meth:`attach_race_detector`.
        self.race_tracer: Optional[Any] = None
        #: optional :class:`repro.net.sanitize.PayloadSanitizer`; see
        #: :meth:`attach_sanitizer`.
        self.sanitizer: Optional[Any] = None
        #: optional :class:`repro.obs.trace.SpanRecorder`; see
        #: :meth:`attach_obs`.
        self.obs: Optional[Any] = None
        #: always-on metrics plane; actors' live stats dicts are
        #: registered as scrape groups in :meth:`add_actor` and read only
        #: when a snapshot is taken (harness.stats.collect_registry).
        self.metrics = MetricsRegistry()
        #: per-host durable stores (created on first use); owned by the
        #: cluster — NOT by actors — so a crash-restart can tear a
        #: host's actors down and re-spawn fresh ones that recover from
        #: the surviving store.  ``kill_host`` applies power-loss damage.
        self._durable: Dict[str, DurableStore] = {}
        #: loss policy for unsynced bytes on crash (see sim.durable).
        self.durable_loss = "partial"

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        cpus: int = DEFAULT_HOST_CPUS,
        dpdk: bool = False,
        free: bool = False,
    ) -> str:
        """Create a host (a VM in the paper's deployments)."""
        if name in self._hosts:
            raise BespoError(f"duplicate host {name!r}")
        self._hosts[name] = _Host(name, Server(self.sim, cpus, f"cpu:{name}"), dpdk, free)
        return name

    def add_actor(self, actor: Actor, host: Optional[str] = None) -> Actor:
        """Place ``actor`` on ``host`` (auto-created if missing).

        May be called mid-simulation — that is exactly how the failover
        manager launches standby controlet-datalet pairs.
        """
        if actor.node_id in self._actors:
            raise BespoError(f"duplicate actor id {actor.node_id!r}")
        host = host or actor.node_id
        if host not in self._hosts:
            self.add_host(host)
        self._hosts[host].actors.append(actor.node_id)
        self._actors[actor.node_id] = actor
        self._actor_host[actor.node_id] = host
        actor.attach(_NodeCtx(actor.node_id, self))
        actor._obs = self.obs
        actor._metrics = self.metrics
        # metrics scrape source: an explicit metrics_group() hook wins,
        # else a plain live `stats` dict (controlets) is registered as-is
        group = getattr(actor, "metrics_group", None)
        if callable(group):
            self.metrics.register_group(actor.node_id, group)
        else:
            stats = getattr(actor, "stats", None)
            if isinstance(stats, dict):
                self.metrics.register_group(actor.node_id, stats)
        if self.network.params.duplicate_rate > 0.0:
            # the fabric may deliver a message twice; actors dedup by
            # msg_id like a TCP receive window would
            actor.dedup_incoming = True
        if self._started:
            self.sim.call_soon(actor.on_start)
        return actor

    def add_port(self, name: str) -> ClientPort:
        """Create a load-generator endpoint on its own free host."""
        port = ClientPort(name)
        if name not in self._hosts:
            self.add_host(name, cpus=1, free=True)
        self.add_actor(port, host=name)
        return port

    def start(self) -> None:
        """Invoke ``on_start`` on every actor (in placement order)."""
        self._started = True
        for actor in list(self._actors.values()):
            self.sim.call_soon(actor.on_start)

    def attach_race_detector(self, detector: Any) -> None:
        """Instrument this cluster for schedule-sensitivity detection.

        Installs ``detector`` as the kernel event tracer and records an
        access for every message delivery and timer callback.  Attach
        **before** :meth:`start` so boot timers are covered too.  See
        :mod:`repro.analysis.races`.
        """
        self.race_tracer = detector
        self.sim.add_tracer(detector)

    def attach_sanitizer(self, sanitizer: Optional[Any] = None) -> Any:
        """Enable copy-on-send payload checking on this cluster.

        Every message entering :meth:`route` is digest-stamped; on
        delivery the digest is re-verified (catching senders that mutate
        a payload already in flight) and the receiver gets a recursively
        frozen view (catching handlers that stash and later mutate a
        received dict).  See :mod:`repro.net.sanitize`.
        """
        if sanitizer is None:
            from repro.net.sanitize import PayloadSanitizer  # local: optional feature

            sanitizer = PayloadSanitizer()
        self.sanitizer = sanitizer
        return sanitizer

    def attach_obs(self, recorder: Optional[Any] = None) -> Any:
        """Enable end-to-end span tracing on this cluster.

        Installs ``recorder`` (default: a fresh
        :class:`~repro.obs.trace.SpanRecorder` on this cluster's clock)
        on every current and future actor.  Attach **before**
        :meth:`start` so boot-time requests are covered.  Without a
        recorder the fabric's span hooks are single ``is None`` tests —
        tracing off costs no allocations on the message hot path.
        """
        if recorder is None:
            from repro.obs.trace import SpanRecorder  # local: optional feature

            recorder = SpanRecorder(self.sim)
        self.obs = recorder
        for actor in self._actors.values():
            actor._obs = recorder
        return recorder

    # ------------------------------------------------------------------
    # durable storage
    # ------------------------------------------------------------------
    def durable_store(self, host: str) -> DurableStore:
        """The (lazily created) durable store of ``host``."""
        store = self._durable.get(host)
        if store is None:
            store = DurableStore(
                host,
                self.rng.stream(f"durable.{host}"),
                unsynced_loss=self.durable_loss,
            )
            self._durable[host] = store
        return store

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def actor(self, node_id: str) -> Actor:
        return self._actors[node_id]

    def host_of(self, node_id: str) -> str:
        return self._actor_host[node_id]

    def host_cpu(self, host: str) -> Server:
        return self._hosts[host].cpu

    @property
    def actors(self) -> Dict[str, Actor]:
        return dict(self._actors)

    # ------------------------------------------------------------------
    # message routing
    # ------------------------------------------------------------------
    def route(self, msg: Message) -> None:
        """Deliver ``msg`` honoring network delay and destination CPU."""
        dst_actor = self._actors.get(msg.dst)
        if dst_actor is None:
            # Unknown destination behaves like a dead peer: silently
            # dropped; the sender's timeout fires.
            return
        src_host = self._actor_host.get(msg.src, msg.src)
        dst_host = self._actor_host[msg.dst]
        nbytes = msg.size_bytes()
        if self.sanitizer is not None:
            self.sanitizer.on_send(msg)
        if self.obs is not None and msg.ctx is not None and msg.ctx.trace_id is not None:
            net_span = self.obs.begin(msg.ctx, f"net:{msg.type}", msg.src)
        else:
            net_span = None

        if (net_span is None and self.sanitizer is None
                and self.race_tracer is None):
            # Fast path for saturated benchmark runs: no observability
            # plane attached, so skip the per-arrival branch ladder and
            # build the smallest possible closure.
            hosts = self._hosts
            costs = self.costs

            def on_arrival_fast() -> None:
                host = hosts[dst_host]
                if host.free:
                    dst_actor.deliver(msg)
                    return
                demand = costs.msg_cost(dpdk=host.dpdk) + dst_actor.service_demand(msg, costs)
                host.cpu.submit(demand).add_done_callback(
                    lambda _f: dst_actor.deliver(msg))

            self.network.send(src_host, dst_host, nbytes, on_arrival_fast)
            return

        def on_arrival() -> None:
            if self.sanitizer is not None:
                self.sanitizer.on_deliver(msg)
            if self.race_tracer is not None:
                # Attribute the touch at *arrival*: the destination's CPU
                # queue order — and therefore handler order — is fixed the
                # moment the message lands, so two same-timestamp arrivals
                # at one actor are exactly the schedule-sensitive pair the
                # detector is after.
                self.race_tracer.record_access(msg.dst, f"deliver:{msg.type}")
            if net_span is not None:
                self.obs.end(net_span, "ok")
            host = self._hosts[dst_host]
            if host.free:
                dst_actor.deliver(msg)
                return
            demand = self.costs.msg_cost(dpdk=host.dpdk) + dst_actor.service_demand(msg, self.costs)
            if net_span is not None:
                # receiver-side dispatch: CPU queueing + service time
                # before the handler runs (the "controlet dispatch" /
                # "datalet service" stages of the breakdown)
                cpu_span = self.obs.begin(msg.ctx, f"cpu:{msg.type}", msg.dst)

                def dispatched(_f: Any) -> None:
                    self.obs.end(cpu_span, "ok")
                    dst_actor.deliver(msg)

                host.cpu.submit(demand).add_done_callback(dispatched)
            else:
                host.cpu.submit(demand).add_done_callback(lambda _f: dst_actor.deliver(msg))

        self.network.send(src_host, dst_host, nbytes, on_arrival)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill_actor(self, node_id: str) -> None:
        """Crash one actor: no more sends, receives or timer callbacks."""
        actor = self._actors.get(node_id)
        if actor is None or not actor.alive:
            return
        actor.alive = False
        actor.on_stop()

    def kill_host(self, host: str) -> None:
        """Crash a whole VM: every colocated actor dies and the network
        drops its traffic (paper's node-failure experiments).  The
        host's durable store (if any) takes power-loss damage: staged
        writes vanish and the unsynced suffix of every file is torn per
        the loss policy — fsynced bytes always survive."""
        h = self._hosts.get(host)
        if h is None:
            raise BespoError(f"unknown host {host!r}")
        self.network.kill(host)
        for node_id in h.actors:
            self.kill_actor(node_id)
        store = self._durable.get(host)
        if store is not None:
            store.on_crash(self.sim.now)

    def remove_actor(self, node_id: str) -> None:
        """Tear an actor down completely so a fresh instance may be
        added under the same id (crash-restart respawn).  Unlike
        :meth:`kill_actor` this forgets the object: its in-memory state
        is gone for good — recovery must come from durable storage."""
        actor = self._actors.pop(node_id, None)
        if actor is None:
            return
        if actor.alive:
            actor.alive = False
            actor.on_stop()
        host = self._actor_host.pop(node_id, None)
        if host is not None and host in self._hosts:
            try:
                self._hosts[host].actors.remove(node_id)
            except ValueError:
                pass

    def restart_host(self, host: str) -> None:
        """Bring a crashed VM back: network traffic resumes and every
        colocated actor re-runs its start hooks (``on_restart``).  The
        actors keep their in-memory state — a restart models a process
        that froze and thawed, so protocol code must *fence* itself
        until it has confirmed its role is still valid.  Calls a thawed
        actor still has outstanding time out first
        (:meth:`~repro.net.actor.Actor.expire_calls`): their replies and
        timeout timers were lost while it was down."""
        h = self._hosts.get(host)
        if h is None:
            raise BespoError(f"unknown host {host!r}")
        if not self.network.is_dead(host):
            return
        self.network.revive(host)
        for node_id in h.actors:
            actor = self._actors[node_id]
            if not actor.alive:
                actor.alive = True
                self.sim.call_soon(self._thaw, actor)

    @staticmethod
    def _thaw(actor: Actor) -> None:
        actor.expire_calls()
        actor.on_restart()

    def set_host_slowdown(self, host: str, factor: float) -> None:
        """Degrade (or restore, with factor=1) a host's CPU service rate
        — the chaos ``slow_node`` fault."""
        h = self._hosts.get(host)
        if h is None:
            raise BespoError(f"unknown host {host!r}")
        h.cpu.set_slowdown(factor)

    def hosts(self) -> list[str]:
        return list(self._hosts)

    def is_host_alive(self, host: str) -> bool:
        return not self.network.is_dead(host)
