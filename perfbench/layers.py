"""Per-layer wall-clock attribution for the traced run.

:class:`LayerTracer` wraps public entry points of each ``repro`` package
from outside, for the load phase only, and keeps per-layer *self time*:
a wrapper's duration minus the durations of the wrapped calls nested
inside it.  ``Actor.deliver`` is attributed by the receiving actor's
package (migration requests on controlets count as ``cluster``), and each
step of a simulator process (``Simulator._step``, which resumes a
generator) by the package that defines the generator: that is where a
client op's request half runs, after ``KVClient.get``/``put`` have only
spawned it.  Call counts are exact: the traced run is checked to execute
the same events as the untraced one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.cluster.migrate import MigrationPump
from repro.client.kv import KVClient
from repro.datalet.hashtable import HashTableEngine
from repro.hashing import HashRing
from repro.net.actor import Actor
from repro.net.message import Message
from repro.net.simnet import ClientPort, SimCluster
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.resources import Server
from repro.workloads import Workload

__all__ = ["LayerTracer", "ENTRY_POINTS", "MIGRATION_TYPES"]

#: (owner class, method, layer, entry name) for every plain wrapper.
ENTRY_POINTS: List[Tuple[type, str, str, str]] = [
    (Simulator, "run_until", "sim", "kernel"),
    (Server, "submit", "sim", "cpu_submit"),
    (SimCluster, "route", "net", "route"),
    (Network, "send", "net", "send"),
    (Message, "size_bytes", "net", "size_bytes"),
    (HashTableEngine, "put", "datalet", "engine"),
    (HashTableEngine, "get", "datalet", "engine"),
    (HashTableEngine, "delete", "datalet", "engine"),
    (KVClient, "get", "client", "api"),
    (KVClient, "put", "client", "api"),
    (HashRing, "lookup", "hashing", "lookup"),
    (HashRing, "lookup_n", "hashing", "lookup"),
    (Workload, "next_op", "workloads", "next_op"),
    (MigrationPump, "feed", "cluster", "migrate"),
]

#: request types a controlet handles on behalf of a reshard.
MIGRATION_TYPES = frozenset({"reshard_migrate", "reshard_fence", "migrate_put"})


def _package(module: str) -> str:
    """The ``repro`` package a module belongs to; anything else (the
    benchmark's own session driver) is ``other``, which no metric reports."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def _deliver_layer(cls: type) -> str:
    """The receiving actor's ``repro`` package; client ports (defined in
    ``repro.net``) count as ``client``."""
    if issubclass(cls, ClientPort):
        return "client"
    return _package(cls.__module__)


def _step_layer(gen) -> str:
    """The package that defines a process's generator function."""
    frame = gen.gi_frame
    return _package(frame.f_globals.get("__name__", "") if frame is not None else "")


class LayerTracer:
    """Self time and call counts per (layer, entry), load phase only."""

    def __init__(self) -> None:
        #: (layer, entry) -> self seconds / calls
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        #: child-duration accumulators of the open wrapped calls
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[type, str, Callable]] = []
        self._deliver_layers: Dict[type, str] = {}
        self._step_layers: Dict[object, str] = {}

    def _account(self, key: Tuple[str, str], duration: float, children: float) -> None:
        self._stack[-1] += duration
        # a process step scheduled during the load phase keeps its wrapper
        # after uninstall(); only calls made while installed are counted
        if self._saved:
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - children
            self.calls[key] = self.calls.get(key, 0) + 1

    def _wrap(self, fn: Callable, key: Tuple[str, str]) -> Callable:
        stack, clock, account = self._stack, time.perf_counter, self._account

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                account(key, duration, stack.pop())

        return wrapper

    def _wrap_deliver(self, fn: Callable) -> Callable:
        stack, clock, account = self._stack, time.perf_counter, self._account
        layers = self._deliver_layers

        def deliver(actor, msg):
            cls = type(actor)
            layer = layers.get(cls)
            if layer is None:
                layer = layers[cls] = _deliver_layer(cls)
            if layer == "core" and msg.type in MIGRATION_TYPES:
                layer = "cluster"
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(actor, msg)
            finally:
                duration = clock() - t0
                account((layer, "deliver"), duration, stack.pop())

        return deliver

    def _wrap_step(self, fn: Callable) -> Callable:
        stack, clock, account = self._stack, time.perf_counter, self._account
        layers = self._step_layers

        def step(sim, gen, value, exc, done):
            code = gen.gi_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = _step_layer(gen)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(sim, gen, value, exc, done)
            finally:
                duration = clock() - t0
                account((layer, "step"), duration, stack.pop())

        return step

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers already installed")
        for owner, name, layer, entry in ENTRY_POINTS:
            fn = owner.__dict__[name]
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, (layer, entry)))
        fn = Actor.__dict__["deliver"]
        self._saved.append((Actor, "deliver", fn))
        Actor.deliver = self._wrap_deliver(fn)
        fn = Simulator.__dict__["_step"]
        self._saved.append((Simulator, "_step", fn))
        Simulator._step = self._wrap_step(fn)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------
    def layer_self_s(self, layer: str, entry: str = "") -> float:
        return sum(v for (l, e), v in self.self_s.items()
                   if l == layer and (not entry or e == entry))

    def layer_calls(self, layer: str, entry: str = "") -> int:
        return sum(v for (l, e), v in self.calls.items()
                   if l == layer and (not entry or e == entry))
