"""Extended topologies (paper §IV-E) — synthesized from the pre-built
controlets, demonstrating the framework's extensibility claim.

* **AA-MS hybrid** — "an MS topology for each shard on top of the
  logical AA overlay": several *masters* accept writes and order them
  through the shared log (AA+EC machinery), and each master owns a set
  of *slaves* it propagates to asynchronously (MS+EC machinery).
  :class:`AAMSHybridControlet` is literally the AA+EC controlet with
  the MS+EC propagation mixin bolted on — ~40 lines.

* **P2P** — "clients send a request to any controlet, which then routes
  the request to the actual controlet that manages the requested data.
  In this case, a controlet needs to maintain a routing map similar to
  a finger table": :class:`P2PNode` implements Chord-style routing —
  each node keeps ``log2(ring)`` fingers and greedily forwards to the
  closest preceding finger, reaching the owner in O(log n) hops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.aa_ec import AAEventualControlet
from repro.core.controlet import Pump
from repro.datalet import Engine, HashTableEngine
from repro.errors import BespoError, KeyNotFound
from repro.hashing import stable_hash
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["AAMSHybridControlet", "P2PNode", "chord_distance"]


class AAMSHybridControlet(AAEventualControlet):
    """Active master with its own asynchronously-replicated slaves.

    ``slaves`` are controlet ids that understand ``replicate`` batches
    (plain :class:`~repro.core.ms_ec.MSEventualControlet` instances work
    as-is — reuse, per the paper's §IV pitch)."""

    def __init__(self, *args, slaves: Optional[List[str]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.slaves = slaves or []
        self._backlog: List[Dict[str, Optional[str]]] = []
        self._flush_armed = False
        #: one replicate frame in flight per slave link (lazily built in
        #: :meth:`_slave_pump`); frames queued behind a slow slave stay
        #: here instead of flooding the fabric.
        self._slave_pumps: Dict[str, Pump] = {}
        #: sequence stream for our slaves (MS+EC replicate protocol)
        self._slave_seq = 0
        self.propagated = 0

    def _apply_entries(self, entries) -> None:
        fresh = [d for d in entries if int(d["pos"]) >= self.cursor]
        super()._apply_entries(entries)
        # Slaves are fed exclusively from the replay path — *including*
        # our own writes — so they observe mutations in log order; the
        # accept path's order differs from the log's under concurrent
        # masters and would leave slaves divergent.  The log entry's rid
        # rides along so slaves inherit the request identity too.
        for d in fresh:
            self._enqueue(d["op"], d["key"], d["value"], d.get("rid"))

    def _enqueue(self, op: str, key: str, val: Optional[str],
                 rid: Optional[str] = None) -> None:
        if not self.slaves:
            return
        entry: Dict[str, Optional[str]] = {"op": op, "key": key, "val": val}
        if rid is not None:
            entry["rid"] = rid
        self._backlog.append(entry)
        if len(self._backlog) >= self.config.ec_batch_max:
            self._flush()
        elif not self._flush_armed:
            self._flush_armed = True
            self.set_timer(self.config.ec_batch_interval, self._flush_tick)

    def _flush_tick(self) -> None:
        self._flush_armed = False
        self._flush()

    def _slave_pump(self, slave: str) -> Pump:
        pump = self._slave_pumps.get(slave)
        if pump is None:

            def issue(frame: Dict[str, object], done: Callable[[], None],
                      _slave: str = slave) -> None:
                # The ack is pure flow control, same discipline as
                # ms_ec._issue_replicate: a dropped or timed-out frame is
                # not retried here — the slave's gap-repair anti-entropy
                # re-fetches anything it carried.  One-in-flight per
                # link is what bounds the fan-out: a slow slave queues
                # frames at its pump instead of flooding the fabric.
                def acked(resp: Optional[Message],
                          err: Optional[BespoError]) -> None:
                    done()

                self.call(_slave, "replicate", frame, callback=acked,
                          timeout=self.config.replication_timeout)

            pump = Pump(issue)
            self._slave_pumps[slave] = pump
        return pump

    def _flush(self) -> None:
        if not self._backlog:
            return
        batch, self._backlog = self._backlog, []
        start_seq = self._slave_seq
        self._slave_seq += len(batch)
        for slave in self.slaves:
            # per-slave copies, op dicts included: the fabric passes
            # payloads by reference and a serializing network would
            # never hand two receivers the same ops list
            self._slave_pump(slave).push({
                "master": self.node_id,
                "start_seq": start_seq,
                "ops": [dict(op) for op in batch],
            })
        self.propagated += len(batch)


# ---------------------------------------------------------------------------
# Chord-style P2P routing
# ---------------------------------------------------------------------------
RING_BITS = 64
RING = 1 << RING_BITS


def chord_distance(a: int, b: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ring."""
    return (b - a) % RING


class P2PNode(Actor):
    """One peer: local storage + finger-table request routing.

    The node owning a key is the first node clockwise of the key's hash
    (its *successor*).  Any node accepts any request; non-owners forward
    to the closest preceding finger, halving the remaining ring distance
    each hop.  ``hops`` is carried in the payload so tests can assert
    the O(log n) bound.
    """

    def __init__(self, node_id: str, members: List[str], engine: Optional[Engine] = None):
        super().__init__(node_id)
        self.engine = engine or HashTableEngine()
        self.members = sorted(members, key=stable_hash)
        self.position = stable_hash(node_id)
        self.fingers = self._build_fingers()
        self.forwards = 0
        for op in ("put", "get", "del"):
            self.register(op, self._route)

    def service_demand(self, msg: Message, costs) -> float:
        return costs.scaled("controlet_overhead")

    # -- routing table ---------------------------------------------------
    def _successor_of(self, point: int) -> str:
        """First member clockwise of ``point``."""
        best, best_d = None, RING
        for m in self.members:
            d = chord_distance(point, stable_hash(m))
            if d < best_d:
                best, best_d = m, d
        assert best is not None
        return best

    def _build_fingers(self) -> List[Tuple[int, str]]:
        """finger[i] = successor(self.position + 2^i), deduplicated."""
        fingers: List[Tuple[int, str]] = []
        seen = set()
        for i in range(RING_BITS):
            point = (self.position + (1 << i)) % RING
            owner = self._successor_of(point)
            if owner not in seen and owner != self.node_id:
                seen.add(owner)
                fingers.append((stable_hash(owner), owner))
        return fingers

    def owner_of(self, key: str) -> str:
        return self._successor_of(stable_hash(key))

    def _closest_preceding(self, point: int) -> str:
        """Classic Chord greedy step: among fingers strictly between us
        and ``point`` (clockwise), pick the one closest to ``point``.
        The progress constraint (finger ahead of us but before the
        target) guarantees termination; if no finger qualifies we are
        one hop away and forward straight to the owner."""
        self_to_point = chord_distance(self.position, point)
        best: Optional[str] = None
        best_ahead = 0
        for pos, owner in self.fingers:
            ahead = chord_distance(self.position, pos)
            if 0 < ahead < self_to_point and ahead > best_ahead:
                best, best_ahead = owner, ahead
        return best if best is not None else self._successor_of(point)

    # -- request handling -------------------------------------------------
    def _route(self, msg: Message) -> None:
        key = msg.payload["key"]
        owner = self.owner_of(key)
        if owner == self.node_id:
            self._serve(msg)
            return
        self.forwards += 1
        fwd_payload = dict(msg.payload)
        fwd_payload["hops"] = fwd_payload.get("hops", 0) + 1
        fwd = Message(type=msg.type, payload=fwd_payload, src=msg.src,
                      dst=self._closest_preceding(stable_hash(key)),
                      msg_id=msg.msg_id, reply_to=msg.reply_to, ctx=msg.ctx)
        self._transmit(fwd)

    def _serve(self, msg: Message) -> None:
        hops = msg.payload.get("hops", 0)
        try:
            if msg.type == "put":
                self.engine.put(msg.payload["key"], msg.payload["val"])
                self.respond(msg, "ok", {"hops": hops})
            elif msg.type == "get":
                val = self.engine.get(msg.payload["key"])
                self.respond(msg, "value", {"val": val, "hops": hops})
            else:
                self.engine.delete(msg.payload["key"])
                self.respond(msg, "ok", {"hops": hops})
        except KeyNotFound:
            self.respond(msg, "error", {"error": "not_found", "key": msg.payload["key"],
                                        "hops": hops})
