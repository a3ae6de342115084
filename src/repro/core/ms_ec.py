"""MS+EC controlet: Master-Slave topology, Eventual Consistency via
asynchronous propagation (paper App C-A, Fig 15a).

The master commits to its local datalet and acks the client
immediately; mutations are buffered and propagated to slaves in
batches ("data is replicated asynchronously in batch mode from master
to slaves", §VI-A).  Any replica serves reads, so reads scale with the
replica count — the property that makes MS+EC match AA+EC on
read-heavy workloads in Fig 12.

**Anti-entropy** (App C-C mentions anti-entropy/reconciliation as the
standard companion of asynchronous replication): batches carry dense
per-master sequence numbers.  A slave that detects a gap — dropped
batches during a partition, a crashed-and-restarted link — requests a
resend from the master's retained-ops window; if the gap predates the
window, the master falls back to a full snapshot sync.  Slaves
therefore converge after arbitrary message loss, not just in the
fault-free case.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.controlet import Controlet, Pump
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["MSEventualControlet"]

#: retained-ops window for resends before snapshot fallback.
RETAIN_LIMIT = 8192


class MSEventualControlet(Controlet):
    """Async-propagation controlet with gap-repair anti-entropy."""

    write_redirect_why = "writes go to the master"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -- master state ---------------------------------------------
        #: accepted client writes awaiting their local apply, in
        #: acceptance order; coalesced into one ``apply_batch`` at a
        #: time (:meth:`_issue_accepts`).
        self._accepts = Pump(self._issue_accepts, batch=max(1, self.config.ec_batch_max))
        #: buffered (op, key, val, rid) awaiting propagation.
        self._backlog: List[Tuple[str, str, Optional[str], Optional[str]]] = []
        self._flush_timer_armed = False
        #: next sequence number to assign to a propagated op.
        self._seq = 0
        #: stream identity slaves track sequence numbers against.
        #: Normally our node id; a durable *rejoin* of the master mints
        #: a fresh incarnation (see :meth:`on_start`) because the old
        #: counters died with the process — continuing as the same
        #: stream would make every new batch look like a stale
        #: duplicate to the slaves' cursors.
        self._stream_id = self.node_id
        #: recent ops window for resends: (seq, op_dict).
        self._retained: Deque[Tuple[int, Dict[str, Optional[str]]]] = deque(
            maxlen=RETAIN_LIMIT
        )
        self.propagated = 0
        self.resends_served = 0
        self.snapshot_syncs_served = 0
        #: per-peer link pumps over ``(seq, op)`` items: one replicate
        #: frame in flight per peer; everything flushed meanwhile rides
        #: the next frame (:meth:`_issue_replicate`).
        self._peer_pumps: Dict[str, Pump] = {}
        self.replicate_frames = 0
        self.replicate_frame_ops = 0
        # -- slave state --------------------------------------------------
        #: (stream identity, next expected sequence).
        self._stream: Tuple[Optional[str], int] = (None, 0)
        self._repair_pending = False
        self.applied_from_master = 0
        self.gaps_detected = 0
        #: replicated batches waiting for the datalet, in stream order,
        #: one in flight (:meth:`_issue_apply`).
        self._applies = Pump(self._issue_apply)
        if self.rejoining and self._view_says_head():
            # A rejoining EC *master* is the authority for acked data:
            # its WAL holds acked-but-never-propagated writes that no
            # slave can supply, so a peer pull (which reset-restores)
            # would silently drop durable acks.  Recover from local
            # state alone; slaves resync against the fresh incarnation.
            self.recovery_source = None
            self.recovered = True
            # seq 0 is never assigned/retained: a slave resyncing the
            # new incarnation from 0 misses the retained window and
            # falls through to the snapshot path — which is what
            # carries the recovered unpropagated writes back out.
            self._seq = 1
        self.register("replicate", self._on_replicate)
        self.register("resend_request", self._on_resend_request)
        # NB: "sync_snapshot" is deliberately NOT registered — it only
        # exists as a *response* to resend_request, consumed by the
        # _request_repair callback.  A response that misses its pending
        # callback (late, after timeout) is dropped by Actor.deliver
        # before handler dispatch, so a registration could never fire.
        self.register("ec_sync_pull", self._on_ec_sync_pull)
        self.register("seq_probe", self._on_seq_probe)

    # ------------------------------------------------------------------
    # periodic anti-entropy
    # ------------------------------------------------------------------
    def _view_says_head(self) -> bool:
        """Whether our spawn-time shard view names us as master."""
        try:
            return self.shard.head.controlet == self.node_id
        except Exception:  # noqa: BLE001 - empty view during transitions
            return False

    def on_start(self) -> None:
        if self.rejoining and self._view_says_head():
            # Mint the fresh incarnation for this boot.  Sim time is
            # deterministic and strictly increasing across rejoins of
            # the same node, so the identity is both unique and
            # reproducible run-to-run.
            self._stream_id = f"{self.node_id}@{self.now():.6f}"
        super().on_start()
        # An immediate first tick is useless (nothing replicated yet);
        # arm with a stable phase so this loop and the heartbeat — same
        # 1s period, both starting at boot — never fire at one timestamp.
        self.set_timer(
            self.loop_phase("anti-entropy", self.config.replication_timeout),
            self._anti_entropy_tick,
        )

    def _anti_entropy_tick(self) -> None:
        """Tail-of-stream repair: a gap is normally detected when the
        *next* batch arrives, but if the final batches of a burst are
        lost there is no next batch.  Slaves therefore periodically
        compare their cursor against the master's sequence counter."""
        self.set_timer(self.config.replication_timeout, self._anti_entropy_tick)
        if self.retired or not self.recovered or self.is_head:
            return
        try:
            master_id = self.shard.head.controlet
        except Exception:  # noqa: BLE001 - empty shard view mid-repair
            return
        if master_id == self.node_id:
            return

        def on_seq(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "seq_info":
                return
            probed_stream = resp.payload.get("stream", resp.payload["master"])
            master_seq = int(resp.payload["seq"])
            tracked, next_seq = self._stream
            if probed_stream != tracked:
                # unfamiliar numbering — a new master, or the old one
                # rebooted into a fresh incarnation: resync from its
                # first op (the replicate/adoption path would do the
                # same).  Repairs are addressed to the *actor* we
                # probed; the stream identity is not routable.
                if master_seq > 0:
                    self._request_repair(master_id, 0)
            elif master_seq > next_seq:
                self._request_repair(master_id, next_seq)

        # Timeout strictly inside the tick period: a full-period timeout
        # expires at the exact timestamp of the *next* tick whenever the
        # master is unreachable, tying the abandon-probe and new-probe
        # events on the heap (a schedule-sensitivity races.py flags).
        self.call(
            master_id,
            "seq_probe",
            {},
            callback=on_seq,
            timeout=self.config.replication_timeout / 2,
        )

    def _on_seq_probe(self, msg: Message) -> None:
        self.respond(msg, "seq_info", {
            "master": self.node_id, "stream": self._stream_id, "seq": self._seq,
        })

    # ------------------------------------------------------------------
    # hole-free recovery (replacement slave)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        self.sync_recover("ec_sync_pull")

    def on_sync_state(self, state) -> None:
        # Adopt the source's stream cursor, captured *before* its
        # snapshot: any op missing from the snapshot carries a sequence
        # number >= this cursor, so the gap-repair path fetches it.
        self._stream = (state.get("master"), int(state.get("seq", 0)))

    def _on_ec_sync_pull(self, msg: Message) -> None:
        """We are the recovery source: capture our stream position
        first, then snapshot.  Re-applying overlap is idempotent; a
        skipped op would be a lost write."""
        if self.is_head:
            master, seq = self._stream_id, self._seq
        else:
            master, seq = self._stream
        self._reply_sync_state(msg, {"master": master, "seq": seq})

    # ------------------------------------------------------------------
    # write path (master)
    # ------------------------------------------------------------------
    def _accepted(self, req: Request) -> None:
        # EC: ack as soon as one replica (ours) has the write.
        req.ack()
        self._enqueue(req.op, req.msg.payload["key"],
                      req.msg.payload.get("val"), req.rid)

    # ------------------------------------------------------------------
    # async propagation (master)
    # ------------------------------------------------------------------
    def _enqueue(self, op: str, key: str, val: Optional[str],
                 rid: Optional[str] = None) -> None:
        self._backlog.append((op, key, val, rid))
        if len(self._backlog) >= self.config.ec_batch_max:
            self._flush()
        elif not self._flush_timer_armed:
            self._flush_timer_armed = True
            self.set_timer(self.config.ec_batch_interval, self._flush_tick)

    def _flush_tick(self) -> None:
        self._flush_timer_armed = False
        self._flush()

    def _flush(self) -> None:
        if not self._backlog:
            return
        batch, self._backlog = self._backlog, []
        # rid rides the batch so slaves learn which client operations
        # are already committed — a promoted slave then answers a
        # client's retry from its rid cache instead of re-executing.
        ops = []
        for op, k, v, rid in batch:
            d: Dict[str, Optional[str]] = {"op": op, "key": k, "val": v}
            if rid is not None:
                d["rid"] = rid
            ops.append(d)
        start_seq = self._seq
        for op_dict in ops:
            # retain a private copy: the window is re-served by resend
            # requests and must never alias dicts already shipped to
            # peers — the fabric passes payloads by reference
            self._retained.append((self._seq, dict(op_dict)))
            self._seq += 1
        for peer in self.peers():
            self._queue_replicate(peer.controlet, start_seq, ops)
        self.propagated += len(batch)

    def _queue_replicate(self, peer_id: str, start_seq: int, ops: List[dict]) -> None:
        """Queue ``ops`` on the peer's link pump.  While a frame to this
        peer is still in flight, subsequent flushes wait there instead
        of going out as separate messages — adjacent ``replicate``
        sends to the same host collapse into one frame."""
        if peer_id not in self._peer_pumps:
            self._peer_pumps[peer_id] = Pump(
                lambda items, done: self._issue_replicate(peer_id, items, done),
                batch=max(1, self.config.replicate_batch_max))
        self._peer_pumps[peer_id].queue.extend(
            (start_seq + i, dict(op)) for i, op in enumerate(ops))
        self._peer_pumps[peer_id].kick()

    def _issue_replicate(self, peer_id: str, items: List[Tuple[int, dict]],
                         done: Callable[[], None]) -> None:
        """At most one replicate frame in flight per peer link.

        The frame ends at the first sequence gap (the peer missed a
        flush while absent from the view) so its ``start_seq`` stays
        truthful; the rest goes back to the head of the queue.  The ack
        is pure flow control — a lost or timed-out frame is *not*
        retried here, because the slave's gap-repair anti-entropy path
        re-fetches anything a dropped frame carried.  What the
        one-in-flight rule buys is coalescing (everything flushed while
        the link is busy rides the next frame) and in-order frame
        arrival on the fabric."""
        start_seq = items[0][0]
        n = next((i for i, (seq, _op) in enumerate(items) if seq != start_seq + i),
                 len(items))
        if n < len(items):
            self._peer_pumps[peer_id].requeue_front(items[n:])
        send_ops = [op for _seq, op in items[:n]]
        self.replicate_frames += 1
        self.replicate_frame_ops += len(send_ops)
        if self._metrics is not None:
            self._metrics.histogram("batch.replicate_frame_size").observe(
                len(send_ops)
            )

        def on_ack(resp: Optional[Message], err: Optional[BespoError]) -> None:
            done()

        self.call(peer_id, "replicate", {
            "master": self.node_id,
            "stream": self._stream_id,
            "start_seq": start_seq,
            "ops": send_ops,
        }, callback=on_ack, timeout=self.config.replication_timeout)

    def _on_resend_request(self, msg: Message) -> None:
        """A slave detected a gap.  Serve from the retained window, or
        fall back to a full snapshot if the window has rolled past."""
        from_seq = msg.payload["from_seq"]
        if self._retained and self._retained[0][0] <= from_seq:
            # copies again: the same window entry can be served to
            # several gap-detecting slaves
            ops = [dict(op) for seq, op in self._retained if seq >= from_seq]
            self.resends_served += 1
            self.respond(msg, "replicate", {
                "master": self.node_id,
                "stream": self._stream_id,
                "start_seq": from_seq if ops else self._seq,
                "ops": ops,
            })
            return

        def with_snapshot(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "snapshot":
                self.respond(msg, "error", {"error": f"snapshot failed: {err}"})
                return
            self.snapshot_syncs_served += 1
            self.respond(msg, "sync_snapshot", {
                "master": self.node_id,
                "stream": self._stream_id,
                "data": resp.payload["data"],
                "seq": self._seq,
            })

        self.datalet_call("snapshot", {}, callback=with_snapshot)

    # ------------------------------------------------------------------
    # slave side
    # ------------------------------------------------------------------
    def _ack_frame(self, msg: Message) -> None:
        """Flow-control ack for a coalesced replicate frame.

        Only *request* messages are answered: ``_request_repair`` feeds
        resend *responses* (``reply_to`` set) through ``_on_replicate``
        too, and those must not spawn an unsolicited reply.  This ack is
        not a durability claim — the master treats it purely as
        link-ready; convergence is owned by the anti-entropy path."""
        if not msg.reply_to:
            # Not the client commit point: combo ms-ec acks at the
            # master's local apply, and a slave's frame ack is pure flow
            # control (the master never interprets it as replicated).
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")

    def _on_replicate(self, msg: Message) -> None:
        if not self.recovered:
            # mid-recovery: replay after the snapshot restore installs
            # our stream cursor (overlap re-applies are idempotent).
            self.buffer_catchup(msg)
            self._ack_frame(msg)
            return
        master = msg.payload["master"]
        stream = msg.payload.get("stream", master)
        start_seq = int(msg.payload["start_seq"])
        ops = msg.payload["ops"]
        tracked_stream, next_seq = self._stream
        if stream != tracked_stream:
            # New stream (failover, or the same master rebooted into a
            # fresh incarnation): we cannot assume our state covers its
            # history below start_seq — batches it flushed before we
            # started listening are simply gone from our perspective.
            # Conservatively resync from its first op; overlap
            # re-applies are idempotent and the master falls back to a
            # snapshot if its window rolled past.
            tracked_stream, next_seq = stream, 0
        if start_seq > next_seq:
            # gap: batches were lost (partition, drop).  Ask for a
            # resend and discard this batch — the resend covers it.
            self.gaps_detected += 1
            self._stream = (tracked_stream, next_seq)
            self._request_repair(master, next_seq)
            self._ack_frame(msg)
            return
        skip = next_seq - start_seq
        if skip >= len(ops) and ops:
            self._ack_frame(msg)
            return  # duplicate/overlapping resend, fully applied already
        fresh = ops[skip:]
        if fresh:
            # one ordered apply_batch per batch — per-op messages could
            # reorder in flight and apply a delete before its put — and
            # at most one batch in flight (see _issue_apply).
            self._applies.push(fresh)
            self.applied_from_master += len(fresh)
            # learn the rids this batch carries: if we are later promoted
            # to master, a client retrying one of these ops gets its
            # cached ack instead of a re-execution.
            for op_dict in fresh:
                rid = op_dict.get("rid")
                if rid is not None:
                    self._remember_rid(rid)
        self._stream = (tracked_stream, start_seq + len(ops))
        self._repair_pending = False
        self._ack_frame(msg)

    def _request_repair(self, master: str, from_seq: int) -> None:
        if self._repair_pending:
            return
        self._repair_pending = True

        def on_reply(resp: Optional[Message], err: Optional[BespoError]) -> None:
            self._repair_pending = False
            if resp is None or err is not None:
                return  # master gone; failover will rewire the stream
            if resp.type == "replicate":
                self._on_replicate(resp)
            elif resp.type == "sync_snapshot":
                self._on_sync_snapshot(resp)

        self.call(
            master,
            "resend_request",
            {"from_seq": from_seq},
            callback=on_reply,
            timeout=self.config.replication_timeout * 4,
        )

    def _on_sync_snapshot(self, msg: Message) -> None:
        """Full-state fallback: adopt the master's snapshot wholesale
        and fast-forward the stream cursor.  ``reset`` matters: the
        snapshot is the master's *entire* state, so any local key it
        lacks was deleted there — keeping it would resurrect deletes."""
        self.send(self.datalet, "restore",
                  {"data": msg.payload["data"], "reset": True})
        self._stream = (
            msg.payload.get("stream", msg.payload["master"]),
            int(msg.payload["seq"]),
        )
        self._repair_pending = False

    # ------------------------------------------------------------------
    # transition support
    # ------------------------------------------------------------------
    def prepare_retirement(self, done) -> None:
        """Flush everything buffered before handing over (paper §V-A:
        "the old master keeps flushing out any pending propagation")."""
        self._flush()
        # allow the final batch one network round before declaring ready
        self.set_timer(self.config.replication_timeout, done)

    def _batch_metrics(self):
        ops = self.replicate_frame_ops
        return {
            "replicate_frames": float(self.replicate_frames),
            "replicate_frame_ops": float(ops),
            # >1.0 means per-peer replicate fan-out is coalescing
            "coalesce_ratio": (
                ops / self.replicate_frames if self.replicate_frames else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s.update({
            "seq": self._seq,
            "accept_queue": len(self._accepts),
            "accept_busy": self._accepts.busy,
            "backlog": [list(entry) for entry in self._backlog],
            "retained_window": [
                self._retained[0][0], self._retained[-1][0]
            ] if self._retained else None,
            "stream": list(self._stream),
            "repair_pending": self._repair_pending,
            "apply_queue": len(self._applies.queue),
            "apply_busy": self._applies.busy,
            "peer_pending": {
                p: len(pump) for p, pump in sorted(self._peer_pumps.items())
                if len(pump)
            },
            "peer_busy": sorted(p for p, pump in self._peer_pumps.items()
                                if pump.busy),
        })
        return s
