"""MS+SC controlet: Master-Slave topology, Strong Consistency via chain
replication (paper §IV-A, Fig 3).

Writes enter at the chain **head**, flow node-by-node to the **tail**
(each node persisting to its local datalet before forwarding), and the
ack travels back up the chain; the head answers the client only after
the tail has committed — CRAQ-style head acknowledgment, which the
paper adopts because the head already holds the client connection.
Reads are served **only by the tail**, which is what makes the
guarantee strong: a read can never observe a write that is not yet
fully replicated.

If a downstream peer stops answering mid-request, the sender refreshes
its shard view from the coordinator and resumes the chain from its new
successor — the paper's in-flight request resolution during chain
repair.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.controlet import Controlet, Pump
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["MSStrongControlet"]

#: bounded retries while the coordinator repairs the chain under us.
MAX_CHAIN_RETRIES = 3

#: one coalesced chain entry + its completion continuation
#: (``done(err)`` — err None means the suffix of the chain committed).
_DownEntry = Tuple[Dict[str, object], Callable[[Optional[str]], None]]


class MSStrongControlet(Controlet):
    """Chain-replication controlet."""

    write_redirect_why = "writes enter at the chain head"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: a recovering replacement we relay chain writes to while it is
        #: not yet officially our successor (closes the snapshot/join
        #: window — writes committed during the copy would otherwise be
        #: missing from the new tail, i.e. stale strong reads).
        self._sync_successor: Optional[str] = None
        #: chain writes awaiting the downstream link, in apply order;
        #: drained in coalesced ``chain_put_batch`` frames with at most
        #: one frame in flight per link (:meth:`_issue_down`).
        self._down = Pump(self._issue_down, batch=max(1, self.config.chain_batch_max))
        self._down_retries = 0
        #: inbound frames serialized FIFO (:meth:`_issue_frame`): a
        #: frame's members finish before the next frame is examined, so
        #: a duplicate frame only ever observes completed originals.
        self._frames = Pump(self._issue_frame)
        #: head-accepted client writes awaiting their local apply, in
        #: acceptance order; coalesced into one ``apply_batch`` at a
        #: time (:meth:`_issue_accepts`).
        self._accepts = Pump(self._issue_accepts, batch=max(1, self.config.chain_batch_max))
        self.chain_frames = 0
        self.chain_frame_ops = 0
        self.register("chain_put", self._on_chain_put)
        self.register("chain_put_batch", self._on_chain_put_batch)
        self.register("tail_sync_pull", self._on_tail_sync_pull)

    # ------------------------------------------------------------------
    # hole-free recovery (replacement tail)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        self.sync_recover("tail_sync_pull")

    def _on_tail_sync_pull(self, msg: Message) -> None:
        """We are the recovery source: start relaying every subsequent
        chain write to the replacement *before* snapshotting.  Datalet
        message ordering then guarantees snapshot ∪ relayed writes
        covers everything committed here.

        The relay is armed only when the puller sits *downstream* of us
        (a replacement tail — the invariant ``on_shard_changed`` later
        discharges).  A node power-cycling back into its old upstream
        slot before the coordinator noticed the crash (head restart:
        found by the recovery-aware model checker) must not be relayed
        to: chain writes already flow through it to us, so the relay
        would bounce every write back up the chain forever."""
        puller = msg.payload["controlet"]
        upstream = False
        try:
            order = [r.controlet for r in self.shard.ordered()]
            upstream = (
                puller in order
                and order.index(puller) <= order.index(self.node_id)
            )
        except Exception:  # noqa: BLE001 - sparse or stale view
            upstream = False
        if not upstream:
            self._sync_successor = puller

        def forget() -> None:
            self._sync_successor = None

        self._reply_sync_state(msg, on_fail=forget)

    def on_shard_changed(self) -> None:
        if self._sync_successor is None:
            return
        try:
            succ = self.shard.successor(self.node_id)
        except Exception:  # noqa: BLE001 - we may have been repaired out
            return
        if succ is not None and succ.controlet == self._sync_successor:
            # the replacement joined: the ordinary chain now covers it
            self._sync_successor = None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _accepted(self, req: Request) -> None:
        # applied at the head: continue down the chain; the client ack
        # waits for the tail
        self._forward_down(req)

    def _on_chain_put(self, msg: Message) -> None:
        """A chain write arriving from our predecessor."""
        if not self.recovered:
            # Recovering replacement: buffer and ack.  Ack-on-buffer is
            # safe because our predecessor applied before forwarding, so
            # the write survives in the chain even if we die; we replay
            # the buffer right after the snapshot restore.
            self.buffer_catchup(msg)
            # Not the client commit point: the predecessor already
            # applied-and-logged before forwarding, so the write is
            # durable upstream; the buffer replays after the snapshot
            # restore (combo ms-sc).
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")
            return
        # Every chain member runs the same dedup gate: rid rides the
        # chain_put payload, so a duplicate resumed by a *new* head
        # stops re-executing at the first member that already holds it.
        req = self.begin_write(msg, msg.payload["op"], rid=msg.payload.get("rid"))
        if req is None:
            return
        self._apply_and_forward(req)

    def _on_chain_put_batch(self, msg: Message) -> None:
        """A coalesced frame of chain writes from our predecessor."""
        if not self.recovered:
            # Recovering replacement: buffer and ack (same argument as
            # the single-op path: the predecessor applied every member
            # before the frame left, so the writes are durable upstream
            # and the buffer replays after the snapshot restore).
            self.buffer_catchup(msg)
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")
            return
        self._frames.push(msg)

    def _issue_frame(self, msg: Message, done: Callable[[], None]) -> None:
        """Process inbound frames strictly FIFO, one at a time.

        Serialization does double duty: it keeps the local datalet's
        apply order identical to the predecessor's frame order (no
        multi-slot CPU inversion between two in-flight frames), and it
        guarantees a duplicate frame — the upstream one-in-flight rule
        means a dup can only be a retry of a frame that already finished
        — observes its members in ``_rid_done`` rather than racing the
        originals."""
        fresh: List[Dict[str, object]] = []
        for d in msg.payload["entries"]:
            rid = d.get("rid")
            if rid is not None and rid in self._rid_done:
                # retried frame: this member already committed here
                self.stats["dup_writes"] += 1
                continue
            fresh.append(d)
        if not fresh:
            # Every member was a duplicate: rids enter _rid_done only
            # after the original committed through the whole suffix, so
            # this frame's writes are already durable and replicated
            # below us (combo ms-sc) — nothing left to wait for.
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")
            done()
            return
        ops = [{"op": d["op"], "key": d["key"], "val": d.get("val")} for d in fresh]

        def after_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type == "error":
                self.stats["errors"] += len(fresh)
                self.respond(msg, "error",
                             {"error": f"local datalet write failed: {err}"})
                done()
                return
            # Members persisted locally in frame order; continue each
            # down the chain and answer upstream once the whole frame
            # has committed below us.
            state = {"left": len(fresh), "err": None}

            def member_done(err2: Optional[str]) -> None:
                if err2 is not None and state["err"] is None:
                    state["err"] = err2
                state["left"] -= 1
                if state["left"]:
                    return
                if state["err"] is None:
                    for d in fresh:
                        rid = d.get("rid")
                        if rid is not None:
                            self._remember_rid(rid)
                    self.respond(msg, "ok")
                else:
                    self.respond(msg, "error", {"error": state["err"]})
                done()

            for d in fresh:
                self._enqueue_down(dict(d), member_done)

        self.datalet_call("apply_batch", {"ops": ops}, callback=after_local)

    def _apply_and_forward(self, req: Request) -> None:
        """Persist locally, then continue down the chain; ack upstream
        (or to the client, at the head) once downstream has committed."""
        payload = {"key": req.msg.payload["key"]}
        if req.op == "put":
            payload["val"] = req.msg.payload["val"]

        def after_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None:
                self.stats["errors"] += 1
                req.fail(f"local datalet write failed: {err}")
                return
            if resp.type == "error":
                # e.g. delete of a missing key: surface without touching
                # the rest of the chain beyond what already applied.
                req.finish("error", dict(resp.payload))
                return
            self._forward_down(req)

        self.datalet_call(req.op, payload, callback=after_local)

    def _forward_down(self, req: Request) -> None:
        """Continue ``req`` down the chain; ack upstream once the whole
        suffix has committed.  The actual transmission is coalesced: the
        entry joins the per-link down pump and rides the next
        ``chain_put_batch`` (:meth:`_issue_down`)."""
        entry: Dict[str, object] = {"op": req.op, "key": req.msg.payload["key"],
                                    "val": req.msg.payload.get("val")}
        if req.rid is not None:
            entry["rid"] = req.rid

        def done(err: Optional[str]) -> None:
            if err is None:
                req.ack()
            else:
                req.fail(err)

        self._enqueue_down(entry, done)

    def _enqueue_down(self, entry: Dict[str, object],
                      done: Callable[[Optional[str]], None]) -> None:
        self._down.push((entry, done))

    def _issue_down(self, batch: List[_DownEntry], done: Callable[..., None]) -> None:
        """Send one coalesced frame down the link.

        One-in-flight per link is the ordering argument: frame N is
        fully committed by the chain suffix (or abandoned) before frame
        N+1 leaves, so two same-key writes can never overtake each other
        between adjacent chain members, and a duplicate frame is only
        ever a retry of one that already ran to completion downstream."""
        try:
            succ = self.shard.successor(self.node_id)
        except Exception:  # noqa: BLE001 - not in our own view yet
            # A replacement replaying its catch-up buffer before the
            # config update that adds it: it is the tail-elect.
            succ = None
        relaying = succ is None and self._sync_successor is not None
        succ_id = succ.controlet if succ is not None else self._sync_successor
        if succ_id is None:  # we are the tail: commit point reached
            # complete everything queued in one go, with the link idle:
            # entries enqueued by these completions commit at once too
            batch += self._down.queue
            self._down.queue.clear()
            done(drain=False)
            for _entry, fin in batch:
                fin(None)
            return
        self.chain_frames += 1
        self.chain_frame_ops += len(batch)
        if self._metrics is not None:
            self._metrics.histogram("batch.chain_frame_size").observe(len(batch))

        def on_ack(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None:
                # Successor unresponsive: likely mid-failover.
                if self._down_retries >= MAX_CHAIN_RETRIES:
                    self._down_retries = 0
                    done(drain=False)
                    if relaying and self._sync_successor == succ_id:
                        # the recovering replacement died: stop relaying
                        # and resume committing as the tail
                        self._sync_successor = None
                        for _entry, fin in batch:
                            fin(None)
                    else:
                        self.stats["errors"] += len(batch)
                        for _entry, fin in batch:
                            fin("chain replication failed")
                    self._down.kick()
                    return
                # Refresh the chain view and resend the same frame to
                # the (possibly new) successor; the link stays busy so
                # no younger frame can overtake the retry.
                self._down_retries += 1
                self._down.requeue_front(batch)
                self.refresh_shard(then=done)
                return
            self._down_retries = 0
            done(drain=False)
            if resp.type == "error":
                self.stats["errors"] += len(batch)
                for _entry, fin in batch:
                    fin(str(resp.payload.get("error", "chain replication failed")))
            else:
                for _entry, fin in batch:
                    fin(None)
            self._down.kick()

        self.call(
            succ_id,
            "chain_put_batch",
            {"entries": [dict(e) for e, _fin in batch]},
            callback=on_ack,
            timeout=self.config.replication_timeout,
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def handle_get(self, msg: Message) -> None:
        # Per-request consistency (§IV-C): a client may explicitly relax
        # this GET to eventual, in which case any replica serves it.
        relaxed = msg.payload.get("consistency") == "eventual"
        if not self.is_tail and not relaxed:
            self.redirect(msg, self.shard.tail.controlet, "strong reads go to the tail")
            return
        super().handle_get(msg)

    def handle_scan(self, msg: Message) -> None:
        if not self.is_tail and msg.payload.get("consistency") != "eventual":
            self.redirect(msg, self.shard.tail.controlet, "strong scans go to the tail")
            return
        super().handle_scan(msg)

    def _batch_metrics(self):
        ops = self.chain_frame_ops
        return {
            "chain_frames": float(self.chain_frames),
            "chain_frame_ops": float(ops),
            # >1.0 means adjacent chain_puts are coalescing per link
            "coalesce_ratio": (
                ops / self.chain_frames if self.chain_frames else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s["sync_successor"] = self._sync_successor
        s["accept_queue"] = len(self._accepts)
        s["accept_busy"] = self._accepts.busy
        s["down_queue"] = len(self._down)
        s["down_busy"] = self._down.busy
        s["frame_queue"] = len(self._frames)
        s["frame_busy"] = self._frames.busy
        return s
