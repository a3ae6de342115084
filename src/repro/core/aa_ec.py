"""AA+EC controlet: Active-Active topology, Eventual Consistency via a
shared log (paper App C-C, Fig 15c).

Any active accepts any request.  A write is first appended to the
shared log — whose sequencer imposes the global order that plain
gossip (Dynomite) cannot guarantee under conflicting concurrent Puts —
then applied to the local datalet and acked.  Every active polls the
log (``AsyncFetch``) and applies entries written by its peers, skipping
its own.  Reads are local.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.controlet import Controlet, Pump
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message
from repro.sharedlog.log import shard_log_id

__all__ = ["AAEventualControlet"]


class AAEventualControlet(Controlet):
    """Shared-log controlet."""

    def __init__(
        self,
        *args,
        sharedlog: str = "sharedlog",
        start_cursor_at_tail: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.sharedlog = sharedlog
        #: next log position to fetch.
        self.cursor = 0
        #: joiners (transition/recovery launches) start replaying at the
        #: current tail: everything older is already in their datalet
        #: (via snapshot) or belongs to the previous service generation.
        self._start_at_tail = start_cursor_at_tail
        self.applied_from_log = 0
        #: replayed batches waiting for the datalet, in log order, one
        #: in flight (:meth:`_issue_apply`).
        self._applies = Pump(self._issue_apply)
        #: accepted writes waiting for the sequencer, in arrival order;
        #: drained in group-commit batches by :meth:`_issue_accepts`
        #: with at most one sequenced batch in flight per controlet.
        self._accepts = Pump(self._issue_accepts, batch=max(1, self.config.group_commit_max))
        self.group_commits = 0
        self.group_commit_ops = 0
        self._draining: Optional[Dict[str, object]] = None
        self._fetch_armed = False
        self.register("log_sync_pull", self._on_log_sync_pull)

    def on_start(self) -> None:
        super().on_start()
        if self.recovery_source is not None and not self.recovered:
            return  # log_sync_pull installs the cursor, then replay starts
        if self._start_at_tail:
            self._fetch_initial_tail()
        else:
            self._arm_fetch()

    # ------------------------------------------------------------------
    # hole-free recovery (replacement active)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        self.sync_recover("log_sync_pull")

    def on_sync_state(self, state) -> None:
        # Resume replay from the *source's* cursor (not the log tail):
        # anything its snapshot misses sits at or after that position.
        self.cursor = int(state.get("cursor", 0))
        self._start_at_tail = False
        self._arm_fetch()

    def _on_log_sync_pull(self, msg: Message) -> None:
        """We are the recovery source.  Hand out our replay cursor with
        the snapshot, rewound by one fetch window: an apply_batch we
        fired just before the snapshot request may still be in flight to
        our datalet, and replaying from an earlier position is always
        safe (log order is the authority) while skipping is not."""
        cursor = max(0, self.cursor - self.config.log_fetch_max)
        self._reply_sync_state(msg, {"cursor": cursor})

    def _fetch_initial_tail(self) -> None:
        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": 1 << 62, "max": 1},
            callback=self._on_initial_tail,
            timeout=self.config.replication_timeout,
        )

    def _on_initial_tail(self, resp: Optional[Message], err: Optional[BespoError]) -> None:
        if resp is not None and resp.type == "entries":
            self.cursor = resp.payload["tail"]
            self._start_at_tail = False
            self._arm_fetch()
        else:  # log unreachable; retry shortly
            self.set_timer(self.config.replication_timeout, self._fetch_initial_tail)

    def _arm_fetch(self) -> None:
        if self._fetch_armed:
            return
        self._fetch_armed = True
        self.set_timer(self.config.log_fetch_interval, self._fetch_tick)

    def on_shard_changed(self) -> None:
        # A restarted node unfences through here: make sure the replay
        # loop (which stops while retired) is running again.
        if not self.retired and self.recovered and not self._start_at_tail:
            self._arm_fetch()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _issue_accepts(self, batch: List[Request], done: Callable[..., None]) -> None:
        """Group commit: writes arriving while a sequenced batch is in
        flight accumulate in the accept pump and go out together,
        amortizing the sequencer round-trip (one ``log_append_batch``
        instead of N ``log_append``s) without changing arrival order.

        One-in-flight is what preserves per-key FIFO for writes accepted
        at the same active: batch N is fully sequenced before batch N+1
        leaves, so the log order of two same-key writes matches their
        arrival order here.  The local rid gate (``begin_write``) only
        catches a retry re-entering at this active; the sequencer's own
        rid→pos dedup catches retries routed to a *different* active
        (sharedlog/log.py)."""
        entries = []
        for req in batch:
            entry = {"op": req.op, "key": req.msg.payload["key"],
                     "val": req.msg.payload.get("val")}
            if req.rid is not None:
                entry["rid"] = req.rid
            entries.append(entry)
        self.group_commits += 1
        self.group_commit_ops += len(batch)
        if self._metrics is not None:
            self._metrics.histogram("batch.group_commit_size").observe(len(batch))

        def on_appended(resp: Optional[Message], err: Optional[BespoError]) -> None:
            done(drain=False)
            if err is not None or resp is None or resp.type != "appended_batch":
                self.stats["errors"] += len(batch)
                for req in batch:
                    req.fail(f"shared log append failed: {err}")
                self._accepts.kick()
                return
            results = resp.payload["results"]
            fresh: List[Request] = []
            ops = []
            for req, r in zip(batch, results):
                if r.get("dup"):
                    # The sequencer has this rid already: the original
                    # attempt owns the log slot and replay delivers the
                    # value.  Do NOT apply locally — a late second apply
                    # here could overwrite newer replayed state on this
                    # replica only, diverging it from its peers.
                    req.ack()
                    continue
                if r.get("wrong_shard"):
                    # Sequencer reshard backstop: our ring view is stale
                    # for this (moved) key — the entry was *not*
                    # sequenced.  Surface it so the client refreshes and
                    # re-routes; nothing to apply locally.
                    self.stats["errors"] += 1
                    req.fail("wrong_shard")
                    continue
                fresh.append(req)
                ops.append({"op": req.op, "key": req.msg.payload["key"],
                            "val": req.msg.payload.get("val")})
            if not fresh:
                self._accepts.kick()
                return

            def after_local(dresp: Optional[Message], derr: Optional[BespoError]) -> None:
                if derr is not None or dresp is None or dresp.type == "error":
                    self.stats["errors"] += len(fresh)
                    for req in fresh:
                        req.fail(f"local apply failed: {derr}")
                else:
                    # apply_batch tolerates deletes of absent keys (our
                    # replica may simply not have replayed the put yet;
                    # the log entry *is* the delete), so every member is
                    # applied-or-moot here: ack them all.
                    for req in fresh:
                        req.ack()
                self._accepts.kick()

            # One ordered apply_batch for the whole group: same
            # serialization the replay path uses, so accept-time applies
            # cannot interleave out of log order on a multi-slot CPU.
            self.datalet_call("apply_batch", {"ops": ops}, callback=after_local)

        self.call(
            self.sharedlog,
            "log_append_batch",
            # the ring generation rides along so the sequencer can fence
            # stale-routed writes during a reshard window
            {"entries": entries, "gen": self._ring_gen},
            callback=on_appended,
            timeout=self.config.replication_timeout,
        )

    # ------------------------------------------------------------------
    # resharding: log-ordered migration
    # ------------------------------------------------------------------
    def _migrate_barrier(self, then) -> None:
        """Reshard census barrier: drain our accepted-but-unsequenced
        writes, then replay our own log up to its current tail — after
        that the local engine holds every write sequenced before the
        window opened, so the census (and the per-key copies) read
        authoritative values.  Writes sequenced *during* the window are
        covered by the destination sequencer's dirty marks instead."""
        super()._migrate_barrier(lambda: self._replay_barrier(then))

    def _replay_barrier(self, then) -> None:
        """Wait until our replay cursor reaches the log's current tail."""

        def on_tail(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "entries":
                # log briefly unreachable: the barrier must land
                self.set_timer(self.config.replication_timeout,
                               lambda: self._replay_barrier(then))
                return
            target = int(resp.payload["tail"])

            def wait_replay() -> None:
                if self.cursor >= target:
                    then()
                else:
                    self.set_timer(0.05, wait_replay)

            wait_replay()

        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": self.cursor, "max": 1},
            callback=on_tail,
            timeout=self.config.replication_timeout,
        )

    def _send_copy(self, win, shard, key, val, acked) -> None:
        """Append the copy to the *destination* shard's log instead: its
        sequencer is the ordering authority — it refuses the copy
        (``skipped``) when a client write for the key was sequenced
        during the window, and a clean copy enters the log as a plain
        put entry, so replaying replicas (and the hybrid's slaves) need
        no special casing."""
        self.call(
            shard_log_id(shard),
            "log_append",
            {"op": "put", "key": key, "val": val, "rid": win.copy_rid(key),
             "mig": True, "gen": win.gen},
            callback=acked,
            timeout=self.config.replication_timeout,
        )

    # ------------------------------------------------------------------
    # log replay
    # ------------------------------------------------------------------
    def _fetch_tick(self) -> None:
        self._fetch_armed = False
        if self.retired:
            return

        def on_entries(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is not None and resp.type == "entries":
                self._apply_entries(resp.payload["entries"])
                tail = resp.payload["tail"]
                drain = self._draining
                if drain is not None and self.cursor >= drain["target"]:
                    self._draining = None
                    drain["done"]()  # type: ignore[operator]
                # keep pulling immediately if we are behind
                if self.cursor < tail:
                    self._fetch_tick()
                    return
            self._arm_fetch()

        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": self.cursor, "max": self.config.log_fetch_max},
            callback=on_entries,
            timeout=self.config.replication_timeout,
        )

    def _apply_entries(self, entries) -> None:
        # Replay *everything* in log order — including our own writes,
        # which we already applied once at accept time.  The log's total
        # order is the authority: skipping own entries would let a
        # peer's older write overwrite our newer one during replay and
        # the replicas would never converge.  One ordered apply_batch
        # per fetch so network jitter cannot reorder entries.
        ops = []
        for d in entries:
            pos = int(d["pos"])
            if pos < self.cursor:
                continue
            self.cursor = pos + 1
            ops.append({"op": d["op"], "key": d["key"], "val": d["value"]})
        if ops:
            self.applied_from_log += len(ops)
            self._applies.push(ops)

    # ------------------------------------------------------------------
    # transition support
    # ------------------------------------------------------------------
    def prepare_retirement(self, done) -> None:
        """Drain: hand over only after we have replayed the log up to
        its tail as of the transition start (paper §V-B: the new master
        takes the in-flight Puts from the Shared Log)."""

        def on_tail(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "entries":
                done()  # log unreachable; nothing more we can replay
                return
            target = resp.payload["tail"]
            if self.cursor >= target:
                done()
            else:
                self._draining = {"target": target, "done": done}

        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": self.cursor, "max": 1},
            callback=on_tail,
            timeout=self.config.replication_timeout,
        )

    def _batch_metrics(self):
        ops = self.group_commit_ops
        return {
            "group_commits": float(self.group_commits),
            "group_commit_ops": float(ops),
            # >1.0 means the sequencer round-trip is being amortized
            "coalesce_ratio": (
                ops / self.group_commits if self.group_commits else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s.update({
            "cursor": self.cursor,
            "start_at_tail": self._start_at_tail,
            "fetch_armed": self._fetch_armed,
            "draining": self._draining is not None,
            "apply_queue": len(self._applies.queue),
            "apply_busy": self._applies.busy,
            "order_queue": len(self._accepts),
            "order_busy": self._accepts.busy,
        })
        return s
