"""Controlet base class (paper §III-B).

A controlet is the control-plane proxy paired with one datalet.  It
terminates client requests, runs the replication protocol of its
topology/consistency combination, heartbeats the coordinator, follows
cluster-map updates, performs recovery when launched as a replacement
pair, and supports live retirement during topology/consistency
transitions (§V).

Subclasses supply their write path — an accept step for the shared
accept pump (the master-slave one lives here) or an ``_accept_write``
override — plus whatever read routing and replication message handlers
their protocol needs.  Everything else (heartbeats, config updates,
transition forwarding, recovery, stats) lives here, which is exactly
the reuse story the paper tells: the MS+SC template is ~150 LoC on top
of this framework.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.window import ReshardWindow
from repro.core.config import ControlConfig
from repro.core.request import Request
from repro.core.types import Replica, ShardInfo
from repro.errors import BespoError
from repro.hashing.ring import HashRing
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["Controlet", "Pump"]

#: client-facing operation message types.
CLIENT_OPS = ("put", "get", "del", "scan")

#: request-id dedup memory per controlet (completed-write cache size).
RID_CACHE = 65536


class Pump:
    """One-in-flight drain loop: busy flag + FIFO queue + retry-requeue.

    Every hot path in the controlets serializes its async work through
    this one shape — a queue, a busy flag, and a completion callback
    that releases the flag and re-enters the drain — so there is exactly
    one canonical implementation for the flow-control static passes
    (:mod:`repro.analysis.flow`) to certify.

    ``issue(item, done)`` starts the asynchronous work for one queued
    item and MUST invoke ``done()`` on **every** completion path —
    success, error response, and RPC timeout alike.  A dropped ``done``
    freezes the pump permanently; the pump-liveness pass checks every
    issue callable wired into a ``Pump`` for exactly this obligation.

    ``batch=n`` hands ``issue`` a list of up to ``n`` queued items per
    call instead of one item (coalesced frames; ``n`` is a
    :class:`~repro.core.config.ControlConfig` cap).  ``done(drain=False)``
    releases the slot without draining: the issue callable processes
    its results with the pump idle — work queued meanwhile may start at
    once — and re-enters the drain itself with :meth:`kick` afterwards.
    """

    __slots__ = ("issue", "queue", "busy", "batch")

    def __init__(self, issue: Callable[[Any, Callable[..., None]], None],
                 batch: int = 0):
        self.issue = issue
        self.queue: List[Any] = []
        self.busy = False
        self.batch = batch

    def __len__(self) -> int:
        return len(self.queue)

    def push(self, item: Any) -> None:
        """Queue one item and start draining if idle."""
        self.queue.append(item)
        self.kick()

    def requeue_front(self, items: List[Any]) -> None:
        """Put failed work back at the head of the line so a retry keeps
        its place — younger items must not overtake it (FIFO under
        retry is what keeps per-key ordering through link flaps)."""
        self.queue[:0] = list(items)

    def kick(self) -> None:
        """Issue the next item unless one is already in flight."""
        if self.busy or not self.queue:
            return
        self.busy = True
        if self.batch:
            item = self.queue[:self.batch]
            del self.queue[:self.batch]
        else:
            item = self.queue.pop(0)

        def done(drain: bool = True) -> None:
            self.busy = False
            if drain:
                self.kick()

        self.issue(item, done)


class Controlet(Actor):
    """Common machinery for every topology/consistency controlet."""

    #: redirect reason for a client write reaching a non-head replica;
    #: None where every replica accepts writes (the active-active combos).
    write_redirect_why: Optional[str] = None

    def __init__(
        self,
        node_id: str,
        shard: ShardInfo,
        datalet: str,
        coordinator: str,
        config: Optional[ControlConfig] = None,
        recovery_source: Optional[str] = None,
        datalet_colocated: bool = True,
        backup_coordinators: Optional[List[str]] = None,
        rejoin: bool = False,
    ):
        super().__init__(node_id)
        self.shard = shard
        self.datalet = datalet
        self.coordinator = coordinator
        #: standby coordinators also receive our heartbeats so a
        #: promoted follower owns fresh liveness data (§VII).
        self.backup_coordinators = backup_coordinators or []
        self.config = config or ControlConfig()
        #: False when the paper's N:1 controlet:datalet mapping places
        #: our datalet on a different host — its failure is then *ours*
        #: to detect and report (the host-level heartbeat cannot).
        self.datalet_colocated = datalet_colocated
        self._datalet_strikes = 0
        self._datalet_reported = False
        #: datalet to copy state from when launched as a standby
        #: replacement (paper: "recovers the data from one of the
        #: datalets").
        self.recovery_source = recovery_source
        self.recovered = recovery_source is None
        #: True when this controlet was re-spawned on its *old* host
        #: after a durable crash-restart (WAL recovery): it was a shard
        #: member once, so membership is *confirmed* rather than polled
        #: for — and if the coordinator already swept us, recovery is
        #: abandoned (a replacement pair owns the slot now).
        self.rejoining = rejoin
        self._recovery_abandoned = False
        #: replication messages that arrived while we were still copying
        #: state from the recovery source; drained (in arrival order)
        #: once the snapshot is restored.  See :meth:`sync_recover`.
        self._catchup: List[Message] = []
        #: set once a transition replaced this controlet; all client ops
        #: are rejected with a ``retired`` error that carries the new
        #: epoch hint so clients refresh their map.
        self.retired = False
        #: highest cluster-map epoch whose shard view we installed; two
        #: config_update broadcasts sent back-to-back can reorder in
        #: flight, and adopting the older one would silently shrink our
        #: replica view (fan-out writers would skip the newest member).
        self._config_epoch = 0
        #: during a transition, client *writes* are forwarded here.
        self.forward_writes_to: Optional[str] = None
        #: cluster-view routing state, mirrored from the coordinator's
        #: :class:`~repro.cluster.view.ClusterView` broadcasts.  The
        #: ring generation + member ids give every controlet the same
        #: key→shard function the clients route by, which is what makes
        #: *ownership fencing* possible: once the ring has re-versioned
        #: (gen > 0 under hash partitioning), ops for keys the new ring
        #: assigns elsewhere bounce with ``wrong_shard``.
        self._partitioner = "hash"
        self._ring_gen = 0
        self._ring_ids: List[str] = []
        self._ring: Optional[HashRing] = None
        #: open reshard window (both rings + the dirty marks of client
        #: writes admitted while it is open) while writes dual-route;
        #: ``None`` when the topology is settled.
        self._window: Optional[ReshardWindow] = None
        #: highest window generation we acked a ``reshard_fence`` for:
        #: from then on the dual-routed old-ring leg of that window is
        #: rejected too, so no stale read survives the cutover.
        self._fenced_gen = 0
        #: client writes stamped with a newer ring generation than ours
        #: (the client learned a window before our config_update did):
        #: dirty marks held until that window installs here.
        self._early_marks: Set[str] = set()
        #: in-flight source-side migration drive + last driven gen
        #: (duplicate ``reshard_migrate`` orders are dropped).
        self._migration: Optional[Any] = None
        self._migrated_gen = 0
        self.stats: Dict[str, int] = {
            "puts": 0, "gets": 0, "dels": 0, "scans": 0,
            "redirects": 0, "forwarded": 0, "errors": 0,
            "dup_writes": 0,
        }
        #: request-id dedup tables.  Clients stamp a per-operation
        #: ``req_id`` on mutations (RequestContext.req_id); a write that
        #: completed here is cached so a *client retry* of the same
        #: operation is answered from cache instead of re-executed —
        #: distinguishing retries from fabric duplicates.  These tables
        #: are excluded from model-checker handler summaries (see
        #: analysis/summaries.py IGNORED_ATTRS): checker clients never
        #: stamp rids, so the tables stay quiescent in explored runs.
        self._rid_done: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._rid_order: Deque[str] = deque(maxlen=RID_CACHE)
        self._rid_pending: Dict[str, List[Message]] = {}
        #: admitted client writes awaiting the combo's accept step, in
        #: acceptance order (:meth:`_issue_accepts`); built by combos
        #: whose write path runs through it.
        self._accepts: Optional[Pump] = None
        self.register("put", self._client_op)
        self.register("get", self._client_op)
        self.register("del", self._client_op)
        self.register("scan", self._client_op)
        self.register("config_update", self._on_config_update)
        self.register("transition_start", self._on_transition_start)
        self.register("retire", self._on_retire)
        self.register("ctl_stats", self._on_stats)
        self.register("reshard_migrate", self._on_reshard_migrate)
        self.register("reshard_fence", self._on_reshard_fence)
        self.register("migrate_put", self._on_migrate_put)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_group(self) -> Dict[str, float]:
        """Live scrape source for the cluster metrics plane: the request
        counters plus whatever batching counters the combo maintains
        (:meth:`_batch_metrics`)."""
        out = {k: float(v) for k, v in self.stats.items()}
        out.update(self._batch_metrics())
        return out

    def _batch_metrics(self) -> Dict[str, float]:
        """Combo-specific batching/coalescing counters; subclasses that
        batch override this (group commit, chain frames, replicate
        frames) so effectiveness is observable without tracing."""
        return {}

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def service_demand(self, msg: Message, costs: Any) -> float:
        return costs.scaled("controlet_overhead")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.rejoining:
            # recovered-but-stale state: fence client ops until the
            # coordinator confirms we are still a shard member
            self.retired = True
            self._confirm_membership()
        self._heartbeat(stagger=True)
        if self.recovery_source is not None and not self.recovered:
            self._recover()

    def on_restart(self) -> None:
        """A crashed-and-revived controlet must *fence* itself: its role
        may have been repaired away while it was down (e.g. an ex-tail
        would serve stale strong reads).  Refuse client ops until the
        coordinator confirms we are still a shard member."""
        self.retired = True
        # In-flight executions (and their completion callbacks) died with
        # the crash: a rid left "pending" would absorb every retry of
        # that operation forever.  Drop the pending set — retries then
        # re-execute — but keep the completed-write cache, which is the
        # part that carries the exactly-once guarantee.
        self._rid_pending.clear()
        self._confirm_membership()
        self.on_start()

    def _confirm_membership(self, attempt: int = 0) -> None:
        coords = [self.coordinator] + list(self.backup_coordinators)
        target = coords[attempt % len(coords)]

        def on_info(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "shard_info":
                self.set_timer(
                    self.config.heartbeat_interval,
                    lambda: self._confirm_membership(attempt + 1),
                )
                return
            shard = ShardInfo.from_dict(resp.payload["shard"])
            if any(r.controlet == self.node_id for r in shard.replicas):
                self._install_shard(shard, resp.payload.get("epoch"))
                self.retired = False
                self.on_shard_changed()
            elif self.rejoining:
                # we came back from disk but the coordinator already
                # swept us — a replacement pair owns the slot.  Stop
                # recovering; this process stays a fenced zombie.
                self.abandon_recovery()
            elif not self.recovered:
                # mid-recovery replacement: not joined yet — keep
                # polling until the coordinator adds us.
                self.set_timer(
                    self.config.heartbeat_interval,
                    lambda: self._confirm_membership(attempt + 1),
                )
            # else: we were repaired out of the shard; stay fenced.

        self.call(
            target,
            "get_shard_info",
            {"shard": self.shard.shard_id},
            callback=on_info,
            timeout=self.config.replication_timeout,
        )

    def _heartbeat(self, stagger: bool = False) -> None:
        """LogHeartbeat(c, d) loop (paper Table III).

        The first beat fires immediately (the coordinator's failure
        clock starts at boot); ``stagger`` offsets the re-arm chain once
        so same-period loops on this node never share a timestamp.
        """
        payload = {"controlet": self.node_id, "datalet": self.datalet,
                   "shard": self.shard.shard_id}
        self.send(self.coordinator, "heartbeat", dict(payload))
        for backup in self.backup_coordinators:
            self.send(backup, "heartbeat", dict(payload))
        delay = self.config.heartbeat_interval
        if stagger:
            delay += self.loop_phase("heartbeat", delay)
        self.set_timer(delay, self._heartbeat)

    def abandon_recovery(self) -> None:
        """Give up on (re)joining: stay fenced forever.  Retry timers
        already armed re-check the flag and fizzle."""
        self._recovery_abandoned = True
        self.retired = True

    def _recover(self) -> None:
        """Copy a snapshot from a surviving datalet into our own, then
        report readiness to the coordinator.

        The restore carries ``reset=True``: a rejoining node holds
        recovered-but-stale state, and adopting the source's snapshot
        on top of it would resurrect keys deleted while we were down.
        """
        if self._recovery_abandoned:
            return

        def on_snapshot(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if self._recovery_abandoned:
                return
            if err is not None or resp is None or resp.type != "snapshot":
                # source died mid-recovery: the coordinator will notice
                # our missing recovery_done and may relaunch; retry once
                # the map changes. Here we simply retry after a beat.
                self.set_timer(self.config.replication_timeout, self._recover)
                return
            self.call(
                self.datalet,
                "restore",
                {"data": resp.payload["data"], "reset": True},
                callback=lambda r, e: self._recovery_done(e),
                timeout=self.config.replication_timeout * 10,
            )

        self.call(
            self.recovery_source,
            "snapshot",
            {},
            callback=on_snapshot,
            timeout=self.config.replication_timeout * 10,
        )

    def _recovery_done(self, err: Optional[BespoError]) -> None:
        if self._recovery_abandoned:
            return
        if err is not None:
            self.set_timer(self.config.replication_timeout, self._recover)
            return
        self.recovered = True
        # Standby coordinators registered the same pending replica; tell
        # them too, so a follower promoted mid-failover can complete the
        # in-flight repair instead of stranding it.
        payload = {"controlet": self.node_id, "shard": self.shard.shard_id}
        self.send(self.coordinator, "recovery_done", dict(payload))
        for backup in self.backup_coordinators:
            self.send(backup, "recovery_done", dict(payload))

    # ------------------------------------------------------------------
    # hole-free recovery (controlet-to-controlet state transfer)
    # ------------------------------------------------------------------
    def source_controlet(self) -> Optional[str]:
        """Controlet owning our recovery-source datalet, per our spawn
        -time shard view (None if the view no longer lists it)."""
        if self.recovery_source is None:
            return None
        for r in self.shard.ordered():
            if r.datalet == self.recovery_source:
                return r.controlet
        return None

    def sync_recover(self, pull_type: str) -> None:
        """State transfer that closes the snapshot/join window.

        A plain datalet snapshot (:meth:`_recover`) loses every write
        committed between the snapshot and the moment the replacement
        joins the shard.  Protocols that cannot tolerate that hole send
        ``pull_type`` to the *source controlet* instead: the source
        captures its protocol cursor and starts relaying subsequent
        writes to us in the same handler invocation — before it asks its
        datalet for the snapshot — so snapshot ∪ relay covers every
        write.  Replication messages arriving while we restore are
        buffered via :meth:`buffer_catchup` and replayed after
        :meth:`on_sync_state` adopts the cursor.
        """
        if self._recovery_abandoned:
            return
        src = self.source_controlet()
        if src is None or src == self.node_id:
            # The source was repaired out of the shard (it died while we
            # were copying): fall back to the current head, which under
            # every topology here holds a superset of committed state.
            try:
                head = self.shard.head
            except Exception:  # noqa: BLE001 - empty shard view
                head = None
            if head is not None and head.controlet != self.node_id:
                self.recovery_source = head.datalet
                src = head.controlet
        if src is None or src == self.node_id:
            # No better option than a plain snapshot (subclasses
            # override _recover, so call the base version explicitly).
            Controlet._recover(self)
            return

        def retry() -> None:
            # refresh first: the source may have died and been repaired
            # away, in which case the re-pull needs the fallback above
            self.set_timer(
                self.config.replication_timeout,
                lambda: self.refresh_shard(
                    then=lambda: self.sync_recover(pull_type)
                ),
            )

        def on_state(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if self._recovery_abandoned:
                return
            if err is not None or resp is None or resp.type != "sync_state":
                retry()
                return
            state = dict(resp.payload)

            def restored(r: Optional[Message], e: Optional[BespoError]) -> None:
                if self._recovery_abandoned:
                    return
                if e is not None:
                    retry()
                    return
                self.on_sync_state(state)
                self._recovery_done(None)
                self.on_catchup_drain(self.drain_catchup())

            self.datalet_call(
                "restore", {"data": state.get("data", {}), "reset": True},
                callback=restored,
            )

        self.call(
            src,
            pull_type,
            {"controlet": self.node_id, "datalet": self.datalet},
            callback=on_state,
            timeout=self.config.replication_timeout * 10,
        )

    def _reply_sync_state(self, msg: Message, extra: Optional[Dict[str, Any]] = None,
                          on_fail: Optional[Callable[[], None]] = None) -> None:
        """Recovery-source side of a sync pull: snapshot our datalet and
        answer ``msg`` with ``sync_state`` (the data plus the protocol
        cursor fields in ``extra``).  On a failed snapshot ``on_fail``
        undoes whatever the pull armed, then the puller gets an error
        and retries."""

        def with_snap(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "snapshot":
                if on_fail is not None:
                    on_fail()
                self.respond(msg, "error", {"error": f"snapshot failed: {err}"})
                return
            self.respond(msg, "sync_state", {"data": resp.payload["data"], **(extra or {})})

        self.datalet_call("snapshot", {}, callback=with_snap)

    def on_sync_state(self, state: Dict[str, Any]) -> None:
        """Hook: adopt protocol cursors carried by a ``sync_state``
        response (sequence numbers, stream identity, log cursor)."""

    def buffer_catchup(self, msg: Message) -> None:
        self._catchup.append(msg)

    def drain_catchup(self) -> List[Message]:
        buf, self._catchup = self._catchup, []
        return buf

    def on_catchup_drain(self, msgs: List[Message]) -> None:
        """Replay messages buffered during recovery through their
        registered handlers (now that ``recovered`` is True)."""
        for m in msgs:
            handler = self._handlers.get(m.type)
            if handler is not None:
                handler(m)

    # ------------------------------------------------------------------
    # shard-view helpers
    # ------------------------------------------------------------------
    @property
    def my_replica(self) -> Replica:
        return self.shard.replica_of(self.node_id)

    @property
    def is_head(self) -> bool:
        return self.shard.head.controlet == self.node_id

    @property
    def is_tail(self) -> bool:
        return self.shard.tail.controlet == self.node_id

    def peers(self) -> List[Replica]:
        """Every replica in the shard except this one, in chain order."""
        return [r for r in self.shard.ordered() if r.controlet != self.node_id]

    def datalet_call(
        self,
        type: str,
        payload: Dict[str, Any],
        callback: Optional[Callable] = None,
        datalet: Optional[str] = None,
    ) -> None:
        """RPC to a datalet (default: our own).

        Calls to a *colocated* own datalet skip the timeout timer: the
        pair shares a host, so the only way our datalet stops answering
        is the host dying — taking us with it.  Remote datalet calls
        (split placement, AA+SC fan-out writes, recovery snapshots) keep
        the timeout; repeated timeouts against our own remote datalet
        are reported to the coordinator as a ``datalet_failed`` event.
        """
        target = datalet or self.datalet
        own = target == self.datalet
        if callback is not None and own and self.datalet_colocated:
            self.call(target, type, payload, callback=callback, timeout=None)
            return
        if own and not self.datalet_colocated and callback is not None:
            inner = callback

            def watching(resp, err):
                self._note_datalet_result(err)
                inner(resp, err)

            callback = watching
        timeout = self.config.replication_timeout if callback is not None else None
        self.call(target, type, payload, callback=callback, timeout=timeout)

    def _note_datalet_result(self, err) -> None:
        if err is None:
            self._datalet_strikes = 0
            return
        self._datalet_strikes += 1
        if self._datalet_strikes >= 3 and not self._datalet_reported:
            self._datalet_reported = True
            self.send(
                self.coordinator,
                "datalet_failed",
                {"controlet": self.node_id, "datalet": self.datalet,
                 "shard": self.shard.shard_id},
            )

    def refresh_shard(self, then: Optional[Callable[[], None]] = None) -> None:
        """Re-fetch our shard's info from the coordinator (used when a
        chain peer stops responding mid-request)."""

        def on_info(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is not None and resp.type == "shard_info":
                if self._install_shard(
                    ShardInfo.from_dict(resp.payload["shard"]),
                    resp.payload.get("epoch"),
                ):
                    self._install_ring(
                        resp.payload.get("ring"), resp.payload.get("partitioner")
                    )
            if then is not None:
                then()

        self.call(
            self.coordinator,
            "get_shard_info",
            {"shard": self.shard.shard_id},
            callback=on_info,
            timeout=self.config.replication_timeout,
        )

    # ------------------------------------------------------------------
    # client-op entry: retirement / transition forwarding, then dispatch
    # ------------------------------------------------------------------
    def _client_op(self, msg: Message) -> None:
        if self.retired or not self.recovered:
            # not-yet-recovered replacements (visible to clients under
            # AA join-first) bounce ops the same way retired controlets
            # do: the client refreshes its map and retries elsewhere.
            self.stats["errors"] += 1
            self.respond(msg, "error", {"error": "retired"})
            return
        if (
            msg.type != "scan"
            and self._partitioner == "hash"
            and self._ring_gen > 0
            and self._ring is not None
        ):
            # ownership fence: the ring has re-versioned at least once,
            # so routing is no longer derivable from the static shard
            # list — ops for keys the current ring assigns elsewhere are
            # bounced.  The one sanctioned exception is the dual-routed
            # *old-ring* leg of an open, not-yet-fenced reshard window,
            # and only from clients that stamped that window's gen.
            key = msg.payload["key"]
            if self._ring.lookup(key) != self.shard.shard_id:
                win = self._window
                dual_leg = (
                    win is not None
                    and win.gen > self._fenced_gen
                    and msg.payload.get("gen") == win.gen
                    and win.old_owner(key) == self.shard.shard_id
                )
                if not dual_leg:
                    self.stats["errors"] += 1
                    self.respond(msg, "error", {"error": "wrong_shard"})
                    return
        if msg.type in ("put", "del"):
            self._mark_write(msg)
        if self.forward_writes_to is not None and msg.type in ("put", "del"):
            self._forward_write(msg)
            return
        if msg.type == "put":
            self.stats["puts"] += 1
            self.handle_put(msg)
        elif msg.type == "get":
            self.stats["gets"] += 1
            self.handle_get(msg)
        elif msg.type == "del":
            self.stats["dels"] += 1
            self.handle_del(msg)
        else:
            self.stats["scans"] += 1
            self.handle_scan(msg)

    def _mark_write(self, msg: Message) -> None:
        """Dirty-mark an in-window client mutation so a migrated copy
        (an older value by construction) can never clobber it; see
        :meth:`_on_migrate_put`.  Writes are marked only while a window
        is open here (if it moves the key), or when the client stamped a
        newer ring generation than ours — its window began before our
        config_update arrived; those marks wait for that window."""
        key = msg.payload["key"]
        if (msg.payload.get("gen") or 0) > self._ring_gen:
            self._early_marks.add(key)
        elif self._window is not None:
            self._window.mark(key)

    def _marked(self, key: str) -> bool:
        win = self._window
        return (win is not None and key in win.dirty) or key in self._early_marks

    def _forward_write(self, msg: Message) -> None:
        """Transition mode: relay the write to the new controlet and ack
        the client only once the new service has committed it
        (paper Fig 4)."""
        self.stats["forwarded"] += 1
        self.call(
            self.forward_writes_to,
            msg.type,
            dict(msg.payload),
            callback=lambda resp, err: self.respond(
                msg,
                resp.type if resp is not None else "error",
                dict(resp.payload) if resp is not None else {"error": str(err)},
            ),
            timeout=self.config.replication_timeout * 4,
        )

    # ------------------------------------------------------------------
    # request lifecycle: dedup gate + completion
    # ------------------------------------------------------------------
    def begin_write(self, msg: Message, op: str,
                    rid: Optional[str] = None) -> Optional[Request]:
        """Admit a write behind the request-id dedup gate.

        Returns a :class:`~repro.core.request.Request` to execute, or
        ``None`` when the operation was already handled here: a
        completed rid is answered from cache, an in-flight rid parks the
        duplicate message until the first execution completes.  Call
        *after* routing checks (redirect/retired) — a bounced attempt
        must not consume the rid.
        """
        if rid is None:
            ctx = msg.ctx
            if ctx is not None:
                rid = ctx.req_id
        if rid is None and msg.payload.get("mig"):
            # migration copies travel controlet→controlet without a
            # client request context; their rid rides in the payload so
            # FIFO retries of the same copy stay idempotent.
            rid = msg.payload.get("rid")
        if rid is None:
            return Request(self, msg, op)
        cached = self._rid_done.get(rid)
        if cached is not None:
            self.stats["dup_writes"] += 1
            self.respond(msg, cached[0], dict(cached[1]))
            return None
        waiters = self._rid_pending.get(rid)
        if waiters is not None:
            self.stats["dup_writes"] += 1
            waiters.append(msg)
            return None
        self._rid_pending[rid] = []
        return Request(self, msg, op, rid=rid, dedup=True)

    def _complete_request(self, req: Request, type: str,
                          payload: Dict[str, Any]) -> None:
        """Respond to the request's originator and settle dedup state.

        Successful completions are cached (client retries replay the
        answer) and parked duplicate attempts receive the same response.
        Errors clear the pending entry and *re-drive* any parked
        duplicates through dispatch: a retry must stay an independent
        execution, not inherit the first attempt's failure.  Re-driving
        cannot double-apply — every downstream receiver (chain members,
        EC slaves, the shared-log sequencer) gates on the same rid.
        """
        self.respond(req.msg, type, payload)
        if not req.dedup or req.rid is None:
            return
        waiters = self._rid_pending.pop(req.rid, ())
        if type != "error":
            self._remember_rid(req.rid, type, payload)
            for dup in waiters:
                self.respond(dup, type, dict(payload))
        else:
            for dup in waiters:
                self._redrive(dup)

    def _redrive(self, msg: Message) -> None:
        """Re-enter a parked duplicate through normal dispatch (under
        its own request context), as if it had just arrived."""
        handler = self._handlers.get(msg.type)
        if handler is None:
            self.on_unhandled(msg)
            return
        if msg.ctx is not None:
            prev = self._ctx_current
            self._ctx_current = msg.ctx
            try:
                handler(msg)
            finally:
                self._ctx_current = prev
        else:
            handler(msg)

    def _remember_rid(self, rid: str, type: str = "ok",
                      payload: Optional[Dict[str, Any]] = None) -> None:
        """Record a completed write's rid (bounded FIFO cache).

        Also used by replication receivers (chain members, EC slaves)
        that learn a rid from the protocol stream rather than from a
        client-facing completion.
        """
        if rid in self._rid_done:
            return
        if len(self._rid_order) == self._rid_order.maxlen:
            self._rid_done.pop(self._rid_order[0], None)
        self._rid_order.append(rid)
        self._rid_done[rid] = (type, payload if payload is not None else {})

    # -- write path: admission + the accept pump ---------------------------
    def handle_put(self, msg: Message) -> None:
        self._accept_write(msg, "put")

    def handle_del(self, msg: Message) -> None:
        self._accept_write(msg, "del")

    def _accept_write(self, msg: Message, op: str) -> None:
        """Admit a client write: writes entering at a non-head replica
        bounce (unless ``write_redirect_why`` is None — any replica
        accepts), the rid gate runs, and the request joins the accept
        pump (:meth:`_issue_accepts`)."""
        if self.write_redirect_why is not None and not self.is_head:
            self.redirect(msg, self.shard.head.controlet, self.write_redirect_why)
            return
        req = self.begin_write(msg, op)
        if req is None:
            return  # duplicate of a completed/in-flight rid
        self._accepts.push(req)

    def _issue_accepts(self, batch: List[Request], done: Callable[..., None]) -> None:
        """The master-slave accept step: the head's own local applies,
        one coalesced ``apply_batch`` in flight.

        Per-op datalet calls are not enough: response arrival order is
        jittered, so the order writes leave the head (response order)
        could invert the order its datalet applied them — the head would
        then permanently disagree with its replicas on racing same-key
        writes.  One batch in flight pins acceptance order = head apply
        order = replication order, and amortizes the head's WAL fsync
        (one commit group per batch).  Each applied member continues in
        :meth:`_accepted`."""
        ops = [{"op": r.op, "key": r.msg.payload["key"],
                "val": r.msg.payload.get("val")} for r in batch]

        def after_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            done(drain=False)
            if err is not None or resp is None or resp.type == "error":
                self.stats["errors"] += len(batch)
                for req in batch:
                    req.fail(f"local datalet write failed: {err}")
            else:
                results = resp.payload.get("results") or ["ok"] * len(batch)
                for req, status in zip(batch, results):
                    if status != "ok":
                        # e.g. delete of a missing key: nothing applied,
                        # so nothing replicates for this member
                        req.finish("error", {"error": status,
                                             "key": req.msg.payload["key"]})
                    else:
                        self._accepted(req)
            self._accepts.kick()

        self.datalet_call("apply_batch", {"ops": ops, "want_results": True},
                          callback=after_local)

    def _accepted(self, req: Request) -> None:
        """Hook: ``req`` is applied at the head's datalet; replicate it
        and complete the request per the combo's commit point."""
        raise NotImplementedError

    def _issue_apply(self, ops: list, done: Callable[[], None]) -> None:
        """At most one replicated ``apply_batch`` in flight to the
        datalet (EC slaves, shared-log replay).

        Fire-and-forget sends are not enough: the host CPU is a
        multi-slot server, so a small batch chasing a large one (exactly
        the shape a recovering node's catch-up produces — one big
        backlog batch, then the fresh tail) can finish service first and
        apply stream ops out of order, permanently diverging this
        replica.  Found by the rolling-restart chaos schedule; the
        one-in-flight discipline lives in :class:`Pump`."""

        def applied(resp: Optional[Message], err: Optional[BespoError]) -> None:
            done()

        self.datalet_call("apply_batch", {"ops": ops}, callback=applied)

    # -- read path -----------------------------------------------------------
    def handle_get(self, msg: Message) -> None:
        """Default read path: serve from the local datalet."""
        self.datalet_call(
            "get",
            {"key": msg.payload["key"]},
            callback=lambda resp, err: self._relay(msg, resp, err),
        )

    def handle_scan(self, msg: Message) -> None:
        """Default scan path: local datalet (ordered engines only)."""
        self.datalet_call(
            "scan",
            {
                "start": msg.payload["start"],
                "end": msg.payload["end"],
                "limit": msg.payload.get("limit"),
            },
            callback=lambda resp, err: self._relay(msg, resp, err),
        )

    def _relay(self, client_msg: Message, resp: Optional[Message], err: Optional[BespoError]) -> None:
        """Forward a datalet response (or error) back to the client."""
        if err is not None or resp is None:
            self.stats["errors"] += 1
            self.respond(client_msg, "error", {"error": str(err) if err else "no response"})
            return
        self.respond(client_msg, resp.type, dict(resp.payload))

    def redirect(self, msg: Message, to: str, why: str) -> None:
        """Tell a (stale) client to retry against the right replica."""
        self.stats["redirects"] += 1
        self.respond(msg, "error", {"error": "redirect", "to": to, "why": why})

    # ------------------------------------------------------------------
    # reconfiguration & transitions
    # ------------------------------------------------------------------
    def _install_shard(self, shard: ShardInfo, epoch: Optional[int]) -> bool:
        """Adopt a shard view unless we already hold a newer one."""
        if epoch is not None:
            if epoch < self._config_epoch:
                return False
            self._config_epoch = epoch
        self.shard = shard
        return True

    def _on_config_update(self, msg: Message) -> None:
        new_shard = ShardInfo.from_dict(msg.payload["shard"])
        if new_shard.shard_id != self.shard.shard_id:
            return  # not ours; stale broadcast
        if not self._install_shard(new_shard, msg.payload.get("epoch")):
            return  # reordered broadcast older than our current view
        self._install_ring(msg.payload.get("ring"), msg.payload.get("partitioner"))
        self.on_shard_changed()

    def on_shard_changed(self) -> None:
        """Hook: the shard view changed (failover, replica added)."""

    def _on_transition_start(self, msg: Message) -> None:
        """An incoming transition: forward writes to the new service and
        start draining; report readiness when drained."""
        self.forward_writes_to = msg.payload["forward_to"]

        def ready() -> None:
            self.send(
                self.coordinator,
                "transition_ready",
                {"controlet": self.node_id, "shard": self.shard.shard_id},
            )

        self.prepare_retirement(ready)

    def prepare_retirement(self, done: Callable[[], None]) -> None:
        """Drain protocol state built up before the transition; call
        ``done`` when the new controlets can take over.  Default: ready
        immediately (nothing buffered)."""
        done()

    def _on_retire(self, msg: Message) -> None:
        self.retired = True
        self.respond(msg, "ok")

    def _on_stats(self, msg: Message) -> None:
        self.respond(msg, "ctl_stats", {k: float(v) for k, v in self.stats.items()})

    # ------------------------------------------------------------------
    # online resharding: ring install, ownership fence, key migration
    # ------------------------------------------------------------------
    def _install_ring(
        self,
        ring: Optional[Dict[str, Any]],
        partitioner: Optional[str],
    ) -> None:
        """Adopt the routing block of an (epoch-fenced) config payload:
        ring generation + member ids, plus the reshard window when one
        is open.  Callers must only reach here through the epoch fence
        in :meth:`_install_shard` — installing a stale ring would
        re-open a committed window."""
        if partitioner:
            self._partitioner = partitioner
        if not ring:
            return
        self._adopt_window(int(ring.get("gen", 0)), list(ring.get("ids", [])),
                           ring.get("reshard"))

    def _adopt_window(self, gen: int, ids: List[str],
                      desc: Optional[Dict[str, Any]]) -> None:
        """Install ring generation + members and the reshard window
        (``desc`` None: the topology is settled).  Reached from the
        fenced config path and from a ``reshard_migrate`` order, which
        can outrun the config broadcast."""
        if gen != self._ring_gen or ids != self._ring_ids:
            self._ring_gen = gen
            self._ring_ids = ids
            self._ring = HashRing(ids) if ids else None
        if desc is not None:
            self._window = ReshardWindow.adopt(self._window, desc, self._early_marks)
            self._early_marks.clear()
        elif self._window is not None:
            # window committed: the new ring is the only ring now, and
            # the in-window dirty marks have served their purpose
            self._window = None

    # -- source side: drive the per-key copy pump ----------------------
    def _on_reshard_migrate(self, msg: Message) -> None:
        """Coordinator order: this shard's owned range shrinks under the
        new ring — copy every moved key to its new owner, then report
        ``migrate_done``."""
        desc = dict(msg.payload["reshard"])
        gen = int(desc["gen"])
        if self._migration is not None or gen <= self._migrated_gen:
            return  # duplicate order (fabric dup or coordinator retry)
        epoch = msg.payload.get("epoch")
        if epoch is not None and int(epoch) > self._config_epoch:
            self._config_epoch = int(epoch)
        if self._window is None or self._window.gen != gen:
            self._adopt_window(gen, list(desc["new"]), desc)
        self._migrated_gen = gen
        # local import: cluster.migrate builds on Pump from this module
        from repro.cluster.migrate import MigrationPump

        pump = MigrationPump(self._migrate_copy, on_done=self._migration_done)
        self._migration = pump

        def census_ready(keys: List[str]) -> None:
            pump.feed(keys)
            pump.seal()

        self._migrate_barrier(lambda: self._migration_census(census_ready))

    def _migrate_barrier(self, then: Callable[[], None]) -> None:
        """Census barrier: wait until every write admitted *before* the
        window opened is applied to the local engine, so the census read
        sees it — poll :meth:`_census_backlog` until it clears.  Writes
        admitted *during* the window are covered by the destination's
        dirty marks instead."""

        def poll() -> None:
            if self._census_backlog():
                self.set_timer(0.05, poll)
                return
            then()

        poll()

    def _census_backlog(self) -> bool:
        """True while admitted writes may still sit ahead of the local
        engine: queued at, or in flight through, the accept pump."""
        pump = self._accepts
        return pump is not None and (pump.busy or bool(pump.queue))

    def _migration_census(self, then: Callable[[List[str]], None]) -> None:
        """Snapshot the local engine and keep only keys this shard owns
        under the *old* ring whose *new*-ring owner is another shard
        (sorted: deterministic copy order).

        The old-ring clause is load-bearing: a source shard may hold
        stale leftovers of keys that migrated *away* in an earlier
        reshard (copies are not purged at commit).  Those keys are not
        ours to ship — the current owner's value is newer, and none of
        the dirty gates protect a key the open window does not move —
        so re-migrating them would clobber live data at the owner."""

        def have(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "snapshot":
                # datalet briefly unreachable: the census must land
                self.set_timer(0.05, lambda: self._migration_census(then))
                return
            data = resp.payload["data"]
            win = self._window
            assert win is not None
            me = self.shard.shard_id
            then([
                k for k in sorted(data)
                if win.old_owner(k) == me and win.new_owner(k) != me
            ])

        self.datalet_call("snapshot", {}, callback=have)

    def _migrate_copy(self, key: str, complete: Callable[[str], None]) -> None:
        """Copy one key to its new-ring owner: read the local engine,
        ship the value under the copy's rid (:meth:`_send_copy`), map
        the reply to ``moved``/``skipped``/``retry``.  AA+SC wraps this
        in the key's cluster-wide w-lock; AA+EC overrides the send."""
        win = self._window
        shard = win.new_owner(key) if win is not None else None
        if win is None or shard not in win.entries:
            complete("skipped")
            return

        def acked(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type == "error":
                complete("retry")
                return
            complete("skipped" if resp.payload.get("skipped") else "moved")

        def have(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None:
                complete("retry")
                return
            if resp.type != "value":
                complete("skipped")  # vanished at the source (deleted)
                return
            self._send_copy(win, shard, key, resp.payload["val"], acked)

        self.datalet_call("get", {"key": key}, callback=have)

    def _send_copy(self, win: ReshardWindow, shard: str, key: str, val: str,
                   acked: Callable[..., None]) -> None:
        """Send step: an idempotent ``migrate_put`` to the new owner
        shard's entry controlet; retries reuse the copy's rid, so the
        destination's dedup gate keeps them exactly-once."""
        self.call(
            win.entries[shard],
            "migrate_put",
            {"key": key, "val": val, "gen": win.gen, "rid": win.copy_rid(key), "mig": True},
            callback=acked,
            timeout=self.config.replication_timeout,
        )

    def _migration_done(self) -> None:
        pump, self._migration = self._migration, None
        stats = pump.stats() if pump is not None else {}
        self.send(
            self.coordinator,
            "migrate_done",
            {"shard": self.shard.shard_id, **stats},
        )

    # -- destination side: dirty-checked idempotent apply ---------------
    def _on_migrate_put(self, msg: Message) -> None:
        key = msg.payload["key"]
        if self._marked(key):
            # a client wrote this key during the window — the source's
            # copy is older by construction and must not clobber it
            self.respond(msg, "ok", {"skipped": True})
            return
        self._admit_migrate(msg)

    def _admit_migrate(self, msg: Message) -> None:
        """Protocol hook: run a migrated copy through the combo's write
        path (idempotent under the in-band rid; see
        :meth:`begin_write`).  AA+SC overrides — the source already
        holds the cluster-wide lock, so its fan-out must not try to
        re-acquire it."""
        self.handle_put(msg)

    # -- fence: close the old-ring leg before the view flips ------------
    def _on_reshard_fence(self, msg: Message) -> None:
        self._fenced_gen = max(self._fenced_gen, int(msg.payload.get("gen", 0)))
        self.send(self.coordinator, "reshard_fenced", {"controlet": self.node_id})

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Protocol-relevant state for model-checker fingerprints.

        Deliberately excludes ``stats`` (accounting, not behavior) and
        anything clock-valued; see :meth:`Actor.snapshot_state`.
        """
        s = super().snapshot_state()
        s.update({
            "shard_view": [r.controlet for r in self.shard.ordered()],
            "epoch": self._config_epoch,
            "recovered": self.recovered,
            "retired": self.retired,
            "catchup": len(self._catchup),
            "forward_writes_to": self.forward_writes_to,
            "ring_gen": self._ring_gen,
            "reshard_window": self._window is not None,
            "fenced_gen": self._fenced_gen,
        })
        return s
