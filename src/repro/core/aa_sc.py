"""AA+SC controlet: Active-Active topology, Strong Consistency via the
distributed lock manager (paper App C-B, Fig 15b).

Any active controlet accepts any request.  A write takes an exclusive
DLM lock on the key, applies the value to **every** replica's datalet,
releases the lock and acks.  A read takes a shared lock, reads the
local datalet and releases.  The DLM round-trips and hot-key
serialization are the paper's explanation for AA+SC's flat scaling in
Fig 7 ("lock contention at the DLM caps the performance").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.controlet import Controlet
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["AAStrongControlet"]


class AAStrongControlet(Controlet):
    """DLM-locking controlet."""

    def __init__(self, *args, dlm: str = "dlm", **kwargs):
        super().__init__(*args, **kwargs)
        self.dlm = dlm
        self.lock_waits = 0
        #: a recovering replacement every write we apply is relayed to
        #: (we are its recovery source) until it confirms its catch-up
        #: buffer is drained — closes the snapshot/join window for
        #: writers whose shard view predates the join.
        self._relay_to: Optional[str] = None
        self.register("peer_apply", self._on_peer_apply)
        self.register("aa_sync_pull", self._on_aa_sync_pull)
        self.register("aa_sync_complete", self._on_aa_sync_complete)

    # ------------------------------------------------------------------
    # hole-free recovery (replacement active)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        self.sync_recover("aa_sync_pull")

    def _on_aa_sync_pull(self, msg: Message) -> None:
        """We are the recovery source: start relaying every write we
        apply to the replacement *before* snapshotting, so snapshot ∪
        relayed writes covers everything committed here."""
        self._relay_to = msg.payload["controlet"]

        def forget() -> None:
            self._relay_to = None

        self._reply_sync_state(msg, on_fail=forget)

    def _on_aa_sync_complete(self, msg: Message) -> None:
        if msg.payload.get("controlet") == self._relay_to:
            self._relay_to = None

    def on_catchup_drain(self, msgs) -> None:
        super().on_catchup_drain(msgs)
        src = self.source_controlet()
        if src is not None:
            self.send(src, "aa_sync_complete", {"controlet": self.node_id})

    # ------------------------------------------------------------------
    # replication (peer controlet applies one write to its datalet)
    # ------------------------------------------------------------------
    def _on_peer_apply(self, msg: Message) -> None:
        if not self.recovered:
            # Recovering replacement (visible in the shard view under
            # join-first): buffer and ack.  Safe because the writer's
            # DLM lock is released only after *all* replicas acked, so
            # a later same-key write cannot overtake this one.
            self.buffer_catchup(msg)
            # Not the client commit point: the writer settles only
            # after *all* replicas ack under the DLM lock, so the write
            # is durable on the live fan-out; the buffer replays after
            # restore (combo aa-sc).
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")
            return
        op = msg.payload["op"]
        payload = {"key": msg.payload["key"]}
        if op == "put":
            payload["val"] = msg.payload["val"]
        relay_to = self._relay_to
        # No dedup gate here: retries of an AA write may enter at a
        # *different* active, so a peer-level rid cache could answer for
        # a fan-out that never completed.  The Request only joins the
        # local apply with the optional recovery relay.
        req = Request(self, msg, op)
        req.arm(2 if relay_to else 1)

        def on_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            req.settle(err, resp)

        def on_relay(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None and self._relay_to == relay_to:
                # the recovering replacement died; stop relaying (its
                # next pull retry re-snapshots, so nothing is lost) —
                # the relay leg never fails the peer_apply itself
                self._relay_to = None
            req.settle()

        self.datalet_call(op, payload, callback=on_local)
        if relay_to is not None:
            self.call(
                relay_to,
                "peer_apply",
                dict(msg.payload),
                callback=on_relay,
                timeout=self.config.replication_timeout,
            )

    # ------------------------------------------------------------------
    # locking helpers
    # ------------------------------------------------------------------
    def _with_lock(self, key: str, mode: str, body,
                   fail: Callable[[str], None]) -> None:
        """Acquire → body(); ``fail(error)`` if the grant never comes."""

        def on_grant(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "granted":
                self.stats["errors"] += 1
                if (
                    resp is not None
                    and resp.type == "error"
                    and resp.payload.get("error") == "wrong_shard"
                ):
                    # DLM reshard backstop: our ring view is stale for
                    # this (moved) key — surface it so the client
                    # refreshes and re-routes.
                    fail("wrong_shard")
                    return
                fail(f"lock acquisition failed: {err}")
                return
            body()

        self._lock(key, mode, on_grant)

    def _lock(self, key: str, mode: str, on_grant: Callable[..., None],
              mig: bool = False) -> None:
        # the ring generation rides along so the DLM can fence
        # stale-routed writes during a reshard window
        payload = {"key": key, "mode": mode, "gen": self._ring_gen}
        if mig:
            payload["mig"] = True
        self.lock_waits += 1
        self.call(self.dlm, "lock", payload, callback=on_grant,
                  timeout=self.config.lock_lease * 4)

    def _unlock(self, key: str) -> None:
        self.send(self.dlm, "unlock", {"key": key})

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _accept_write(self, msg: Message, op: str) -> None:
        key = msg.payload["key"]
        # The dedup gate only catches a retry re-entering at *this*
        # active (routing may send other attempts elsewhere — the oracle
        # keeps modeling those as potential duplicates, see chaos/oracle).
        req = self.begin_write(msg, op)
        if req is None:
            return

        def body() -> None:
            payload = {"op": op, "key": key}
            if op == "put":
                payload["val"] = msg.payload["val"]
            self._fan_out(req, payload, unlock=True)

        self._with_lock(key, "w", body, req.fail)

    def _fan_out(self, req: Request, payload: Dict[str, Any], unlock: bool) -> None:
        """Apply a write at every active while the key's cluster-wide
        w-lock is held — by us (``unlock``: release it once every active
        answered) or by a migration driver.  Fan out through every
        replica's *controlet* (not its datalet; paper Fig 15b steps
        4-5): the controlet is the point where a recovery relay or a
        catch-up buffer can intercept the write, which a datalet-direct
        write would bypass."""

        def finish(error: Optional[str]) -> None:
            if unlock:
                self._unlock(payload["key"])
            if error is not None:
                self.stats["errors"] += 1
                req.fail(error)
            else:
                req.ack()

        targets = [r.controlet for r in self.shard.ordered()]
        req.arm(len(targets), then=finish)

        def on_ack(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None:
                req.settle(str(err))
            elif resp is not None and resp.type == "error" and payload["op"] == "put":
                req.settle(str(resp.payload))
            else:
                req.settle()

        for target in targets:
            self.call(
                target,
                "peer_apply",
                dict(payload),
                callback=on_ack,
                timeout=self.config.replication_timeout,
            )

    # ------------------------------------------------------------------
    # resharding: lock-serialized migration
    # ------------------------------------------------------------------
    def _migrate_copy(self, key, complete) -> None:
        """Copy one moved key under the cluster-wide w-lock: the grant
        tells us (``dirty``) whether a client write beat us to the key
        during the window — then the copy would clobber a newer value
        and is skipped.  The DLM serializes us against every concurrent
        writer, so a clean grant means the local engine's value *is*
        the key's latest committed state (AA+SC applies acked writes at
        all replicas); the base template then reads and ships it."""
        copy = super()._migrate_copy

        def done(outcome: str) -> None:
            self._unlock(key)
            complete(outcome)

        def on_grant(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "granted":
                complete("retry")  # no lock held: retry from scratch
                return
            if resp.payload.get("dirty"):
                done("skipped")
                return
            copy(key, done)

        self._lock(key, "w", on_grant, mig=True)

    def _admit_migrate(self, msg: Message) -> None:
        """The migration driver already holds the cluster-wide w-lock on
        this key, so the destination fan-out must not re-acquire it (it
        would queue behind its own driver forever)."""
        req = self.begin_write(msg, "put", rid=msg.payload.get("rid"))
        if req is None:
            return
        payload = {"op": "put", "key": msg.payload["key"], "val": msg.payload["val"]}
        self._fan_out(req, payload, unlock=False)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def handle_get(self, msg: Message) -> None:
        key = msg.payload["key"]
        if msg.payload.get("consistency") == "eventual":
            # per-request relaxation skips the read lock entirely
            super().handle_get(msg)
            return

        def body() -> None:
            def on_value(resp: Optional[Message], err: Optional[BespoError]) -> None:
                self._unlock(key)
                self._relay(msg, resp, err)

            self.datalet_call("get", {"key": key}, callback=on_value)

        def fail(error: str) -> None:
            self.respond(msg, "error", {"error": error})

        self._with_lock(key, "r", body, fail)

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s["relay_to"] = self._relay_to
        return s
