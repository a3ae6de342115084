"""Lease-based reader/writer lock table and its message front-end."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.window import WindowAuthority
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["LockTable", "LockManagerActor"]


@dataclass
class _LockState:
    """Per-key lock: either one writer or any number of readers."""

    writer: Optional[str] = None
    readers: Set[str] = field(default_factory=set)
    #: FIFO of (owner, mode, grant_callback) waiting for the lock.
    waiters: Deque[Tuple[str, str, Callable[[], None]]] = field(default_factory=deque)

    @property
    def free(self) -> bool:
        return self.writer is None and not self.readers


class LockTable:
    """Synchronous core of the lock manager (unit-testable sans actor).

    ``acquire`` returns True when granted immediately; otherwise the
    callback fires on grant.  Fairness is FIFO: a queued writer blocks
    later readers (no writer starvation).
    """

    def __init__(self) -> None:
        self._locks: Dict[str, _LockState] = {}
        self.grants = 0
        self.contentions = 0

    def _state(self, key: str) -> _LockState:
        st = self._locks.get(key)
        if st is None:
            st = self._locks[key] = _LockState()
        return st

    def acquire(self, key: str, owner: str, mode: str, on_grant: Callable[[], None]) -> bool:
        if mode not in ("r", "w"):
            raise ValueError(f"lock mode must be 'r' or 'w', got {mode!r}")
        st = self._state(key)
        if self._grantable(st, mode):
            self._grant(st, owner, mode)
            on_grant()
            return True
        self.contentions += 1
        st.waiters.append((owner, mode, on_grant))
        return False

    def _grantable(self, st: _LockState, mode: str) -> bool:
        if st.writer is not None:
            return False
        if mode == "w":
            return not st.readers
        # readers may pile on only if no writer is queued (fairness)
        return not st.waiters

    def _grant(self, st: _LockState, owner: str, mode: str) -> None:
        if mode == "w":
            st.writer = owner
        else:
            st.readers.add(owner)
        self.grants += 1

    def release(self, key: str, owner: str) -> bool:
        """Release ``owner``'s hold; returns False if it held nothing."""
        st = self._locks.get(key)
        if st is None:
            return False
        if st.writer == owner:
            st.writer = None
        elif owner in st.readers:
            st.readers.discard(owner)
        else:
            return False
        self._wake(key, st)
        return True

    def _wake(self, key: str, st: _LockState) -> None:
        granted: List[Callable[[], None]] = []
        while st.waiters:
            owner, mode, cb = st.waiters[0]
            if not self._grantable_ignoring_queue(st, mode):
                break
            st.waiters.popleft()
            self._grant(st, owner, mode)
            granted.append(cb)
            if mode == "w":
                break
        if st.free and not st.waiters:
            del self._locks[key]
        for cb in granted:
            cb()

    @staticmethod
    def _grantable_ignoring_queue(st: _LockState, mode: str) -> bool:
        if st.writer is not None:
            return False
        if mode == "w":
            return not st.readers
        return True

    def holders(self, key: str) -> Tuple[Optional[str], Set[str]]:
        st = self._locks.get(key)
        if st is None:
            return None, set()
        return st.writer, set(st.readers)

    def queue_len(self, key: str) -> int:
        st = self._locks.get(key)
        return len(st.waiters) if st else 0


class LockManagerActor(WindowAuthority, Actor):
    """DLM server.

    Protocol: ``lock`` {key, mode} → ``granted``; ``unlock`` {key} →
    ``ok``.  Each grant carries a lease; if the holder neither unlocks
    nor renews within ``lease``, the lock auto-releases.
    """

    def __init__(self, node_id: str = "dlm", lease: float = 1.0):
        super().__init__(node_id)
        self.table = LockTable()
        self.lease = lease
        self._lease_timers: Dict[Tuple[str, str], object] = {}
        self.expired = 0
        #: open reshard window: the DLM is the ordering authority for
        #: AA+SC shards (see :class:`WindowAuthority`); its dirty marks
        #: are the moved keys written under a w-lock during the window.
        self._window = None
        self.register("lock", self._on_lock)
        self.register("unlock", self._on_unlock)
        self.register("reshard_begin", self._on_reshard_begin)
        self.register("reshard_end", self._on_reshard_end)

    def service_demand(self, msg: Message, costs) -> float:
        return costs.scaled("dlm_overhead")

    def metrics_group(self) -> Dict[str, float]:
        return {
            "grants": self.table.grants,
            "contentions": self.table.contentions,
            "expired": self.expired,
        }

    def _on_lock(self, msg: Message) -> None:
        key = msg.payload["key"]
        mode = msg.payload.get("mode", "w")
        owner = msg.src
        win = self._window
        if (
            win is not None
            and mode == "w"
            and not msg.payload.get("mig")
            and win.stale(key, msg.payload.get("gen"))
        ):
            # Backstop against stale routing: a write for a moved key
            # from a controlet that has not adopted the window's ring
            # generation would land only on the old owner and be lost
            # at the cutover.  Bounce it — the client refreshes its map
            # and re-issues the (dual-routed) write.
            self.respond(msg, "error", {"error": "wrong_shard"})
            return

        def grant() -> None:
            timer = self.set_timer(self.lease, lambda: self._expire(key, owner))
            self._lease_timers[(key, owner)] = timer
            payload: Dict[str, object] = {"key": key, "lease": self.lease}
            w = self._window
            if w is not None and mode == "w":
                if msg.payload.get("mig"):
                    # migration driver: tell it whether a client write
                    # beat it to the key (evaluated at *grant* time —
                    # writes that queued ahead of us have marked by now)
                    payload["dirty"] = key in w.dirty
                else:
                    w.mark(key)
            self.respond(msg, "granted", payload)

        self.table.acquire(key, owner, mode, grant)

    def _on_unlock(self, msg: Message) -> None:
        key = msg.payload["key"]
        owner = msg.src
        timer = self._lease_timers.pop((key, owner), None)
        if timer is not None:
            timer.cancel()  # type: ignore[attr-defined]
        released = self.table.release(key, owner)
        self.respond(msg, "ok", {"released": released})

    def _expire(self, key: str, owner: str) -> None:
        """Lease ran out: force-release so a dead holder cannot deadlock
        the shard (paper App C-B)."""
        if self._lease_timers.pop((key, owner), None) is not None:
            if self.table.release(key, owner):
                self.expired += 1

    # -- model-checker introspection -----------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s["reshard_gen"] = self.window_gen
        s["locks"] = {
            key: {
                "writer": st.writer,
                "readers": sorted(st.readers),
                "queue": [(owner, mode) for owner, mode, _cb in st.waiters],
            }
            for key, st in sorted(self.table._locks.items())
        }
        return s
