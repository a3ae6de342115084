"""The open reshard window, as every actor that routes or gates on it holds it.

A :class:`ReshardWindow` is the view's ``{gen, old, new}`` descriptor
made live: both rings, per-key ownership, the keys clients wrote while
it was open (dirty marks) and the gate an ordering authority applies —
a stale-generation client write of a moved key gets ``wrong_shard``
(it would land only on the old owner and be lost at the cutover), a
migrated copy (``mig``) of a dirty key is skipped (it is older by
construction), an in-generation write of a moved key is marked.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set

from repro.hashing.ring import HashRing

__all__ = ["ReshardWindow", "WindowAuthority"]


class ReshardWindow:
    """Both rings of one reshard generation plus its dirty marks."""

    __slots__ = ("gen", "old", "new", "entries", "dirty")

    def __init__(self, desc: Mapping[str, Any], marks: Iterable[str] = ()):
        self.gen = int(desc["gen"])
        self.old = HashRing(list(desc["old"]))
        self.new = HashRing(list(desc["new"]))
        #: entry (ordering-authority) controlet per shard — where the
        #: source sends migrated copies; empty on authority-side windows.
        self.entries: Dict[str, str] = dict(desc.get("entries") or {})
        #: keys clients wrote while the window was open.
        self.dirty: Set[str] = set(marks)

    @classmethod
    def adopt(cls, held: Optional["ReshardWindow"], desc: Mapping[str, Any],
              marks: Iterable[str] = ()) -> "ReshardWindow":
        """The window for ``desc``: ``held`` itself when it already is
        that generation — a repeated announcement (the coordinator
        re-asks on timeout, broadcasts repeat) keeps its dirty marks —
        else a fresh window seeded with ``marks``."""
        if held is not None and held.gen == int(desc["gen"]):
            return held
        return cls(desc, marks)

    # -- ownership -------------------------------------------------------
    def old_owner(self, key: str) -> str:
        return self.old.lookup(key)

    def new_owner(self, key: str) -> str:
        return self.new.lookup(key)

    def moves(self, key: str) -> bool:
        """True when the window re-assigns ``key`` to a new owner."""
        return self.old.lookup(key) != self.new.lookup(key)

    def copy_rid(self, key: str) -> str:
        """Request id of the migrated copy of ``key``: every retry of
        the copy reuses it, so the receiver's dedup gate keeps the copy
        exactly-once."""
        return f"mig.g{self.gen}.{key}"

    # -- authority gate ----------------------------------------------------
    def stale(self, key: str, gen: Any) -> bool:
        """A client write of a moved key stamped with another ring
        generation: its sender has not adopted this window."""
        return self.moves(key) and gen != self.gen

    def mark(self, key: str) -> None:
        """Record a client write of ``key`` if the window moves it."""
        if self.moves(key):
            self.dirty.add(key)

    def admit(self, key: str, gen: Any, mig: bool) -> Optional[str]:
        """One gate decision for a write reaching the authority in a
        single step: ``None`` to go ahead (marking an in-generation
        client write of a moved key), ``"skipped"`` for a copy of a
        dirty key, ``"wrong_shard"`` for a stale-generation write."""
        if not self.moves(key):
            return None
        if mig:
            return "skipped" if key in self.dirty else None
        if gen != self.gen:
            return "wrong_shard"
        self.dirty.add(key)
        return None


class WindowAuthority:
    """``reshard_begin``/``reshard_end`` handlers of an ordering authority
    (the DLM, each shard-log sequencer), armed before any controlet or
    client learns the window so every write it orders passes the gate."""

    _window: Optional[ReshardWindow]

    def _on_reshard_begin(self, msg: Any) -> None:
        self._window = ReshardWindow.adopt(self._window, msg.payload)
        self.respond(msg, "ok", {"gen": self._window.gen})  # type: ignore[attr-defined]

    def _on_reshard_end(self, msg: Any) -> None:
        if self._window is not None and self._window.gen == int(msg.payload.get("gen", -1)):
            self._window = None

    @property
    def window_gen(self) -> int:
        """Generation of the open window, 0 when settled."""
        return self._window.gen if self._window is not None else 0
