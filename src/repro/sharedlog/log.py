"""CORFU-style shared log: sequencer + segmented storage + cursors."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.cluster.window import WindowAuthority
from repro.errors import BespoError
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["LogEntry", "SharedLog", "SharedLogActor", "shard_log_id"]


@dataclass(frozen=True)
class LogEntry:
    """One totally-ordered record.

    ``rid`` is the client request id the write was appended under (None
    for unstamped writers); replaying consumers forward it so secondary
    propagation paths (the AA-MS hybrid's slaves) inherit the identity.
    """

    pos: int
    writer: str
    op: str
    key: str
    value: Optional[str]
    rid: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"pos": self.pos, "writer": self.writer, "op": self.op,
                "key": self.key, "value": self.value, "rid": self.rid}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LogEntry":
        return cls(int(d["pos"]), str(d["writer"]), str(d["op"]),
                   str(d["key"]), d["value"], d.get("rid"))


class SharedLog:
    """Synchronous core: append-ordered segments with trimming."""

    def __init__(self, segment_size: int = 4096):
        if segment_size < 1:
            raise BespoError(f"segment_size must be >= 1, got {segment_size}")
        self._segment_size = segment_size
        self._segments: List[List[LogEntry]] = [[]]
        self._base = 0  # global position of the first retained entry
        self._next = 0  # next position the sequencer will hand out

    @property
    def tail(self) -> int:
        """Next position to be written (= current length incl. trimmed)."""
        return self._next

    @property
    def base(self) -> int:
        return self._base

    def append(self, writer: str, op: str, key: str, value: Optional[str],
               rid: Optional[str] = None) -> LogEntry:
        entry = LogEntry(self._next, writer, op, key, value, rid)
        self._next += 1
        if len(self._segments[-1]) >= self._segment_size:
            self._segments.append([])
        self._segments[-1].append(entry)
        return entry

    def read(self, pos: int) -> LogEntry:
        if pos < self._base:
            raise BespoError(f"position {pos} trimmed (base={self._base})")
        if pos >= self._next:
            raise BespoError(f"position {pos} beyond tail {self._next}")
        offset = pos - self._base
        for seg in self._segments:
            if offset < len(seg):
                return seg[offset]
            offset -= len(seg)
        raise BespoError(f"position {pos} missing (corrupt segment chain)")

    def fetch_from(self, pos: int, max_entries: int = 128) -> List[LogEntry]:
        """Entries at positions >= ``pos`` (bounded), for polling readers."""
        start = max(pos, self._base)
        out: List[LogEntry] = []
        p = start
        while p < self._next and len(out) < max_entries:
            out.append(self.read(p))
            p += 1
        return out

    def trim(self, pos: int) -> int:
        """Discard entries below ``pos``; returns how many were dropped.

        The paper: "The duration to keep the requests in Shared Log is
        configurable" — controlets trim once all replicas ack a prefix.
        """
        pos = min(pos, self._next)
        dropped = 0
        while self._base < pos:
            seg = self._segments[0]
            take = min(len(seg), pos - self._base)
            del seg[:take]
            self._base += take
            dropped += take
            if not seg and len(self._segments) > 1:
                self._segments.pop(0)
        return dropped

    def __len__(self) -> int:
        return self._next - self._base


def shard_log_id(shard_id: str) -> str:
    """Actor id of a shard's log sequencer (one per AA+EC shard)."""
    return f"sharedlog.{shard_id}"


class SharedLogActor(WindowAuthority, Actor):
    """Message front-end.

    Protocol:

    * ``log_append`` {op, key, val[, rid]} → ``appended`` {pos[, dup]}
    * ``log_append_batch`` {entries: [{op, key, val[, rid]}, ...]} →
      ``appended_batch`` {results: [{pos[, dup]}, ...]} — one sequenced
      group commit; entries are ordered (and rid-deduplicated) exactly
      as if appended one by one, but the sequencer round-trip and most
      of the append handling are paid once per batch
    * ``log_fetch`` {pos, max} → ``entries`` {entries, tail}
    * ``log_trim`` {pos} → ``ok`` {dropped}

    **Sequencer-side dedup**: the sequencer is the one total-order
    point every AA+EC write passes through, so it also owns duplicate
    suppression.  An append carrying a ``rid`` already sequenced is
    *not* re-appended — the original position is returned with
    ``dup: True`` so the accepting active acks without re-applying.
    This catches client retries routed to a different active, which no
    per-controlet cache can see.

    **Auto-trim** ("the duration to keep the requests in Shared Log is
    configurable", App C-C): a reader's ``log_fetch`` at position *p*
    acknowledges everything below *p*; once the retained window exceeds
    ``high_watermark`` entries, the log trims to the minimum cursor
    across all readers seen so far.  Readers that start at the tail
    (transition/recovery joiners) never hold the window open.
    """

    def __init__(
        self,
        node_id: str = "sharedlog",
        segment_size: int = 4096,
        high_watermark: Optional[int] = 65536,
    ):
        super().__init__(node_id)
        self.log = SharedLog(segment_size)
        self.high_watermark = high_watermark
        self._cursors: Dict[str, int] = {}
        self.auto_trims = 0
        self.appends = 0
        self.dup_appends = 0
        self.batch_appends = 0
        self.batched_entries = 0
        #: rid → sequenced position, bounded FIFO (dedup window).
        self._rid_pos: Dict[str, int] = {}
        self._rid_order: Deque[str] = deque(maxlen=65536)
        #: open reshard window: the sequencer is the ordering authority
        #: for its AA+EC shard (see :class:`WindowAuthority`).
        self._window = None
        # Single-append entry point: controlets now group-commit via
        # log_append_batch, but the one-at-a-time surface stays for
        # external writers and tooling (identical dedup semantics).
        self.register("log_append", self._on_append)  # protocol: external
        self.register("log_append_batch", self._on_append_batch)
        self.register("log_fetch", self._on_fetch)
        # Operator/retention API: driven from outside the actor system
        # (tests, admin tooling); in-cluster trimming happens via the
        # auto-trim watermark above.
        self.register("log_trim", self._on_trim)  # protocol: external
        self.register("reshard_begin", self._on_reshard_begin)
        self.register("reshard_end", self._on_reshard_end)

    def service_demand(self, msg: Message, costs) -> float:
        if msg.type == "log_append":
            return costs.scaled("sharedlog_append_cost")
        if msg.type == "log_append_batch":
            # group commit: full append handling once, then only the
            # marginal sequencing cost per extra entry
            n = len(msg.payload["entries"])
            return costs.scaled("sharedlog_append_cost") + max(0, n - 1) * (
                costs.scaled("sharedlog_append_entry_cost")
            )
        return costs.scaled("sharedlog_fetch_cost")

    def _on_append(self, msg: Message) -> None:
        result = self._append_one(msg.src, msg.payload, msg.payload.get("gen"))
        self.respond(msg, "appended", result)

    def _append_one(
        self, writer: str, d: Dict[str, Any], gen: Optional[int] = None
    ) -> Dict[str, Any]:
        """Sequence one entry; same dedup semantics for single and batch
        appends (a rid already sequenced keeps its original position and
        is not re-appended).

        During a reshard window every entry passes the window gate
        (:meth:`ReshardWindow.admit`); a refusal answers ``skipped`` or
        ``wrong_shard`` instead of a position.  Clean migrated copies
        enter the log as plain put entries, so replaying replicas need
        no special casing."""
        rid = d.get("rid")
        if rid is not None:
            pos = self._rid_pos.get(rid)
            if pos is not None:
                self.dup_appends += 1
                return {"pos": pos, "dup": True}
        win = self._window
        if win is not None:
            refused = win.admit(d["key"], gen, bool(d.get("mig")))
            if refused is not None:
                return {refused: True}
        entry = self.log.append(
            writer=writer, op=d["op"], key=d["key"], value=d.get("val"), rid=rid,
        )
        if rid is not None:
            if len(self._rid_order) == self._rid_order.maxlen:
                self._rid_pos.pop(self._rid_order[0], None)
            self._rid_order.append(rid)
            self._rid_pos[rid] = entry.pos
        self.appends += 1
        return {"pos": entry.pos}

    def _on_append_batch(self, msg: Message) -> None:
        """One group-commit batch: members are sequenced in payload
        order, atomically adjacent in the log (no interleaving with
        other writers' appends — the handler runs to completion)."""
        gen = msg.payload.get("gen")
        results = [
            self._append_one(msg.src, d, gen) for d in msg.payload["entries"]
        ]
        self.batch_appends += 1
        self.batched_entries += len(results)
        self.respond(msg, "appended_batch", {"results": results})

    def metrics_group(self) -> Dict[str, float]:
        return {
            "appends": self.appends,
            "dup_appends": self.dup_appends,
            "batch_appends": self.batch_appends,
            "batched_entries": self.batched_entries,
            "auto_trims": self.auto_trims,
            "tail": self.log.tail,
            "retained": len(self.log),
        }

    def _on_fetch(self, msg: Message) -> None:
        pos = msg.payload["pos"]
        entries = self.log.fetch_from(pos, msg.payload.get("max", 128))
        self.respond(
            msg,
            "entries",
            {"entries": [e.to_dict() for e in entries], "tail": self.log.tail},
        )
        # everything below the fetch position is acknowledged by this reader
        self._cursors[msg.src] = max(
            self._cursors.get(msg.src, 0), min(pos, self.log.tail)
        )
        self._maybe_auto_trim()

    def _maybe_auto_trim(self) -> None:
        if self.high_watermark is None or len(self.log) <= self.high_watermark:
            return
        if not self._cursors:
            return
        safe = min(self._cursors.values())
        if safe > self.log.base:
            self.log.trim(safe)
            self.auto_trims += 1

    # -- model-checker introspection -----------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s.update({
            "reshard_gen": self.window_gen,
            "base": self.log.base,
            "tail": self.log.tail,
            "entries": [
                [e.pos, e.writer, e.op, e.key, e.value]
                for e in self.log.fetch_from(self.log.base, len(self.log))
            ],
            "cursors": dict(self._cursors),
        })
        return s

    def _on_trim(self, msg: Message) -> None:
        dropped = self.log.trim(msg.payload["pos"])
        self.respond(msg, "ok", {"dropped": dropped})
