"""The coordinator actor.

Responsibilities (paper §III, Table III):

1. **Metadata server** — authoritative :class:`ClusterMap`, served to
   clients (``get_cluster_map``) and controlets (``get_shard_info``).
2. **Liveness** — controlets heartbeat periodically; a sweep declares a
   node dead after ``failure_timeout`` without one.
3. **Failover** — on a death: repair the shard (chain re-linking /
   leader election), bump the epoch, push ``config_update`` to
   survivors, and launch a replacement controlet-datalet pair on a
   standby host; when the replacement reports ``recovery_done`` it
   joins as the new tail.
4. **Transition manager** (§V) — orchestrates live topology/consistency
   switches with the dual-controlet handover protocol.

Spawning new actors requires constructing them inside the hosting
runtime, so the coordinator takes two injected factories from the
deployment layer: ``spawner`` (replacement pairs) and
``transition_spawner`` (a parallel controlet set over existing
datalets).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.cluster.view import RESHARD_ADD, RESHARD_REMOVE, ClusterView
from repro.core.config import ControlConfig
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.net.actor import Actor
from repro.net.message import Message
from repro.sharedlog.log import shard_log_id

__all__ = ["CoordinatorActor"]

#: (shard, recovery_source_datalet) -> new Replica, or None if no standby.
Spawner = Callable[[ShardInfo, str], Optional[Replica]]
#: (shard, topology, consistency) -> new ShardInfo with fresh controlets.
TransitionSpawner = Callable[[ShardInfo, Topology, Consistency], ShardInfo]
#: () -> a fresh ShardInfo (spawned controlet/datalet pairs + shared log
#: when the combo needs one), or None when capacity is exhausted.
ReshardSpawner = Callable[[], Optional[ShardInfo]]


class CoordinatorActor(Actor):
    """ZooKeeper-backed coordinator stand-in."""

    def __init__(
        self,
        node_id: str = "coordinator",
        cluster_map: Optional[ClusterMap] = None,
        config: Optional[ControlConfig] = None,
        spawner: Optional[Spawner] = None,
        transition_spawner: Optional[TransitionSpawner] = None,
        reshard_spawner: Optional[ReshardSpawner] = None,
        partitioner: str = "hash",
        dlm: str = "dlm",
    ):
        super().__init__(node_id)
        #: the epoch'd membership view; ``self.map`` stays an alias of
        #: the (shared) underlying ClusterMap so the deployment harness,
        #: model checker and tests keep observing every change.
        self.view = ClusterView(cluster_map if cluster_map is not None else ClusterMap())
        self.map = self.view.map
        self.config = config or ControlConfig()
        self.spawner = spawner
        self.transition_spawner = transition_spawner
        self.reshard_spawner = reshard_spawner
        self.partitioner = partitioner
        self.dlm = dlm
        self._last_seen: Dict[str, float] = {}
        self._dead: Set[str] = set()
        #: desired replica count per shard: repairs refill to this
        #: level and never past it (a promoted standby working from a
        #: stale map must not spawn a second replacement for a death
        #: the old primary already repaired).
        self._shard_target: Dict[str, int] = {
            sid: len(s.replicas) for sid, s in self.map.shards.items()
        }
        #: controlets whose replacement is being recovered.
        self._recovering: Dict[str, str] = {}  # new controlet -> shard
        #: replicas spawned but not yet recovered (see register_pending).
        self._pending_replicas: Dict[str, Replica] = {}
        #: in-flight transitions per shard.
        self._transitions: Dict[str, Dict[str, object]] = {}
        self._transition_requester: Optional[Message] = None
        #: in-flight reshard (double-ring cutover) state machine.
        self._reshard: Optional[Dict[str, object]] = None
        self.failovers = 0
        self.register("heartbeat", self._on_heartbeat)
        self.register("datalet_failed", self._on_datalet_failed)
        self.register("get_cluster_map", self._on_get_map)
        self.register("get_shard_info", self._on_get_shard)
        self.register("recovery_done", self._on_recovery_done)
        self.register("request_transition", self._on_request_transition)
        self.register("transition_ready", self._on_transition_ready)
        self.register("request_reshard", self._on_request_reshard)
        self.register("migrate_done", self._on_migrate_done)
        self.register("reshard_fenced", self._on_reshard_fenced)

    def service_demand(self, msg: Message, costs) -> float:
        return costs.scaled("coordinator_overhead")

    def metrics_group(self) -> Dict[str, float]:
        return {
            "failovers": self.failovers,
            "recovering": len(self._recovering),
            "pending_replicas": len(self._pending_replicas),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        now = self.now()
        for shard in self.map.shards.values():
            for r in shard.replicas:
                self._last_seen.setdefault(r.controlet, now)
        # The deployment populates the (shared) map after constructing
        # us, so repair targets are captured here, not in __init__.
        self._record_targets()
        if not self.view.log and self.map.shards:
            # the ctor saw an empty map; log the seed membership now
            # (a note, not a commit: epoch numbering must not shift)
            self.view.note("bootstrap", ",".join(self.map.shard_ids()))
        # phase-staggered first arm: the sweep must never share a
        # timestamp with the follower-sync loop (same period, same boot)
        self.set_timer(
            self.config.heartbeat_interval
            + self.loop_phase("sweep", self.config.heartbeat_interval),
            self._sweep,
        )

    def _record_targets(self) -> None:
        for sid, shard in self.map.shards.items():
            self._shard_target.setdefault(sid, len(shard.replicas))

    # ------------------------------------------------------------------
    # metadata queries
    # ------------------------------------------------------------------
    def _on_get_map(self, msg: Message) -> None:
        self.respond(
            msg,
            "cluster_map",
            {
                "map": self.map.to_dict(),
                "view": self.view.ring_info(),
                "partitioner": self.partitioner,
            },
        )

    def _on_get_shard(self, msg: Message) -> None:
        sid = msg.payload["shard"]
        if sid not in self.map.shards:
            self.respond(msg, "error", {"error": f"unknown shard {sid!r}"})
            return
        self.respond(
            msg,
            "shard_info",
            {
                "shard": self.map.shard(sid).to_dict(),
                "epoch": self.map.epoch,
                "ring": self.view.ring_info(),
                "partitioner": self.partitioner,
            },
        )

    # ------------------------------------------------------------------
    # liveness & failover
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: Message) -> None:
        self._last_seen[msg.payload["controlet"]] = self.now()

    def _on_datalet_failed(self, msg: Message) -> None:
        """Split-placement failure report: a controlet's (remote)
        datalet stopped answering.  The pair is repaired as a unit —
        the orphaned controlet is retired and the shard relinked, the
        same path a missed host heartbeat takes."""
        controlet = msg.payload["controlet"]
        sid = msg.payload["shard"]
        if controlet in self._dead or sid not in self.map.shards:
            return
        shard = self.map.shard(sid)
        try:
            replica = shard.replica_of(controlet)
        except Exception:  # noqa: BLE001 - stale report after repair
            return
        self._handle_failure(shard, replica)
        self.send(controlet, "retire", {})

    def _sweep(self) -> None:
        now = self.now()
        for shard in list(self.map.shards.values()):
            for replica in shard.ordered():
                c = replica.controlet
                if c in self._dead:
                    continue
                seen = self._last_seen.get(c, now)
                if now - seen > self.config.failure_timeout:
                    self._handle_failure(shard, replica)
        self.set_timer(self.config.heartbeat_interval, self._sweep)

    def _handle_failure(self, shard: ShardInfo, dead: Replica) -> None:
        """Chain repair + leader election + replacement launch."""
        self.failovers += 1
        self._dead.add(dead.controlet)
        # If the dead node was itself a mid-recovery replacement
        # (AA-strong join-first), its in-flight entry must not count
        # toward shard strength below.
        self._recovering.pop(dead.controlet, None)
        self._pending_replicas.pop(dead.controlet, None)
        shard.remove_replica(dead.controlet)
        # Re-number the chain: if the head died this *is* the leader
        # election (second node promoted); if a mid/tail died the chain
        # simply re-links around it.
        for pos, replica in enumerate(shard.ordered()):
            replica.chain_pos = pos
        self.view.commit("failover", f"{shard.shard_id}:-{dead.controlet}")
        self._broadcast_config(shard)

        # Refill toward the deployment's target strength, counting
        # replacements already in flight: a promoted standby replaying a
        # death from a stale map (the old primary repaired it, then died
        # before syncing) must not spawn a second replacement.
        target = self._shard_target.get(shard.shard_id, len(shard.replicas) + 1)
        inflight = sum(1 for sid in self._recovering.values() if sid == shard.shard_id)
        if (
            self.spawner is not None
            and shard.replicas
            and len(shard.replicas) + inflight < target
        ):
            # Recover from the current tail: under chain replication the
            # tail holds every committed write; under EC/AA any live
            # replica is as good as another.  Capture the source BEFORE
            # any join-first append below changes who the tail is.
            source = shard.tail.datalet
            new_replica = self.spawner(shard, source)
            if new_replica is None:
                # No standby host available: the shard keeps serving
                # with fewer replicas, but flag the exposure so clients
                # and operators can see it.
                self.map.degraded.add(shard.shard_id)
                self.view.commit("degraded", shard.shard_id)
                self._broadcast_config(shard)
                return
            self._recovering[new_replica.controlet] = shard.shard_id
            self._last_seen[new_replica.controlet] = self.now()
            if (
                shard.topology is Topology.AA
                and shard.consistency is Consistency.STRONG
            ):
                # Join-first (AA strong): fan-out writers replicate to
                # every member of the shard view, so the replacement
                # must appear in the view *before* its state transfer
                # starts — it buffers incoming writes while recovering.
                # Use the registered pending replica object if the
                # spawner recorded one, so identity stays consistent.
                replica = self._pending_replicas.get(
                    new_replica.controlet, new_replica
                )
                replica.chain_pos = len(shard.replicas)
                shard.replicas.append(replica)
                self.view.commit(
                    "replica-join", f"{shard.shard_id}:+{replica.controlet}"
                )
                self._broadcast_config(shard)

    def _on_recovery_done(self, msg: Message) -> None:
        controlet = msg.payload["controlet"]
        sid = self._recovering.pop(controlet, None)
        if sid is None or sid not in self.map.shards:
            return
        shard = self.map.shard(sid)
        # The deployment's spawner registered the replica's identity via
        # the pending queue; re-derive it from the heartbeat payload.
        # The replacement joins at the end of the chain (paper: "adds
        # the new pair as the new tail").
        replica = self._pending_replicas.pop(controlet, None)
        if replica is None:
            return
        self.map.degraded.discard(sid)
        if any(r.controlet == controlet for r in shard.replicas):
            # Join-first path (AA strong): already a member; recovery
            # completion only clears the pending bookkeeping.
            return
        replica.chain_pos = len(shard.replicas)
        shard.replicas.append(replica)
        self.view.commit("replica-join", f"{sid}:+{replica.controlet}")
        self._broadcast_config(shard)

    def register_pending(self, replica: Replica) -> None:
        """Called by the deployment's spawner so the coordinator can add
        the replica to the shard once recovery completes."""
        self._pending_replicas[replica.controlet] = replica

    def _broadcast_config(self, shard: ShardInfo) -> None:
        payload = {
            "shard": shard.to_dict(),
            "epoch": self.map.epoch,
            "ring": self.view.ring_info(),
            "partitioner": self.partitioner,
        }
        for replica in shard.ordered():
            self.send(replica.controlet, "config_update", dict(payload))

    def _broadcast_all(self) -> None:
        """Push fresh config to every shard — ring-wide changes
        (reshard begin/commit) re-route every controlet, not just one
        shard's."""
        for shard in self.map.shards.values():
            self._broadcast_config(shard)

    def leader_elect(self, shard_id: str) -> str:
        """LeaderElect(s) (Table III): current head after repairs."""
        return self.map.shard(shard_id).head.controlet

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Fingerprint state with *quantized* liveness: raw ``_last_seen``
        timestamps never repeat, so they would keep the explored graph
        from ever closing.  What matters behaviorally is how many more
        failure-detector sweeps a silent node survives — an integer that
        progresses as the explorer advances time and saturates once the
        node is overdue."""
        s = super().snapshot_state()
        now = self.now()
        hb = self.config.heartbeat_interval
        cap = int(self.config.failure_timeout / hb) + 2
        staleness = {}
        for c, seen in self._last_seen.items():
            if c in self._dead:
                continue
            staleness[c] = min(int(max(0.0, now - seen) / hb), cap)
        s.update({
            "epoch": self.map.epoch,
            "shards": {
                sid: [r.controlet for r in shard.ordered()]
                for sid, shard in self.map.shards.items()
            },
            "degraded": sorted(self.map.degraded),
            "dead": sorted(self._dead),
            "staleness": staleness,
            "recovering": dict(self._recovering),
            "pending_replicas": sorted(self._pending_replicas),
            "transitions": sorted(self._transitions),
            "view": self.view.snapshot(),
            "reshard_phase": (
                self._reshard["phase"] if self._reshard else None  # type: ignore[index]
            ),
        })
        return s

    # ------------------------------------------------------------------
    # transitions (§V)
    # ------------------------------------------------------------------
    def _on_request_transition(self, msg: Message) -> None:
        if self.transition_spawner is None:
            self.respond(msg, "error", {"error": "no transition spawner configured"})
            return
        if self._transitions:
            self.respond(msg, "error", {"error": "transition already in progress"})
            return
        if self._reshard is not None:
            self.respond(msg, "error", {"error": "reshard in progress"})
            return
        topology = Topology(msg.payload["topology"])
        consistency = Consistency(msg.payload["consistency"])
        self._transition_requester = msg
        for shard in self.map.shards.values():
            new_shard = self.transition_spawner(shard, topology, consistency)
            old_controlets = shard.controlets()
            self._transitions[shard.shard_id] = {
                "new_shard": new_shard,
                "waiting": set(old_controlets),
                "old": list(old_controlets),
            }
            forward_to = new_shard.head.controlet
            for c in old_controlets:
                self.send(c, "transition_start", {"forward_to": forward_to})

    def _on_transition_ready(self, msg: Message) -> None:
        sid = msg.payload["shard"]
        state = self._transitions.get(sid)
        if state is None:
            return
        waiting: Set[str] = state["waiting"]  # type: ignore[assignment]
        waiting.discard(msg.payload["controlet"])
        if waiting:
            return
        # Every old controlet drained: flip the shard to the new service.
        new_shard: ShardInfo = state["new_shard"]  # type: ignore[assignment]
        self.map.shards[sid] = new_shard
        self.view.commit(
            "transition-flip",
            f"{sid}:{new_shard.topology.value}-{new_shard.consistency.value}",
        )
        now = self.now()
        for replica in new_shard.ordered():
            self._last_seen.setdefault(replica.controlet, now)
        self._broadcast_config(new_shard)
        for old in state["old"]:  # type: ignore[union-attr]
            self.send(old, "retire", {})
        del self._transitions[sid]
        if not self._transitions and self._transition_requester is not None:
            req, self._transition_requester = self._transition_requester, None
            self.respond(req, "transition_done", {"epoch": self.map.epoch})

    # ------------------------------------------------------------------
    # online resharding (double-ring cutover + live key migration)
    # ------------------------------------------------------------------
    #
    # Phases of ``self._reshard``:
    #
    # ``arming``     the shard-log sequencers / DLM learn the window
    #                *before* any client or controlet does, so every
    #                dual-routed write is dirty-tracked from the first;
    # ``migrating``  the window is open (double ring broadcast, clients
    #                dual-route writes / prefer-new-fallback-old reads)
    #                while each source shard's entry pumps its moved
    #                keys to the new-ring owners;
    # ``fencing``    copies done: every old-ring controlet acks that it
    #                now rejects moved-key ops, so no stale read can be
    #                served from an old owner after the flip;
    # then the view commits ``reshard-commit``, a removed shard is
    # retired, and the new ring becomes the only ring.
    def _on_request_reshard(self, msg: Message) -> None:
        if self._reshard is not None:
            self.respond(msg, "error", {"error": "reshard already in progress"})
            return
        if self._transitions:
            self.respond(msg, "error", {"error": "transition in progress"})
            return
        if self.partitioner != "hash":
            self.respond(
                msg, "error",
                {"error": f"resharding requires hash partitioning, not {self.partitioner!r}"},
            )
            return
        action = msg.payload["action"]
        if action == RESHARD_ADD:
            if self.reshard_spawner is None:
                self.respond(msg, "error", {"error": "no reshard spawner configured"})
                return
            new_shard = self.reshard_spawner()
            if new_shard is None:
                self.respond(msg, "error", {"error": "no capacity for a new shard"})
                return
            sid = new_shard.shard_id
        elif action == RESHARD_REMOVE:
            sid = msg.payload["shard"]
            if sid not in self.map.shards:
                self.respond(msg, "error", {"error": f"unknown shard {sid!r}"})
                return
            if len(self.map.shards) < 2:
                self.respond(msg, "error", {"error": "cannot remove the last shard"})
                return
            new_shard = None
        else:
            self.respond(msg, "error", {"error": f"unknown reshard action {action!r}"})
            return
        old_ids = self.map.shard_ids()
        new_ids = (
            sorted(old_ids + [sid]) if action == RESHARD_ADD
            else [s for s in old_ids if s != sid]
        )
        self._reshard = {
            "phase": "arming",
            "action": action,
            "shard": sid,
            "new_shard": new_shard,
            "requester": msg,
            "old": old_ids,
            "new": new_ids,
            "waiting": set(),
            "stats": {"moved": 0, "skipped": 0, "total": 0},
        }
        self._arm_authorities()

    def _reshard_authorities(self) -> List[str]:
        """Ordering authorities that must learn the window first: the
        DLM for AA+SC shards, each shard's log sequencer for AA+EC —
        including the incoming shard's fresh sequencer."""
        state = self._reshard
        assert state is not None
        targets: List[str] = []
        shards = list(self.map.shards.values())
        if state["new_shard"] is not None:
            shards.append(state["new_shard"])  # type: ignore[arg-type]
        if any(
            s.topology is Topology.AA and s.consistency is Consistency.STRONG
            for s in shards
        ):
            targets.append(self.dlm)
        for s in shards:
            if s.topology is Topology.AA and s.consistency is Consistency.EVENTUAL:
                targets.append(shard_log_id(s.shard_id))
        return targets

    def _arm_authorities(self) -> None:
        state = self._reshard
        assert state is not None
        targets = self._reshard_authorities()
        if not targets:
            self._open_window()
            return
        waiting: Set[str] = set(targets)
        state["waiting"] = waiting
        payload = {
            "gen": self.view.ring_gen + 1,
            "new": list(state["new"]),  # type: ignore[arg-type]
            "old": list(state["old"]),  # type: ignore[arg-type]
        }

        def acked(target):
            def cb(resp, err):
                if err is not None:
                    # authority unreachable mid-arm: re-ask (the window
                    # must not open until every authority is armed)
                    self.call(target, "reshard_begin", dict(payload),
                              callback=acked(target), timeout=5.0)
                    return
                waiting.discard(target)
                if not waiting and state is self._reshard:
                    self._open_window()
            return cb

        for t in targets:
            self.call(t, "reshard_begin", dict(payload),
                      callback=acked(t), timeout=5.0)

    def _open_window(self) -> None:
        state = self._reshard
        assert state is not None
        action: str = state["action"]  # type: ignore[assignment]
        sid: str = state["shard"]  # type: ignore[assignment]
        self.view.begin_reshard(action, sid)
        new_shard: Optional[ShardInfo] = state["new_shard"]  # type: ignore[assignment]
        if new_shard is not None:
            self.map.shards[sid] = new_shard
            self._shard_target[sid] = len(new_shard.replicas)
            now = self.now()
            for r in new_shard.ordered():
                self._last_seen.setdefault(r.controlet, now)
        # entry (ordering authority) per shard, for migration targets
        entries = {
            s.shard_id: s.head.controlet for s in self.map.shards.values()
        }
        assert self.view.reshard is not None
        self.view.reshard["entries"] = entries
        state["phase"] = "migrating"
        # sources: shards whose owned key ranges shrink under the new
        # ring — every old shard on an add, the leaving shard on remove
        source_ids = (
            list(state["old"]) if action == RESHARD_ADD else [sid]  # type: ignore[arg-type]
        )
        state["sources"] = set(source_ids)
        self._broadcast_all()
        for source in sorted(source_ids):
            shard = self.map.shard(source)
            self.send(
                shard.head.controlet,
                "reshard_migrate",
                {"reshard": dict(self.view.reshard), "epoch": self.map.epoch},
            )

    def _on_migrate_done(self, msg: Message) -> None:
        state = self._reshard
        if state is None or state["phase"] != "migrating":
            return
        sources: Set[str] = state["sources"]  # type: ignore[assignment]
        sid = msg.payload["shard"]
        if sid not in sources:
            return  # duplicate completion report
        sources.discard(sid)
        stats: Dict[str, int] = state["stats"]  # type: ignore[assignment]
        for k in ("moved", "skipped", "total"):
            stats[k] += int(msg.payload.get(k, 0))
        if sources:
            return
        # every source drained: fence the old ring before the flip so
        # no stale client can read a moved key from an old owner after
        # new-ring-only writes begin
        state["phase"] = "fencing"
        waiting: Set[str] = set()
        for old_sid in state["old"]:  # type: ignore[union-attr]
            if old_sid not in self.map.shards:
                continue
            for r in self.map.shard(old_sid).ordered():
                waiting.add(r.controlet)
                self.send(r.controlet, "reshard_fence", {"gen": self.view.ring_gen})
        state["waiting"] = waiting
        if not waiting:
            self._finish_reshard()

    def _on_reshard_fenced(self, msg: Message) -> None:
        state = self._reshard
        if state is None or state["phase"] != "fencing":
            return
        waiting: Set[str] = state["waiting"]  # type: ignore[assignment]
        waiting.discard(msg.payload["controlet"])
        if not waiting:
            self._finish_reshard()

    def _finish_reshard(self) -> None:
        state = self._reshard
        assert state is not None
        for t in self._reshard_authorities():
            self.send(t, "reshard_end", {"gen": self.view.ring_gen})
        self.view.commit_reshard()
        sid: str = state["shard"]  # type: ignore[assignment]
        if state["action"] == RESHARD_REMOVE:
            removed = self.map.shards.pop(sid, None)
            self._shard_target.pop(sid, None)
            if removed is not None:
                for r in removed.ordered():
                    self._last_seen.pop(r.controlet, None)
                    self._dead.discard(r.controlet)
                    self.send(r.controlet, "retire", {})
        self._broadcast_all()
        req: Optional[Message] = state["requester"]  # type: ignore[assignment]
        stats: Dict[str, int] = state["stats"]  # type: ignore[assignment]
        self._reshard = None
        if req is not None:
            self.respond(
                req,
                "reshard_done",
                {"epoch": self.map.epoch, "shard": sid, **stats},
            )
