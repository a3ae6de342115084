"""BESPOKV client library (paper §III "Client library", Table II).

The client caches the coordinator's cluster map, partitions keys across
shards (consistent hashing by default, range partitioning for the
range-query service), and routes each operation to the right controlet
for the shard's topology/consistency combination:

* MS+SC — writes to the chain head, strong reads to the tail;
* MS+EC — writes to the master, reads to any replica;
* AA+*  — any active for anything.

Stale routing shows up as ``redirect``/``retired`` errors or timeouts;
the client then refreshes its map and retries with jittered backoff —
this is the mechanism behind the throughput dip-and-recover shape in
the transition and failover experiments (Figs 10 & 16).

All operations return :class:`~repro.sim.kernel.SimFuture` so that
closed-loop load generators can drive thousands of concurrent client
sessions inside the simulation.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.window import ReshardWindow
from repro.core.types import ClusterMap, Consistency, ShardInfo, Topology
from repro.obs import RequestContext
from repro.errors import (
    BespoError,
    KeyNotFound,
    RequestTimeout,
    ShardUnavailable,
    TableNotFound,
)
from repro.hashing import HashRing, RangePartitioner
from repro.net.simnet import ClientPort, SimCluster
from repro.sim import SimFuture

__all__ = ["KVClient"]


class KVClient:
    """Routing, retrying KV client over a :class:`SimCluster`."""

    def __init__(
        self,
        cluster: SimCluster,
        name: str,
        coordinator: "str | Sequence[str]" = "coordinator",
        partitioner: str = "hash",
        op_timeout: float = 0.5,
        max_retries: int = 6,
        retry_backoff: float = 0.2,
        retry_backoff_cap: float = 2.0,
        recorder: Optional[Any] = None,
    ):
        if partitioner not in ("hash", "range"):
            raise BespoError(f"unknown partitioner {partitioner!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.port: ClientPort = cluster.add_port(name)
        #: coordinator preference list; on timeout the client fails over
        #: to the next entry (primary/standby resilience, §VII).
        self.coordinators: List[str] = (
            [coordinator] if isinstance(coordinator, str) else list(coordinator)
        )
        if not self.coordinators:
            raise BespoError("need at least one coordinator address")
        self.partitioner = partitioner
        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        #: optional chaos history recorder (duck-typed; see
        #: :class:`repro.chaos.history.HistoryRecorder`).  Records every
        #: put/get/delete invocation and its outcome — including
        #: timeouts and exhausted retries — for the consistency oracle.
        self.recorder = recorder
        self.map: Optional[ClusterMap] = None
        self._ring: Optional[HashRing] = None
        self._range: Optional[RangePartitioner] = None
        #: ring generation mirrored from the coordinator's ClusterView;
        #: stamped on every op so controlets (and the DLM / sequencer
        #: backstops) can fence stale-routed requests during a reshard.
        self._ring_gen = 0
        #: open reshard window: while set, writes for moved keys
        #: dual-route to both owners and reads prefer the new owner
        #: with fallback to the old one.
        self._window: Optional[ReshardWindow] = None
        # Named stream from the registry, not a derived ad-hoc Random:
        # the client's jitter draws replay bit-for-bit for a given seed.
        self._rng = cluster.rng.stream(f"client.{name}")
        self._tables: Dict[str, bool] = {}
        self.ops = 0
        self.retries = 0
        #: subset of ``retries`` caused by RPC timeouts — the fabric-
        #: indeterminate attempts the oracle must model as potential
        #: duplicates (routing bounces never execute and are excluded).
        self.timeouts = 0
        self.refreshes = 0
        #: request-id stream: one id per *operation* (not per attempt),
        #: so every retry of a mutation carries the same identity and
        #: controlets can deduplicate.  Disabled only by the overhead
        #: micro-benchmark's baseline mode.
        self._req_seq = itertools.count(1)
        self._stamp_rids = True
        self._latency: Dict[str, Any] = {}
        cluster.metrics.register_group(
            f"client.{name}",
            lambda: {
                "ops": self.ops,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "refreshes": self.refreshes,
            },
        )

    # ------------------------------------------------------------------
    # topology cache
    # ------------------------------------------------------------------
    def connect(self) -> SimFuture:
        """Fetch the cluster map; must complete before the first op."""
        return self.sim.spawn(self._refresh_proc())

    def _refresh_proc(self):
        last_error: Optional[BespoError] = None
        for coord in list(self.coordinators):
            try:
                resp = yield self.port.request(
                    coord, "get_cluster_map", {}, timeout=self.op_timeout * 4
                )
            except RequestTimeout as e:
                last_error = e
                continue
            self._install_map(resp.payload)
            self.refreshes += 1
            if coord != self.coordinators[0]:
                # promote the responsive coordinator to the front
                self.coordinators.remove(coord)
                self.coordinators.insert(0, coord)
            return self.map.epoch
        raise last_error or BespoError("no coordinator reachable")

    def _install_map(self, payload: Dict[str, Any]) -> None:
        """Adopt a refresh response *incrementally*.

        The response is epoch-fenced: a map at or below the cached
        epoch (with an unchanged ring generation) re-versions nothing
        and is dropped without re-deriving any routing state.  When it
        does advance, the hash ring is patched with the membership
        *diff* — vnode placement is a pure function of the member name,
        so add/remove reproduces a rebuilt ring exactly (see
        ``HashRing.diff``) — instead of being rebuilt from scratch on
        every refresh.
        """
        epoch = int(payload["map"]["epoch"])
        view = payload.get("view") or {}
        gen = int(view.get("gen", 0))
        if self.map is not None:
            if epoch < self.map.epoch:
                return  # stale refresh (e.g. a lagging standby)
            if epoch == self.map.epoch and gen == self._ring_gen:
                return  # unchanged: keep every derived structure
        cmap = ClusterMap.from_dict(payload["map"])
        self.map = cmap
        new_ids = [str(s) for s in (view.get("ids") or cmap.shard_ids())]
        changed = True
        if self._ring is None:
            self._ring = HashRing(new_ids)
        else:
            want, have = set(new_ids), set(self._ring.members)
            changed = want != have
            for sid in sorted(have - want):
                self._ring.remove(sid)
            for sid in sorted(want - have):
                self._ring.add(sid)
        desc = view.get("reshard")
        self._window = ReshardWindow.adopt(self._window, desc) if desc is not None else None
        self._ring_gen = gen
        if self.partitioner == "range" and (changed or self._range is None):
            self._range = RangePartitioner.uniform_alpha(cmap.shard_ids())

    def auto_refresh(self, interval: float) -> None:
        """Poll the coordinator for map updates (transition pickup)."""

        def loop():
            while True:
                yield interval
                try:
                    yield self.sim.spawn(self._refresh_proc())
                except BespoError:
                    pass  # coordinator briefly unreachable; keep old map

        self.sim.spawn(loop())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> ShardInfo:
        if self.map is None:
            raise BespoError("client not connected: call connect() first")
        if self.partitioner == "range":
            return self.map.shard(self._range.lookup(key))
        return self.map.shard(self._ring.lookup(key))

    def _route(
        self,
        shard: ShardInfo,
        op: str,
        consistency: Optional[str],
        prefer_kind: Optional[str],
    ) -> str:
        replicas = shard.ordered()
        if not replicas:
            raise ShardUnavailable(f"shard {shard.shard_id} has no replicas")
        if prefer_kind is not None:
            preferred = [r for r in replicas if r.datalet_kind == prefer_kind]
            if preferred:
                replicas = preferred
        write = op in ("put", "del")
        if shard.topology is Topology.AA:
            return self._rng.choice(replicas).controlet
        # Master-Slave
        if write:
            return shard.head.controlet
        if shard.consistency is Consistency.STRONG and consistency != "eventual":
            return shard.tail.controlet
        return self._rng.choice(replicas).controlet

    # ------------------------------------------------------------------
    # core op engine
    # ------------------------------------------------------------------
    def _begin_ctx(self, op: str, key: str, mutation: bool) -> Optional[RequestContext]:
        """Open the request envelope for one operation.

        Mutations always get a request id (retry dedup needs identity
        even with tracing off); a context with a trace id is only built
        when a :class:`~repro.obs.trace.SpanRecorder` is attached, so
        the disabled path costs one attribute check plus (for reads)
        nothing at all.
        """
        rid = None
        if mutation and self._stamp_rids:
            rid = f"{self.name}.{next(self._req_seq)}"
        obs = self.cluster.obs
        if obs is not None:
            return obs.new_trace(f"op:{op}", origin=self.name, req_id=rid)
        if rid is not None:
            return RequestContext(origin=self.name, req_id=rid)
        return None

    def _observe_latency(self, op: str, seconds: float) -> None:
        hist = self._latency.get(op)
        if hist is None:
            hist = self.cluster.metrics.histogram(
                f"client.{self.name}.latency_{op}")
            self._latency[op] = hist
        hist.observe(seconds)

    def _sleep(self, attempt: int, ctx: Optional[RequestContext]):
        """Backoff with a ``backoff`` span when the request is traced."""
        obs = self.cluster.obs
        span = None
        if obs is not None and ctx is not None and ctx.trace_id is not None:
            span = obs.begin(ctx, "backoff", self.name)
        yield self._backoff(attempt)
        if span is not None:
            obs.end(span, "ok")

    def _op_proc(
        self,
        op: str,
        key: str,
        payload: Dict[str, Any],
        consistency: Optional[str] = None,
        prefer_kind: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
    ):
        self.ops += 1
        obs = self.cluster.obs
        start = self.sim.now
        status = "error"
        try:
            override_target: Optional[str] = None
            last_error: Optional[str] = None
            for attempt in range(self.max_retries + 1):
                shard = self.shard_for(key)
                # the ring generation rides along so servers (and the
                # DLM / sequencer backstops) can fence stale-routed
                # requests during a reshard window
                req_payload = dict(payload)
                req_payload["gen"] = self._ring_gen
                old_shard = self._reshard_old_shard(key, shard)
                if old_shard is not None:
                    outcome, result = yield from self._dual_attempt(
                        op, shard, old_shard, req_payload, consistency,
                        prefer_kind, ctx)
                    if outcome == "ok":
                        status = "ok"
                        return result
                    if outcome == "not_found":
                        status = "not_found"
                        raise KeyNotFound(key)
                    last_error = result
                    self.retries += 1
                    yield from self._sleep(attempt, ctx)
                    yield from self._refresh_best_effort()
                    continue
                target = override_target or self._route(shard, op, consistency, prefer_kind)
                override_target = None
                try:
                    resp = yield self.port.request(
                        target, op, req_payload, timeout=self.op_timeout, ctx=ctx
                    )
                except RequestTimeout:
                    last_error = f"timeout talking to {target}"
                    self.retries += 1
                    self.timeouts += 1
                    yield from self._sleep(attempt, ctx)
                    yield from self._refresh_best_effort()
                    continue
                if resp.type != "error":
                    status = "ok"
                    return resp
                err = resp.payload.get("error", "")
                if err == "not_found":
                    status = "not_found"
                    raise KeyNotFound(key)
                if err == "redirect":
                    override_target = resp.payload.get("to")
                    self.retries += 1
                    continue
                if err == "retired":
                    last_error = f"{target} retired"
                    self.retries += 1
                    yield from self._sleep(attempt, ctx)
                    yield from self._refresh_best_effort()
                    continue
                if err == "wrong_shard":
                    # stale routing across a reshard: refresh picks up
                    # the new ring (and any open window), then re-route
                    last_error = f"{target} is not the owner of {key!r}"
                    self.retries += 1
                    yield from self._sleep(attempt, ctx)
                    yield from self._refresh_best_effort()
                    continue
                raise BespoError(f"{op} {key!r} failed: {err}")
            raise ShardUnavailable(f"{op} {key!r} exhausted retries: {last_error}")
        finally:
            self._observe_latency(op, self.sim.now - start)
            if obs is not None and ctx is not None and ctx.trace_id is not None:
                obs.end_trace(ctx, status)

    def _refresh_best_effort(self):
        """Refresh the map inside a retry loop; a lost/failed refresh
        must not abort the operation — the stale map plus another retry
        is still a valid plan."""
        try:
            yield self.sim.spawn(self._refresh_proc())
        except BespoError:
            pass

    # ------------------------------------------------------------------
    # reshard-window dual routing
    # ------------------------------------------------------------------
    def _reshard_old_shard(
        self, key: str, new_shard: ShardInfo
    ) -> Optional[ShardInfo]:
        """During an open reshard window: the *old* ring's owner of
        ``key`` when it differs from the new owner (else None — the key
        is unaffected by the window)."""
        if self._window is None or self.partitioner != "hash" or self.map is None:
            return None
        old_sid = self._window.old_owner(key)
        if old_sid == new_shard.shard_id or old_sid not in self.map.shards:
            return None
        return self.map.shard(old_sid)

    def _leg(self, target: str, op: str, payload: Dict[str, Any],
             ctx: Optional[RequestContext]):
        """One dual-route leg: returns ``(kind, resp)`` instead of
        raising, so the caller can join two concurrent legs."""
        try:
            resp = yield self.port.request(
                target, op, dict(payload), timeout=self.op_timeout, ctx=ctx
            )
        except RequestTimeout:
            self.timeouts += 1
            return "timeout", None
        if resp.type != "error":
            return "ok", resp
        return resp.payload.get("error", "error"), resp

    def _dual_attempt(self, op, new_shard, old_shard, payload, consistency,
                      prefer_kind, ctx):
        """One attempt for a key the open reshard window *moves*.

        Reads prefer the new owner and fall back to the old one (the
        copy may not have migrated yet); mutations go to **both**
        owners under the same request id and complete only when both
        legs settle, so a concurrent reader observes the same committed
        value whichever owner serves it.  An old leg answering
        ``wrong_shard``/``retired`` is already fenced — the window
        closed under us — and the new leg alone decides.

        Returns ``("ok", resp)``, ``("not_found", None)`` or
        ``("retry", why)``.
        """
        new_target = self._route(new_shard, op, consistency, prefer_kind)
        old_target = self._route(old_shard, op, consistency, prefer_kind)
        if op == "get":
            kind, resp = yield from self._leg(new_target, op, payload, ctx)
            if kind == "ok":
                return "ok", resp
            if kind == "not_found":
                okind, oresp = yield from self._leg(old_target, op, payload, ctx)
                if okind == "ok":
                    return "ok", oresp
                if okind in ("not_found", "wrong_shard", "retired"):
                    return "not_found", None
                return "retry", f"old-leg read on {old_target}: {okind}"
            return "retry", f"new-leg read on {new_target}: {kind}"
        # put/del: both legs in flight at once (the shared rid lets
        # controlets deduplicate any later retry of either leg)
        new_fut = self.sim.spawn(self._leg(new_target, op, payload, ctx))
        old_fut = self.sim.spawn(self._leg(old_target, op, payload, ctx))
        nkind, nresp = yield new_fut
        okind, oresp = yield old_fut
        if okind not in ("ok", "not_found", "wrong_shard", "retired"):
            return "retry", f"old-leg {op} on {old_target}: {okind}"
        if nkind == "ok":
            return "ok", nresp
        if nkind == "not_found":  # only `del` reports it
            if okind == "ok":
                return "ok", oresp
            return "not_found", None
        return "retry", f"new-leg {op} on {new_target}: {nkind}"

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff, capped: ``base * 2^attempt`` up
        to ``retry_backoff_cap``, scaled by a [0.5, 1.5) jitter factor so
        retry storms from concurrent sessions decorrelate."""
        delay = min(self.retry_backoff * (2 ** attempt), self.retry_backoff_cap)
        return delay * (0.5 + self._rng.random())

    def _run(self, gen) -> SimFuture:
        return self.sim.spawn(gen)

    def _recorded(self, op: str, key: str, gen, value: Optional[str] = None,
                  ctx: Optional[RequestContext] = None):
        """Wrap an op generator with history recording.  Failed and
        timed-out ops are recorded too: an unacked write may still have
        taken effect, and the oracle must treat it as indeterminate.

        The request id and trace id flow into the record so the oracle
        can separate client retries (same ``req_id``, deduplicated
        server-side) from fabric duplicates, and so ``chaos --trace``
        can pull up the span tree of a violating request."""
        if self.recorder is None:
            result = yield from gen
            return result
        rec = self.recorder.invoke(
            self.name, op, key, value,
            req_id=ctx.req_id if ctx is not None else None,
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        retries_before = self.retries
        timeouts_before = self.timeouts
        try:
            result = yield from gen
        except KeyNotFound:
            # a definite observation (key absent), not a failure
            self.recorder.complete(
                rec, "not_found",
                attempts=1 + self.retries - retries_before,
                timeouts=self.timeouts - timeouts_before,
            )
            raise
        except BespoError as e:
            self.recorder.complete(
                rec,
                "fail",
                error=f"{type(e).__name__}: {e}",
                attempts=1 + self.retries - retries_before,
                timeouts=self.timeouts - timeouts_before,
            )
            raise
        self.recorder.complete(
            rec,
            "ok",
            value=result if op == "get" else None,
            attempts=1 + self.retries - retries_before,
            timeouts=self.timeouts - timeouts_before,
        )
        return result

    # ------------------------------------------------------------------
    # public KV API (Table II)
    # ------------------------------------------------------------------
    def put(self, key: str, val: str, consistency: Optional[str] = None) -> SimFuture:
        """Write a pair; resolves to None."""

        def proc():
            ctx = self._begin_ctx("put", key, mutation=True)
            gen = self._op_proc("put", key, {"key": key, "val": val},
                                consistency, ctx=ctx)
            yield from self._recorded("put", key, gen, value=val, ctx=ctx)

        return self._run(proc())

    def get(
        self,
        key: str,
        consistency: Optional[str] = None,
        prefer_kind: Optional[str] = None,
    ) -> SimFuture:
        """Read a value; resolves to the value string.

        ``consistency="eventual"`` relaxes a strong deployment for this
        request only (§IV-C); ``prefer_kind`` picks a replica backed by
        a specific datalet engine (polyglot persistence, §IV-D).
        """

        def proc():
            payload: Dict[str, Any] = {"key": key}
            if consistency is not None:
                payload["consistency"] = consistency
            ctx = self._begin_ctx("get", key, mutation=False)

            def inner():
                resp = yield from self._op_proc("get", key, payload, consistency,
                                                prefer_kind, ctx=ctx)
                return resp.payload["val"]

            value = yield from self._recorded("get", key, inner(), ctx=ctx)
            return value

        return self._run(proc())

    def delete(self, key: str, consistency: Optional[str] = None) -> SimFuture:
        """Delete a pair; resolves to None."""

        def proc():
            ctx = self._begin_ctx("del", key, mutation=True)
            gen = self._op_proc("del", key, {"key": key}, consistency, ctx=ctx)
            yield from self._recorded("del", key, gen, ctx=ctx)

        return self._run(proc())

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> SimFuture:
        """Range query over ``[start, end)`` (§IV-B).

        With range partitioning only the covering shards are contacted,
        each with a clipped sub-range; with hash partitioning every
        shard must be consulted.  Results merge into one sorted list.
        """

        def proc():
            if self.map is None:
                raise BespoError("client not connected: call connect() first")
            ctx = self._begin_ctx("scan", start, mutation=False)
            obs = self.cluster.obs
            status = "error"
            try:
                if self.partitioner == "range":
                    targets = self._range.covering(start, end)
                else:
                    targets = {sid: (start, end) for sid in self.map.shard_ids()}
                ordered = sorted(targets.items(), key=lambda kv: kv[1][0])
                if limit is not None and self.partitioner == "range":
                    # Range-partitioned limited scan: shards are visited in
                    # key order and the walk stops as soon as the limit is
                    # filled — most scans touch one or two shards.
                    out: List[Tuple[str, str]] = []
                    for sid, (lo, hi) in ordered:
                        shard = self.map.shard(sid)
                        payload = {"start": lo, "end": hi, "limit": limit - len(out)}
                        chunk = yield self.sim.spawn(
                            self._scan_one(shard, payload, ctx=ctx))
                        out.extend(tuple(item) for item in chunk)
                        if len(out) >= limit:
                            break
                    status = "ok"
                    return out[:limit]
                # Unlimited (or hash-partitioned) scan: scatter-gather.
                futs = []
                for sid, (lo, hi) in ordered:
                    shard = self.map.shard(sid)
                    payload = {"start": lo, "end": hi, "limit": limit}
                    futs.append(self.sim.spawn(
                        self._scan_one(shard, payload, ctx=ctx)))
                chunks = yield self.sim.gather(futs)
                merged: List[Tuple[str, str]] = sorted(
                    (tuple(item) for chunk in chunks for item in chunk)
                )
                status = "ok"
                return merged[:limit] if limit is not None else merged
            finally:
                if obs is not None and ctx is not None and ctx.trace_id is not None:
                    obs.end_trace(ctx, status)

        return self._run(proc())

    def server_scan(self, start: str, end: str, limit: Optional[int] = None) -> SimFuture:
        """Range query delegated to the server side (§IV-B).

        Sends one ``get_range`` to a controlet of the shard owning
        ``start``; a :class:`~repro.core.range_query.RangeQueryControlet`
        fans clipped sub-scans out to every covering shard and returns
        the merged, sorted result — the client needs no partitioning
        knowledge at all (contrast :meth:`scan`, which plans the
        scatter-gather client-side).  Deployments running plain
        controlets answer with an unhandled-type error.
        """

        def proc():
            if self.map is None:
                raise BespoError("client not connected: call connect() first")
            payload: Dict[str, Any] = {"start": start, "end": end, "limit": limit}
            ctx = self._begin_ctx("server_scan", start, mutation=False)
            obs = self.cluster.obs
            status = "error"
            try:
                last_error: Optional[str] = None
                for attempt in range(self.max_retries + 1):
                    shard = self.shard_for(start)
                    target = self._route(shard, "scan", None, None)
                    try:
                        resp = yield self.port.request(
                            target, "get_range", dict(payload),
                            timeout=self.op_timeout * 2, ctx=ctx,
                        )
                    except RequestTimeout:
                        last_error = f"timeout talking to {target}"
                        self.retries += 1
                        self.timeouts += 1
                        yield from self._sleep(attempt, ctx)
                        yield from self._refresh_best_effort()
                        continue
                    if resp.type == "range":
                        status = "ok"
                        return [tuple(item) for item in resp.payload["items"]]
                    err = resp.payload.get("error", "")
                    if err in ("retired", "cluster map not yet available"):
                        last_error = err
                        self.retries += 1
                        yield from self._sleep(attempt, ctx)
                        yield from self._refresh_best_effort()
                        continue
                    raise BespoError(f"server scan failed: {err}")
                raise ShardUnavailable(f"server scan exhausted retries: {last_error}")
            finally:
                if obs is not None and ctx is not None and ctx.trace_id is not None:
                    obs.end_trace(ctx, status)

        return self._run(proc())

    def _scan_one(self, shard: ShardInfo, payload: Dict[str, Any],
                  ctx: Optional[RequestContext] = None):
        override_target: Optional[str] = None
        for attempt in range(self.max_retries + 1):
            target = override_target or self._route(shard, "scan", None, None)
            override_target = None
            try:
                resp = yield self.port.request(target, "scan", dict(payload),
                                               timeout=self.op_timeout, ctx=ctx)
            except RequestTimeout:
                self.retries += 1
                self.timeouts += 1
                yield from self._sleep(attempt, ctx)
                continue
            if resp.type != "error":
                return resp.payload["items"]
            if resp.payload.get("error") == "redirect":
                override_target = resp.payload.get("to")
                continue
            raise BespoError(f"scan failed on {shard.shard_id}: {resp.payload}")
        raise ShardUnavailable(f"scan on shard {shard.shard_id} exhausted retries")

    # ------------------------------------------------------------------
    # table namespace API (Table II client API)
    # ------------------------------------------------------------------
    @staticmethod
    def _table_marker(table: str) -> str:
        return f"__table__:{table}"

    @staticmethod
    def _table_key(table: str, key: str) -> str:
        return f"{table}:{key}"

    def create_table(self, table: str) -> SimFuture:
        def proc():
            yield self.put(self._table_marker(table), "1")
            self._tables[table] = True

        return self._run(proc())

    def _check_table(self, table: str):
        if self._tables.get(table):
            return
        try:
            yield self.get(self._table_marker(table))
        except KeyNotFound:
            raise TableNotFound(table) from None
        self._tables[table] = True

    def table_put(self, key: str, val: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            yield self.put(self._table_key(table, key), val)

        return self._run(proc())

    def table_get(self, key: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            value = yield self.get(self._table_key(table, key))
            return value

        return self._run(proc())

    def table_del(self, key: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            yield self.delete(self._table_key(table, key))

        return self._run(proc())

    def delete_table(self, table: str) -> SimFuture:
        """Drop the marker and (where the backend supports scans)
        best-effort delete the table's keys."""

        def proc():
            yield from self._check_table(table)
            prefix = self._table_key(table, "")
            try:
                items = yield self.scan(prefix, prefix + "￿")
            except BespoError:
                items = []  # hash-table backends cannot enumerate
            for k, _ in items:
                try:
                    yield self.delete(k)
                except KeyNotFound:
                    pass
            yield self.delete(self._table_marker(table))
            self._tables.pop(table, None)

        return self._run(proc())
