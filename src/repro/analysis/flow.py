"""Flow-control static analysis: four gating passes over controlet
hot paths, built on the :mod:`repro.analysis.cfg` path walker.

The protocol cores share a small set of liveness/flow idioms — busy
flags guarding one-in-flight drains, swap-drained batch queues,
retry-requeue-at-front, config-epoch fencing — and the chaos suites
only catch violations that happen to fire under a sampled schedule.
These passes check the idioms statically, on every path:

``pump-leak`` (pump-liveness)
    Every busy-token acquisition (``self._x_busy = True`` and friends)
    must, on every non-abandoned path — *including* the RPC
    error/timeout callback arms — either clear the token again or hand
    it to a timer continuation that does.  A leaked token wedges its
    pump forever: the queue keeps filling, nothing drains, no test
    fails until a soak notices throughput went to zero.  The same pass
    checks every ``Pump(...)`` issue callable invokes its ``done``
    continuation on all paths.

``unbounded-buffer`` (backpressure)
    Any ``self.<list>.append(...)`` outside ``__init__`` needs one of:
    a drain site (``pop``/``del q[:n]``/swap-to-empty), a configured
    cap (``len(self.q) >= self.config...`` check or ``deque(maxlen)``),
    or Pump management.  Otherwise a slow peer turns the queue into an
    unbounded memory leak.

``unthrottled-replication`` (backpressure)
    Replication fan-out (:data:`REPL_TYPES <repro.analysis.commitpoints.REPL_TYPES>`)
    via fire-and-forget ``self.send`` has no in-flight bound and no
    failure signal; it must go through ``self.call(..., callback=)``
    under a pump or batch window.

``retry-no-dedup`` (retry-idempotency)
    Re-driven mutations must stay idempotent: a requeue-at-front
    (``q[:0] = batch`` / ``pump.requeue_front``) is only safe when the
    queued entries carry a rid and the class sits behind a dedup gate
    (``begin_write`` / ``_rid_done`` / sequencer ``_rid_pos``); and no
    path may strip the ``rid`` off a payload it then re-enqueues.

``ring-epoch`` (epoch-guard)
    Ring state is only installed through the epoch-fenced
    ``_install_shard``; overrides must keep the epoch comparison, and
    ``_on_config_update`` overrides must still route through
    ``_install_shard``.  A stale config install resurrects a retired
    replica set.

Suppression follows the house rules: ``# lint: allow[<rule>]`` pragmas
on the finding line or the line above, plus declared
:class:`~repro.analysis.commitpoints.Waiver` entries in
:data:`FLOW_WAIVERS` (rendered into the message so the justification
is auditable in ``--show-suppressed`` output).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import (
    DONE,
    Closure,
    FlowWalker,
    PumpBinding,
    Step,
    looks_like_flag,
)
from repro.analysis.commitpoints import REPL_TYPES
from repro.analysis.findings import Finding, RawFinding, Waiver, finalize
from repro.analysis.program import ProgramIndex, self_attr

__all__ = [
    "FLOW_RULES",
    "FLOW_WAIVERS",
    "FLOW_INJECTION_SOURCES",
    "analyze_flow_index",
    "analyze_flow_sources",
    "analyze_flow_tree",
    "scope",
]

FLOW_RULES = (
    "pump-leak",
    "unbounded-buffer",
    "unthrottled-replication",
    "retry-no-dedup",
    "ring-epoch",
)

#: dedup machinery that makes a re-driven mutation idempotent: the
#: controlet-side rid gate, the per-class done-caches, the sequencer's
#: rid→pos table.
_DEDUP_GATE_CALLS = {"begin_write", "_remember_rid"}
_DEDUP_GATE_ATTRS = {"_rid_done", "_rid_pending", "_rid_pos", "dup_appends"}

#: classes analyzed: protocol actors by name-based ancestry, plus the
#: non-actor flow machinery that still owns queues/flags.
_FLOW_BASES = ("Controlet", "Actor")
_EXTRA_ANALYZED = {"PipelinedClient", "SharedLog", "Pump", "Request",
                   "ClusterView", "MigrationPump"}

#: generic machinery exempt from the queue-discipline passes: Pump's
#: own queue/requeue ARE the drain/retry primitives the user-side
#: rules check at each binding site, and MigrationPump's retry requeue
#: is rid-disciplined by its issue callable (the controlet stamps the
#: stable per-key migration rid), which the binding-site rules cover.
_GENERIC_CLASSES = {"Pump", "MigrationPump"}

#: how deep the defer-discharge recursion chases timer continuations
#: (arm → tick → re-arm chains settle well within this).
_DISCHARGE_DEPTH = 3

#: declared-legal flow findings.  Keep this list justified: every entry
#: shows up in ``repro lint --show-suppressed`` with its reason.
FLOW_WAIVERS: Tuple[Waiver, ...] = ()

#: the source set CI replays to prove the seeded flow defects stay
#: caught (``repro lint --inject-flow-defects``): the defect classes in
#: flowdefects.py plus the ancestry they subclass.
FLOW_INJECTION_SOURCES = [
    "core/controlet.py",
    "core/ms_ec.py",
    "core/ms_sc.py",
    "cluster/view.py",
    "cluster/migrate.py",
    "analysis/flowdefects.py",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _is_analyzed(table: ProgramIndex, cls: str) -> bool:
    if cls in _EXTRA_ANALYZED:
        return True
    ancestry = table.ancestry(cls)
    return any(base in a for a in ancestry for base in _FLOW_BASES)


def _open_flags(steps: Sequence[Step]) -> Dict[str, Step]:
    """Flag attrs still latched at the end of a path, with the step
    that last set them."""
    open_: Dict[str, Step] = {}
    for s in steps:
        if s.kind == "flag-set":
            open_[s.detail] = s
        elif s.kind == "flag-clear":
            open_.pop(s.detail, None)
    return open_


def _defer_discharges(walker: FlowWalker, closure: Optional[Closure],
                      attr: str, depth: int, seen: Set[int]) -> bool:
    """True when a deferred (timer) continuation is guaranteed to clear
    ``attr`` on every non-abandoned path, possibly by deferring again
    (self-sustaining tick loops count as discharged: each firing clears
    the token before re-arming)."""
    if closure is None:
        return False
    key = id(closure.node)
    if depth > _DISCHARGE_DEPTH or key in seen:
        return True
    for path in walker.walk_closure(closure):
        if path.abandoned:
            continue
        if attr not in _open_flags(path.steps):
            continue
        defers = [s for s in path.steps if s.kind == "defer"]
        if not any(_defer_discharges(walker, s.closure, attr, depth + 1,
                                     seen | {key}) for s in defers):
            return False
    return True


def _paths_call_done(walker: FlowWalker, closure: Closure,
                     depth: int = 0, seen: Optional[Set[int]] = None) -> bool:
    """True when every non-abandoned path of a pump issue callable
    invokes (or hands off) its ``done`` continuation."""
    seen = set() if seen is None else seen
    key = id(closure.node)
    if depth > _DISCHARGE_DEPTH or key in seen:
        return True
    params = closure.params()
    if len(params) < 2:
        return True  # not the (item, done) shape; nothing to check
    paths = walker.walk_closure(closure, seed_env={params[1]: DONE})
    for path in paths:
        if path.abandoned:
            continue
        if any(s.kind == "done-call" for s in path.steps):
            continue
        defers = [s for s in path.steps if s.kind == "defer"
                  and s.closure is not None]
        if not any(
                any(ds.kind == "done-call"
                    for p2 in walker.walk_closure(d.closure)
                    for ds in p2.steps)
                for d in defers):
            return False
    return True


# ----------------------------------------------------------------------
# pass (a): pump-liveness
# ----------------------------------------------------------------------

def _check_liveness(table: ProgramIndex, cls: str) -> List[RawFinding]:
    raws: List[RawFinding] = []
    pumps: List[PumpBinding] = []
    for name, funcdef in sorted(table.methods(cls).items()):
        walker = FlowWalker(table, cls)
        paths = walker.walk(funcdef)
        pumps.extend(walker.pumps)
        if name == "__init__":
            continue  # construction only declares flags
        for path in paths:
            if path.abandoned:
                continue
            leaked = _open_flags(path.steps)
            if not leaked:
                continue
            defers = [s for s in path.steps if s.kind == "defer"]
            for attr, step in leaked.items():
                if any(_defer_discharges(walker, d.closure, attr, 0, set())
                       for d in defers):
                    continue
                where = "an RPC callback" if step.in_callback else "a fall-through"
                raws.append(RawFinding(
                    step.file, step.line, "pump-leak",
                    f"{cls}.{name}: busy token self.{attr} acquired here is "
                    f"left latched on {where} path that neither clears it "
                    "nor re-arms a timer that does — the pump it guards "
                    "wedges permanently",
                    cls))
    # every Pump issue callable must complete its done continuation
    for binding in pumps:
        if binding.issue is None:
            continue
        walker = FlowWalker(table, cls)
        if not _paths_call_done(walker, binding.issue):
            node = binding.issue.node
            raws.append(RawFinding(
                binding.issue.file or binding.file,
                getattr(node, "lineno", binding.line), "pump-leak",
                f"{cls}: Pump issue callable {binding.issue.name!r} (bound "
                f"to self.{binding.attr}) has a path that never invokes "
                "done() — the pump stays busy forever and its queue is "
                "never drained again",
                cls))
    return raws


# ----------------------------------------------------------------------
# pass (b): backpressure
# ----------------------------------------------------------------------

@dataclass
class _QueueEvidence:
    appends: Dict[str, Step]
    drains: Set[str]
    bounds: Set[str]
    caps: Set[str]
    pump_attrs: Set[str]
    requeues: List[Step]
    rid_strip_appends: List[Step]


def _gather_queue_evidence(table: ProgramIndex, cls: str) -> _QueueEvidence:
    ev = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for name, funcdef in sorted(table.methods(cls).items()):
        walker = FlowWalker(table, cls)
        paths = walker.walk(funcdef)
        for b in walker.pumps:
            ev.pump_attrs.add(b.attr)
        in_init = name == "__init__"
        for path in paths:
            stripped_since = False
            for s in path.steps:
                if s.kind == "append" and not in_init:
                    ev.appends.setdefault(s.detail, s)
                    if stripped_since:
                        ev.rid_strip_appends.append(s)
                elif s.kind == "drain" and not in_init:
                    ev.drains.add(s.detail)
                elif s.kind == "bound":
                    ev.bounds.add(s.detail)
                elif s.kind in ("pump-push", "pump-new"):
                    ev.pump_attrs.add(s.detail)
                elif s.kind == "requeue":
                    ev.requeues.append(s)
                elif s.kind == "pump-requeue":
                    ev.requeues.append(s)
                elif s.kind == "rid-strip":
                    stripped_since = True
        # cap checks are branch tests, not steps: flat scan
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Compare) \
                    and isinstance(node.left, ast.Call) \
                    and isinstance(node.left.func, ast.Name) \
                    and node.left.func.id == "len" and node.left.args:
                target = self_attr(node.left.args[0])
                if target is not None:
                    ev.caps.add(target)
    return ev


def _merged_evidence(table: ProgramIndex,
                     evidence: Dict[str, _QueueEvidence],
                     cls: str) -> _QueueEvidence:
    merged = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for ancestor in table.ancestry(cls):
        ev = evidence.get(ancestor)
        if ev is None:
            continue
        for attr, step in ev.appends.items():
            merged.appends.setdefault(attr, step)
        merged.drains |= ev.drains
        merged.bounds |= ev.bounds
        merged.caps |= ev.caps
        merged.pump_attrs |= ev.pump_attrs
    return merged


def _check_backpressure(table: ProgramIndex, cls: str,
                        evidence: Dict[str, _QueueEvidence]) -> List[RawFinding]:
    raws: List[RawFinding] = []
    own = evidence[cls]
    merged = _merged_evidence(table, evidence, cls)
    for attr, step in sorted(own.appends.items()):
        if looks_like_flag(attr):
            continue  # per-key flag dicts are handled by pump-liveness
        if attr in merged.drains or attr in merged.bounds \
                or attr in merged.caps or attr in merged.pump_attrs:
            continue
        raws.append(RawFinding(
            step.file, step.line, "unbounded-buffer",
            f"{cls}: self.{attr} is appended here but nothing along the "
            "class ancestry drains, caps (ControlConfig batch knob / "
            "deque(maxlen)), or pump-manages it — a slow consumer grows "
            "it without bound",
            cls))
    # fire-and-forget replication fan-out
    for name, funcdef in sorted(table.methods(cls).items()):
        for node in ast.walk(funcdef):
            if not (isinstance(node, ast.Call)
                    and self_attr(node.func) == "send"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in REPL_TYPES):
                continue
            raws.append(RawFinding(
                table.classes[cls].file, node.lineno, "unthrottled-replication",
                f"{cls}.{name}: replication fan-out "
                f"({node.args[1].value!r}) via fire-and-forget send() has "
                "no in-flight bound and no failure signal — route it "
                "through call(callback=) under a Pump or batch window",
                cls))
    return raws


# ----------------------------------------------------------------------
# pass (c): retry-idempotency
# ----------------------------------------------------------------------

def _retry_scan(table: ProgramIndex, cls: str):
    """``(gated, feeders, rid_methods, callers)`` over the ancestry of
    ``cls`` (memoized per class through :meth:`ProgramIndex.fact`):
    ``gated`` says some method touches a dedup gate, ``feeders`` maps a
    self container attribute to the methods appending to it,
    ``rid_methods`` are the methods mentioning a rid, ``callers`` maps a
    self-method to the methods calling it."""
    gated = False
    feeders: Dict[str, Set[str]] = {}
    rid_methods: Set[str] = set()
    callers: Dict[str, Set[str]] = {}
    for ancestor in table.ancestry(cls):
        for name, funcdef in table.methods(ancestor).items():
            for node in ast.walk(funcdef):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    if node.func.attr in ("append", "extend", "insert",
                                          "appendleft", "push"):
                        target = node.func.value
                        if isinstance(target, ast.Attribute) \
                                and target.attr == "queue":
                            target = target.value  # a pump's own queue
                        while isinstance(target, ast.Subscript):
                            target = target.value
                        if self_attr(target) is not None:
                            feeders.setdefault(target.attr, set()).add(name)
                    elif self_attr(node.func) is not None:
                        # self.helper(...): caller edge
                        callers.setdefault(node.func.attr, set()).add(name)
                if (isinstance(node, ast.Constant) and node.value == "rid") \
                        or (isinstance(node, ast.Attribute)
                            and node.attr == "rid"):
                    rid_methods.add(name)
                if isinstance(node, ast.Attribute) \
                        and node.attr in (_DEDUP_GATE_ATTRS | _DEDUP_GATE_CALLS):
                    gated = True
    return gated, feeders, rid_methods, callers


def _enqueue_sites_mention_rid(table: ProgramIndex, cls: str, attr: str) -> bool:
    """Do the methods that feed ``self.<attr>`` thread a rid into the
    queued entries?  Flat check over the ancestry: an enqueuing method
    satisfies it either directly or through one level of caller
    indirection (``_forward_down`` attaches the rid, ``_enqueue_down``
    does the append) — the walker already proved the queue/requeue
    relationship, this only locates the identity."""
    _gated, feeders, rid_methods, callers = table.fact(cls, _retry_scan)
    for feeder in feeders.get(attr, ()):
        if feeder in rid_methods:
            return True
        if any(c in rid_methods for c in callers.get(feeder, ())):
            return True
    return False


def _check_retry(table: ProgramIndex, cls: str,
                 evidence: Dict[str, _QueueEvidence]) -> List[RawFinding]:
    raws: List[RawFinding] = []
    own = evidence[cls]
    for step in own.requeues:
        attr = step.detail
        gated = table.fact(cls, _retry_scan)[0]
        if not gated:
            raws.append(RawFinding(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: retry requeue of self.{attr} but no dedup gate "
                "(begin_write rid cache / _rid_done / sequencer _rid_pos) "
                "anywhere on the class ancestry — a re-driven mutation "
                "can apply twice",
                cls))
            continue
        if not _enqueue_sites_mention_rid(table, cls, attr):
            raws.append(RawFinding(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: self.{attr} is requeued for retry but its "
                "enqueue sites never attach a rid — downstream dedup "
                "gates cannot recognize the re-driven entries",
                cls))
    for step in own.rid_strip_appends:
        raws.append(RawFinding(
            step.file, step.line, "retry-no-dedup",
            f"{cls}: payload queued into self.{step.detail} after its "
            "rid was stripped on this path — if this entry is re-driven "
            "no dedup gate can recognize it",
            cls))
    return raws


# ----------------------------------------------------------------------
# pass (d): epoch-guard
# ----------------------------------------------------------------------

def _mentions_epoch_compare(funcdef) -> bool:
    for node in ast.walk(funcdef):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and "epoch" in sub.attr:
                    return True
                if isinstance(sub, ast.Name) and "epoch" in sub.id:
                    return True
    return False


#: double-ring routing state a controlet may only install through the
#: epoch-fenced paths below — a stale broadcast writing these directly
#: can re-open a committed reshard window.
_RING_STATE_ATTRS = ("_ring", "_window")
_RING_INSTALLERS = ("__init__", "_install_shard", "_install_ring",
                    "_adopt_window")


def _check_epoch(table: ProgramIndex, cls: str) -> List[RawFinding]:
    ancestry = table.ancestry(cls)
    file = table.classes[cls].file
    methods = table.methods(cls)
    if cls == "ClusterView" or any("ClusterView" in a for a in ancestry):
        # the membership view's install() IS the fence every follower
        # relies on: it must compare incoming vs held epoch.
        raws: List[RawFinding] = []
        if "install" in methods \
                and not _mentions_epoch_compare(methods["install"]):
            raws.append(RawFinding(
                file, methods["install"].lineno, "ring-epoch",
                f"{cls}.install: override drops the epoch comparison — "
                "a lagging standby's snapshot can roll the membership "
                "view (and its ring generation) backwards",
                cls))
        return raws
    if not any("Controlet" in a for a in ancestry):
        return []
    raws = []
    for name, funcdef in sorted(methods.items()):
        if name in ("__init__", "_install_shard"):
            continue
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if self_attr(target) is None:
                        continue
                    if target.attr == "shard":
                        raws.append(RawFinding(
                            file, node.lineno, "ring-epoch",
                            f"{cls}.{name}: ring state installed directly "
                            "(self.shard = ...) instead of through the "
                            "epoch-fenced _install_shard — a stale config "
                            "delivery can resurrect a retired replica set",
                            cls))
                    elif target.attr in _RING_STATE_ATTRS \
                            and name not in _RING_INSTALLERS:
                        raws.append(RawFinding(
                            file, node.lineno, "ring-epoch",
                            f"{cls}.{name}: double-ring routing state "
                            f"(self.{target.attr} = ...) installed outside "
                            "the fenced installers "
                            f"({', '.join(_RING_INSTALLERS)}) — a delayed "
                            "broadcast from a previous window can re-open "
                            "dual-routing after the cutover committed",
                            cls))
    if "_install_shard" in methods \
            and not _mentions_epoch_compare(methods["_install_shard"]):
        raws.append(RawFinding(
            file, methods["_install_shard"].lineno, "ring-epoch",
            f"{cls}._install_shard: override drops the config-epoch "
            "comparison — out-of-order config updates are no longer "
            "rejected",
            cls))
    if "_on_config_update" in methods:
        routed = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_install_shard", "_on_config_update")
            for node in ast.walk(methods["_on_config_update"]))
        if not routed:
            raws.append(RawFinding(
                file, methods["_on_config_update"].lineno, "ring-epoch",
                f"{cls}._on_config_update: override does not route the "
                "new ring through _install_shard (or super()), bypassing "
                "the epoch fence",
                cls))
    return raws


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def analyze_flow_index(
    index: ProgramIndex,
    waivers: Sequence[Waiver] = FLOW_WAIVERS,
) -> List[Finding]:
    """Run all four flow passes over every class of ``index``."""
    evidence: Dict[str, _QueueEvidence] = {}
    analyzed = [cls for cls in sorted(index.classes)
                if _is_analyzed(index, cls)]
    for cls in analyzed:
        evidence[cls] = _gather_queue_evidence(index, cls)

    raws: List[RawFinding] = []
    for cls in analyzed:
        raws.extend(_check_liveness(index, cls))
        if cls in _GENERIC_CLASSES:
            continue  # Pump's queue/requeue ARE the primitives
        raws.extend(_check_backpressure(index, cls, evidence))
        raws.extend(_check_retry(index, cls, evidence))
        raws.extend(_check_epoch(index, cls))

    by_cls_rule = {(w.cls, w.rule): w for w in waivers}
    for raw in raws:
        raw.waived_by = by_cls_rule.get((raw.cls, raw.rule))
    return finalize(raws, index, waiver_tag="flow waiver")


def analyze_flow_sources(
    sources: List[Tuple[str, str]],
    waivers: Sequence[Waiver] = FLOW_WAIVERS,
) -> List[Finding]:
    """Run all four flow passes over ``(rel_path, source)`` pairs."""
    return analyze_flow_index(ProgramIndex(sources), waivers)


def scope(index: ProgramIndex) -> ProgramIndex:
    """The pass's view of a whole-package index: the controlet cores,
    the shared log, the cluster layer and the pipelined client."""
    return index.view(index.dir_files("core", "sharedlog", "cluster")
                      + ["client/pipeline.py"])


def analyze_flow_tree(root: Optional[Path] = None) -> List[Finding]:
    """Flow findings for the protocol portion of the package."""
    return analyze_flow_index(scope(ProgramIndex.from_root(root)))
