"""Static protocol-conformance checker.

The actor protocol in this codebase is string-typed: a sender does
``self.send(dst, "config_update", ...)`` and the receiver must have
done ``self.register("config_update", handler)``.  Nothing checks the
two sides against each other until a message lands in
``Actor.on_unhandled`` at runtime — in a chaos soak that shows up as a
mysteriously hung recovery, not as a type error.  This pass extracts
both sides from the AST and reports the asymmetries:

* **sent-but-never-handled** — a request type some actor sends (via
  ``send``/``call``/``ClientPort.request``) that no actor anywhere
  registers a handler for: a typo or a missing handler (error);
* **registered-but-never-sent** — a handler no code path can reach:
  dead protocol surface (error, unless the registration is explicitly
  declared an external entry point with ``# protocol: external`` on the
  ``register`` line — e.g. an admin API driven from outside the actor
  system);
* **expected-but-never-produced** — a response type some callback
  compares against (``resp.type == "sync_state"``) that nothing ever
  ``respond``s with (warning).

Message types are mostly literal at the call site, but the framework
funnels many sends through parameterized helpers (``sync_recover(
"tail_sync_pull")`` → ``self.call(src, pull_type, ...)``).  The checker
therefore propagates string constants through call chains to a
fixpoint: any function that forwards a parameter into a send/respond
position becomes a *forwarder*, and constants at its call sites count
as sends — including multi-hop chains like ``handle_put`` →
``_accept_write(msg, "put")`` → ``datalet_call(op, ...)`` →
``self.call(target, type, ...)``.

Registrations driven by a loop over a literal tuple
(``for op in ("put", "get", "del"): self.register(op, ...)``) are
expanded.  Anything genuinely dynamic (``self.call(dst, msg.type)``
relays) is recorded as unresolvable and excluded from the asymmetry
checks rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import ProgramIndex, self_attr

__all__ = ["ProtocolModel", "check_index", "check_tree", "check_sources"]

#: methods that put their message-type argument on the wire, with the
#: positional index of that argument (``self`` excluded).  These are the
#: propagation seeds; everything else is discovered as a forwarder.
_SEND_SEEDS = {"send": 1, "call": 1}
_RESPOND_SEEDS = {"respond": 1}


@dataclass(frozen=True)
class Use:
    """One occurrence of a message type in a role."""

    type: str
    cls: str
    path: str
    line: int


@dataclass
class _Forwarder:
    """``method`` puts its parameter ``param`` on the wire when called."""

    method: str
    param: str
    index: int  # positional index at the *call site* (self stripped)
    kind: str  # "sent" | "responded"


@dataclass
class _CallSite:
    method: str
    args: List[Tuple[str, Optional[str]]]  # ("const"|"param"|"other", value)
    keywords: Dict[str, Tuple[str, Optional[str]]]
    cls: str
    func: str  # enclosing function name ("" at module level)
    func_params: List[str]  # enclosing function's params (self stripped)
    path: str
    line: int

    def resolve(self, index: int, name: str) -> Tuple[str, Optional[str]]:
        if name in self.keywords:
            return self.keywords[name]
        if 0 <= index < len(self.args):
            return self.args[index]
        return ("other", None)


@dataclass
class ProtocolModel:
    """Everything the checker learned about the message protocol."""

    registered: Dict[str, List[Use]] = field(default_factory=dict)
    sent: Dict[str, List[Use]] = field(default_factory=dict)
    responded: Dict[str, List[Use]] = field(default_factory=dict)
    #: response types that some callback pattern-matches on
    expected: Dict[str, List[Use]] = field(default_factory=dict)
    #: registered types declared as externally driven entry points
    external: Set[str] = field(default_factory=set)
    #: send/register sites whose type expression could not be resolved
    unresolved: List[Use] = field(default_factory=list)
    #: class -> message type -> handler method name ("<lambda>"/"<dynamic>"
    #: when the registration is not a plain bound method).  Consumed by
    #: :mod:`repro.analysis.summaries` to pair each message type with the
    #: method whose state footprint decides commutativity.
    handler_methods: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def _add(self, table: Dict[str, List[Use]], use: Use) -> bool:
        uses = table.setdefault(use.type, [])
        if any(u.cls == use.cls for u in uses):
            return False
        uses.append(use)
        return True

    # -- queries -------------------------------------------------------
    def senders(self, type: str) -> List[str]:
        return sorted({u.cls for u in self.sent.get(type, [])})

    def handlers(self, type: str) -> List[str]:
        return sorted({u.cls for u in self.registered.get(type, [])})

    def describe(self) -> str:
        """Per-type role table (handlers ← senders)."""
        lines = []
        for t in sorted(set(self.registered) | set(self.sent)):
            handlers = ", ".join(self.handlers(t)) or "-"
            senders = ", ".join(self.senders(t)) or "-"
            mark = " (external)" if t in self.external else ""
            lines.append(f"{t:22s} handlers: {handlers:40s} senders: {senders}{mark}")
        return "\n".join(lines)

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        response_types = set(self.responded)
        for t in sorted(set(self.sent) - set(self.registered)):
            for u in self.sent[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="sent-unhandled",
                    message=f"message type {t!r} sent by {u.cls} but no "
                            "actor registers a handler for it",
                ))
        for t in sorted(set(self.registered) - set(self.sent)):
            suppressed = t in self.external
            for u in self.registered[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="registered-unsent",
                    message=f"handler for {t!r} registered by {u.cls} but "
                            "nothing in the package ever sends it",
                    suppressed=suppressed,
                ))
        never_produced = (
            set(self.expected) - response_types - set(self.registered) - {"error", "ok"}
        )
        for t in sorted(never_produced):
            for u in self.expected[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="expected-response-missing",
                    message=f"callback expects response type {t!r} but "
                            "nothing ever responds with it",
                    severity="warning",
                ))
        return out


class _Collector(ast.NodeVisitor):
    def __init__(self, rel_path: str, model: ProtocolModel,
                 forwarders: Dict[str, List[_Forwarder]],
                 sites: List[_CallSite], external_lines: Set[int]):
        self.rel = rel_path
        self.model = model
        self.forwarders = forwarders
        self.sites = sites
        self.external_lines = external_lines
        self._cls: List[str] = []
        self._func: List[Tuple[str, List[str]]] = []
        self._loop_consts: List[Dict[str, List[str]]] = [{}]

    # -- context tracking ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._cls.append(node.name)
        self.generic_visit(node)
        self._cls.pop()

    def _visit_func(self, node) -> None:
        params = [a.arg for a in node.args.args if a.arg != "self"]
        self._func.append((node.name, params))
        self.generic_visit(node)
        self._func.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_For(self, node: ast.For) -> None:
        consts: Optional[List[str]] = None
        if isinstance(node.iter, (ast.Tuple, ast.List, ast.Set)) and node.iter.elts:
            if all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.iter.elts
            ):
                consts = [e.value for e in node.iter.elts]
        if consts is not None and isinstance(node.target, ast.Name):
            self._loop_consts.append(
                dict(self._loop_consts[-1], **{node.target.id: consts})
            )
            self.generic_visit(node)
            self._loop_consts.pop()
        else:
            self.generic_visit(node)

    # -- helpers --------------------------------------------------------
    @property
    def _cur_cls(self) -> str:
        return self._cls[-1] if self._cls else f"<module {self.rel}>"

    @property
    def _cur_func(self) -> Tuple[str, List[str]]:
        return self._func[-1] if self._func else ("", [])

    def _classify(self, node: ast.expr) -> Tuple[str, Optional[str]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return ("const", node.value)
        if isinstance(node, ast.Name) and node.id in self._cur_func[1]:
            return ("param", node.id)
        return ("other", None)

    def _use(self, type: str, line: int) -> Use:
        return Use(type=type, cls=self._cur_cls, path=self.rel, line=line)

    # -- the interesting nodes -----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            mname = node.func.attr
            on_self = isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
        elif isinstance(node.func, ast.Name):
            mname = node.func.id
            on_self = False
        else:
            self.generic_visit(node)
            return

        if mname == "register" and node.args:
            self._handle_register(node)
        elif on_self and mname in _SEND_SEEDS:
            self._handle_wire(node, _SEND_SEEDS[mname], "sent")
        elif on_self and mname in _RESPOND_SEEDS:
            self._handle_wire(node, _RESPOND_SEEDS[mname], "responded")

        # every call is a potential forwarder call site
        self.sites.append(_CallSite(
            method=mname,
            args=[self._classify(a) for a in node.args],
            keywords={
                kw.arg: self._classify(kw.value)
                for kw in node.keywords if kw.arg is not None
            },
            cls=self._cur_cls,
            func=self._cur_func[0],
            func_params=list(self._cur_func[1]),
            path=self.rel,
            line=node.lineno,
        ))
        self.generic_visit(node)

    def _handle_register(self, node: ast.Call) -> None:
        arg = node.args[0]
        kind, value = self._classify(arg)
        if kind == "const":
            types = [value]
        elif isinstance(arg, ast.Name) and arg.id in self._loop_consts[-1]:
            types = self._loop_consts[-1][arg.id]
        else:
            self.model.unresolved.append(self._use(f"register:{ast.dump(arg)[:40]}", node.lineno))
            return
        handler = "<dynamic>"
        if len(node.args) > 1:
            h = node.args[1]
            if self_attr(h) is not None:
                handler = h.attr
            elif isinstance(h, ast.Lambda):
                handler = "<lambda>"
        per_cls = self.model.handler_methods.setdefault(self._cur_cls, {})
        for t in types:
            self.model._add(self.model.registered, self._use(t, node.lineno))
            per_cls.setdefault(t, handler)
            if node.lineno in self.external_lines:
                self.model.external.add(t)

    def _handle_wire(self, node: ast.Call, index: int, table: str) -> None:
        if index < len(node.args):
            kind, value = self._classify(node.args[index])
        elif "type" in {kw.arg for kw in node.keywords}:
            kind, value = self._classify(
                next(kw.value for kw in node.keywords if kw.arg == "type")
            )
        else:
            return
        if kind == "const":
            self.model._add(getattr(self.model, table), self._use(value, node.lineno))
        elif kind == "param":
            fname = self._cur_func[0]
            fwd = _Forwarder(
                method=fname, param=value,
                index=self._cur_func[1].index(value),
                kind=table,
            )
            bucket = self.forwarders.setdefault(fname, [])
            if fwd not in bucket:
                bucket.append(fwd)
        else:
            self.model.unresolved.append(
                self._use(f"{table}:{ast.dump(node.args[index] if index < len(node.args) else node)[:40]}",
                          node.lineno))

    def visit_Compare(self, node: ast.Compare) -> None:
        """Collect ``resp.type == "x"`` / ``in ("x", "y")`` patterns."""
        if (
            isinstance(node.left, ast.Attribute)
            and node.left.attr == "type"
            and len(node.comparators) == 1
        ):
            comp = node.comparators[0]
            values: List[str] = []
            if isinstance(comp, ast.Constant) and isinstance(comp.value, str):
                values = [comp.value]
            elif isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                values = [
                    e.value for e in comp.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
            for v in values:
                self.model._add(self.model.expected, self._use(v, node.lineno))
        self.generic_visit(node)


def _propagate(model: ProtocolModel, forwarders: Dict[str, List[_Forwarder]],
               sites: List[_CallSite]) -> None:
    """Run constant propagation through forwarder call chains to a
    fixpoint (chains are short; the bound is just a safety net)."""
    for _ in range(12):
        changed = False
        for site in sites:
            for fwd in forwarders.get(site.method, []):
                kind, value = site.resolve(fwd.index, fwd.param)
                if kind == "const":
                    table = getattr(model, fwd.kind)
                    use = Use(type=value, cls=site.cls, path=site.path, line=site.line)
                    changed |= model._add(table, use)
                elif kind == "param" and value in site.func_params:
                    new = _Forwarder(
                        method=site.func, param=value,
                        index=site.func_params.index(value),
                        kind=fwd.kind,
                    )
                    bucket = forwarders.setdefault(site.func, [])
                    if new not in bucket:
                        bucket.append(new)
                        changed = True
        if not changed:
            return


def check_index(index: ProgramIndex) -> ProtocolModel:
    """Analyze every file of ``index`` as one protocol universe."""
    model = ProtocolModel()
    forwarders: Dict[str, List[_Forwarder]] = {}
    sites: List[_CallSite] = []
    for rel, src in index.files.items():
        _Collector(rel, model, forwarders, sites,
                   src.external_lines).visit(src.tree)
    _propagate(model, forwarders, sites)
    return model


def check_sources(sources: Iterable[Tuple[str, str]]) -> ProtocolModel:
    """Analyze ``(rel_path, source)`` pairs as one protocol universe."""
    return check_index(ProgramIndex(sources))


def check_tree(root: Path) -> ProtocolModel:
    """Conformance-check every ``*.py`` under the package root."""
    return check_index(ProgramIndex.from_root(root))
