"""The analysis front end: one parsed program shared by every pass.

A :class:`ProgramIndex` parses each ``(rel_path, source)`` pair once
and holds the trees, the ``# lint: allow[...]`` and ``# protocol:
external`` pragmas, and one name-keyed class table (the last
definition in file order wins).  A pass scoped to part of the package
takes a :meth:`~ProgramIndex.view`: the same parsed files, whose class
table holds only the classes they define.  Per-class derived facts are
memoized on the index instance, so indexes over different sources
never share an entry.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "PUMP_DRIVERS",
    "ClassInfo",
    "ProgramIndex",
    "SourceFile",
    "arg_or_kw",
    "closure_body",
    "const_str",
    "driven_pump",
    "package_root",
    "parse_pragmas",
    "pump_bindings",
    "self_attr",
]

#: methods of :class:`repro.core.controlet.Pump` that run the bound
#: issue callable synchronously (push/kick drain inline when idle).
PUMP_DRIVERS = {"push", "kick", "requeue_front"}

_PRAGMA = re.compile(r"#\s*lint:\s*allow\[([^\]]*)\]")
_EXTERNAL_PRAGMA = re.compile(r"#\s*protocol:\s*external\b")


def package_root() -> Path:
    """Directory of the installed ``repro`` package (the lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rules allowed by a ``# lint: allow[...]``."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(text)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


def const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def arg_or_kw(call: ast.Call, pos: int, kw: str) -> Optional[ast.expr]:
    if len(call.args) > pos:
        return call.args[pos]
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    return None


def self_attr(node: Optional[ast.expr]) -> Optional[str]:
    """``self.X`` -> ``X``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def closure_body(node: ast.AST) -> List[ast.stmt]:
    """Statements of a def, or of a lambda whose body is a call (as one
    expression statement); any other lambda body has no effect to walk."""
    if not isinstance(node, ast.Lambda):
        return list(node.body)
    if not isinstance(node.body, ast.Call):
        return []
    return [ast.copy_location(ast.Expr(value=node.body), node.body)]


@dataclass(eq=False)
class ClassInfo:
    """One ``class`` statement: name-based bases, own methods, file."""

    name: str
    bases: List[str]
    methods: Dict[str, ast.AST]
    file: str


@dataclass(eq=False)
class SourceFile:
    """One file, parsed once, with its pragma lines."""

    rel: str
    source: str
    tree: ast.Module
    pragmas: Dict[int, Set[str]]
    external_lines: Set[int]
    #: every class statement, nested ones included, in ``ast.walk`` order
    classes: List[ClassInfo]


def _parse(rel: str, source: str) -> SourceFile:
    tree = ast.parse(source, rel)
    classes = [
        ClassInfo(
            node.name,
            [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
             for b in node.bases],
            {item.name: item for item in node.body
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))},
            rel,
        )
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    external = {
        lineno for lineno, text in enumerate(source.splitlines(), start=1)
        if _EXTERNAL_PRAGMA.search(text)
    }
    return SourceFile(rel, source, tree, parse_pragmas(source), external,
                      classes)


class ProgramIndex:
    """Parsed files plus the class table every static pass shares."""

    def __init__(self, sources: Iterable[Tuple[str, str]] = (),
                 _files: Optional[List[SourceFile]] = None):
        files = ([_parse(rel, src) for rel, src in sources]
                 if _files is None else _files)
        self.files: Dict[str, SourceFile] = {f.rel: f for f in files}
        self.classes: Dict[str, ClassInfo] = {
            c.name: c for f in files for c in f.classes
        }
        self._ancestry: Dict[str, List[str]] = {}
        self._resolved: Dict[Tuple[str, str], Tuple[Any, Optional[ClassInfo]]] = {}
        self._facts: Dict[Tuple[Callable, str], Any] = {}

    @classmethod
    def from_root(cls, root: Optional[Path] = None) -> "ProgramIndex":
        """Every ``*.py`` under ``root`` (default: :func:`package_root`)."""
        root = package_root() if root is None else Path(root)
        return cls((p.relative_to(root).as_posix(), p.read_text())
                   for p in sorted(root.rglob("*.py")))

    def view(self, rels: Iterable[str]) -> "ProgramIndex":
        """The files ``rels`` (in that order; absent ones skipped) as
        their own index, sharing this index's parse."""
        return ProgramIndex(_files=[self.files[r] for r in rels
                                    if r in self.files])

    def dir_files(self, *dirs: str) -> List[str]:
        """Files directly inside each of ``dirs``, directory by directory."""
        return [rel for d in dirs for rel in self.files
                if rel.rpartition("/")[0] == d]

    def ancestry(self, cls: str) -> List[str]:
        """Name-based base chain, most-derived first (approximate MRO);
        names outside the table are listed but not expanded."""
        if cls not in self._ancestry:
            order: List[str] = []
            stack = [cls]
            while stack:
                cur = stack.pop(0)
                if cur in order:
                    continue
                order.append(cur)
                if cur in self.classes:
                    stack.extend(self.classes[cur].bases)
            self._ancestry[cls] = order
        return self._ancestry[cls]

    def resolve(self, cls: str, method: str):
        """``(funcdef, defining ClassInfo)`` along the ancestry, or
        ``(None, None)``."""
        key = (cls, method)
        if key not in self._resolved:
            self._resolved[key] = next(
                ((c.methods[method], c)
                 for c in map(self.classes.get, self.ancestry(cls))
                 if c is not None and method in c.methods),
                (None, None))
        return self._resolved[key]

    def methods(self, cls: str) -> Dict[str, ast.AST]:
        """Own methods of ``cls`` (none for a name outside the table)."""
        c = self.classes.get(cls)
        return c.methods if c is not None else {}

    def fact(self, cls: str, compute: Callable[["ProgramIndex", str], Any]):
        """``compute(self, cls)``, computed on first use and memoized on
        this index."""
        key = (compute, cls)
        if key not in self._facts:
            self._facts[key] = compute(self, cls)
        return self._facts[key]


def pump_bindings(index: ProgramIndex, cls: str) -> Dict[str, str]:
    """``attr -> issue method`` for every pump bound along the ancestry
    of ``cls`` (most-derived binding wins): ``self.<attr> =
    Pump(self.<m>)``, or a per-key table entry ``self.<attr>[k] =
    Pump(lambda ...: self.<m>(...))``.  Driving such a pump
    (:func:`driven_pump`) runs ``<m>``, so passes that follow calls
    follow the pump into it.  Other issue callables (local closures)
    resolve to nothing here.  Use through :meth:`ProgramIndex.fact`."""
    out: Dict[str, str] = {}
    for ancestor in index.ancestry(cls):
        for node in index.methods(ancestor).values():
            for n in ast.walk(node):
                if not (isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                        and isinstance(n.value.func, ast.Name)
                        and n.value.func.id == "Pump"):
                    continue
                issue = arg_or_kw(n.value, 0, "issue")
                if isinstance(issue, ast.Lambda) and isinstance(issue.body, ast.Call):
                    issue = issue.body.func
                method = self_attr(issue)
                if method is None:
                    continue
                for tgt in n.targets:
                    while isinstance(tgt, ast.Subscript):
                        tgt = tgt.value
                    attr = self_attr(tgt)
                    if attr is not None:
                        out.setdefault(attr, method)
    return out


def driven_pump(call: ast.Call) -> Optional[str]:
    """``X`` when ``call`` drives ``self.X`` or ``self.X[k]`` through a
    :data:`PUMP_DRIVERS` method, else None."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in PUMP_DRIVERS):
        return None
    recv = func.value
    while isinstance(recv, ast.Subscript):
        recv = recv.value
    return self_attr(recv)
