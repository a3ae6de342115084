"""Shared finding/report types for the static-analysis passes.

Three renderings of the same finding list:

* :func:`format_findings` — the human one-line-per-finding form;
* :func:`findings_to_json` — a stable machine envelope (schema
  ``repro.lint.findings/1``) shared by ``repro lint --format json``
  and the model checker's counterexample metadata;
* :func:`format_github` — GitHub Actions workflow commands
  (``::error file=...``) so CI annotates the offending lines inline.

:func:`finalize` is the one place a pass's raw hits become findings:
pragma and allowlist suppression, declared waivers, dedup and order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set

__all__ = [
    "FINDINGS_SCHEMA",
    "Finding",
    "RawFinding",
    "Waiver",
    "finalize",
    "findings_to_json",
    "format_findings",
    "format_github",
    "summarize",
]

#: version tag for the JSON envelope; bump on breaking field changes.
FINDINGS_SCHEMA = "repro.lint.findings/1"


@dataclass(frozen=True)
class Finding:
    """One diagnostic from a pass.

    ``severity`` is ``"error"`` (breaks determinism / protocol) or
    ``"warning"`` (suspicious; strict mode treats it as fatal).
    ``suppressed`` findings matched an explicit pragma or allowlist
    entry and never affect exit codes — they are kept so ``repro lint
    --show-suppressed`` can audit what is being waived.
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"
    suppressed: bool = False

    def format(self) -> str:
        tag = "allowed" if self.suppressed else self.severity
        return f"{self.path}:{self.line}: [{self.rule}] {tag}: {self.message}"

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass(frozen=True)
class Waiver:
    """One declared-legal analyzer finding: ``cls``'s ``rule`` pattern
    is part of the combo's contract for the ``condition`` stated."""

    cls: str
    rule: str
    condition: str
    reason: str


@dataclass
class RawFinding:
    """A pass's hit before suppression; ``cls`` names the class whose
    analysis produced it (the key waiver tables match on)."""

    file: str
    line: int
    rule: str
    message: str
    cls: str = ""
    waived_by: Optional[Waiver] = None


def finalize(raws: Iterable[RawFinding], index,
             allowlist: Optional[Mapping[str, Set[str]]] = None,
             waiver_tag: str = "waiver", dedup: bool = True) -> List[Finding]:
    """Sorted findings for the hits inside ``index`` (a ProgramIndex).

    A hit is suppressed by a ``# lint: allow[rule]`` (or ``allow[*]``)
    pragma on its line or the line above, an ``allowlist`` path-prefix
    entry, or its waiver (tagged onto the message for audits).  With
    ``dedup``, hits at one ``(file, line, rule)`` collapse into one
    finding; an unsuppressed hit beats a waived one.
    """
    best: Dict[object, Finding] = {}
    for n, raw in enumerate(raws):
        src = index.files.get(raw.file)
        if src is None:
            continue  # inlined from a file outside the pass's scope
        line_rules = (src.pragmas.get(raw.line, set())
                      | src.pragmas.get(raw.line - 1, set()))
        suppressed = raw.rule in line_rules or "*" in line_rules or any(
            raw.rule in rules and raw.file.startswith(prefix)
            for prefix, rules in (allowlist or {}).items())
        message = raw.message
        if raw.waived_by is not None:
            suppressed = True
            message += (f" [{waiver_tag}: {raw.waived_by.condition} — "
                        f"{raw.waived_by.reason}]")
        key = (raw.file, raw.line, raw.rule) if dedup else n
        prev = best.get(key)
        if prev is None or (prev.suppressed and not suppressed):
            best[key] = Finding(path=raw.file, line=raw.line, rule=raw.rule,
                                message=message, suppressed=suppressed)
    return sorted(best.values(), key=lambda f: (f.path, f.line, f.rule))


def format_findings(findings: List[Finding]) -> str:
    return "\n".join(
        f.format()
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    )


def findings_to_json(findings: List[Finding], indent: int = 2) -> str:
    """Serialize the full finding list (suppressed included, so tools
    can audit waivers) under a versioned envelope."""
    doc = {
        "schema": FINDINGS_SCHEMA,
        "summary": summarize(findings),
        "findings": [
            f.to_dict()
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ],
    }
    return json.dumps(doc, indent=indent, sort_keys=False)


def _gh_escape(value: str) -> str:
    """Escape data for a GitHub Actions workflow-command message."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def format_github(findings: List[Finding], prefix: str = "") -> str:
    """Render unsuppressed findings as ``::error``/``::warning``
    workflow commands.  ``prefix`` rebases the lint-relative paths onto
    repo-relative ones (e.g. ``src/repro/``) so the annotations land on
    the right files in the PR view."""
    lines = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        if f.suppressed:
            continue
        level = "warning" if f.severity == "warning" else "error"
        lines.append(
            f"::{level} file={prefix}{f.path},line={f.line},"
            f"title=lint {f.rule}::{_gh_escape(f.message)}"
        )
    return "\n".join(lines)


def summarize(findings: List[Finding]) -> Dict[str, int]:
    """Counts by disposition, for the one-line lint summary."""
    out = {"errors": 0, "warnings": 0, "suppressed": 0}
    for f in findings:
        if f.suppressed:
            out["suppressed"] += 1
        elif f.severity == "warning":
            out["warnings"] += 1
        else:
            out["errors"] += 1
    return out
