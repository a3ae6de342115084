"""Static + runtime correctness tooling for the reproduction.

Three cooperating passes guard the properties the rest of the repo
relies on but nothing else enforces:

* :mod:`repro.analysis.lint` — AST determinism linter (wall clock,
  global/ad-hoc RNG, unordered set iteration, ``hash()``/``id()``
  ordering in protocol code);
* :mod:`repro.analysis.conformance` — static exhaustiveness check of
  the string-typed actor protocol (sent-but-never-handled,
  registered-but-never-sent, expected-response-missing);
* :mod:`repro.analysis.races` — opt-in runtime detector for
  same-timestamp events whose order over one actor is fixed only by
  heap insertion sequence, plus a tie-order perturbation helper;
* :mod:`repro.analysis.commitpoints` — static commit-point analysis of
  the write paths (ack-before-durable / ack-before-replication), whose
  waiver table doubles as the per-combo durability contract consumed by
  the chaos runner and the recovery-aware model checker;
* :mod:`repro.analysis.flow` — path-sensitive flow-control passes over
  the controlet hot paths (pump-liveness, backpressure,
  retry-idempotency, config-epoch fencing), built on the
  :mod:`repro.analysis.cfg` walker that inlines RPC callbacks and
  timer continuations; seeded must-fail defects live in
  :mod:`repro.analysis.flowdefects`.

On top of those sit the model-checking modules (imported directly, not
re-exported here, so ``import repro.analysis`` stays light):

* :mod:`repro.analysis.summaries` — static per-handler read/write
  footprints, the commutativity evidence for partial-order reduction;
* :mod:`repro.analysis.statespace` — the controlled-scheduler cluster,
  scenario scope bounds and checker clients;
* :mod:`repro.analysis.explore` — exhaustive DFS with sleep sets +
  fingerprint pruning, counterexample traces and their replayer.

One front end serves every static pass: a :class:`ProgramIndex`
(:mod:`repro.analysis.program`) parses each file once and keys one
class table by class name (the last definition in sorted file order
wins).  :func:`run_lint` builds one per run and gives each pass a view
scoped to its files — lint and conformance: the whole package; commit
points: ``core/``, ``datalet/``; flow: ``core/``, ``sharedlog/``,
``cluster/``, ``client/pipeline.py`` — and every pass turns raw hits
into findings with :func:`~repro.analysis.findings.finalize`.

CLI front-ends: ``bespokv lint`` and ``bespokv check`` (see
:mod:`repro.cli`); lint, conformance and a small-scope check smoke also
run in CI before the test and soak jobs.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.analysis import commitpoints, flow
from repro.analysis.commitpoints import (
    CONTRACTS,
    CommitContract,
    ack_durable_for,
    analyze_index,
    analyze_sources,
    analyze_tree,
    contract_for,
)
from repro.analysis.conformance import (
    ProtocolModel,
    check_index,
    check_sources,
    check_tree,
)
from repro.analysis.flow import (
    FLOW_INJECTION_SOURCES,
    FLOW_RULES,
    FLOW_WAIVERS,
    analyze_flow_index,
    analyze_flow_sources,
    analyze_flow_tree,
)
from repro.analysis.findings import (
    FINDINGS_SCHEMA,
    Finding,
    Waiver,
    findings_to_json,
    format_findings,
    format_github,
    summarize,
)
from repro.analysis.lint import (
    DEFAULT_ALLOWLIST,
    PROTOCOL_PREFIXES,
    lint_index,
    lint_source,
)
from repro.analysis.program import ProgramIndex, package_root
from repro.analysis.races import (
    PerturbationResult,
    RaceDetector,
    RaceReport,
    perturb_ties,
)

__all__ = [
    "FINDINGS_SCHEMA",
    "Finding",
    "findings_to_json",
    "format_findings",
    "format_github",
    "summarize",
    "ProgramIndex",
    "lint_source",
    "DEFAULT_ALLOWLIST",
    "PROTOCOL_PREFIXES",
    "ProtocolModel",
    "check_sources",
    "check_tree",
    "CONTRACTS",
    "CommitContract",
    "Waiver",
    "ack_durable_for",
    "analyze_sources",
    "analyze_tree",
    "contract_for",
    "FLOW_INJECTION_SOURCES",
    "FLOW_RULES",
    "FLOW_WAIVERS",
    "analyze_flow_sources",
    "analyze_flow_tree",
    "RaceDetector",
    "RaceReport",
    "PerturbationResult",
    "perturb_ties",
    "run_lint",
    "package_root",
]


def run_lint(root: Optional[Path] = None, conformance: bool = True,
             inject_flow_defects: bool = False) -> List[Finding]:
    """Run the determinism linter, the commit-point pass, the flow
    passes, and (optionally) the protocol checker over one package
    tree, each on its view of one :class:`ProgramIndex`; returns every
    finding, suppressed included.  ``inject_flow_defects`` also runs
    the flow passes over :data:`FLOW_INJECTION_SOURCES`."""
    index = ProgramIndex.from_root(root)
    findings = lint_index(index)
    findings.extend(analyze_index(commitpoints.scope(index)))
    findings.extend(analyze_flow_index(flow.scope(index)))
    if conformance:
        findings.extend(check_index(index).findings())
    if inject_flow_defects:
        findings.extend(analyze_flow_index(index.view(FLOW_INJECTION_SOURCES)))
    return findings
