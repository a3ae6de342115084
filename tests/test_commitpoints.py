"""Tests for the static commit-point analyzer (ack vs durable effects).

The analyzer is half of the durability static-analysis layer: it proves
(or waives, via the machine-readable per-combo contract) that no write
path acks the client before a durable or awaited-replication effect.
The other half — the recovery-aware model checker — is exercised in
``test_model_checker_restart.py``; the seeded ``unsynced-ack`` defect
must be caught by *both* halves.
"""

from pathlib import Path

import pytest

from repro.analysis import package_root, run_lint
from repro.analysis.commitpoints import (
    ALL_WAIVERS,
    CONTRACTS,
    ack_durable_for,
    analyze_sources,
    analyze_tree,
    contract_for,
)

COMBOS = ("ms-sc", "ms-ec", "aa-sc", "aa-ec", "hybrid")


def _read(rel: str):
    p = package_root() / rel
    return (rel, p.read_text())


# ---------------------------------------------------------------------------
# the contract table
# ---------------------------------------------------------------------------
def test_contract_table_covers_every_combo():
    assert {c.combo for c in CONTRACTS} == set(COMBOS)
    for combo in COMBOS:
        c = contract_for(combo)
        assert c.combo == combo
        assert c.ack_point and c.ack_durable_when


def test_unknown_combo_raises():
    with pytest.raises(KeyError):
        contract_for("ms-xx")
    with pytest.raises(KeyError):
        ack_durable_for("nope")


def test_every_waiver_names_combo_and_config():
    """Acceptance criterion: every suppression names the combo and the
    configuration that makes the pattern legal."""
    assert ALL_WAIVERS, "the contract table lost its waivers"
    for w in ALL_WAIVERS:
        assert "combo " in w.condition, w
        assert any(combo in w.condition for combo in COMBOS), w
        assert "wal_sync_every" in w.condition or "always" in w.condition, w
        assert w.cls and w.rule and w.reason


def test_ack_durable_truth_table():
    # the single conditional contract is MS+EC group commit
    for combo in ("ms-sc", "aa-sc", "aa-ec", "hybrid"):
        assert ack_durable_for(combo, 1)
        assert ack_durable_for(combo, 8)
    assert ack_durable_for("ms-ec", 1)
    assert not ack_durable_for("ms-ec", 2)
    assert not ack_durable_for("ms-ec", 64)


def test_contract_matches_runner_consumption():
    """The chaos runner derives its combo key as f"{topology}-{sc|ec}";
    each such key must resolve to a contract."""
    for topo in ("ms", "aa"):
        for cons in ("sc", "ec"):
            assert contract_for(f"{topo}-{cons}") is not None


# ---------------------------------------------------------------------------
# tree analysis: the shipped protocol code is contract-clean
# ---------------------------------------------------------------------------
def test_tree_has_no_unsuppressed_findings():
    findings = analyze_tree(package_root())
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed == [], "\n".join(f.describe() for f in unsuppressed)


def test_tree_suppressions_are_attributed():
    """Every suppressed finding is either a line pragma on a
    buffer-catchup ack or a contract waiver whose text names the combo
    and condition."""
    findings = analyze_tree(package_root())
    assert findings, "analyzer saw no write paths at all"
    for f in findings:
        assert f.suppressed
        assert f.rule in ("ack-before-durable", "ack-before-replication")
        if "contract waiver" in f.message:
            assert "combo " in f.message


def test_scope_view_does_not_widen_the_class_universe():
    from repro.analysis import ProgramIndex
    from repro.analysis.commitpoints import scope

    index = ProgramIndex.from_root(package_root())
    view = scope(index)
    # the pass resolves only into core/ + datalet/, never net/actor.py
    assert "Actor" in index.classes and "Actor" not in view.classes
    assert {c.file.split("/")[0] for c in view.classes.values()} == {
        "core", "datalet"}
    # name collisions: the last definition in sorted file order wins
    assert index.classes["ReplayResult"].file == "datalet/wal.py"


def test_run_lint_includes_commitpoint_pass():
    findings = run_lint()
    assert any(
        f.rule in ("ack-before-durable", "ack-before-replication")
        for f in findings
    )
    errors = [f for f in findings if not f.suppressed and f.severity == "error"]
    assert errors == [], "\n".join(f.describe() for f in errors)


# ---------------------------------------------------------------------------
# seeded must-fail: the injected defects are flagged statically
# ---------------------------------------------------------------------------
INJECTION_SOURCES = [
    "core/controlet.py",
    "core/request.py",
    "core/ms_sc.py",
    "analysis/statespace.py",
]


def test_unsynced_ack_injection_is_flagged():
    """The same defect the recovery-aware checker catches dynamically
    (``repro check --restart --inject unsynced-ack``) must be flagged
    by the static pass: the deferred timer apply leaves the ack with no
    durable effect before it."""
    findings = analyze_sources([_read(rel) for rel in INJECTION_SOURCES])
    hits = [
        f for f in findings
        if not f.suppressed and f.rule == "ack-before-durable"
        and "UnsyncedAckMSStrongControlet" in f.message
    ]
    assert hits, "\n".join(f.describe() for f in findings)


def test_early_ack_injection_is_flagged():
    findings = analyze_sources([_read(rel) for rel in INJECTION_SOURCES])
    hits = [
        f for f in findings
        if not f.suppressed
        and "EarlyAckMSStrongControlet" in f.message
    ]
    assert hits, "\n".join(f.describe() for f in findings)


def test_healthy_chain_is_not_flagged_by_source_analysis():
    """The real MSStrongControlet write path stays clean under the same
    explicit-source invocation the injection tests use."""
    findings = analyze_sources([_read(rel) for rel in INJECTION_SOURCES])
    bad = [
        f for f in findings
        if not f.suppressed
        and "Unsynced" not in f.message and "EarlyAck" not in f.message
        and "PartialBatchAck" not in f.message
    ]
    assert bad == [], "\n".join(f.message for f in bad)


# ---------------------------------------------------------------------------
# pump following: a driver runs the bound issue callable
# ---------------------------------------------------------------------------
_PUMPED_EARLY_ACK = '''\
from repro.core.controlet import Controlet, Pump


class PumpedAckControlet(Controlet):
    def __init__(self):
        self._writes = Pump(self._issue_write)
        self.register("put", self._on_put)

    def _on_put(self, msg):
        self._writes.push(msg)

    def _issue_write(self, msg, done):
        self.respond(msg, "ok")  # BUG: acked before the datalet write
        self.datalet_call("put", dict(msg.payload),
                          callback=lambda resp, err: done())
'''


def test_ack_inside_pump_issue_callable_is_flagged():
    """The handler only pushes; the ack lives in the issue callable the
    pump runs.  The tracer must follow ``self.<pump>.push`` into it."""
    findings = analyze_sources([("pumped.py", _PUMPED_EARLY_ACK)])
    hits = [f for f in findings
            if f.rule == "ack-before-durable" and not f.suppressed]
    assert len(hits) == 1, "\n".join(f.describe() for f in findings)
    assert hits[0].line == 13  # the respond inside _issue_write
    assert "PumpedAckControlet [put]" in hits[0].message
