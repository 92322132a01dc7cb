"""Deterministic scenario tests for the online auditor."""

import pytest

from repro.audit import AuditConfig, OnlineAuditor


def classic_violation(auditor):
    """T0.0 reads x, T0.1 overwrites x and writes y, T0.0 reads y.

    The committed-top graph is T0.0 -rw[x]-> T0.1 -wr[y]-> T0.0: no
    serial order of the two explains both observations.
    """
    auditor.txn_begin((0,))
    auditor.txn_begin((1,))
    auditor.access((0,), "x", "read", True)
    auditor.access((1,), "x", "write", False)
    auditor.access((1,), "y", "write", False)
    auditor.txn_commit((1,))
    auditor.access((0,), "y", "read", True)
    auditor.txn_commit((0,))
    return auditor


class TestViolationDetection:
    def test_classic_cycle_is_witnessed(self):
        auditor = classic_violation(OnlineAuditor())
        assert auditor.verdict == "violation"
        (violation,) = auditor.violations
        assert violation.objects == ("x", "y")
        assert violation.cycle_text() == "T0.0 -> T0.1 -> T0.0"

    def test_witness_describe_is_pinned(self):
        auditor = classic_violation(OnlineAuditor())
        (violation,) = auditor.violations
        assert violation.describe() == (
            "cycle T0.0 -> T0.1 -> T0.0 over x, y\n"
            "  T0.0 -rw[x]-> T0.1 (r x @0 < w x @1)\n"
            "  T0.1 -wr[y]-> T0.0 (w y @2 < r y @3)"
        )

    def test_report_render_is_pinned(self):
        auditor = classic_violation(OnlineAuditor())
        assert auditor.report().render() == (
            "verdict : violation\n"
            "audited : 2/2 top-level transaction(s) (sample 1/1)\n"
            "graph   : 0 live vertex(es), 1 collected\n"
            "witness 0:\n"
            "  cycle T0.0 -> T0.1 -> T0.0 over x, y\n"
            "    T0.0 -rw[x]-> T0.1 (r x @0 < w x @1)\n"
            "    T0.1 -wr[y]-> T0.0 (w y @2 < r y @3)"
        )

    def test_offender_eviction_restores_acyclicity(self):
        auditor = classic_violation(OnlineAuditor())
        # A later pair with a plain WR dependency must not re-flag
        # against the evicted offender.
        auditor.txn_begin((2,))
        auditor.txn_begin((3,))
        auditor.access((2,), "x", "write", False)
        auditor.txn_commit((2,))
        auditor.access((3,), "x", "read", True)
        auditor.txn_commit((3,))
        assert len(auditor.violations) == 1

    def test_serial_history_is_clean(self):
        auditor = OnlineAuditor()
        for top in range(3):
            auditor.txn_begin((top,))
            auditor.access((top,), "x", "write", False)
            auditor.access((top,), "x", "read", True)
            auditor.txn_commit((top,))
        assert auditor.verdict == "clean"
        assert auditor.violations == []

    def test_read_read_never_conflicts(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.txn_begin((1,))
        auditor.access((0,), "x", "read", True)
        auditor.access((1,), "x", "read", True)
        auditor.txn_commit((1,))
        auditor.txn_commit((0,))
        report = auditor.report()
        assert report.verdict == "clean"
        assert report.stats["edges_live"] == 0

    def test_aborted_top_never_enters_the_graph(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.txn_begin((1,))
        auditor.access((0,), "x", "read", True)
        auditor.access((1,), "x", "write", False)
        auditor.access((1,), "y", "write", False)
        auditor.txn_commit((1,))
        auditor.access((0,), "y", "read", True)
        auditor.txn_abort((0,))  # would have closed the cycle
        assert auditor.verdict == "clean"


class TestSubtreePruning:
    def test_aborted_child_accesses_are_pruned(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.txn_begin((1,))
        # The conflicting read happens inside a child that aborts:
        # Moss' versions undo it, so no rw edge may be drawn.
        auditor.txn_begin((0, 0))
        auditor.access((0, 0), "x", "read", True)
        auditor.txn_abort((0, 0))
        auditor.access((1,), "x", "write", False)
        auditor.access((1,), "y", "write", False)
        auditor.txn_commit((1,))
        auditor.access((0,), "y", "read", True)
        auditor.txn_commit((0,))
        assert auditor.verdict == "clean"
        assert auditor.stats["accesses_pruned"] == 1

    def test_pruning_is_prefix_exact(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.txn_begin((0, 0))
        auditor.txn_begin((0, 1))
        auditor.access((0, 0), "x", "write", False)
        auditor.access((0, 1), "y", "write", False)
        auditor.txn_abort((0, 1))
        auditor.txn_commit((0, 0))
        auditor.txn_commit((0,))
        # Only the aborted sibling's access vanished.
        assert auditor.stats["accesses_pruned"] == 1
        assert auditor.stats["accesses_buffered"] == 2


class TestSampling:
    def test_sample_every_skips_unaudited_trees(self):
        auditor = OnlineAuditor(AuditConfig(sample_every=2))
        for top in range(4):
            auditor.txn_begin((top,))
            auditor.access((top,), "x", "write", False)
            auditor.txn_commit((top,))
        assert auditor.stats["tops_seen"] == 4
        assert auditor.stats["tops_audited"] == 2

    def test_unaudited_trees_cost_no_buffering(self):
        auditor = OnlineAuditor(AuditConfig(sample_every=2))
        auditor.txn_begin((0,))
        auditor.txn_begin((1,))
        auditor.access((1,), "x", "write", False)
        auditor.txn_commit((1,))
        auditor.txn_commit((0,))
        assert auditor.stats["accesses_buffered"] == 0

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            AuditConfig(sample_every=0)


class TestTrustDial:
    def test_conformant_schemes_sample(self):
        from repro.kernel import get_scheme

        config = AuditConfig.for_capabilities(
            get_scheme("moss-rw").capabilities
        )
        assert config.sample_every == 16

    def test_experimental_schemes_run_fully_audited(self):
        from repro.kernel import get_scheme

        config = AuditConfig.for_capabilities(
            get_scheme("mvto").capabilities
        )
        assert config.sample_every == 1


class TestInconclusive:
    def test_dropped_events_downgrade_clean(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.access((0,), "x", "write", False)
        auditor.txn_commit((0,))
        auditor.note_dropped_events(5)
        report = auditor.report()
        assert report.verdict == "inconclusive"
        assert not report.ok
        assert "dropped : 5 event(s)" in report.render()
        findings = report.to_analysis_report().findings
        assert [f.rule.code for f in findings] == ["SER002"]

    def test_violation_beats_inconclusive(self):
        auditor = classic_violation(OnlineAuditor())
        auditor.note_dropped_events(5)
        assert auditor.verdict == "violation"

    def test_zero_drops_stay_clean(self):
        auditor = OnlineAuditor()
        auditor.note_dropped_events(0)
        assert auditor.verdict == "clean"


class TestGarbageCollection:
    def test_sequential_tops_are_collected(self):
        auditor = OnlineAuditor()
        for top in range(50):
            auditor.txn_begin((top,))
            auditor.access((top,), "x", "write", False)
            auditor.txn_commit((top,))
        report = auditor.report()
        assert report.stats["vertices_collected"] == 50
        assert report.stats["vertices_live"] == 0
        assert auditor._timelines == {}

    def test_overlapping_top_retains_the_graph(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))  # stays live throughout
        for top in range(1, 5):
            auditor.txn_begin((top,))
            auditor.access((top,), "x", "write", False)
            auditor.txn_commit((top,))
        # T0.0 began before every commit: nothing may be collected
        # while it can still fold in edges against them.
        assert auditor.stats["vertices_collected"] == 0
        assert len(auditor.graph) == 4
        auditor.txn_commit((0,))
        # T0.0 folded no accesses (no vertex of its own); its commit
        # releases the barrier and the four writers are collected.
        assert auditor.stats["vertices_collected"] == 4
        assert len(auditor.graph) == 0

    def test_gc_soundness_late_conflict_is_still_caught(self):
        auditor = OnlineAuditor()
        auditor.txn_begin((0,))
        auditor.access((0,), "x", "read", True)
        auditor.txn_begin((1,))
        auditor.access((1,), "x", "write", False)
        auditor.access((1,), "y", "write", False)
        auditor.txn_commit((1,))
        # T0.1 must be retained: T0.0 is still live and began first.
        auditor.access((0,), "y", "read", True)
        auditor.txn_commit((0,))
        assert auditor.verdict == "violation"


class TestRobustness:
    def test_events_for_unknown_tops_are_ignored(self):
        auditor = OnlineAuditor()
        auditor.txn_commit((7,))
        auditor.txn_abort((7,))
        auditor.access((7,), "x", "write", False)
        auditor.txn_abort((7, 0))
        assert auditor.verdict == "clean"
        assert auditor.stats["accesses_buffered"] == 0

    def test_attach_helper_delegates(self):
        from repro.adt import IntRegister
        from repro.audit import attach_auditor
        from repro.engine.engine import Engine

        engine = Engine([IntRegister("x")], policy="moss-rw")
        auditor = attach_auditor(engine, config=AuditConfig())
        assert auditor in engine.subscribers
