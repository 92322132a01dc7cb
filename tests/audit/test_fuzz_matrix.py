"""Cross-scheme audit matrix over the deterministic fuzzer.

The acceptance bar of the auditor: every seeded broken-scheme run
produces a witness cycle; correct schemes produce zero false positives
across >= 25 seeds each.
"""

import pytest

from repro.fuzz import FuzzConfig, run_case

CLEAN_SCHEMES = ("moss-rw", "serial")
SEEDS = range(25)


class TestCleanSchemes:
    @pytest.mark.parametrize("scheme", CLEAN_SCHEMES)
    def test_no_false_positives_across_seeds(self, scheme):
        dirty = []
        for seed in SEEDS:
            result = run_case(
                FuzzConfig(seed=seed, scheme=scheme), audit=True
            )
            assert result.audit is not None
            if result.audit.violations:
                dirty.append((seed, result.audit.violations))
        assert dirty == []


class TestBrokenScheme:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_seed_yields_a_witness_cycle(self, seed):
        result = run_case(
            FuzzConfig(seed=seed, scheme="broken-no-inherit"),
            audit=True,
        )
        assert result.audit is not None
        assert result.audit.verdict == "violation"
        for violation in result.audit.violations:
            assert violation.edges
            assert violation.cycle_text().startswith("T0.")

    def test_deny_spike_run_yields_a_witness_cycle(self):
        result = run_case(
            FuzzConfig(
                seed=0,
                faults="deny-spike",
                scheme="broken-no-inherit",
            ),
            audit=True,
        )
        assert result.audit is not None
        assert result.audit.verdict == "violation"
        assert result.audit.violations

    def test_audit_kind_fires_when_no_stronger_oracle(self):
        # The conformance oracle sees the same runs, so on the broken
        # scheme the case fails with kind "conformance" -- but the
        # audit report must still ride along with its witnesses.
        result = run_case(
            FuzzConfig(seed=0, scheme="broken-no-inherit"),
            audit=True,
        )
        assert result.failed
        assert result.audit.violations


class TestRingBufferInterplay:
    def test_truncated_trace_is_inconclusive_not_clean(self):
        result = run_case(
            FuzzConfig(seed=3, scheme="moss-rw"),
            trace_limit=8,
            audit=True,
        )
        assert result.audit is not None
        assert result.audit.dropped_events > 0
        assert result.audit.verdict == "inconclusive"
        # An inconclusive audit is not a failure verdict by itself, and
        # a kept suffix is not judged for conformance either.
        assert result.kind == "ok"

    def test_full_trace_stays_clean(self):
        result = run_case(
            FuzzConfig(seed=3, scheme="moss-rw"), audit=True
        )
        assert result.audit.verdict == "clean"


class TestSearchIntegration:
    def test_fuzz_search_passes_audit_through(self):
        from repro.fuzz import fuzz_search

        search = fuzz_search(
            FuzzConfig(seed=0, scheme="moss-rw"), runs=3, audit=True
        )
        assert search.failure is None

    def test_explore_bounded_passes_audit_through(self):
        from repro.fuzz import explore_bounded

        search = explore_bounded(
            FuzzConfig(seed=0, scheme="moss-rw"),
            max_preemptions=1,
            budget=5,
            audit=True,
        )
        assert search.failure is None
