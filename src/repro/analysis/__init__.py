"""Static and dynamic analysis: schedule linting and code lint.

The correctness tooling layer on top of the reproduction:

* :mod:`~repro.analysis.schedule` -- rule-based linter (``RW001``...)
  over recorded schedules, pinpointing *which* of Moss' rules a bad
  schedule violates;
* :mod:`~repro.analysis.codelint` -- AST lint (``CD001``...) enforcing
  the repo's own encapsulation invariants;
* :mod:`~repro.analysis.faults` -- the mutants: one-rule-broken
  policies that exercise every checker (the kill matrix,
  :mod:`repro.checking.matrix`);
* :mod:`~repro.analysis.reporters` -- text/JSON rendering.

``python -m repro lint`` runs the code lint; ``python -m repro
analyze`` runs the schedule linter over a live engine trace.  The
rule catalogue lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.codelint import (
    CODE_RULES,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    Rule,
    all_rules,
    rule,
)
from repro.analysis.reporters import (
    render_json,
    render_rule_catalogue,
    render_text,
)
from repro.analysis.schedule import (
    SCHEDULE_RULES,
    ScheduleLinter,
    lint_schedule,
)


def analyze_trace(events, system_type):
    """Run the schedule linter over one schedule; returns its report."""
    return lint_schedule(events, system_type)


def analyze_engine(engine):
    """Lint a traced engine run's schedule; returns the linter's report.

    The engine must have been constructed with ``trace=True``.
    """
    from repro.errors import EngineError

    recorder = engine.recorder
    if recorder is None:
        raise EngineError("engine was not constructed with trace=True")
    events = recorder.schedule()
    system_type = recorder.system_type(engine.specs)
    return analyze_trace(events, system_type)


__all__ = [
    "AnalysisReport",
    "CODE_RULES",
    "Finding",
    "Rule",
    "SCHEDULE_RULES",
    "ScheduleLinter",
    "all_rules",
    "analyze_engine",
    "analyze_trace",
    "lint_paths",
    "lint_schedule",
    "lint_source",
    "render_json",
    "render_rule_catalogue",
    "render_text",
    "rule",
]
