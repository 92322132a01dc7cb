"""Static and dynamic analysis: schedule linting, race detection, code lint.

The correctness tooling layer on top of the reproduction:

* :mod:`~repro.analysis.schedule` -- rule-based linter (``RW001``...)
  over recorded schedules, pinpointing *which* of Moss' rules a bad
  schedule violates;
* :mod:`~repro.analysis.race` -- happens-before race detector
  (``RACE001``) localising where a locking policy diverges from the
  paper's discipline;
* :mod:`~repro.analysis.codelint` -- AST lint (``CD001``...) enforcing
  the repo's own encapsulation invariants;
* :mod:`~repro.analysis.faults` -- seeded-violation policies used to
  exercise the analyzers;
* :mod:`~repro.analysis.reporters` -- text/JSON rendering.

``python -m repro lint`` runs the code lint; ``python -m repro
analyze`` runs the schedule analyzers over a live engine trace.  The
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
from repro.analysis.race import RaceDetector, detect_races
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
    """Run the schedule linter and the race detector over one schedule.

    Returns ``(lint_report, race_report)``.
    """
    return (
        lint_schedule(events, system_type),
        detect_races(events, system_type),
    )


def analyze_engine(engine):
    """Analyze a traced engine run; returns ``(lint_report, race_report)``.

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
    "RaceDetector",
    "Rule",
    "SCHEDULE_RULES",
    "ScheduleLinter",
    "all_rules",
    "analyze_engine",
    "analyze_trace",
    "detect_races",
    "lint_paths",
    "lint_schedule",
    "lint_source",
    "render_json",
    "render_rule_catalogue",
    "render_text",
    "rule",
]
