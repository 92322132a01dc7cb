"""Rules, findings and reports shared by every analysis pass.

Each analysis (schedule linter, code lint, serializability audit) is a
set of coded :class:`Rule` objects registered in a module-level
registry.  A rule's ``code`` is stable (``RW001``, ``CD001``, ...) and
its ``section`` cites the paper clause the rule enforces, so a finding
always answers *which* of Moss' rules was broken, not merely that the
schedule is wrong.  ``docs/ANALYSIS.md`` catalogues the registry.

A :class:`Finding` localises one violation: event indices and
transaction names for schedule findings, ``path:line`` for code
findings.  :class:`AnalysisReport` aggregates findings and is falsy
exactly when something was found, mirroring
:class:`~repro.core.correctness.ScheduleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.names import TransactionName, pretty_name


@dataclass(frozen=True)
class Rule:
    """One coded analysis rule and the paper clause it enforces."""

    code: str
    title: str
    section: str
    description: str

    def __str__(self) -> str:
        return "%s %s (%s)" % (self.code, self.title, self.section)


#: Registry of every rule any analysis pass can report, keyed by code.
_REGISTRY: Dict[str, Rule] = {}


def register_rule(
    code: str, title: str, section: str, description: str
) -> Rule:
    """Define and register a rule; codes must be unique."""
    if code in _REGISTRY:
        raise ValueError("duplicate rule code %r" % code)
    rule = Rule(code, title, section, description)
    _REGISTRY[code] = rule
    return rule


def rule(code: str) -> Rule:
    """Look up a registered rule by code."""
    return _REGISTRY[code]


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(
        _REGISTRY[code] for code in sorted(_REGISTRY)
    )


@dataclass
class Finding:
    """One localised rule violation."""

    rule: Rule
    message: str
    #: Index into the analysed schedule (schedule findings).
    event_index: Optional[int] = None
    transaction: Optional[TransactionName] = None
    object_name: Optional[str] = None
    #: Source location (code findings).
    path: Optional[str] = None
    line: Optional[int] = None

    def location(self) -> str:
        """Human-readable anchor: ``path:line`` or ``event N``."""
        if self.path is not None:
            if self.line is not None:
                return "%s:%d" % (self.path, self.line)
            return self.path
        if self.event_index is not None:
            return "event %d" % self.event_index
        return "<schedule>"

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serialisable view of this finding."""
        payload: Dict[str, Any] = {
            "code": self.rule.code,
            "title": self.rule.title,
            "section": self.rule.section,
            "message": self.message,
            "location": self.location(),
        }
        if self.event_index is not None:
            payload["event_index"] = self.event_index
        if self.transaction is not None:
            payload["transaction"] = pretty_name(self.transaction)
        if self.object_name is not None:
            payload["object"] = self.object_name
        if self.path is not None:
            payload["path"] = self.path
        if self.line is not None:
            payload["line"] = self.line
        return payload

    def __str__(self) -> str:
        return "%s %s: %s" % (self.rule.code, self.location(), self.message)


@dataclass
class AnalysisReport:
    """Outcome of one analysis pass over one subject."""

    subject: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok

    def by_code(self, code: str) -> List[Finding]:
        """The findings reported under one rule code."""
        return [
            finding
            for finding in self.findings
            if finding.rule.code == code
        ]

    def codes(self) -> Tuple[str, ...]:
        """The distinct rule codes that fired, sorted."""
        return tuple(
            sorted({finding.rule.code for finding in self.findings})
        )

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        """Fold *other*'s findings into this report; returns self."""
        self.findings.extend(other.findings)
        return self

    def to_json(self) -> Dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "findings": [
                finding.to_json() for finding in self.findings
            ],
        }
