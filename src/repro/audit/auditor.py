"""The streaming serializability auditor.

:class:`OnlineAuditor` consumes the observer's event vocabulary --
transaction begin/commit/abort and granted accesses -- and maintains
the direct serialization graph over *committed top-level* transactions
incrementally:

* While a top-level tree runs, its granted accesses are buffered,
  tagged with the performing (sub)transaction and a global monotone
  position.  Aborting a subtree prunes exactly the buffered accesses
  that subtree performed (Moss' versions undo them; they never
  happened).
* When the top commits, its surviving accesses *fold* into per-object
  committed timelines, drawing a labelled dependency edge against
  every conflicting committed access -- WR/WW/RW by operation pair,
  direction by position.
* The graph was acyclic before the fold, so any new cycle passes
  through the new vertex; the BFS-shortest such cycle is reported as a
  **minimal witness** (:class:`Violation`), and the vertex is evicted
  to restore acyclicity so one bad transaction cannot re-report against
  every later one.

Bounded memory: a committed vertex is garbage-collected once every
live *audited* top-level tree began after it committed.  At that point
no future fold can add an edge into it (all later accesses have later
positions), and by induction on commit order no future cycle can need
it as an intermediate vertex -- every intermediate of a cycle through a
future vertex must overlap that vertex's lifetime and is therefore
still retained.

Sampling: ``AuditConfig.sample_every = N`` audits every Nth top-level
tree and ignores the rest entirely.  Cycles found among the audited
subset are genuine (sampling can only *miss* violations, never invent
them), which is what makes the capability-gated trust dial sound:
schemes declaring ``model_conformant`` default to cheap sampled
auditing, experimental or deliberately broken schemes to full audit.

Verdict precedence is ``violation > inconclusive > clean``: when the
event source is known lossy (a ring-buffer trace that dropped events),
:meth:`OnlineAuditor.note_dropped_events` downgrades a would-be clean
verdict to *inconclusive* with an explicit SER002 finding rather than
letting an unaudited gap masquerade as a clean bill of health.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    register_rule,
)
from repro.audit.graph import (
    SerializationGraph,
    WitnessEdge,
    edge_kind,
)
from repro.core.names import TransactionName, pretty_name
from repro.engine.spine import Granted

SER001 = register_rule(
    "SER001",
    "serialization graph cycle",
    "classical theory [EGLT, P, BG]; Biswas-Enea checking",
    "The direct serialization graph over committed top-level "
    "transactions has a cycle: no serial order of these transactions "
    "explains the observed reads-from / version-order / "
    "anti-dependency conflicts.  The finding carries the minimal "
    "witness cycle with the object accesses forcing each edge.",
)
SER002 = register_rule(
    "SER002",
    "audit inconclusive: events dropped",
    "repo invariant; ring-buffer tracing",
    "The audited event stream is known to be incomplete (the trace "
    "recorder ran in ring-buffer mode and evicted events), so a clean "
    "serialization graph proves nothing; the audit verdict is "
    "downgraded to inconclusive instead of reporting a clean audit.",
)


@dataclass(frozen=True)
class AuditConfig:
    """Tuning knobs of one auditor instance."""

    #: Audit every Nth top-level transaction tree (1 = all of them).
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(
                "sample_every must be >= 1, got %d" % self.sample_every
            )

    @classmethod
    def for_capabilities(
        cls, capabilities, sampled_every: int = 16
    ) -> "AuditConfig":
        """The capability-gated trust dial.

        A scheme whose :class:`~repro.kernel.scheme.SchemeCapabilities`
        declare ``model_conformant`` has a conformance proof obligation
        backing it, so production attachment defaults to sampled
        auditing; anything experimental runs fully audited.
        """
        if capabilities.model_conformant:
            return cls(sample_every=sampled_every)
        return cls(sample_every=1)


# Hot-path records are plain tuples -- the auditor creates one per
# granted access on every audited tree, and frozen-dataclass
# construction (an ``object.__setattr__`` per field) is measurably the
# dominant cost there:
#
#   buffered access : (performer, object_name, op, position)
#   committed access: (top, op, position)
#
# where ``op`` is ``"r"`` or ``"w"`` and ``position`` is the global
# monotone access position.
_Buffered = Tuple[TransactionName, str, str, int]
_Committed = Tuple[TransactionName, str, int]


@dataclass(frozen=True)
class Violation:
    """A witnessed serializability violation: one minimal cycle."""

    cycle: Tuple[TransactionName, ...]
    edges: Tuple[WitnessEdge, ...]

    @property
    def objects(self) -> Tuple[str, ...]:
        return tuple(sorted({edge.object_name for edge in self.edges}))

    def cycle_text(self) -> str:
        names = [pretty_name(edge.source) for edge in self.edges]
        names.append(pretty_name(self.edges[0].source))
        return " -> ".join(names)

    def describe(self) -> str:
        """The pinned multi-line witness rendering."""
        lines = [
            "cycle %s over %s"
            % (self.cycle_text(), ", ".join(self.objects))
        ]
        for edge in self.edges:
            lines.append("  %s" % edge)
        return "\n".join(lines)

    def __str__(self) -> str:
        return "cycle %s: %s" % (
            self.cycle_text(),
            "; ".join(str(edge) for edge in self.edges),
        )


@dataclass
class AuditReport:
    """Outcome of one audit: verdict, witnesses, resource stats."""

    verdict: str  # "clean" | "violation" | "inconclusive"
    violations: Tuple[Violation, ...]
    dropped_events: int
    sample_every: int
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "clean"

    def __bool__(self) -> bool:
        return self.ok

    def to_analysis_report(self) -> AnalysisReport:
        """The audit as SER001/SER002 findings for the reporters."""
        report = AnalysisReport(subject="audit")
        for violation in self.violations:
            report.findings.append(
                Finding(
                    rule=SER001,
                    message=str(violation),
                    transaction=violation.cycle[0],
                    object_name=", ".join(violation.objects),
                )
            )
        if self.verdict == "inconclusive":
            report.findings.append(
                Finding(
                    rule=SER002,
                    message=(
                        "%d trace event(s) dropped in ring-buffer "
                        "mode; a clean graph over the surviving "
                        "events is not a clean audit"
                        % self.dropped_events
                    ),
                )
            )
        return report

    def render(self) -> str:
        """The plain-text audit report (witness format is pinned)."""
        lines = [
            "verdict : %s" % self.verdict,
            "audited : %d/%d top-level transaction(s) (sample 1/%d)"
            % (
                self.stats.get("tops_audited", 0),
                self.stats.get("tops_seen", 0),
                self.sample_every,
            ),
            "graph   : %d live vertex(es), %d collected"
            % (
                self.stats.get("vertices_live", 0),
                self.stats.get("vertices_collected", 0),
            ),
        ]
        if self.dropped_events:
            lines.append("dropped : %d event(s)" % self.dropped_events)
        for index, violation in enumerate(self.violations):
            lines.append("witness %d:" % index)
            for line in violation.describe().splitlines():
                lines.append("  %s" % line)
        return "\n".join(lines)


class OnlineAuditor:
    """Streaming serialization-graph checker over engine events.

    It is an event-spine subscriber (:mod:`repro.engine.spine`;
    ``engine.attach_auditor`` subscribes it) whose ``on_*`` handlers
    bail early for trees it does not audit.  Offline replays feed it
    the same transitions by name: ``txn_begin`` / ``txn_commit`` /
    ``txn_abort`` for every tree node, ``access`` for every granted
    access (with the *performing* transaction, i.e. the access leaf's
    parent).  Violations accumulate in :attr:`violations`;
    :meth:`report` summarises.

    The auditor serialises its own state behind an internal lock, so
    any multi-threaded driver can feed it without an external
    wrapper.  The
    hot-path bail for *unaudited* trees stays lock-free: a tree's
    ``txn_begin`` happens-before its accesses on the driving thread, so
    a membership probe of ``_pending`` (atomic under the GIL) decides
    "not sampled" without taking the lock.
    """

    #: Serialises itself, so a threaded spine calls it without the
    #: dispatch lock.
    THREAD_SAFE = True

    def __init__(self, config: Optional[AuditConfig] = None):
        self.config = config or AuditConfig()
        self._lock = threading.Lock()
        self.graph = SerializationGraph()
        self.violations: List[Violation] = []
        #: Buffered accesses of each live audited top-level tree.
        self._pending: Dict[TransactionName, List[_Buffered]] = {}
        #: Commit-seq watermark each live audited top began at.
        self._began_at: Dict[TransactionName, int] = {}
        #: Per-object committed accesses of retained vertices.
        self._timelines: Dict[str, List[_Committed]] = {}
        #: Objects each retained vertex touched, scoping its GC sweep.
        self._vertex_objects: Dict[TransactionName, Set[str]] = {}
        #: Retained committed vertices in commit order, for GC sweeps.
        self._commit_order: Deque[TransactionName] = deque()
        self._position = 0
        self._commit_seq = 0
        self._top_count = 0
        self._dropped = 0
        self.stats: Dict[str, int] = {
            "tops_seen": 0,
            "tops_audited": 0,
            "accesses_buffered": 0,
            "accesses_pruned": 0,
            "vertices_collected": 0,
            "violations": 0,
        }

    # ------------------------------------------------------------------
    # Spine subscriber
    # ------------------------------------------------------------------
    def on_began(self, event) -> None:
        if len(event.name) == 1:
            self.txn_begin(event.name)

    def on_granted(self, event) -> None:
        txn = event.txn
        top = txn[:1]
        if top not in self._pending:
            # Unaudited tree: its begin ran (on this thread) before any
            # of its accesses, so absence here is authoritative.
            return
        with self._lock:
            buffered = self._pending.get(top)
            if buffered is None:
                return
            buffered.append(
                (txn, event.object_name, "r" if event.is_read else "w",
                 self._position)
            )
            self._position += 1
            self.stats["accesses_buffered"] += 1

    def on_committed(self, event) -> None:
        name = event.name
        if len(name) == 1 and name in self._pending:
            self.txn_commit(name)

    def on_aborted(self, event) -> None:
        for name in event.doomed:
            if name[:1] in self._pending:
                self.txn_abort(name)

    # ------------------------------------------------------------------
    # The same transitions by name (offline replays)
    # ------------------------------------------------------------------
    def txn_begin(self, name: TransactionName) -> None:
        if len(name) != 1:
            return
        with self._lock:
            sampled = (
                self._top_count % self.config.sample_every == 0
            )
            self._top_count += 1
            self.stats["tops_seen"] += 1
            if not sampled:
                return
            self.stats["tops_audited"] += 1
            self._pending[name] = []
            self._began_at[name] = self._commit_seq

    def access(
        self,
        txn: TransactionName,
        object_name: str,
        kind: str,
        is_read: bool,
    ) -> None:
        self.on_granted(
            Granted(txn, None, object_name, None, is_read, None, None)
        )

    def txn_abort(
        self, name: TransactionName, cause: str = "explicit"
    ) -> None:
        if name[:1] not in self._pending:
            return
        with self._lock:
            if len(name) == 1:
                if self._pending.pop(name, None) is not None:
                    del self._began_at[name]
                    self._collect()
                return
            buffered = self._pending.get(name[:1])
            if not buffered:
                return
            prefix = len(name)
            survivors = [
                access
                for access in buffered
                if access[0][:prefix] != name
            ]
            self.stats["accesses_pruned"] += len(buffered) - len(
                survivors
            )
            self._pending[name[:1]] = survivors

    def txn_commit(self, name: TransactionName) -> None:
        if len(name) != 1:
            # Child commits keep their accesses buffered under the top:
            # whether they become permanent is decided at the root.
            return
        if name not in self._pending:
            return
        with self._lock:
            buffered = self._pending.pop(name, None)
            if buffered is None:
                return
            del self._began_at[name]
            if buffered:
                if not self._began_at and not self._commit_order:
                    # Nothing retained and no audited tree live: the
                    # graph is empty, so this tree closes no cycle, and
                    # the collection after a fold would drop it again.
                    self._commit_seq += 1
                    self.stats["vertices_collected"] += 1
                    return
                self._fold(name, buffered)
            self._collect()

    def note_dropped_events(self, count: int) -> None:
        """Mark the event stream lossy (ring-buffer evictions)."""
        if count > 0:
            with self._lock:
                self._dropped += count

    # ------------------------------------------------------------------
    # Folding and cycle detection
    # ------------------------------------------------------------------
    def _fold(
        self, name: TransactionName, accesses: List[_Buffered]
    ) -> None:
        self._commit_seq += 1
        self.graph.add_vertex(name, self._commit_seq)
        self._commit_order.append(name)
        touched = self._vertex_objects.setdefault(name, set())
        graph_edges = self.graph.edges
        for _, object_name, op, position in accesses:
            is_read = op == "r"
            touched.add(object_name)
            timeline = self._timelines.setdefault(object_name, [])
            for other_top, other_op, other_position in timeline:
                if other_top == name:
                    continue
                other_is_read = other_op == "r"
                if is_read and other_is_read:
                    continue
                forward = other_position < position
                source = other_top if forward else name
                target = name if forward else other_top
                # First label per ordered pair wins; skip building the
                # (costly) labelled edge when one is already drawn.
                targets = graph_edges.get(source)
                if targets is not None and target in targets:
                    continue
                if forward:
                    edge = WitnessEdge(
                        source=other_top,
                        target=name,
                        kind=edge_kind(other_is_read, is_read),
                        object_name=object_name,
                        source_op=other_op,
                        source_position=other_position,
                        target_op=op,
                        target_position=position,
                    )
                else:
                    edge = WitnessEdge(
                        source=name,
                        target=other_top,
                        kind=edge_kind(is_read, other_is_read),
                        object_name=object_name,
                        source_op=op,
                        source_position=position,
                        target_op=other_op,
                        target_position=other_position,
                    )
                self.graph.add_edge(edge)
            timeline.append((name, op, position))
        witness = self.graph.witness_cycle_through(name)
        if witness is not None:
            violation = Violation(
                cycle=tuple(edge.source for edge in witness),
                edges=tuple(witness),
            )
            self.violations.append(violation)
            self.stats["violations"] += 1
            # Evict the offender so the graph stays acyclic and later
            # commits are judged on their own conflicts, not re-flagged
            # against a transaction already reported.
            self._drop_vertex(name)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Collect vertices no live audited top can still precede.

        A retained vertex V with ``commit_seq <= barrier`` (the oldest
        begin-watermark among live audited tops) committed before every
        live tree began: all future accesses carry later positions, so
        no future fold adds an edge into V, and V cannot lie on any
        future cycle.
        """
        barrier = (
            min(self._began_at.values())
            if self._began_at
            else self._commit_seq
        )
        while self._commit_order:
            oldest = self._commit_order[0]
            seq = self.graph.vertices.get(oldest)
            if seq is None:
                # Already evicted as a violation offender.
                self._commit_order.popleft()
                continue
            if seq > barrier:
                break
            self._commit_order.popleft()
            self._drop_vertex(oldest)
            self.stats["vertices_collected"] += 1

    def _drop_vertex(self, name: TransactionName) -> None:
        self.graph.remove_vertex(name)
        for object_name in self._vertex_objects.pop(name, ()):
            timeline = self._timelines.get(object_name)
            if timeline is None:
                continue
            survivors = [
                access for access in timeline if access[0] != name
            ]
            if survivors:
                self._timelines[object_name] = survivors
            else:
                del self._timelines[object_name]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        if self.violations:
            return "violation"
        if self._dropped:
            return "inconclusive"
        return "clean"

    def report(self) -> AuditReport:
        with self._lock:
            stats = dict(self.stats)
            stats["vertices_live"] = len(self.graph)
            stats["edges_live"] = self.graph.edge_count
            stats["tops_live"] = len(self._pending)
            return AuditReport(
                verdict=self.verdict,
                violations=tuple(self.violations),
                dropped_events=self._dropped,
                sample_every=self.config.sample_every,
                stats=stats,
            )


def attach_auditor(
    target: Any,
    auditor: Optional[OnlineAuditor] = None,
    config: Optional[AuditConfig] = None,
) -> OnlineAuditor:
    """Attach an auditor to anything exposing ``attach_auditor``.

    Convenience wrapper so callers holding an engine or facade do not
    need to import both classes; the engine-side method applies the
    capability-gated default config when none is given.
    """
    return target.attach_auditor(auditor=auditor, config=config)
