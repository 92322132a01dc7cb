"""The simulation runner: workloads x engine policies -> metrics.

A closed-system run: at most ``mpl`` top-level transactions execute at
once; when one finishes, the next program is admitted.  Each program is a
tree of blocks and accesses executed as nested engine transactions;
accesses occupy simulated time, conflicting accesses wait for the holder
to return, injected subtransaction failures abort and optionally retry
subtrees, and deadlock victims restart from scratch.

Deadlock detection recomputes the waits-for graph *fresh* from the lock
tables every time an access blocks: each parked access contributes edges
from its top-level tree to the top-level trees of its current blockers,
and :func:`repro.engine.deadlock.find_deadlock` looks for a cycle.
Fresh recomputation avoids the classic stale-edge false positives of
incrementally maintained graphs.  A drain watchdog resolves any blocked
residue left when the event heap empties (an undetectable-by-construction
cycle cannot survive it).

Every continuation carries the program run's *epoch*; aborting a run bumps
the epoch so stale continuations become no-ops -- the standard trick for
cancellation in a callback-style DES.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.core import digraph
from repro.core.names import TransactionName
from repro.core.object_spec import ObjectSpec
from repro.engine.deadlock import (
    choose_victim,
    find_deadlock,
    top_level,
    wound_victims,
)
from repro.engine.spine import Tagged, Waited, Wounded
from repro.engine.transaction import Transaction
from repro.errors import LockDenied, TransactionAborted
from repro.kernel import get_scheme
from repro.sim.des import Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.workload import AccessOp, Block, Program

#: Delay before a parked, wounded or failed access or block retries.
RETRY_DELAY = 0.25
#: Base delay before a restarted program begins again (scaled by the
#: randomised exponential backoff in ``_restart_program``).
RESTART_DELAY = 2.0
#: After this many *intra-tree* deadlocks a program degrades its
#: parallel blocks to sequential execution: a self-deadlocking branch
#: pattern (one branch takes a then b, its sibling b then a) would
#: otherwise recreate the same deadlock on every deterministic retry.
#: Cross-tree restarts never trigger this -- they resolve by timing, and
#: degrading on them would distort the policy sweeps.
SERIALIZE_AFTER_SELF_DEADLOCKS = 1
#: The values ``SimulationConfig.deadlock`` accepts.
DEADLOCK_STRATEGIES = ("wound-wait", "detect", "timeout")


@dataclass
class SimulationConfig:
    """Run parameters for :func:`run_simulation`.

    ``deadlock`` selects the resolution strategy:

    * ``"wound-wait"`` (default) -- prevention: an older transaction that
      finds a younger one holding a conflicting lock *wounds* (aborts) it;
      younger requesters wait.  Waits only flow young -> old, so cycles
      cannot form and the oldest program always makes progress -- the
      classical livelock-free discipline.
    * ``"detect"`` -- detection: blocked requesters park; a waits-for
      cycle (recomputed fresh from the lock tables) aborts its youngest
      member.  Kept for the E14 ablation; under heavy contention it can
      thrash on restart storms.
    * ``"timeout"`` -- the simplest discipline: a parked access that has
      waited longer than ``lock_timeout`` restarts its program.  No graph
      maintenance at all, at the price of false positives on long waits.
    """

    mpl: int = 8
    policy: str = "moss-rw"
    seed: int = 0
    max_events: int = 2_000_000
    max_program_attempts: int = 200
    deadlock: str = "wound-wait"
    lock_timeout: float = 20.0
    #: When set, the system is *open*: programs arrive with exponential
    #: interarrival times at this rate (per time unit) instead of all
    #: being available at t = 0; latency then measures response time
    #: from arrival (queueing included).  ``mpl`` still caps concurrency.
    arrival_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadlock not in DEADLOCK_STRATEGIES:
            raise ValueError(
                "deadlock must be one of %s, not %r"
                % (", ".join(map(repr, DEADLOCK_STRATEGIES)), self.deadlock)
            )


class _ProgramRun:
    """Mutable state of one program across restarts."""

    def __init__(self, program: Program, index: int):
        self.program = program
        self.index = index
        self.epoch = 0
        self.attempts = 0
        self.admitted_at = 0.0
        self.arrived_at: Optional[float] = None
        self.admit_order = 0
        self.txn: Optional[Transaction] = None
        self.attempt_accesses = 0
        self.self_deadlocks = 0
        self.finished = False


class _BlockedAccess:
    """One parked access waiting for its blockers to return."""

    def __init__(self, run, epoch, txn, op, done, requested_at):
        self.run = run
        self.epoch = epoch
        self.txn = txn
        self.op = op
        self.done = done
        self.requested_at = requested_at

    def valid(self) -> bool:
        return self.run.epoch == self.epoch and not self.run.finished


class _Runner:
    """Internal driver binding one engine, one simulator, one workload."""

    def __init__(
        self,
        programs: Sequence[Program],
        store: Sequence[ObjectSpec],
        config: SimulationConfig,
        observer=None,
        auditor=None,
    ):
        self.config = config
        self.scheme = get_scheme(config.policy)
        self.mpl = 1 if self.scheme.force_serial else config.mpl
        self.sim = Simulator()
        #: The observer, for driver-level counts (the engine's events
        #: reach it through the spine).
        self.obs = observer
        if observer is not None:
            # Spans and waits are measured in simulated time units.
            observer.use_clock(lambda: self.sim.now)
        self.engine = self.scheme.build(store, observer=observer)
        if auditor is not None:
            self.engine.attach_auditor(auditor)
        self.rng = random.Random(config.seed)
        self.metrics = RunMetrics(policy=config.policy)
        self.queue: List[_ProgramRun] = [
            _ProgramRun(program, index)
            for index, program in enumerate(programs)
        ]
        self.running = 0
        self._admit_seq = 0
        self.by_top: Dict[TransactionName, _ProgramRun] = {}
        self.blocked: List[_BlockedAccess] = []

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.config.arrival_rate is not None:
            self._schedule_arrivals()
        else:
            self._admit()
        while True:
            self.sim.run(max_events=self.config.max_events)
            if self.sim.events_run >= self.config.max_events:
                break
            # Drain watchdog: if work is parked with an empty heap, every
            # parked tree is waiting on another parked tree -- a deadlock
            # the per-block detector could not see as it formed (e.g. the
            # closing edge appeared via a lock release, not a new block).
            survivors = [entry for entry in self.blocked if entry.valid()]
            if not survivors:
                break
            # A tree blocked on its own subtransactions cannot be helped
            # by killing anyone else; restart it first.
            self_stuck = {
                top_level(entry.txn.name)
                for entry in survivors
                if self._intra_tree_blockers(entry)
            }
            pool = self_stuck or {
                top_level(entry.txn.name) for entry in survivors
            }
            victim = choose_victim(pool, self._age_key)
            self.engine.count_deadlock()
            if victim in self_stuck:
                self.by_top[victim].self_deadlocks += 1
            self._abort_victim(victim)
            self._wake_blocked()
        self.metrics.makespan = self.sim.now
        self.metrics.lock_denials = self.engine.stats["denials"]
        self.metrics.deadlock_aborts = self.engine.stats["deadlocks"]
        # Committed object values, for cross-scheme equivalence checks.
        self.metrics.final_state = {
            name: self.engine.object_value(name)
            for name in self.engine.specs
        }

    def _schedule_arrivals(self) -> None:
        """Open system: move the workload to exponential arrival times."""
        arrivals, self.queue = self.queue, []
        clock = 0.0
        rng = random.Random(self.config.seed ^ 0xA881)
        for run in arrivals:
            clock += rng.expovariate(self.config.arrival_rate)
            self.sim.at(clock, lambda run=run: self._arrive(run))

    def _arrive(self, run: _ProgramRun) -> None:
        run.arrived_at = self.sim.now
        self.queue.append(run)
        self._admit()

    def _admit(self) -> None:
        while self.running < self.mpl and self.queue:
            run = self.queue.pop(0)
            self.running += 1
            # Response time is measured from arrival in an open system
            # (queueing delay included), from admission in a closed one.
            run.admitted_at = (
                run.arrived_at
                if run.arrived_at is not None
                else self.sim.now
            )
            self._admit_seq += 1
            run.admit_order = self._admit_seq
            self._start_attempt(run)

    def _start_attempt(self, run: _ProgramRun) -> None:
        run.epoch += 1
        run.attempts += 1
        run.attempt_accesses = 0
        # Keep the original admission time as the transaction's age so a
        # much-restarted program eventually stops being the deadlock
        # victim (wound-wait style anti-starvation).
        run.txn = self.engine.begin_top(at=run.admitted_at)
        self.by_top[run.txn.name] = run
        epoch = run.epoch
        body = run.program.body
        self._run_steps(
            run,
            epoch,
            run.txn,
            body.steps,
            body.parallel,
            lambda: self._finish_top(run, epoch),
        )

    def _stale(self, run: _ProgramRun, epoch: int) -> bool:
        return run.epoch != epoch or run.finished

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def _run_steps(
        self,
        run: _ProgramRun,
        epoch: int,
        txn: Transaction,
        steps: Sequence[Union[Block, AccessOp]],
        parallel: bool,
        done: Callable[[], None],
    ) -> None:
        if self._stale(run, epoch):
            return
        if not steps:
            done()
            return
        if run.self_deadlocks >= SERIALIZE_AFTER_SELF_DEADLOCKS:
            parallel = False
        if parallel:
            remaining = [len(steps)]

            def one_done() -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done()

            for step in steps:
                self._run_step(run, epoch, txn, step, one_done)
        else:
            def chain(index: int) -> None:
                if self._stale(run, epoch):
                    return
                if index >= len(steps):
                    done()
                    return
                self._run_step(
                    run, epoch, txn, steps[index],
                    lambda: chain(index + 1),
                )

            chain(0)

    def _run_step(
        self,
        run: _ProgramRun,
        epoch: int,
        txn: Transaction,
        step: Union[Block, AccessOp],
        done: Callable[[], None],
    ) -> None:
        if isinstance(step, AccessOp):
            self._attempt_access(
                run, epoch, txn, step, done, requested_at=self.sim.now
            )
        else:
            self._run_block(run, epoch, txn, step, step.retries, done)

    # ------------------------------------------------------------------
    # Subtransactions with failure injection
    # ------------------------------------------------------------------
    def _run_block(
        self,
        run: _ProgramRun,
        epoch: int,
        txn: Transaction,
        block: Block,
        tries_left: int,
        done: Callable[[], None],
    ) -> None:
        if self._stale(run, epoch):
            return
        try:
            child = txn.begin_child()
        except TransactionAborted:
            return
        started = run.attempt_accesses

        def block_done() -> None:
            if self._stale(run, epoch):
                return
            if self.rng.random() < block.fail_prob:
                self.metrics.injected_aborts += 1
                self.metrics.accesses_redone += (
                    run.attempt_accesses - started
                )
                self.engine.note(Tagged, child.name, "injected")
                child.abort()
                self._wake_blocked()
                if run.txn is not None and not run.txn.is_active:
                    # Flat 2PL escalated the abort to the whole program.
                    self._restart_program(run)
                    return
                if tries_left > 0:
                    self.metrics.subtree_retries += 1
                    self.sim.after(
                        RETRY_DELAY,
                        lambda: self._run_block(
                            run, epoch, txn, block, tries_left - 1, done
                        ),
                    )
                    return
                done()
                return
            child.commit()
            self._wake_blocked()
            done()

        self._run_steps(
            run, epoch, child, block.steps, block.parallel, block_done
        )

    # ------------------------------------------------------------------
    # Accesses with waiting and deadlock handling
    # ------------------------------------------------------------------
    def _attempt_access(
        self,
        run: _ProgramRun,
        epoch: int,
        txn: Transaction,
        op: AccessOp,
        done: Callable[[], None],
        requested_at: float,
    ) -> None:
        if self._stale(run, epoch):
            return
        try:
            txn.perform(op.object_name, op.operation)
        except TransactionAborted:
            # A scheme whose aborts escalate from inside `perform` (MVTO
            # timestamp conflicts) killed the whole tree; restart it.
            # (Moss aborts arrive via the victim path, which already
            # bumped the epoch, so this branch is unreachable for the
            # locking engine.)
            if not self._stale(run, epoch):
                self._restart_program(run)
            return
        except LockDenied as denial:
            entry = _BlockedAccess(run, epoch, txn, op, done, requested_at)
            if self.engine.capabilities.waits_are_acyclic:
                # Ordered waits (MVTO timestamps) cannot cycle: just park.
                self.blocked.append(entry)
                return
            if self.config.deadlock == "wound-wait":
                wounded = self._wound_younger(run, denial.blockers)
                if wounded:
                    # Our victims released their locks; retry shortly.
                    self.sim.after(
                        RETRY_DELAY,
                        lambda: self._attempt_access(
                            run, epoch, txn, op, done, requested_at
                        ),
                    )
                    return
                self.blocked.append(entry)
                self._resolve_intra_tree_deadlock(entry)
                return
            if self.config.deadlock == "timeout":
                self.blocked.append(entry)
                waited = self.sim.now - requested_at
                remaining = max(self.config.lock_timeout - waited, RETRY_DELAY)
                self.sim.after(
                    remaining, lambda: self._expire_wait(entry)
                )
                return
            self.blocked.append(entry)
            if self._resolve_intra_tree_deadlock(entry):
                return
            cycle = find_deadlock(
                (
                    (parked.txn.name, self._fresh_blockers(parked))
                    for parked in self.blocked
                    if parked.valid()
                ),
                entry.txn.name,
            )
            if cycle is not None:
                self.engine.count_deadlock()
                # The youngest admission dies; ties break on the name.
                victim = choose_victim(
                    cycle, lambda top: (self.by_top[top].admitted_at, top)
                )
                self._abort_victim(victim)
                self._wake_blocked()
            return
        waited = self.sim.now - requested_at
        self.metrics.wait_time += waited
        if waited > 0:
            self.engine.note(
                Waited, txn.name, op.object_name, requested_at, self.sim.now
            )
        self.metrics.accesses_done += 1
        run.attempt_accesses += 1
        self.sim.after(op.duration, done)

    def _fresh_blockers(self, entry: _BlockedAccess) -> Set[TransactionName]:
        return set(
            self.engine.fresh_blockers(
                entry.txn, entry.op.object_name, entry.op.operation
            )
        )

    def _expire_wait(self, entry: _BlockedAccess) -> None:
        """Timeout discipline: a still-parked access restarts its program."""
        if not entry.valid():
            return
        if entry not in self.blocked:
            # A wake is in flight; if the retry blocks again, a new park
            # entry (with the original requested_at) re-arms the timer.
            return
        if self.sim.now - entry.requested_at < self.config.lock_timeout:
            return
        self.blocked.remove(entry)
        run = entry.run
        if run.txn is not None and run.txn.is_active:
            self.engine.count_deadlock()
            if self._intra_tree_blockers(entry):
                run.self_deadlocks += 1
            self.engine.note(
                Waited,
                entry.txn.name,
                entry.op.object_name,
                entry.requested_at,
                self.sim.now,
            )
            self.engine.note(
                Tagged, top_level(run.txn.name), "lock-timeout"
            )
            run.txn.abort()
            self._restart_program(run)

    def _intra_tree_blockers(self, entry: _BlockedAccess):
        """Blockers inside *entry*'s own tree (parallel sibling locks)."""
        my_top = top_level(entry.txn.name)
        return {
            blocker
            for blocker in self._fresh_blockers(entry)
            if top_level(blocker) == my_top
        }

    def _resolve_intra_tree_deadlock(self, entry: _BlockedAccess) -> bool:
        """Detect and break a deadlock among one tree's own siblings.

        Parallel sibling subtransactions can deadlock on each other (e.g.
        one takes r1 then r7, its sibling r7 then r1); such a cycle is
        invisible to top-level collapsing.  A subtransaction's lock is
        released upward only when it commits, and it commits only when all
        work *inside* it completes -- so parked entry E waits on parked
        entry E' exactly when E' sits inside one of E's blocking
        subtransactions.  A cycle over that relation is a genuine
        self-deadlock; the program restarts (counted as a deadlock abort).
        """
        top = top_level(entry.txn.name)
        entries = [
            parked
            for parked in self.blocked
            if parked.valid() and top_level(parked.txn.name) == top
        ]
        if entry not in entries:
            return False
        blockers = {
            id(parked): self._intra_tree_blockers(parked)
            for parked in entries
        }
        if not blockers[id(entry)]:
            return False
        edges = {}
        for parked in entries:
            targets = set()
            for blocker in blockers[id(parked)]:
                for other in entries:
                    inside = (
                        other.txn.name[: len(blocker)] == blocker
                    )
                    if other is not parked and inside:
                        targets.add(id(other))
            edges[id(parked)] = targets
        # Is the new entry on a cycle (can it reach itself)?
        on_cycle = digraph.shortest_cycle_through(id(entry), edges.__getitem__)
        run = entry.run
        if on_cycle is not None and run.txn is not None and run.txn.is_active:
            self.engine.count_deadlock()
            run.self_deadlocks += 1
            self.engine.note(Tagged, top_level(run.txn.name), "deadlock")
            run.txn.abort()
            self._restart_program(run)
            return True
        return False

    def _age_key(self, top: TransactionName):
        """Strict total age order, stable across restarts (every tree
        the runner began stays in ``by_top``).

        A restarted program keeps its original admission time and order,
        which is what makes wound-wait livelock-free: the oldest program
        wins every conflict it enters and therefore always completes.
        """
        run = self.by_top[top]
        return (run.admitted_at, run.admit_order)

    def _wound_younger(self, run: _ProgramRun, blockers) -> bool:
        """Wound-wait: abort every blocker younger than *run*.

        Returns True when at least one holder was wounded (the caller may
        retry); False means every blocker is older or in *run*'s own
        tree (an intra-tree wait resolves on its own), so the caller
        waits.
        """
        my_top = top_level(run.txn.name)
        wounded = False
        for target in wound_victims(my_top, blockers, self._age_key):
            if self.by_top[target].txn.is_active:
                self.engine.count_deadlock()
                self.engine.note(Wounded, target, my_top)
                self._abort_victim(target)
                wounded = True
        if wounded:
            self._wake_blocked()
        return wounded

    def _wake_blocked(self) -> None:
        if not self.blocked:
            return
        waiters, self.blocked = self.blocked, []
        for entry in waiters:
            if not entry.valid():
                continue
            self.sim.after(
                RETRY_DELAY,
                lambda e=entry: self._attempt_access(
                    e.run, e.epoch, e.txn, e.op, e.done, e.requested_at
                ),
            )

    # ------------------------------------------------------------------
    # Completion, aborts, restarts
    # ------------------------------------------------------------------
    def _finish_top(self, run: _ProgramRun, epoch: int) -> None:
        if self._stale(run, epoch):
            return
        assert run.txn is not None
        run.txn.commit("done")
        run.finished = True
        self.metrics.committed += 1
        self.metrics.latencies.append(self.sim.now - run.admitted_at)
        self.running -= 1
        self._wake_blocked()
        self._admit()

    def _abort_victim(self, victim: TransactionName) -> None:
        run = self.by_top[victim]
        if not run.txn.is_active:
            return
        # First tag wins: the wound path has already tagged its victims,
        # everything else here died to a detected deadlock.
        self.engine.note(Tagged, victim, "deadlock")
        run.txn.abort()
        self._restart_program(run)

    def _restart_program(self, run: _ProgramRun) -> None:
        """Restart a program whose top-level transaction aborted."""
        if run.finished:
            return
        run.epoch += 1
        self.metrics.accesses_redone += run.attempt_accesses
        self.metrics.program_restarts += 1
        self._wake_blocked()
        if run.attempts >= self.config.max_program_attempts:
            run.finished = True
            self.running -= 1
            self._admit()
            return
        # Randomised exponential backoff: deterministic fixed delays make
        # the same group of programs collide (and deadlock) forever.
        scale = min(2 ** min(run.attempts - 1, 6), 32)
        delay = RESTART_DELAY * scale * (0.5 + self.rng.random())
        self.sim.after(delay, lambda: self._start_attempt(run))


def run_simulation(
    programs: Sequence[Program],
    store: Sequence[ObjectSpec],
    config: Optional[SimulationConfig] = None,
    observer=None,
    auditor=None,
) -> RunMetrics:
    """Execute *programs* against a fresh engine; return the metrics.

    *observer* (a :class:`repro.obs.Observer`) is re-clocked to
    simulated time and subscribed to the engine's event spine, which
    also carries the runner's lock-wait and conflict-resolution notes.
    *auditor* (a :class:`repro.audit.OnlineAuditor`) is subscribed
    beside it and audits the run's committed schedule online; inspect
    ``auditor.report()`` afterwards.
    """
    runner = _Runner(
        programs,
        store,
        config or SimulationConfig(),
        observer=observer,
        auditor=auditor,
    )
    runner.start()
    return runner.metrics
