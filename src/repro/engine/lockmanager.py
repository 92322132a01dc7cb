"""The Moss R/W lock manager: one :class:`ManagedObject` per shared object.

A :class:`ManagedObject` is the engine-side twin of the M(X) automaton
(:mod:`repro.core.rw_object`): the same lockholder sets, the same version
map, the same grant rule, the same commit/abort lock movement.  The
conformance harness (:mod:`repro.checking.conformance`) replays engine
traces against M(X) to demonstrate the two stay in lockstep.

Hot-path layer
--------------

Moss' grant rule only asks whether every *conflicting holder is an
ancestor of the requester*, and his own invariants make that decidable
without scanning the holder sets (see ``docs/PERFORMANCE.md`` for the
full argument):

* write holders always form an ancestry chain (Lemma 21), so "all
  write holders are ancestors of R" is equivalent to "the *deepest*
  write holder is an ancestor of R" -- one tuple-prefix compare
  (names are paths from the root, so ancestry is a prefix test);
* the ancestors of R form a chain, so "all read holders are ancestors
  of R" can only hold when the read holders form a chain themselves;
  the object tracks chain-ness and the deepest read holder
  incrementally, giving the same O(1) test for write requests.

When the fast test cannot certify a grant the unoptimised
:func:`~repro.engine.locks.blocking_holders` scan runs, so
:class:`~repro.errors.LockDenied` blockers and messages are
byte-identical to the pre-optimisation engine.  ``FAST_GRANTS = False``
(class or instance) disables the fast path entirely; the benchmark
``bench_e20_lockpath`` uses that switch to measure the win.

The lock tables additionally keep a *depth index* (holders bucketed by
tree depth), making subtree queries and abort discards proportional to
the holders at-or-below the doomed depth instead of the whole table,
and a :attr:`ManagedObject.generation` counter bumped by commit/abort
lock movement so observers can cheaply detect change windows.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.names import ROOT, TransactionName, parent
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.locks import LockMode, blocking_holders
from repro.engine.versions import VersionMap
from repro.errors import EngineError, LockDenied
from repro.kernel.store import ObjectStore


class ManagedObject:
    """Lock table plus version map for one object."""

    #: Enable the O(1) grant fast path.  The slow path is always kept
    #: correct and byte-identical; flipping this off (class-wide or per
    #: instance) restores the pre-optimisation scan for benchmarking
    #: and differential testing.
    FAST_GRANTS = True

    #: This class reports every grant through :attr:`granted_hook`, so
    #: a :class:`LockManager` may index which objects each top-level
    #: tree holds locks on (and skip the others on commit/abort).
    HOLDER_INDEXED = True

    def __init__(self, spec: ObjectSpec):
        self.spec = spec
        self.write_holders: Set[TransactionName] = {ROOT}
        self.read_holders: Set[TransactionName] = set()
        self.versions = VersionMap(spec.initial_value())
        #: Bumped by every commit/abort/rehome lock movement (never by
        #: a plain grant): a cheap change ticket for holders_view()
        #: readers and for tests pinning fast-path invalidation.
        self.generation = 0
        #: Optional ``(owner)`` callable invoked after every grant;
        #: installed by :class:`LockManager` to maintain its
        #: held-objects index.  ``None`` costs one attribute test.
        self.granted_hook = None
        # Depth-indexed holder sets: depth -> holders at that depth.
        self._write_depths: Dict[int, Set[TransactionName]] = {0: {ROOT}}
        self._read_depths: Dict[int, Set[TransactionName]] = {}
        # Fast-path aggregates.  Write holders form an ancestry chain,
        # so the deepest one decides grants; read holders are tracked
        # with an incremental chain-ness flag (see module docstring).
        self._deepest_write: Optional[TransactionName] = ROOT
        self._deepest_read: Optional[TransactionName] = None
        self._reads_chain = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_value(self) -> Any:
        """The current state of the object (deepest write version)."""
        return self.versions.current()

    def committed_value(self) -> Any:
        """The state as committed to the root (version of T0)."""
        return self.versions.get(ROOT)

    def blockers(
        self,
        requester: TransactionName,
        mode: LockMode,
        operation: Optional[Operation] = None,
    ) -> Set[TransactionName]:
        """Non-ancestor conflicting holders preventing the request.

        *operation* is accepted for interface parity with semantic
        locking; Moss' rule only needs the mode.  When the O(1)
        aggregates certify the grant the holder scan is skipped
        entirely; otherwise the unoptimised scan runs and its result
        (and therefore every ``LockDenied``) is byte-identical to the
        pre-fast-path engine.
        """
        # Fast certificate -- sound, not complete: taking the early
        # return implies the scan would find no blockers; falling
        # through only means the scan must decide.  Each ancestry test
        # is one inlined tuple-prefix compare.
        if self.FAST_GRANTS:
            deepest_write = self._deepest_write
            if (
                deepest_write is None
                or requester[: len(deepest_write)] == deepest_write
            ):
                if mode is LockMode.READ or not self.read_holders:
                    return set()
                if self._reads_chain:
                    deepest_read = self._deepest_read
                    if requester[: len(deepest_read)] == deepest_read:
                        return set()
        return blocking_holders(
            requester, mode, self.write_holders, self.read_holders
        )

    def holders(self) -> Tuple[Set[TransactionName], Set[TransactionName]]:
        """Return ``(write_holders, read_holders)`` copies.

        .. deprecated::
            Kept for API compatibility.  Inspection-only readers
            (conformance, observability) should use
            :meth:`holders_view`, which does not copy.
        """
        return set(self.write_holders), set(self.read_holders)

    def holders_view(
        self,
    ) -> Tuple[Set[TransactionName], Set[TransactionName]]:
        """Zero-copy ``(write_holders, read_holders)`` read-only view.

        The returned sets are the live tables: treat them as frozen
        and do not hold them across engine transitions
        (:attr:`generation` changes when locks move).  Mutating lock
        state outside the transition methods violates the repo's
        CD001 invariant.
        """
        return self.write_holders, self.read_holders

    # ------------------------------------------------------------------
    # Aggregate maintenance (single entry points for holder mutation)
    # ------------------------------------------------------------------
    def _add_holder(self, name: TransactionName, mode: LockMode) -> None:
        """Add *name* to the *mode* holder set, keeping aggregates."""
        if mode is LockMode.WRITE:
            if name in self.write_holders:
                return
            self.write_holders.add(name)
            self._write_depths.setdefault(len(name), set()).add(name)
            deepest = self._deepest_write
            if deepest is None or len(name) >= len(deepest):
                self._deepest_write = name
            return
        if name in self.read_holders:
            return
        self.read_holders.add(name)
        self._read_depths.setdefault(len(name), set()).add(name)
        if not self._reads_chain:
            return
        deepest = self._deepest_read
        if deepest is None or name[: len(deepest)] == deepest:
            self._deepest_read = name
        elif deepest[: len(name)] != name:
            # Incomparable with the deepest holder: the read holders
            # no longer form a chain, so no write request can pass the
            # fast test until aborts/commits restore chain-ness.
            self._reads_chain = False
            self._deepest_read = None

    def _discard_holder(
        self, name: TransactionName, mode: LockMode
    ) -> None:
        """Remove *name* from the *mode* holder set, keeping aggregates."""
        if mode is LockMode.WRITE:
            if name not in self.write_holders:
                return
            self.write_holders.discard(name)
            bucket = self._write_depths[len(name)]
            bucket.discard(name)
            if not bucket:
                del self._write_depths[len(name)]
            if name == self._deepest_write:
                self._deepest_write = self._max_depth_member(
                    self._write_depths
                )
            return
        if name not in self.read_holders:
            return
        self.read_holders.discard(name)
        bucket = self._read_depths[len(name)]
        bucket.discard(name)
        if not bucket:
            del self._read_depths[len(name)]
        if self._reads_chain:
            # Any subset of a chain is a chain; only the deepest
            # pointer can change, and the new deepest is simply the
            # deepest survivor.
            if name == self._deepest_read:
                self._deepest_read = self._max_depth_member(
                    self._read_depths
                )
        else:
            # A removal can restore chain-ness; rebuild from the
            # surviving holders.
            self._rebuild_read_aggregates()

    @staticmethod
    def _max_depth_member(
        depths: Dict[int, Set[TransactionName]],
    ) -> Optional[TransactionName]:
        if not depths:
            return None
        deepest = depths[max(depths)]
        return max(deepest)

    def _rebuild_read_aggregates(self) -> None:
        if not self.read_holders:
            self._deepest_read = None
            self._reads_chain = True
            return
        ordered = sorted(self.read_holders, key=len)
        for shallow, deep in zip(ordered, ordered[1:]):
            if deep[: len(shallow)] != shallow:
                self._reads_chain = False
                self._deepest_read = None
                return
        self._reads_chain = True
        self._deepest_read = ordered[-1]

    def _subtree_members(
        self,
        depths: Dict[int, Set[TransactionName]],
        name: TransactionName,
    ) -> List[TransactionName]:
        """Holders at-or-below *name*, via the depth index."""
        cutoff = len(name)
        found: List[TransactionName] = []
        for depth, members in depths.items():
            if depth < cutoff:
                continue
            if depth == cutoff:
                if name in members:
                    found.append(name)
            else:
                for holder in members:
                    if holder[:cutoff] == name:
                        found.append(holder)
        return found

    # ------------------------------------------------------------------
    # Moss' transitions
    # ------------------------------------------------------------------
    def acquire(
        self,
        owner: TransactionName,
        operation: Operation,
        mode: LockMode,
    ) -> Any:
        """Grant *owner* the lock and apply *operation*; return its result.

        Raises :class:`~repro.errors.LockDenied` (carrying the blockers)
        when a conflicting non-ancestor holds a lock.  On a write grant the
        new object state is stored as *owner*'s version; reads leave the
        version map untouched.
        """
        blockers = self.blockers(owner, mode)
        if blockers:
            raise LockDenied(
                "%s blocked on %r by %r"
                % (self.spec.name, owner, sorted(blockers)),
                blockers=blockers,
            )
        result, new_value = self.spec.apply(self.current_value(), operation)
        if mode is LockMode.WRITE:
            self._add_holder(owner, LockMode.WRITE)
            self.versions.install(owner, new_value)
        else:
            self._add_holder(owner, LockMode.READ)
        hook = self.granted_hook
        if hook is not None:
            hook(owner)
        return result

    def on_commit(self, name: TransactionName) -> None:
        """Pass *name*'s locks (and version) to its parent.

        The move is specialised rather than discard+add: when the
        *deepest* holder of a chain moves up, its replacement deepest
        is exactly its parent (every other holder was an ancestor of
        *name*, hence at the parent's depth or above), so no bucket
        re-scan is needed -- this runs once per access under Moss'
        instantaneous-leaf modelling.
        """
        mother = parent(name)
        if mother is None:
            raise EngineError("cannot commit the root")
        moved = False
        if name in self.write_holders:
            self.write_holders.discard(name)
            bucket = self._write_depths[len(name)]
            bucket.discard(name)
            if not bucket:
                del self._write_depths[len(name)]
            if mother not in self.write_holders:
                self.write_holders.add(mother)
                self._write_depths.setdefault(
                    len(mother), set()
                ).add(mother)
            if name == self._deepest_write:
                self._deepest_write = mother
            self.versions.promote(name)
            moved = True
        if name in self.read_holders:
            self.read_holders.discard(name)
            bucket = self._read_depths[len(name)]
            bucket.discard(name)
            if not bucket:
                del self._read_depths[len(name)]
            if mother not in self.read_holders:
                self.read_holders.add(mother)
                self._read_depths.setdefault(
                    len(mother), set()
                ).add(mother)
            if self._reads_chain:
                # Replacing a chain member with its parent keeps the
                # chain (the parent is comparable to every holder the
                # member was comparable to).
                if name == self._deepest_read:
                    self._deepest_read = mother
            else:
                self._rebuild_read_aggregates()
            moved = True
        if moved:
            self.generation += 1

    def on_abort(self, name: TransactionName) -> None:
        """Discard every lock and version held below *name* (inclusive).

        The common no-op abort (nothing held below *name*) returns
        without rebuilding either holder set; the depth index makes the
        discard itself proportional to the holders at-or-below
        *name*'s depth rather than the whole table.
        """
        doomed_writes = self._subtree_members(self._write_depths, name)
        doomed_reads = self._subtree_members(self._read_depths, name)
        if not doomed_writes and not doomed_reads:
            # No locks below means no versions below either -- except
            # under deliberately broken policies (analysis faults) that
            # strand versions; the version map is small, so the scan
            # keeps even that case correct.
            if self.versions.discard_subtree(name):
                self.generation += 1
            return
        for holder in doomed_writes:
            self._discard_holder(holder, LockMode.WRITE)
        for holder in doomed_reads:
            self._discard_holder(holder, LockMode.READ)
        self.versions.discard_subtree(name)
        self.generation += 1

    def rehome(
        self,
        access: TransactionName,
        owner: TransactionName,
        mode: LockMode,
    ) -> None:
        """Move *access*'s fresh lock (and version) directly to *owner*.

        Flat policies grant to an ancestor rather than the access
        itself; the transition keeps all lock-table mutation inside
        the managed object.
        """
        if mode is LockMode.WRITE:
            self._discard_holder(access, LockMode.WRITE)
            self._add_holder(owner, LockMode.WRITE)
            if self.versions.has(access):
                value = self.versions.get(access)
                self.versions.discard_subtree(access)
                self.versions.install(owner, value)
        else:
            self._discard_holder(access, LockMode.READ)
            self._add_holder(owner, LockMode.READ)
        self.generation += 1

    def is_locked_by_subtree(self, name: TransactionName) -> bool:
        """True if some lock is held by *name* or a descendant."""
        cutoff = len(name)
        for depths in (self._write_depths, self._read_depths):
            for depth, members in depths.items():
                if depth < cutoff:
                    continue
                if depth == cutoff:
                    if name in members:
                        return True
                elif any(
                    holder[:cutoff] == name for holder in members
                ):
                    return True
        return False

    def holds_lock(self, name: TransactionName) -> bool:
        """True if *name* itself holds a read or write lock here."""
        return name in self.write_holders or name in self.read_holders


class LockManager:
    """All managed objects of one engine, kept in an ObjectStore.

    *make_managed* lets a locking policy substitute its own per-object
    structure (e.g. semantic locking's undo-log objects); the default is
    the Moss :class:`ManagedObject`.

    When every managed object supports it (``HOLDER_INDEXED``), the
    manager maintains a *held-objects index* -- for each top-level
    tree, the set of objects where that tree holds any lock -- fed by
    the objects' grant hooks.  Commit/abort propagation then visits
    only the objects the finishing tree could possibly hold, in store
    registration order (so the ``touched`` lists, and therefore traces
    and fuzz digests, are byte-identical to the full scan).
    """

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        make_managed=None,
    ):
        if make_managed is None:
            make_managed = ManagedObject
        self.store = ObjectStore(specs, make_managed)
        #: The name-to-ManagedObject mapping (the store's own dict).
        self.objects: Dict[str, ManagedObject] = self.store.objects
        # Held-objects index: top-level name -> object names where that
        # tree holds any lock.  A superset (pruned on tree completion),
        # so commit/abort may use it to skip untouched objects.
        self._held_by_top: Dict[TransactionName, Set[str]] = {}
        self._indexed = all(
            getattr(type(managed), "HOLDER_INDEXED", False)
            for managed in self.objects.values()
        )
        if self._indexed:
            for object_name, managed in self.objects.items():
                managed.granted_hook = self._granted_hook(object_name)

    def _granted_hook(self, object_name: str):
        held = self._held_by_top

        def granted(owner: TransactionName) -> None:
            top = owner[:1]
            if top:
                bucket = held.get(top)
                if bucket is None:
                    bucket = held.setdefault(top, set())
                bucket.add(object_name)

        return granted

    def _candidates(self, name: TransactionName):
        """Objects that may hold locks of *name*'s tree, in store order."""
        if not self._indexed or not name:
            return self.objects
        held = self._held_by_top.get(name[:1])
        if not held:
            return ()
        if len(held) == len(self.objects):
            return self.objects
        rank = self.store.rank_of
        return sorted(held, key=rank)

    def _prune(self, top: TransactionName) -> None:
        """Drop index entries for objects *top*'s tree no longer holds."""
        held = self._held_by_top.get(top)
        if held is None:
            return
        released = [
            object_name
            for object_name in held
            if not self.objects[object_name].is_locked_by_subtree(top)
        ]
        for object_name in released:
            held.discard(object_name)
        if not held:
            self._held_by_top.pop(top, None)

    def object(self, name: str) -> ManagedObject:
        return self.store.object(name)

    def on_commit(self, name: TransactionName) -> List[str]:
        """Propagate a commit to every object; return the touched names."""
        touched = []
        for object_name in self._candidates(name):
            managed = self.objects[object_name]
            if managed.holds_lock(name):
                managed.on_commit(name)
                touched.append(object_name)
        if self._indexed and len(name) == 1:
            # A committing top-level passes its locks to the root; its
            # tree no longer holds anything anywhere.
            self._prune(name)
        return touched

    def on_abort(self, name: TransactionName) -> List[str]:
        """Propagate an abort to every object; return the touched names."""
        touched = []
        for object_name in self._candidates(name):
            managed = self.objects[object_name]
            if managed.is_locked_by_subtree(name):
                managed.on_abort(name)
                touched.append(object_name)
        if self._indexed and name:
            self._prune(name[:1])
        return touched
