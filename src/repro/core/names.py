"""Transaction name trees: the paper's "system types" (Section 3).

The pattern of transaction nesting is a set of transaction names organised
into a tree by ``parent()``, rooted at the mythical transaction ``T0`` that
models the external environment.  Leaves are *accesses*, partitioned by the
object they touch; internal nodes create and manage subtransactions but do
not access data (following Argus, as the paper notes).

Names are tuples of integers: ``()`` is ``T0``, ``(0,)`` its first child,
``(0, 2)`` that child's third child, and so on.  Tuples make the tree
functions (:func:`parent`, :func:`lca`, :func:`is_ancestor`) trivial prefix
arithmetic, are hashable, and sort into a stable order.

A :class:`SystemType` instance is a *finite* concrete tree (the paper's
trees are infinite templates of which any execution touches finitely many
nodes) plus the classification data: which leaves access which objects with
which operations, and the object specifications themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.object_spec import ObjectSpec, Operation
from repro.errors import SystemTypeError

TransactionName = Tuple[int, ...]

#: The root transaction T0, representing the external environment.
ROOT: TransactionName = ()


def parent(name: TransactionName) -> Optional[TransactionName]:
    """Return the parent of *name*, or None for the root."""
    if not name:
        return None
    return name[:-1]


def is_ancestor(a: TransactionName, b: TransactionName) -> bool:
    """Return True if *a* is an ancestor of *b* (every name is its own)."""
    return b[: len(a)] == a


def is_descendant(a: TransactionName, b: TransactionName) -> bool:
    """Return True if *a* is a descendant of *b* (every name is its own)."""
    return is_ancestor(b, a)


def is_proper_ancestor(a: TransactionName, b: TransactionName) -> bool:
    """Return True if *a* is an ancestor of *b* and ``a != b``."""
    return a != b and is_ancestor(a, b)


def is_proper_descendant(a: TransactionName, b: TransactionName) -> bool:
    """Return True if *a* is a descendant of *b* and ``a != b``."""
    return a != b and is_descendant(a, b)


def ancestors(name: TransactionName) -> Iterator[TransactionName]:
    """Yield *name* and every ancestor up to and including the root."""
    for length in range(len(name), -1, -1):
        yield name[:length]


def proper_ancestors(name: TransactionName) -> Iterator[TransactionName]:
    """Yield every proper ancestor of *name*, from parent up to the root."""
    for length in range(len(name) - 1, -1, -1):
        yield name[:length]


def lca(a: TransactionName, b: TransactionName) -> TransactionName:
    """Return the least common ancestor of *a* and *b*."""
    prefix: List[int] = []
    for x, y in zip(a, b):
        if x != y:
            break
        prefix.append(x)
    return tuple(prefix)


def are_siblings(a: TransactionName, b: TransactionName) -> bool:
    """Return True if *a* and *b* are distinct children of the same parent."""
    return a != b and len(a) == len(b) and a[:-1] == b[:-1] and bool(a)


def chain_between(
    lower: TransactionName, upper: TransactionName
) -> Iterator[TransactionName]:
    """Yield every ancestor of *lower* that is a proper descendant of *upper*.

    This is the chain the paper quantifies over in "T is committed to T'":
    ``COMMIT(U)`` must occur for every such U.  Yielded in ascending order
    (from *lower* towards *upper*).
    """
    if not is_ancestor(upper, lower):
        raise SystemTypeError(
            "%r is not an ancestor of %r" % (upper, lower)
        )
    for length in range(len(lower), len(upper), -1):
        yield lower[:length]


def pretty_name(name: TransactionName) -> str:
    """Render a transaction name as the paper writes it, e.g. ``T0.1.2``."""
    if not name:
        return "T0"
    return "T0." + ".".join(str(index) for index in name)


@dataclass(frozen=True)
class AccessSpec:
    """Classification of an access leaf: which object, which operation."""

    object_name: str
    operation: Operation

    @property
    def is_read(self) -> bool:
        return self.operation.is_read


class SystemType:
    """A finite concrete system type.

    Holds the transaction tree (children of each internal node), the object
    specifications, and the access classification.  Instances are immutable
    once built; use :class:`SystemTypeBuilder` to construct them.
    """

    def __init__(
        self,
        children: Mapping[TransactionName, Sequence[TransactionName]],
        accesses: Mapping[TransactionName, AccessSpec],
        objects: Mapping[str, ObjectSpec],
    ):
        self._children: Dict[TransactionName, Tuple[TransactionName, ...]] = {
            name: tuple(kids) for name, kids in children.items()
        }
        self._accesses = dict(accesses)
        self._objects = dict(objects)
        self._validate()
        self._accesses_by_object: Dict[str, Tuple[TransactionName, ...]] = {}
        for object_name in self._objects:
            members = tuple(
                sorted(
                    name
                    for name, spec in self._accesses.items()
                    if spec.object_name == object_name
                )
            )
            self._accesses_by_object[object_name] = members

    def _validate(self) -> None:
        for name, spec in self._accesses.items():
            if name in self._children and self._children[name]:
                raise SystemTypeError(
                    "access %s cannot have children" % pretty_name(name)
                )
            if spec.object_name not in self._objects:
                raise SystemTypeError(
                    "access %s names unknown object %r"
                    % (pretty_name(name), spec.object_name)
                )
        for name, kids in self._children.items():
            for kid in kids:
                if parent(kid) != name:
                    raise SystemTypeError(
                        "%s listed as child of %s"
                        % (pretty_name(kid), pretty_name(name))
                    )
        for name in self.transactions():
            if name == ROOT:
                continue
            mother = parent(name)
            if (
                mother not in self._children
                or name not in self._children[mother]
            ):
                raise SystemTypeError(
                    "%s is not reachable from the root" % pretty_name(name)
                )

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------
    def children(self, name: TransactionName) -> Tuple[TransactionName, ...]:
        """Return the children of *name* (empty tuple for leaves)."""
        return self._children.get(name, ())

    def transactions(self) -> Iterator[TransactionName]:
        """Yield every transaction name, root first, in preorder."""
        stack: List[TransactionName] = [ROOT]
        while stack:
            name = stack.pop()
            yield name
            stack.extend(reversed(self.children(name)))

    def internal_transactions(self) -> Iterator[TransactionName]:
        """Yield every non-access transaction name (including the root)."""
        for name in self.transactions():
            if not self.is_access(name):
                yield name

    def contains(self, name: TransactionName) -> bool:
        """Return True if *name* belongs to this system type."""
        if name == ROOT:
            return True
        mother = parent(name)
        return mother is not None and name in self.children(mother)

    def size(self) -> int:
        """Total number of transaction names in the tree."""
        return sum(1 for _ in self.transactions())

    # ------------------------------------------------------------------
    # Accesses and objects
    # ------------------------------------------------------------------
    def is_access(self, name: TransactionName) -> bool:
        """Return True if *name* is an access (a classified leaf)."""
        return name in self._accesses

    def access_spec(self, name: TransactionName) -> AccessSpec:
        """Return the access classification of *name*."""
        try:
            return self._accesses[name]
        except KeyError:
            raise SystemTypeError(
                "%s is not an access" % pretty_name(name)
            ) from None

    def object_of(self, name: TransactionName) -> str:
        """Return the object name the access *name* touches."""
        return self.access_spec(name).object_name

    def operation_of(self, name: TransactionName) -> Operation:
        """Return the abstract operation the access *name* performs."""
        return self.access_spec(name).operation

    def is_read_access(self, name: TransactionName) -> bool:
        """Return True if *name* is classified as a read access."""
        return self.access_spec(name).is_read

    def object_names(self) -> Tuple[str, ...]:
        """Return the object names, sorted."""
        return tuple(sorted(self._objects))

    def object_spec(self, object_name: str) -> ObjectSpec:
        """Return the :class:`ObjectSpec` for *object_name*."""
        return self._objects[object_name]

    def accesses_of(self, object_name: str) -> Tuple[TransactionName, ...]:
        """Return every access to *object_name* (the partition element)."""
        return self._accesses_by_object[object_name]

    def all_accesses(self) -> Iterator[TransactionName]:
        """Yield every access name."""
        return iter(sorted(self._accesses))


@dataclass
class SystemTypeBuilder:
    """Incremental construction of a :class:`SystemType`.

    Example::

        builder = SystemTypeBuilder()
        builder.add_object(IntRegister("x"))
        t1 = builder.add_child(ROOT)
        builder.add_access(t1, "x", IntRegister.write(5))
        builder.add_access(t1, "x", IntRegister.read())
        system_type = builder.build()
    """

    _children: Dict[TransactionName, List[TransactionName]] = field(
        default_factory=lambda: {ROOT: []}
    )
    _accesses: Dict[TransactionName, AccessSpec] = field(default_factory=dict)
    _objects: Dict[str, ObjectSpec] = field(default_factory=dict)

    def add_object(self, spec: ObjectSpec) -> "SystemTypeBuilder":
        """Register an object specification; returns self for chaining."""
        if spec.name in self._objects:
            raise SystemTypeError("duplicate object %r" % spec.name)
        self._objects[spec.name] = spec
        return self

    def add_child(self, parent_name: TransactionName) -> TransactionName:
        """Add a fresh internal child under *parent_name*; return its name."""
        name = self._new_child(parent_name)
        self._children[name] = []
        return name

    def add_access(
        self,
        parent_name: TransactionName,
        object_name: str,
        operation: Operation,
    ) -> TransactionName:
        """Add a fresh access leaf under *parent_name* and return its name."""
        if object_name not in self._objects:
            raise SystemTypeError("unknown object %r" % object_name)
        name = self._new_child(parent_name)
        self._accesses[name] = AccessSpec(object_name, operation)
        return name

    def _new_child(self, parent_name: TransactionName) -> TransactionName:
        if parent_name in self._accesses:
            raise SystemTypeError(
                "cannot add children under access %s"
                % pretty_name(parent_name)
            )
        if parent_name not in self._children:
            raise SystemTypeError(
                "unknown parent %s" % pretty_name(parent_name)
            )
        siblings = self._children[parent_name]
        name = parent_name + (len(siblings),)
        siblings.append(name)
        return name

    def build(self) -> SystemType:
        """Freeze the builder into an immutable :class:`SystemType`."""
        return SystemType(self._children, self._accesses, self._objects)
