"""A shared object store with pluggable sharding.

Both engines keep their per-object structures (Moss lock tables, MVTO
version chains) in an :class:`ObjectStore`: a name-keyed mapping that
also assigns every object to a shard.  In-process engines build it
with one shard and pay nothing; the multiprocess sharded engine
(:mod:`repro.shard`) uses :meth:`ObjectStore.shard_of` to route each
object to a worker.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.core.object_spec import ObjectSpec
from repro.errors import EngineError


def default_sharding(name: str, shards: int) -> int:
    """Stable hash sharding (CRC32), independent of ``PYTHONHASHSEED``."""
    return zlib.crc32(name.encode("utf-8")) % shards


class ObjectStore:
    """Name-keyed objects built from specs, each assigned to a shard.

    Parameters
    ----------
    specs:
        The object specifications making up the store.
    make_object:
        Called once per spec to build the per-object structure.
    shards:
        Number of shards; clamped to at least 1 and at most the number
        of objects (extra shards would stay empty).
    sharding:
        Optional ``(name, shards) -> index`` assignment; defaults to
        :func:`default_sharding`.
    """

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        make_object: Callable[[ObjectSpec], Any],
        shards: int = 1,
        sharding: Optional[Callable[[str, int], int]] = None,
    ):
        specs = list(specs)
        self.specs: Dict[str, ObjectSpec] = {}
        self.objects: Dict[str, Any] = {}
        self.shards = max(1, min(int(shards), max(1, len(specs))))
        self._sharding = sharding or default_sharding
        self._shard_of: Dict[str, int] = {}
        for spec in specs:
            if spec.name in self.objects:
                raise EngineError("duplicate object %r" % spec.name)
            index = self._sharding(spec.name, self.shards)
            if not 0 <= index < self.shards:
                raise EngineError(
                    "sharding put %r in shard %d of %d"
                    % (spec.name, index, self.shards)
                )
            self.specs[spec.name] = spec
            self.objects[spec.name] = make_object(spec)
            self._shard_of[spec.name] = index
        self._rank_of: Dict[str, int] = {
            name: rank for rank, name in enumerate(self.objects)
        }

    def object(self, name: str) -> Any:
        try:
            return self.objects[name]
        except KeyError:
            raise EngineError("unknown object %r" % name) from None

    def shard_of(self, name: str) -> int:
        try:
            return self._shard_of[name]
        except KeyError:
            raise EngineError("unknown object %r" % name) from None

    def rank_of(self, name: str) -> int:
        """Registration rank of *name* (0-based insertion order).

        Lets callers that iterate object subsets (e.g. the lock
        manager's held-objects index) restore the store's canonical
        ordering, which traces and replay digests depend on.
        """
        try:
            return self._rank_of[name]
        except KeyError:
            raise EngineError("unknown object %r" % name) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self.objects)

    def items(self) -> Iterable[Tuple[str, Any]]:
        return self.objects.items()

    def values(self) -> Iterable[Any]:
        return self.objects.values()

    def __iter__(self) -> Iterator[str]:
        return iter(self.objects)

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, name: str) -> bool:
        return name in self.objects
