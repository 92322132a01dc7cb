"""Multiprocess sharded engine: real parallelism behind the facade API.

Everything else in the repo executes behind one GIL; this package
promotes the CRC32-sharded :class:`~repro.kernel.store.ObjectStore`
and the :mod:`repro.dist` two-phase-commit *model* to reality.  One
worker process per shard runs the proven single-threaded engine over
its slice of the object store; a coordinator in the client process
routes accesses by ``ObjectStore.shard_of``, lazily mirrors nested
tree names onto participant shards, and at top-level commit lets the
shards a tree wrote on decide: presumed-abort two-phase commit among
two or more writers, a one-phase ``decide`` for one, nothing for none
(a read-only participant's ``decide`` rides in the next request on
its link).  The coordinator's transaction tree is the scheme's own engine,
and its handles are the facade's
(:class:`~repro.engine.threadsafe.ThreadSafeTransaction`).  Workers
speak the version-pinned framed-JSON protocol of
:mod:`repro.serve.protocol` over spawn-safe pipes.

Per the paper's footnote 9, distribution is orthogonal to locking
correctness: each object's lock automaton only consults tree *names*
(ancestry), which the mirrored name tuples carry shard-locally.  See
``docs/SHARDING.md`` for the architecture and failure matrix.
"""

from repro.shard.engine import ShardedEngine
from repro.shard.link import ShardDown
from repro.shard.recovery import (
    ShardedRecovery,
    read_decisions,
    recover_sharded,
)
from repro.shard.worker import WorkerConfig, worker_main

__all__ = [
    "ShardedEngine",
    "ShardDown",
    "ShardedRecovery",
    "WorkerConfig",
    "read_decisions",
    "recover_sharded",
    "worker_main",
]
