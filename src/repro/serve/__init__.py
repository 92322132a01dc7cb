"""The network front-end: an async transaction service (ROADMAP 1).

The engine core is fast, scheme-pluggable, observable, audited, and
durable; this package gives it a network face.  Modules:

* :mod:`repro.serve.protocol` -- the framed canonical-JSON wire
  format (version-pinned, golden-tested like the WAL format) and the
  typed error taxonomy;
* :mod:`repro.serve.session` -- per-connection transaction ownership
  and op dispatch, with orphan abort on disconnect;
* :mod:`repro.serve.admission` -- in-flight caps, token-bucket
  arrival limiting, and shed backoff hints;
* :mod:`repro.serve.server` -- the asyncio TCP server: a lone
  request runs on the event loop, whatever would block (and every
  pipelined batch) on a bounded worker pool;
* :mod:`repro.serve.client` -- sync and async (pipelining) clients;
* :mod:`repro.serve.loadgen` -- open-loop Poisson and closed-loop
  load generators reporting :mod:`repro.obs` latency percentiles.

Serve with ``python -m repro serve``; drive with ``python -m repro
loadgen``.  See docs/SERVICE.md.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import AsyncClient, ServeError, SyncClient
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadReport,
    run_loadgen,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameCorrupt,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.serve.server import (
    ServeConfig,
    ServerThread,
    TransactionServer,
)
from repro.serve.session import Session

__all__ = [
    "AdmissionController",
    "AsyncClient",
    "FrameCorrupt",
    "FrameDecoder",
    "FrameTooLarge",
    "LoadReport",
    "LoadgenConfig",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "Session",
    "SyncClient",
    "TokenBucket",
    "TransactionServer",
    "run_loadgen",
]
