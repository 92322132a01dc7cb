"""The network front-end: a transaction service (ROADMAP 1).

The engine core is fast, scheme-pluggable, observable, audited, and
durable; this package gives it a network face.  Modules:

* :mod:`repro.serve.protocol` -- the framed canonical-JSON wire
  format (version-pinned, golden-tested like the WAL format) and the
  typed error taxonomy;
* :mod:`repro.serve.session` -- per-connection transaction ownership
  and op dispatch, with orphan abort on disconnect;
* :mod:`repro.serve.admission` -- in-flight caps, token-bucket
  arrival limiting, and shed backoff hints;
* :mod:`repro.serve.server` -- the TCP server: one thread per
  connection reads a burst, admits it, runs it in order (a lock wait
  blocks only that connection) and answers it with one write;
* :mod:`repro.serve.client` -- the blocking (optionally pipelining)
  client, whose transactions have the facade handle's surface;
* :mod:`repro.serve.loadgen` -- the one client loop (a thread per
  client, threads only: the package has no event loop) and the
  open-loop Poisson and closed-loop load generators on it, reporting
  :mod:`repro.obs` latency percentiles.

Serve with ``python -m repro serve``; drive with ``python -m repro
loadgen``.  See docs/SERVICE.md.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import ServeError, SyncClient
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
