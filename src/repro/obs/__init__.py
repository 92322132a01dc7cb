"""repro.obs -- unified tracing, metrics, and lock-contention profiling.

The observability layer for every execution surface of the repo: the
cooperative engine, the thread-safe facade, the discrete-event and
distributed runners, and the concurrency fuzzer all accept an optional
:class:`Observer` -- a subscriber of the engine's event spine
(:mod:`repro.engine.spine`) -- whose span tree mirrors the transaction
tree and whose metrics registry records where the time (and the
aborts) went.

Quick use::

    from repro.obs import Observer, write_chrome_trace, render_report

    obs = Observer()
    engine = Engine(specs, observer=obs)
    ...drive transactions...
    obs.finish()
    write_chrome_trace("trace.json", obs)   # chrome://tracing / Perfetto
    print(render_report(obs))

See ``docs/OBSERVABILITY.md`` for the span model, the metric catalogue,
and the exporter formats.
"""

from repro.obs.contention import ContentionProfiler, ObjectContention
from repro.obs.exporters import (
    iter_jsonl,
    render_report,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    exponential_buckets,
    percentile,
)
from repro.obs.observer import Observer
from repro.obs.tracer import Instant, NullTracer, Span, SpanTracer

__all__ = [
    "ContentionProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NullTracer",
    "ObjectContention",
    "Observer",
    "Span",
    "SpanTracer",
    "Summary",
    "exponential_buckets",
    "iter_jsonl",
    "percentile",
    "render_report",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
