"""Engine-wide observability: metrics registry, hook bus, and exporters.

Three always-on pieces, owned per cluster so multiple clusters (and their
observers) coexist in one process:

* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters, gauges
  and fixed-bucket histograms with quantile estimates;
* :class:`~repro.obs.hooks.HookBus` — named lifecycle hook points
  (``job.end``, ``fault.inject``, ``sched.dispatch``, ...) with
  instance-scoped subscriptions;
* :class:`~repro.obs.recorder.MetricsRecorder` — the built-in subscriber
  that keeps the standard ``repro_*`` instrument set current, folding
  each attempt's ``JobStats`` in when it ends.

Exporters (:mod:`repro.obs.exporters`) render Prometheus text and JSON
snapshots; :mod:`repro.obs.report` prints the Figure-5-style per-layer
overhead table used by ``repro report``.

``repro.obs.report`` is intentionally not imported here — import it
directly where needed.
"""

from .exporters import to_json, to_prometheus, write_metrics
from .hooks import KNOWN_HOOKS, HookBus, ScopedHookBus, Subscription
from .metrics import (Counter, DEFAULT_BYTE_BUCKETS, DEFAULT_TIME_BUCKETS,
                      Gauge, Histogram, MetricsRegistry)
from .profiler import JobProfile, PathSegment, SpanProfiler
from .recorder import MetricsRecorder

__all__ = [
    "HookBus", "ScopedHookBus", "Subscription", "KNOWN_HOOKS",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_TIME_BUCKETS", "DEFAULT_BYTE_BUCKETS",
    "MetricsRecorder",
    "SpanProfiler", "JobProfile", "PathSegment",
    "to_prometheus", "to_json", "write_metrics",
]
