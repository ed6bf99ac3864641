"""The metrics registry: labeled counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per cluster, always on.  Instruments follow the
Prometheus data model — a *family* (name + help + label names) owning one
child per label-value combination — but are plain Python objects cheap
enough to update from the simulator's hot paths.

The registry supports flat snapshots (for JSON export and per-job deltas)
and sample iteration (for the Prometheus text exposition in
:mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, Optional, Sequence

#: Default histogram buckets for simulated-seconds durations: log-spaced from
#: a microsecond to ten seconds (the engine's span of chunk/job times).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for message/buffer sizes in bytes (64 B .. 16 MB).
DEFAULT_BYTE_BUCKETS: tuple[float, ...] = tuple(
    64.0 * 4 ** i for i in range(10))


def _label_key(labelnames: Sequence[str], labels: dict) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(labels)}")
    return tuple(str(labels[n]) for n in labelnames)


class _Family:
    """Shared machinery: a metric family owning children per label set."""

    kind = "untyped"
    #: a family built outside a registry owns its children and has no ledger
    ledger = None

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._owner = registry if registry is not None else self
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child(())

    def _make_child(self, key: tuple[str, ...]):
        raise NotImplementedError

    def _series(self, key: tuple[str, ...], suffix: str = "") -> str:
        """The flat ``name{a="x",b="y"}`` series name of one child."""
        labels = ",".join(f'{n}="{v}"' for n, v in zip(self.labelnames, key))
        return f"{self.name}{suffix}" + ("{" + labels + "}" if labels else "")

    def labels(self, **labels):
        """The child for one label-value combination (created on first use)."""
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def child(self, *values):
        """:meth:`labels` by position, in ``labelnames`` order: string
        values are the ``_children`` key as given, one dict probe."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.labelnames):
                raise ValueError(
                    f"expected labels {self.labelnames}, got {values}")
            child = self.labels(**dict(zip(self.labelnames, values)))
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                f"use .labels(...)")
        return self._children[()]

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        return iter(sorted(self._children.items()))


class _CounterValue:
    __slots__ = ("value", "series", "_owner")

    def __init__(self, series: str, owner) -> None:
        self.value = 0.0
        self.series = series
        self._owner = owner

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self.value += amount
        ledger = self._owner.ledger
        if ledger is not None:
            ledger[self.series] = ledger.get(self.series, 0.0) + amount


class Counter(_Family):
    """Monotonically increasing count (events, bytes, busy seconds...)."""

    kind = "counter"

    def _make_child(self, key) -> _CounterValue:
        return _CounterValue(self._series(key), self._owner)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down (queue depth, active sessions...)."""

    kind = "gauge"

    def _make_child(self, key) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramValue:
    __slots__ = ("bounds", "bucket_counts", "sum", "count",
                 "sum_series", "count_series", "_owner")

    def __init__(self, bounds: tuple[float, ...], sum_series: str,
                 count_series: str, owner):
        self.bounds = bounds              # finite upper bounds, sorted
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.sum_series = sum_series
        self.count_series = count_series
        self._owner = owner

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        ledger = self._owner.ledger
        if ledger is not None:
            ledger[self.sum_series] = ledger.get(self.sum_series, 0.0) + value
            ledger[self.count_series] = (
                ledger.get(self.count_series, 0.0) + 1.0)

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (the Prometheus ``le`` semantics)."""
        out, acc = [], 0
        for c in self.bucket_counts:
            acc += c
            out.append(acc)
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile by linear interpolation inside the bucket.

        Returns ``nan`` when empty.  Values in the overflow (+Inf) bucket
        report the largest finite bound — a floor, as Prometheus does.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        acc = 0
        for i, c in enumerate(self.bucket_counts):
            prev_acc = acc
            acc += c
            if acc >= rank and c > 0:
                if i >= len(self.bounds):       # overflow bucket
                    return self.bounds[-1] if self.bounds else math.nan
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - prev_acc) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.bounds[-1] if self.bounds else math.nan  # pragma: no cover


class Histogram(_Family):
    """Fixed-bucket distribution with quantile estimates."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                 registry: Optional["MetricsRegistry"] = None):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {bounds}")
        self.buckets = bounds
        super().__init__(name, help, labelnames, registry)

    def _make_child(self, key) -> _HistogramValue:
        return _HistogramValue(self.buckets, self._series(key, "_sum"),
                               self._series(key, "_count"), self._owner)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count


class MetricsRegistry:
    """Owns every instrument of one cluster; source of truth for exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Family] = {}
        #: while set, counter and histogram updates are also added to this
        #: ``{flat series name: increment}`` dict; a scheduled job's
        #: :class:`~repro.obs.hooks.ScopedHookBus` sets it around each emit
        self.ledger: Optional[dict[str, float]] = None

    # -- registration (idempotent) -----------------------------------------

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str],
                  **kwargs) -> _Family:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}")
            return existing
        metric = cls(name, help, labelnames, registry=self, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> Optional[_Family]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[_Family]:
        return iter(self._metrics[n] for n in sorted(self._metrics))

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready structured dump of every instrument."""
        out: dict = {}
        for metric in self:
            entry: dict = {"type": metric.kind, "help": metric.help,
                           "labels": list(metric.labelnames), "samples": []}
            for key, child in metric.children():
                labels = dict(zip(metric.labelnames, key))
                if metric.kind == "histogram":
                    entry["samples"].append({
                        "labels": labels, "sum": child.sum, "count": child.count,
                        "buckets": {str(b): c for b, c in
                                    zip(list(metric.buckets) + ["+Inf"],
                                        child.cumulative())},
                    })
                else:
                    entry["samples"].append({"labels": labels,
                                             "value": child.value})
            out[metric.name] = entry
        return out

    def counters_flat(self) -> dict[str, float]:
        """Every monotonic scalar as ``name{a="x",b="y"}`` -> value.

        Includes counter values and histogram sums/counts (all monotone), so
        subtracting two snapshots yields a valid per-window delta.  Gauges are
        excluded — a gauge delta is not meaningful.
        """
        flat: dict[str, float] = {}
        for metric in self:
            if metric.kind == "counter":
                for _, child in metric.children():
                    flat[child.series] = child.value
            elif metric.kind == "histogram":
                for _, child in metric.children():
                    flat[child.sum_series] = child.sum
                    flat[child.count_series] = float(child.count)
        return flat

    def delta_since(self, before: dict[str, float]) -> dict[str, float]:
        """Monotonic-series increments since a ``counters_flat()`` snapshot.
        Series that did not move are dropped."""
        after = self.counters_flat()
        delta = {}
        for name, value in after.items():
            d = value - before.get(name, 0.0)
            if d != 0.0:
                delta[name] = d
        return delta
