"""The metrics registry: counters, gauges, histograms, snapshots."""

import json
import math

import pytest

from repro.obs.exporters import to_json, to_prometheus, write_metrics
from repro.obs.metrics import (DEFAULT_BYTE_BUCKETS, MetricsRegistry)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc(self, reg):
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("events_total").inc(-1)

    def test_labels_create_independent_children(self, reg):
        c = reg.counter("ops_total", labelnames=("kind",))
        c.labels(kind="read").inc(3)
        c.labels(kind="write").inc(1)
        assert c.labels(kind="read").value == 3
        assert c.labels(kind="write").value == 1

    def test_labeled_family_needs_labels(self, reg):
        c = reg.counter("ops_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc()

    def test_wrong_label_names_rejected(self, reg):
        c = reg.counter("ops_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.labels(flavor="read")

    def test_positional_child_is_the_labels_child(self, reg):
        c = reg.counter("ops_total", labelnames=("machine", "kind"))
        child = c.child(0, "read")
        assert child is c.labels(machine="0", kind="read")
        assert c.child("0", "read") is child
        assert c.labels(kind="write", machine=1) is c.child(1, "write")
        assert reg.counter("plain_total").child() is not None
        for values in ((0,), (0, "read", "x"), ()):
            with pytest.raises(ValueError):
                c.child(*values)


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == pytest.approx(4.0)


class TestHistogram:
    def test_observe_updates_sum_count(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 3 and h.sum == pytest.approx(5.0)

    def test_quantile_interpolates(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            h.observe(1.5)  # all in (1, 2] bucket
        # the median interpolates to the middle of the (1, 2] bucket
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_quantile_empty_is_nan(self, reg):
        assert math.isnan(reg.histogram("lat").quantile(0.5))

    def test_quantile_overflow_reports_top_bound(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)  # lands in +Inf bucket
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_quantile_range_checked(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("lat").quantile(1.5)

    def test_duplicate_buckets_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("lat", buckets=(1.0, 1.0))

    def test_default_byte_buckets_cover_mb_range(self):
        assert DEFAULT_BYTE_BUCKETS[0] == 64.0
        assert DEFAULT_BYTE_BUCKETS[-1] >= 1e7


class TestRegistry:
    def test_registration_is_idempotent(self, reg):
        a = reg.counter("x_total", help="h")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_mismatch_rejected(self, reg):
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labelname_mismatch_rejected(self, reg):
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("b",))

    def test_contains_and_names(self, reg):
        reg.counter("b_total")
        reg.gauge("a_depth")
        assert "b_total" in reg and "missing" not in reg
        assert reg.names() == ["a_depth", "b_total"]

    def test_counters_flat_includes_histograms_not_gauges(self, reg):
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(9)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        flat = reg.counters_flat()
        assert flat["c_total"] == 2
        assert flat["h_sum"] == 0.5 and flat["h_count"] == 1.0
        assert not any(k.startswith("g") for k in flat)

    def test_delta_since_drops_unmoved_series(self, reg):
        c = reg.counter("c_total", labelnames=("k",))
        c.labels(k="a").inc(1)
        c.labels(k="b").inc(1)
        before = reg.counters_flat()
        c.labels(k="a").inc(4)
        delta = reg.delta_since(before)
        assert delta == {'c_total{k="a"}': 4.0}

    def test_snapshot_is_json_ready(self, reg):
        reg.counter("c_total", labelnames=("k",)).labels(k="x").inc()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["c_total"]["samples"][0]["labels"] == {"k": "x"}
        assert snap["h"]["samples"][0]["count"] == 1


class TestExporters:
    def test_prometheus_text_format(self, reg):
        reg.counter("c_total", help="a counter",
                    labelnames=("k",)).labels(k="x").inc(3)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = to_prometheus(reg)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="x"} 3' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text and "h_count 1" in text

    def test_prometheus_escapes_label_values(self, reg):
        reg.counter("c_total", labelnames=("k",)).labels(k='we"ird').inc()
        assert 'k="we\\"ird"' in to_prometheus(reg)

    def test_json_round_trip(self, reg):
        reg.counter("c_total").inc(7)
        doc = json.loads(to_json(reg))
        assert doc["metrics"]["c_total"]["samples"][0]["value"] == 7

    def test_write_metrics_creates_both_files(self, reg, tmp_path):
        reg.counter("c_total").inc()
        prom, js = write_metrics(reg, str(tmp_path / "sub" / "m"))
        assert prom.endswith(".prom") and js.endswith(".json")
        assert "c_total 1" in open(prom).read()
        json.loads(open(js).read())
