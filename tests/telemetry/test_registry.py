"""Tests for the metrics registry and both exposition formats."""

import json
import math
import re
import threading
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.telemetry import (
    Declared,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    bind,
    read,
    to_json,
    to_prometheus,
)


class TestFamilies:
    def test_counter_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_high_water_and_touched(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", labels=("stage",),
                               track_high_water=True)
        child = gauge.labels("ingest")
        assert not child.touched
        child.set(7)
        child.set(3)
        assert child.value == 3
        assert child.high_water == 7
        assert child.touched

    def test_labels_get_or_create_same_child(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total",
                                  labels=("a", "b"))
        one = family.labels("p", "q")
        two = family.labels("p", "q")
        other = family.labels("p", "r")
        assert one is two
        assert one is not other
        assert family.labels(a="p", b="q") is one

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labels=("a",))
        with pytest.raises(ValueError):
            family.labels("p", "q")
        with pytest.raises(ValueError):
            family.labels(bogus="p")

    def test_registration_is_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", labels=("a",))
        again = registry.counter("repro_x_total", labels=("a",))
        assert first is again

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labels=("a",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("repro_ok", labels=("bad-label",))


class TestHistogram:
    def test_records_land_in_buckets(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.record(0.5)
        hist.record(1.5)
        hist.record(99.0)       # overflow bucket
        snap = hist.snapshot()
        assert snap.count == 3
        assert snap.counts == (1, 1, 1)
        assert snap.sum == pytest.approx(101.0)
        assert snap.mean == pytest.approx(101.0 / 3)

    def test_percentile_semantics(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            hist.record(value)
        assert hist.percentile(0.5) == 1.0
        assert hist.percentile(1.0) == 4.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0

    def test_mean(self):
        hist = Histogram()
        hist.record(1.0)
        hist.record(3.0)
        assert hist.mean == pytest.approx(2.0)

    def test_snapshot_is_atomic_pair(self):
        """The torn-read fix: mean is always sum/count of one moment."""
        hist = Histogram(bounds=(1.0,))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                hist.record(1.0)

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in writers:
            thread.start()
        try:
            for _ in range(2000):
                snap = hist.snapshot()
                if snap.count:
                    # Every recorded value is exactly 1.0, so any
                    # torn (sum, count) pair shows up as mean != 1.
                    assert snap.mean == pytest.approx(1.0)
                    assert snap.sum == pytest.approx(snap.count)
        finally:
            stop.set()
            for thread in writers:
                thread.join()


@dataclass(frozen=True)
class _Row:
    name: str
    latency: HistogramSnapshot
    done: int = 0
    depth: int = 0
    peak: int = 0
    level: Optional[float] = None


_ROWS = (
    Declared("counter", "repro_x_total", "", ("stage", "result"),
             done=("done",)),
    Declared("histogram", "repro_x_seconds", "", ("stage",), latency=()),
    Declared("gauge", "repro_x_depth", "", ("stage",),
             high_water="peak", depth=()),
    Declared("gauge", "repro_x_level", "", ("stage",), level=()),
)


class TestDeclared:
    def test_bind_then_read_one_snapshot_per_row(self):
        registry = MetricsRegistry()
        a, b = bind(registry, _ROWS, "a"), bind(registry, _ROWS, "b")
        assert bind(registry, _ROWS, "a")["done"] is a["done"]
        a["done"].inc(3)
        a["latency"].record(0.5)
        a["depth"].set(7)
        a["depth"].set(2)
        b["level"].set(1.5)
        rows = read(_Row, registry, _ROWS, row="name")
        assert [r.name for r in rows] == ["a", "b"]
        first, second = rows
        assert (first.done, first.depth, first.peak) == (3, 2, 7)
        assert isinstance(first.done, int)
        assert first.latency.count == 1
        # A gauge nothing set keeps the dataclass default.
        assert first.level is None and second.level == 1.5

    def test_flat_family_reads_as_one_row(self):
        registry = MetricsRegistry()
        flat = (Declared("counter", "repro_y_total", "", ("kind",),
                         hits=("hit",), misses=("miss",)),)
        bind(registry, flat)["hits"].inc()

        @dataclass(frozen=True)
        class Flat:
            hits: int = 0
            misses: int = 0
            note: str = ""

        assert read(Flat, registry, flat, note="x") \
            == [Flat(hits=1, misses=0, note="x")]


class TestExposition:
    def _sample_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total",
                                   "Events.", labels=("kind",))
        counter.labels("ok").inc(3)
        counter.labels('we"ird\n\\').inc()
        registry.gauge("repro_depth", "Depth.",
                       track_high_water=True).set(5)
        hist = registry.histogram("repro_lat_seconds", "Latency.",
                                  bounds=(0.1, 1.0))
        hist.record(0.05)
        hist.record(0.5)
        return registry

    def test_prometheus_text_structure(self):
        text = self._sample_registry().prometheus()
        assert "# HELP repro_events_total Events.\n" in text
        assert "# TYPE repro_events_total counter\n" in text
        assert 'repro_events_total{kind="ok"} 3\n' in text
        # Label values are escaped.
        assert 'kind="we\\"ird\\n\\\\"' in text
        # Histogram exposition is cumulative with +Inf and sum/count.
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2\n' in text
        assert "repro_lat_seconds_count 2\n" in text
        # track_high_water gauges emit a synthetic companion family.
        assert "repro_depth_high_water 5\n" in text

    def test_prometheus_text_parses(self):
        """Every non-comment line is `name{labels} value`."""
        line_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
            r'[^ ]+$')
        for line in self._sample_registry().prometheus().splitlines():
            if not line or line.startswith("#"):
                continue
            assert line_re.match(line), line

    def test_json_round_trips(self):
        document = json.loads(
            json.dumps(self._sample_registry().to_json()))
        families = {f["name"]: f for f in document["families"]}
        events = families["repro_events_total"]
        assert events["kind"] == "counter"
        by_kind = {s["labels"]["kind"]: s["value"]
                   for s in events["samples"]}
        assert by_kind["ok"] == 3
        hist = families["repro_lat_seconds"]["samples"][0]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.55)
        assert hist["buckets"][-1][0] == "inf"

    def test_empty_families_still_have_headers(self):
        registry = MetricsRegistry()
        registry.counter("repro_lonely_total", "No children.",
                         labels=("a",))
        text = registry.prometheus()
        assert "# HELP repro_lonely_total" in text
        assert "# TYPE repro_lonely_total counter" in text

    def test_scalar_values_flatten(self):
        scalars = self._sample_registry().scalar_values()
        assert scalars['repro_events_total{kind="ok"}'] == (3.0, True)
        value, monotonic = scalars["repro_depth"]
        assert value == 5.0 and not monotonic
        assert scalars["repro_lat_seconds_count"] == (2.0, True)

    def test_exposition_functions_accept_collect(self):
        snapshots = self._sample_registry().collect()
        assert to_prometheus(snapshots)
        assert to_json(snapshots)["families"]


class TestConcurrency:
    """N writer threads vs a concurrent exposition thread."""

    N_THREADS = 8
    PER_THREAD = 2500

    def test_totals_conserved_under_concurrent_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total",
                                   labels=("worker",))
        hist = registry.histogram("repro_work_seconds",
                                  bounds=(0.5, 1.0))
        gauge = registry.gauge("repro_inflight",
                               track_high_water=True)
        start = threading.Barrier(self.N_THREADS + 1)
        stop = threading.Event()

        def writer(index):
            child = counter.labels(f"w{index}")
            start.wait()
            for i in range(self.PER_THREAD):
                child.inc()
                hist.record(0.25 if i % 2 else 0.75)
                gauge.set(i % 7)

        def reader(errors):
            start.wait()
            while not stop.is_set():
                text = registry.prometheus()
                document = registry.to_json()
                if "# TYPE repro_hits_total counter" not in text:
                    errors.append("missing family header")
                if not document["families"]:
                    errors.append("empty json exposition")
                snap = hist.snapshot()
                if snap.count and not math.isclose(
                        snap.mean, snap.sum / snap.count):
                    errors.append("torn histogram read")

        errors = []
        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.N_THREADS)]
        exposition = threading.Thread(target=reader, args=(errors,))
        for thread in threads:
            thread.start()
        exposition.start()
        for thread in threads:
            thread.join()
        stop.set()
        exposition.join()

        assert not errors
        total = self.N_THREADS * self.PER_THREAD
        assert sum(child.value
                   for _, child in counter.children()) == total
        snap = hist.snapshot()
        assert snap.count == total
        assert sum(snap.counts) == total
        expected_sum = (total // 2) * 0.25 + (total - total // 2) * 0.75
        assert snap.sum == pytest.approx(expected_sum)
        assert gauge.labels().high_water == 6
        # The final exposition agrees with the counters.
        text = registry.prometheus()
        assert f"repro_work_seconds_count {total}\n" in text
