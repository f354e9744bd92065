"""Table 1 on the physical collector.

Table 1 (§8) reports the share of updates the daemons lose on one CPU
for 100 / 1 000 / 10 000 peers at the average (28k/h) and 99th-
percentile (241k/h) per-peer rate, with and without GILL's filters.
``bench_table1_daemon_load`` reproduces it from the calibrated
work-unit model in :mod:`repro.bgp.daemon`; this benchmark measures
the same grid on the collector itself, with nothing emulated:

* a Table-1 cell is one aggregate offered rate, ``peers * rate``,
  spread over 64 paced sessions (never one thread per peer).  The
  sessions replay a looped 64-VP synthetic template at
  ``PipelineConfig.time_scale``, under ``drop`` backpressure, into a
  bz2 :class:`~repro.bgp.archive.RollingArchiveWriter`;
* each cell runs without filters and with the
  :class:`~repro.bgp.filtering.FilterTable` that
  :class:`~repro.core.sampler.GillSampler` trains on the template;
* a cell offers for at most ``WINDOW_S`` wall seconds and at most
  ``MAX_OFFERED`` updates, generated lazily, so no cell holds more
  than the template in memory;
* the measured loss is printed beside the model's cell
  (``steady_state_loss``) and the collector's unpaced capacity (the
  same sessions flooded under ``block``), and each cell must count
  every update it received:
  ``received == archived + ingest_dropped + flagged + discarded +
  gill_dropped + archive_lost`` with ``archived`` the sum of the
  sealed segments' counts.

The sessions run in the collector's process, so a collector that
cannot keep up also slows the sessions down: a behind-schedule session
reads as fast as the interpreter lets it, and its end-of-stream and
heartbeat markers wait for room.  The ``achieved`` column is the rate
the sessions reached.  A cell is lossy when it drops more than
``LOSSY`` of what it received, or when the collector throttled its
sessions below ``THROTTLED`` of the cell's rate (an outside peer would
have lost that shortfall).  The ``capacity`` column is the loss the
unpaced capacity implies at the cell's rate, ``1 - capacity / offered``.
Where the measured pattern differs from Table 1 the row says so;
EXPERIMENTS.md records the grid and the reasons.

``REPRO_BENCH_QUICK=1`` shrinks the windows for CI smoke runs; the
module also runs standalone: ``python bench_pipeline_throughput.py``.
"""

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

try:
    from conftest import print_series
except ImportError:                      # standalone invocation
    def print_series(title, rows):
        print(f"\n=== {title} ===")
        for row in rows:
            print("  " + row)

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.daemon import (
    AVG_RATE_PER_HOUR,
    P99_RATE_PER_HOUR,
    DaemonLoadResult,
    steady_state_loss,
)
from repro.bgp.filtering import FilterTable
from repro.bgp.message import BGPUpdate
from repro.core.sampler import GillSampler
from repro.pipeline import CollectionPipeline, PipelineConfig, \
    PipelineResult
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

PEER_COUNTS = (100, 1000, 10000)
RATES = ((AVG_RATE_PER_HOUR, "avg (28K/h)"),
         (P99_RATE_PER_HOUR, "p99 (241K/h)"))
#: Paced sessions carrying a cell's aggregate rate (one template VP
#: each).
SESSIONS = 64
#: Wall seconds a cell offers for, at most.
WINDOW_S = 1.0 if QUICK else 4.0
#: Updates a cell offers, at most (the window shrinks to fit).
MAX_OFFERED = 40_000 if QUICK else 200_000
#: A cell losing more than this share of what it received is lossy:
#: the queues absorb a burst or two, so zero is too strict a line.
LOSSY = 0.01
#: Sessions reaching less than this share of a cell's rate were
#: throttled by the collector (thread start-up and the last pacing
#: sleep cost a few percent of a short window).
THROTTLED = 0.9
SEED = 1
INTERVAL_S = 300.0
TIMEOUT = 300.0


@dataclass(frozen=True)
class Template:
    """One hour of 64-VP traffic, looped to make any offered rate."""

    streams: Dict[str, Sequence[BGPUpdate]]
    filters: FilterTable
    start: float
    #: Stream seconds one pass covers; pass k is shifted by k periods.
    period_s: float
    retain_fraction: float

    @property
    def updates_per_s(self) -> float:
        """Aggregate stream rate of one pass (updates per stream s)."""
        return sum(map(len, self.streams.values())) / self.period_s


def make_template(seed: int = SEED) -> Template:
    _, stream = SyntheticStreamGenerator(StreamConfig(
        n_vps=SESSIONS, duration_s=3600.0, seed=seed)).generate()
    filters = GillSampler(seed=seed).run(stream).filters
    start = min(u.time for u in stream)
    period = max(u.time for u in stream) - start + 1.0
    kept = sum(filters.accept(u) for u in stream)
    return Template(split_by_vp(stream), filters, start, period,
                    kept / len(stream))


def looped(updates: Sequence[BGPUpdate], template: Template,
           span_s: float, finished: List[float]) -> Iterator[BGPUpdate]:
    """``updates`` replayed pass after pass for ``span_s`` stream
    seconds, built one at a time; notes the wall clock when done."""
    end = template.start + span_s
    shift = 0.0
    try:
        while True:
            for u in updates:
                t = u.time + shift
                if t >= end:
                    return
                yield BGPUpdate(u.vp, t, u.prefix, u.as_path,
                                u.communities, u.is_withdrawal)
            shift += template.period_s
    finally:
        finished.append(time.perf_counter())


def assert_counted(result: PipelineResult) -> None:
    """Every update a cell received is archived or counted as lost."""
    m = result.metrics
    archived = sum(segment.count for segment in result.segments)
    counted = (archived + m.ingest_dropped + m.flagged + m.discarded
               + m.gill_dropped + m.supervision.archive_lost)
    assert m.received == counted, (m.received, counted, m)


@dataclass(frozen=True)
class Run:
    result: PipelineResult
    #: Wall seconds from start until the last session finished
    #: offering (the drain is not in it).
    offer_s: float

    @property
    def offered_per_s(self) -> float:
        return self.result.metrics.received / self.offer_s


def collect(template: Template, filtered: bool, span_s: float,
            time_scale: Optional[float]) -> Run:
    """One collection of ``span_s`` stream seconds into a fresh bz2
    archive: paced under ``drop`` at ``time_scale``, or flooded under
    ``block`` when it is None."""
    directory = tempfile.mkdtemp(prefix="table1-")
    try:
        finished: List[float] = []
        streams = {vp: looped(updates, template, span_s, finished)
                   for vp, updates in template.streams.items()}
        pipeline = CollectionPipeline(
            PipelineConfig(
                overflow_policy="block" if time_scale is None else "drop",
                time_scale=time_scale),
            filters=template.filters if filtered else None,
            archive=RollingArchiveWriter(directory, interval_s=INTERVAL_S))
        started = time.perf_counter()
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_counted(result)
        return Run(result, max(finished) - started)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def capacity(template: Template, filtered: bool) -> float:
    """Unpaced updates/s: ``MAX_OFFERED`` updates flooded losslessly."""
    run = collect(template, filtered,
                  MAX_OFFERED / template.updates_per_s, None)
    return run.result.metrics.received / run.result.metrics.wall_time_s


@dataclass(frozen=True)
class Cell:
    model: DaemonLoadResult
    run: Run
    #: Loss the unpaced capacity implies at the cell's rate.
    expected: float

    @property
    def offered_per_s(self) -> float:
        return self.model.peers * self.model.rate_per_hour / 3600.0

    @property
    def loss(self) -> float:
        return self.run.result.metrics.loss_fraction

    @property
    def throttled(self) -> bool:
        return self.run.offered_per_s < THROTTLED * self.offered_per_s

    @property
    def lossy(self) -> bool:
        return self.loss > LOSSY or self.throttled

    @property
    def matches(self) -> bool:
        """Lossy here exactly where Table 1 loses."""
        return self.lossy != self.model.copes


def measure_cell(template: Template, peers: int, rate_per_hour: float,
                 filtered: bool, capacity_ups: float) -> Cell:
    offered = peers * rate_per_hour / 3600.0
    window = min(WINDOW_S, MAX_OFFERED / offered)
    time_scale = offered / template.updates_per_s
    run = collect(template, filtered, window * time_scale, time_scale)
    expected = max(0.0, 1.0 - capacity_ups / offered)
    return Cell(steady_state_loss(peers, rate_per_hour, filtered),
                run, expected)


def table1_physical(template: Template):
    """Capacity per filter setting, then every cell: (capacities,
    {(filtered, rate, peers): Cell})."""
    capacities = {filtered: capacity(template, filtered)
                  for filtered in (False, True)}
    cells = {}
    for filtered in (True, False):
        for rate, _ in RATES:
            for peers in PEER_COUNTS:
                cells[filtered, rate, peers] = measure_cell(
                    template, peers, rate, filtered, capacities[filtered])
    return capacities, cells


def _k(rate: float) -> str:
    return f"{rate / 1000:.1f}k"


def render(template: Template, capacities, cells) -> List[str]:
    rows = [
        f"{SESSIONS} paced sessions, drop policy, bz2 archive; "
        f"filters retain {template.retain_fraction:.1%} of the template",
        f"unpaced capacity: {_k(capacities[False])} updates/s without "
        f"filters, {_k(capacities[True])}/s with",
        f"{'':22s}{'offered':>9s}{'achieved':>10s}{'model':>7s}"
        f"{'measured':>10s}{'capacity':>10s}  pattern",
    ]
    for filtered in (True, False):
        rows.append("with filters:" if filtered else "without filters:")
        for rate, label in RATES:
            for peers in PEER_COUNTS:
                cell = cells[filtered, rate, peers]
                rows.append(
                    f"  {label:13s}{peers:>6d} {_k(cell.offered_per_s):>9s}"
                    f"{_k(cell.run.offered_per_s):>10s}"
                    f"{cell.model.label:>7s}{cell.loss:>10.1%}"
                    f"{cell.expected:>10.1%}  "
                    + ("match" if cell.matches else "differs")
                    + (" (throttled)" if cell.throttled else ""))
    return rows


def check(cells) -> None:
    # What any collector shows: the 100-peer cells (<= 6.7k/s) lose
    # nothing, and 669k/s overwhelms it.
    for filtered in (True, False):
        for rate, _ in RATES:
            assert not cells[filtered, rate, 100].lossy
        assert cells[filtered, P99_RATE_PER_HOUR, 10000].lossy


def test_table1_physical(benchmark):
    template = make_template()
    capacities, cells = benchmark.pedantic(
        table1_physical, args=(template,), rounds=1, iterations=1)
    print_series("Table 1 — measured on the physical collector",
                 render(template, capacities, cells))
    check(cells)


def main():
    template = make_template()
    capacities, cells = table1_physical(template)
    for row in render(template, capacities, cells):
        print(row)
    check(cells)
    print("ok")


if __name__ == "__main__":
    main()
