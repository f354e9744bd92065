"""Empirical Table-1 loss on the concurrent runtime.

The analytic daemon model (``bench_table1_daemon_load``) predicts the
loss fraction from an oversubscription formula; this benchmark
*measures* it on the concurrent runtime.  Per-peer Poisson sessions
are replayed in accelerated wall time against a
:class:`~repro.pipeline.ServiceCostModel` charging the calibrated §8
work units, and the observed ingest drop rate is compared to
``steady_state_loss`` — Table 1's measured column.

Two checks:

* saturated — demand is 2x the modelled CPU, analytic loss 50%; the
  empirical loss must land within ``LOSS_TOLERANCE`` (0.10 absolute,
  see docs/PIPELINE.md for why bursts and the drain tail shift it);
* unsaturated — capacity is 2x demand; the empirical loss must be
  (near) zero.

Physical throughput is not measured here: ``perf/run.py``'s
``collect_flood`` workload times the unpaced write path, with
read-back checks.

``REPRO_BENCH_QUICK=1`` shrinks the workload for CI smoke runs; the
module also runs standalone: ``python bench_pipeline_throughput.py``.
"""

import os

try:
    from conftest import print_series
except ImportError:                      # standalone invocation
    def print_series(title, rows):
        print(f"\n=== {title} ===")
        for row in rows:
            print("  " + row)

from repro.bgp.daemon import steady_state_loss
from repro.pipeline import (
    CollectionPipeline,
    PipelineConfig,
    ServiceCostModel,
)
from repro.workload import poisson_session_streams

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Documented tolerance between empirical and analytic loss: Poisson
#: bursts, finite queues and the lossless drain tail all pull the
#: measured fraction a few points off the steady-state formula.
LOSS_TOLERANCE = 0.10

#: The §8 sizing of the capacity experiments (scaled for wall time).
PEERS = 8
RATE_PER_HOUR = 1800.0
STREAM_DURATION_S = 150.0 if QUICK else 600.0
TIME_SCALE = 200.0
#: Everything is retained (accept-all filters), so one update costs
#: parse + filter + write = 51.2 work units.
UNIT_COST = 51.2
DEMAND_UNITS_PER_S = (PEERS * RATE_PER_HOUR / 3600.0
                      * TIME_SCALE * UNIT_COST)


def run_capacity(capacity_units_per_s: float, seed: int = 7):
    """Paced, capacity-limited run; returns (result, analytic_loss)."""
    streams = poisson_session_streams(
        PEERS, RATE_PER_HOUR, STREAM_DURATION_S, seed=seed)
    # Small ingest queues: the updates absorbed while the queues first
    # fill are served during the drain tail and would otherwise bias
    # the measured loss low on short runs.
    pipeline = CollectionPipeline(PipelineConfig(
        n_shards=2,
        overflow_policy="drop",
        ingest_queue_capacity=16,
        time_scale=TIME_SCALE,
        cost_model=ServiceCostModel(capacity_units_per_s),
    ))
    result = pipeline.run(streams, timeout=300.0)
    analytic = steady_state_loss(
        PEERS, RATE_PER_HOUR * TIME_SCALE, True,
        retain_fraction=1.0, capacity=capacity_units_per_s,
    )
    return result, analytic.loss_fraction


def check_capacity(result, analytic, saturated):
    metrics = result.metrics
    # Graceful drain: every enqueued update was processed, never lost.
    assert result.accounted
    assert metrics.retained + metrics.discarded == metrics.processed \
        == metrics.written
    empirical = metrics.loss_fraction
    if saturated:
        assert analytic > 0.3
        assert abs(empirical - analytic) < LOSS_TOLERANCE
    else:
        assert analytic == 0.0
        assert empirical < 0.02


def test_pipeline_empirical_loss_saturated(benchmark):
    result, analytic = benchmark.pedantic(
        run_capacity, args=(DEMAND_UNITS_PER_S * 0.5,),
        rounds=1, iterations=1)
    check_capacity(result, analytic, saturated=True)
    print_series("Pipeline — saturated (demand = 2x capacity)", [
        f"analytic loss {analytic:.1%}  "
        f"empirical loss {result.metrics.loss_fraction:.1%}  "
        f"(tolerance {LOSS_TOLERANCE:.0%})",
        f"received {result.metrics.received}  "
        f"dropped {result.metrics.ingest_dropped}",
    ])


def test_pipeline_empirical_loss_unsaturated(benchmark):
    result, analytic = benchmark.pedantic(
        run_capacity, args=(DEMAND_UNITS_PER_S * 2.0,),
        rounds=1, iterations=1)
    check_capacity(result, analytic, saturated=False)
    print_series("Pipeline — unsaturated (capacity = 2x demand)", [
        f"analytic loss {analytic:.1%}  "
        f"empirical loss {result.metrics.loss_fraction:.1%}",
        f"received {result.metrics.received}  "
        f"dropped {result.metrics.ingest_dropped}",
    ])


def main():
    result, analytic = run_capacity(DEMAND_UNITS_PER_S * 0.5)
    check_capacity(result, analytic, saturated=True)
    print(f"saturated: empirical loss "
          f"{result.metrics.loss_fraction:.1%} vs analytic "
          f"{analytic:.1%}")

    result, analytic = run_capacity(DEMAND_UNITS_PER_S * 2.0)
    check_capacity(result, analytic, saturated=False)
    print(f"unsaturated: empirical loss "
          f"{result.metrics.loss_fraction:.1%} vs analytic "
          f"{analytic:.1%}")
    print("ok")


if __name__ == "__main__":
    main()
