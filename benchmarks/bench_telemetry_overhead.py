"""Telemetry overhead: what trace sampling costs the hot path.

The observability layer's contract (docs/TELEMETRY.md) is that it is
safe to leave on in production: the registry counters are always live,
and trace spans are *sampled* so their cost scales with the rate, not
the update volume.  This benchmark measures that claim on the flood
workload — the same lossless full-speed run as
``bench_pipeline_throughput`` — at three sampling rates:

* ``off``     (rate 0.0)  — the baseline; unsampled updates carry
  ``None`` and touch no trace code beyond one attribute read;
* ``sampled`` (rate 0.01) — the recommended production setting; must
  cost < ``SAMPLED_TOLERANCE`` (5%) of baseline throughput;
* ``full``    (rate 1.0)  — every update spanned; reported for scale,
  bounded only loosely (it allocates one span per update).

Throughput is noisy at these run lengths, so each configuration takes
the best of ``REPEATS`` runs before comparing.  Numbers land in
EXPERIMENTS.md.  ``REPRO_BENCH_QUICK=1`` shrinks the workload; the
module also runs standalone: ``python bench_telemetry_overhead.py``.
"""

import os

try:
    from conftest import print_series
except ImportError:                      # standalone invocation
    def print_series(title, rows):
        print(f"\n=== {title} ===")
        for row in rows:
            print("  " + row)

from repro.pipeline import CollectionPipeline, PipelineConfig
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_VPS = 8 if QUICK else 12
DURATION_S = 300.0 if QUICK else 900.0
#: Dense event rate: overhead comparisons need runs long enough to
#: amortise fixed costs (thread spin-up), so this
#: workload packs far more events per hour than the §4.2 default.
EVENTS_PER_HOUR = 3600.0
REPEATS = 5 if QUICK else 3

#: Sampled tracing (rate <= 0.01) may cost at most this fraction of
#: baseline throughput — the acceptance bound.  The comparison takes
#: best-of-REPEATS to damp scheduler noise.
SAMPLED_TOLERANCE = 0.05
#: Full tracing allocates a span per update; keep a loose sanity
#: bound so a pathological regression still fails.
FULL_TOLERANCE = 0.50


def make_stream():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=N_VPS, n_prefix_groups=10, duration_s=DURATION_S,
        events_per_hour=EVENTS_PER_HOUR, seed=2,
    ))
    _, stream = generator.generate()
    return stream


def run_once(stream, sample_rate):
    pipeline = CollectionPipeline(PipelineConfig(
        n_shards=4, overflow_policy="block",
        trace_sample_rate=sample_rate))
    result = pipeline.run(split_by_vp(stream), timeout=120.0)
    assert result.accounted
    assert result.metrics.ingest_dropped == 0
    spans = int(pipeline.metrics.tracer._sampled.value)
    if sample_rate == 1.0:
        assert spans == result.metrics.written
    elif sample_rate == 0.0:
        assert spans == 0
    else:
        assert spans > 0
    return result.metrics.throughput_ups, spans


def run_paired(stream, configs):
    """Best-of-REPEATS for several configs, *interleaved*.

    Each round runs every configuration once before any repeats, so
    slow drift on the host (page cache, thermal state, a neighbour
    waking up) hits all configurations evenly instead of penalising
    whichever happened to run last — back-to-back blocks showed a
    consistent ~5% bias toward the earlier block at these run lengths.
    """
    best = {key: (0.0, 0) for key in configs}
    for _ in range(REPEATS):
        for key, rate in configs.items():
            observed = run_once(stream, rate)
            if observed[0] > best[key][0]:
                best[key] = observed
    return best


def measure():
    stream = make_stream()
    best = run_paired(stream, {"off": 0.0, "sampled": 0.01,
                               "full": 1.0})
    return {
        "updates": len(stream),
        "off": best["off"][0],
        "sampled": best["sampled"][0],
        "sampled_spans": best["sampled"][1],
        "full": best["full"][0],
        "full_spans": best["full"][1],
    }


def check(numbers):
    assert numbers["sampled"] >= numbers["off"] \
        * (1.0 - SAMPLED_TOLERANCE), (
        f"sampled tracing cost "
        f"{1 - numbers['sampled'] / numbers['off']:.1%} "
        f"(> {SAMPLED_TOLERANCE:.0%} tolerance)")
    assert numbers["full"] >= numbers["off"] * (1.0 - FULL_TOLERANCE)


def report(numbers):
    off = numbers["off"]
    return [
        f"{numbers['updates']} updates, best of {REPEATS} runs each",
        f"tracing off:     {off:,.0f} updates/s (baseline)",
        f"sampled (0.01):  {numbers['sampled']:,.0f} updates/s "
        f"({numbers['sampled'] / off - 1.0:+.1%}, "
        f"{numbers['sampled_spans']} spans)",
        f"full (1.0):      {numbers['full']:,.0f} updates/s "
        f"({numbers['full'] / off - 1.0:+.1%}, "
        f"{numbers['full_spans']} spans)",
    ]


def test_trace_sampling_overhead(benchmark):
    numbers = benchmark.pedantic(measure, rounds=1, iterations=1)
    check(numbers)
    print_series("Telemetry — trace sampling overhead", report(numbers))


def main():
    numbers = measure()
    check(numbers)
    for row in report(numbers):
        print(row)
    print("ok")


if __name__ == "__main__":
    main()
