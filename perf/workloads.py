"""The four workloads; run as the child process of ``run.py``.

One invocation runs one workload once: set-up, a timed section of
``--seconds``, the correctness checks, and — with ``--trace 1`` — the
per-layer pass of ``layers.py`` instead of the end-to-end metrics.
The last line printed is one JSON object with the results.

Sizes are frozen here; they are never scaled to the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import check
import layers
import serving
from common import INTERVAL_S, RESULTS_DIR, SCENARIO_SEED, Spans, \
    archive_writer, collection_pipeline, dir_bytes, is_segment, median, \
    percentile

#: Earliest stream start; see ``make_stream``.
STREAM_EPOCH_S = float(2 ** 17)
#: Set-up is repeated — at least this often, and until this much set-up
#: time has been measured — and its median reported, so one slow fsync,
#: fork or first import does not read as a set-up regression.  That is
#: 3 repeats of the ~3.5 s serve set-up, 5 of the ~0.7 s
#: ``collect_flood`` input, ~60 of the ~0.05 s ``collect_filtered`` one.
SETUP_MIN_REPEATS = 3
SETUP_MEASURE_S = 3.0
#: The traced pass times two short end-to-end slices (spans off, spans
#: on) instead of one full section; a collect slice is one collection.
TRACE_SLICE_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # 'collect' | 'serve'
    shape: str              # 'overshoot' | 'wide'
    duration_s: float       # stream seconds per generated input
    smoke_duration_s: float
    gill: bool = False      # collect: --gill --events production path
    query: str = ""         # serve: 'point' | 'scan'


#: The sizes of ISSUE 11: one collection of either collect workload
#: takes about ``run_seconds`` (15 s) on the 2-core machine they were
#: calibrated on.  They must not shrink: checkpoint rewrites that grow
#: with the number of sealed segments and a ``GillStage`` that slows
#: with the state it has accumulated (README, findings 1 and 4) only
#: show at this length.
WORKLOADS = {w.name: w for w in (
    Workload("collect_flood", "collect", "overshoot", 86400.0, 4320.0),
    Workload("collect_filtered", "collect", "overshoot", 5400.0, 600.0,
             gill=True),
    Workload("serve_point", "serve", "wide", 14400.0, 1800.0,
             query="point"),
    Workload("serve_scan", "serve", "wide", 14400.0, 1800.0,
             query="scan"),
)}


def make_stream(shape: str, duration_s: float, seed: int) -> list:
    """The workload's input, sorted by ``(time, vp, prefix)`` exactly
    as ``cmd_pipeline`` sorts before ``split_by_vp`` (a session skips
    updates that go back in time).

    The seed starts the stream a whole number of segments later, up
    to half a day: other timestamps, same position of every update within
    its segment and gill slot.  Every start keeps all timestamps
    inside one float64 binade, [2^17, 2^18) s: there an integer shift
    moves every time exactly, and only the integer bits of the stored
    timestamps change.  Starts spread over several binades move the
    bz2 output by +-1.5%, more than the bound on the byte metrics.
    """
    from repro.workload import StreamConfig, SyntheticStreamGenerator, \
        overshoot_config

    if shape == "overshoot":
        config = overshoot_config(SCENARIO_SEED, n_vps=24,
                                  duration_s=duration_s)
    else:
        config = StreamConfig(n_vps=32, n_prefix_groups=400,
                              events_per_hour=600, duration_s=duration_s,
                              seed=SCENARIO_SEED)
    shift = INTERVAL_S * random.Random(f"{seed}/shift").randrange(1, 145)
    # No collector pass over the updates while they are made: they are
    # not garbage, and when a full collection strikes depends on the
    # heap earlier repeats left behind (1.1-1.5 s against 0.7 s).
    gc.disable()
    try:
        _, stream = SyntheticStreamGenerator(config).generate(
            start_time=STREAM_EPOCH_S + shift)
        stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    finally:
        gc.enable()
    return stream


def repeated_setup(set_up: Callable[[], object], tear_down=None,
                   once: bool = False) -> Tuple[object, List[float]]:
    """Run ``set_up`` repeatedly (see ``SETUP_MIN_REPEATS``), tearing
    every result but the last down; returns the last result and the
    time each repeat took."""
    times: List[float] = []
    result = None
    while True:
        if result is not None and tear_down is not None:
            tear_down(result)
        result = None
        gc.collect()        # the previous input is garbage, not load
        started = time.perf_counter()
        result = set_up()
        times.append(time.perf_counter() - started)
        if once or (len(times) >= SETUP_MIN_REPEATS
                    and sum(times) >= SETUP_MEASURE_S):
            return result, times


# -- collect ------------------------------------------------------------------

@dataclass
class CollectRepeat:
    wall_s: float
    cpu_s: float
    #: Wall time from one segment seal to the next (the first from
    #: ``pipeline.run()``): how long a 5-minute segment takes to become
    #: durable and queryable under flood.
    seal_gaps_s: List[float]
    archive: object         # its RollingArchiveWriter
    result: object          # its PipelineResult
    digests: Dict[str, str]


def collect_once(streams: dict, directory: str, gill: bool, spans: Spans,
                 parent: Optional[int] = None) -> CollectRepeat:
    """One ``pipeline.run()`` into a fresh archive directory."""
    from repro.events import EventPipeline, EventStore, journal_path_for

    archive = archive_writer(directory)
    pipeline = collection_pipeline(archive, gill)
    if gill:
        EventPipeline(store=EventStore(journal_path_for(directory)),
                      registry=pipeline.metrics.registry).attach(archive)
    seals: List[float] = []
    archive.add_seal_listener(
        lambda segment, build_s: seals.append(time.perf_counter()))
    cpu_started = time.process_time()
    started = time.perf_counter()
    # run() returns once the writer stage has closed and checkpointed
    # the archive.
    result = pipeline.run(streams)
    ended = time.perf_counter()
    cpu_s = time.process_time() - cpu_started
    edges = [started] + seals
    run_span = spans.add("collect.run", started, ended, parent)
    for before, after in zip(edges, edges[1:]):
        spans.add("collect.segment", before, after, run_span)
    return CollectRepeat(
        ended - started, cpu_s,
        [after - before for before, after in zip(edges, edges[1:])],
        archive, result, check.output_digests(directory))


def collect_section(streams: dict, seconds: float, gill: bool, tmp: str,
                    spans: Spans, parent: Optional[int] = None
                    ) -> List[CollectRepeat]:
    """Whole collections, as many as bring the measured time closest
    to ``seconds``: one at the frozen sizes today, more once the
    collector gets faster.  Only the first repeat's archive is kept."""
    repeats: List[CollectRepeat] = []
    measured = 0.0
    while not repeats or measured + repeats[-1].wall_s / 2 < seconds:
        directory = tempfile.mkdtemp(prefix="collect-", dir=tmp)
        repeats.append(collect_once(streams, directory, gill, spans,
                                    parent))
        measured += repeats[-1].wall_s
        if len(repeats) > 1:
            shutil.rmtree(directory)
    return repeats


def check_repeats(stream: list, repeats: List[CollectRepeat], gill: bool
                  ) -> List[str]:
    """The first repeat is checked against the input; every later one
    must reproduce its segments and journals byte for byte."""
    first = repeats[0]
    errors = check.check_collect(stream, first.archive,
                                 first.result.metrics,
                                 first.result.accounted, gill)
    for index, repeat in enumerate(repeats[1:], 1):
        errors += check.check_repeat(first.digests, repeat.digests, index)
    return errors


def _is_sidecar(name: str) -> bool:
    return name.endswith(".idx") or name in check.JOURNALS \
        or name == "CHECKPOINT.json"


def storage_metrics(directory: str, offered: int) -> Dict[str, float]:
    return {
        "archive_bytes_per_update":
            dir_bytes(directory, is_segment) / offered,
        "sidecar_bytes_per_update":
            dir_bytes(directory, _is_sidecar) / offered,
    }


def section_summary(ops_per_s: float, cpu_us_per_op: float,
                    latencies_s: List[float], wall_s: float) -> dict:
    """What every timed section reports, collect or serve: the three
    end-to-end timing metrics, and ``extra`` figures for the per-layer
    pass and the human-readable report."""
    return {
        "metrics": {
            "ops_per_s": ops_per_s,
            "cpu_us_per_op": cpu_us_per_op,
            "latency_p50_ms": percentile(latencies_s, 0.50) * 1e3,
        },
        "extra": {
            "latency_p95_ms": percentile(latencies_s, 0.95) * 1e3,
            "latency_p99_ms": percentile(latencies_s, 0.99) * 1e3,
            "latency_samples": len(latencies_s),
            "wall_s": wall_s,
        },
    }


def collect_summary(repeats: List[CollectRepeat], offered: int) -> dict:
    """Medians over the repeats; seal gaps pooled over all of them."""
    rates = [offered / r.wall_s for r in repeats]
    summary = section_summary(
        median(rates),
        median([r.cpu_s / offered * 1e6 for r in repeats]),
        [gap for repeat in repeats for gap in repeat.seal_gaps_s],
        sum(r.wall_s for r in repeats))
    summary["extra"].update(repeats=len(repeats),
                            ops_per_s_q1=percentile(rates, 0.25),
                            ops_per_s_q3=percentile(rates, 0.75))
    return summary


def slices_cpu_us_per_op(plain: dict, with_spans: dict) -> float:
    """What ``pipeline.unattributed_share`` sets the replayed layers
    against: the mean over both end-to-end slices of a traced pass,
    because the host's speed can change between a slice and the replay."""
    return (plain["metrics"]["cpu_us_per_op"]
            + with_spans["metrics"]["cpu_us_per_op"]) / 2.0


def traced_pass_metrics(plain: dict, with_spans: dict) -> dict:
    """The per-layer metrics that come from the two end-to-end slices
    of a traced pass rather than from the staged replay."""
    return {
        "e2e.latency_p95_ms": with_spans["extra"]["latency_p95_ms"],
        "client.latency_p99_ms": with_spans["extra"]["latency_p99_ms"],
        "trace.overhead_share": plain["metrics"]["ops_per_s"]
        / with_spans["metrics"]["ops_per_s"] - 1.0,
        "e2e.wall_s": with_spans["extra"]["wall_s"],
    }


def run_collect(workload: Workload, args, tmp: str) -> dict:
    from repro.workload import split_by_vp

    duration_s = workload.smoke_duration_s if args.smoke \
        else workload.duration_s
    spans = Spans(enabled=bool(args.trace))

    def set_up() -> Tuple[list, dict]:
        with spans.span("workload.generate"):
            stream = make_stream(workload.shape, duration_s, args.seed)
            return stream, split_by_vp(stream)

    (stream, streams), setup_times = repeated_setup(
        set_up, once=bool(args.trace or args.smoke))
    offered = len(stream)

    if not args.trace:
        repeats = collect_section(streams, args.seconds, workload.gill,
                                  tmp, Spans(False))
        summary = collect_summary(repeats, offered)
        metrics = summary["metrics"]
        metrics.update(storage_metrics(repeats[0].archive.directory,
                                       offered))
        metrics["setup_s"] = median(setup_times)
        # Before the checks read the archive back into memory.
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = check_repeats(stream, repeats, workload.gill)
    else:
        slice_s = args.seconds * TRACE_SLICE_SHARE
        untraced = collect_section(streams, slice_s, workload.gill, tmp,
                                   Spans(False))
        with spans.span("collect.section") as section:
            traced = collect_section(streams, slice_s, workload.gill,
                                     tmp, spans, section)
        shutil.rmtree(traced[0].archive.directory)
        repeats = untraced + traced
        errors = check_repeats(stream, repeats, workload.gill)
        plain = collect_summary(untraced, offered)
        summary = collect_summary(traced, offered)
        metrics = layers.per_layer_metrics(
            stream, seed=args.seed, tmp=tmp, spans=spans,
            gill_on_path=workload.gill, kind="collect",
            e2e_cpu_us_per_op=slices_cpu_us_per_op(plain, summary),
            generate_s=median(setup_times))
        metrics.update(traced_pass_metrics(plain, summary))

    lost = sum(offered - repeat.result.metrics.written
               for repeat in repeats)
    return {
        "attempted": offered * len(repeats),
        # A failed check fails at least one operation.
        "failed": max(lost, len(errors)),
        "errors": errors,
        "metrics": metrics,
        "spans": spans,
        "info": dict(summary["extra"], offered=offered),
    }


# -- serve --------------------------------------------------------------------

@dataclass
class ServeSetup:
    stream: list
    archive: object         # the RollingArchiveWriter that built it
    server: serving.ServerProcess
    generate_s: float


def serve_setup(workload: Workload, args, tmp: str, spans: Spans
                ) -> ServeSetup:
    """Generate the ``wide`` stream, build its archive with the
    production writer settings, start the server, wait for /readyz."""
    duration_s = workload.smoke_duration_s if args.smoke \
        else workload.duration_s
    started = time.perf_counter()
    with spans.span("workload.generate"):
        stream = make_stream(workload.shape, duration_s, args.seed)
    generate_s = time.perf_counter() - started
    directory = tempfile.mkdtemp(prefix="serve-", dir=tmp)
    with spans.span("setup.build_archive"):
        archive = archive_writer(directory)
        archive.write_stream(stream)
        archive.close()
    with spans.span("setup.server_ready"):
        server = serving.ServerProcess(
            directory, os.path.join(directory, "server.log"),
            kill_after_s=args.kill_after_s)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
    return ServeSetup(stream, archive, server, generate_s)


def serve_section(setup: ServeSetup, kind: str, seed: int,
                  seconds: float, mix: serving.QueryMix,
                  oracle: check.ServeOracle, spans: Spans,
                  parent: Optional[int] = None) -> dict:
    """One closed-loop section against the running server."""
    cpu_before = setup.server.cpu_s()
    responses, wall_s = serving.closed_loop(
        setup.server, mix, kind, seed, seconds, spans, parent)
    cpu_s = setup.server.cpu_s() - cpu_before
    latencies = [r.latency_s for r in responses]
    summary = section_summary(
        len(responses) / wall_s, cpu_s / len(responses) * 1e6,
        latencies, wall_s)
    summary["requests"] = len(responses)
    summary["http_5xx"] = sum(r.status >= 500 for r in responses)
    summary["errors"] = [e for response in responses
                         for e in oracle.check(response)]
    return summary


def run_serve(workload: Workload, args, tmp: str) -> dict:
    spans = Spans(enabled=bool(args.trace))

    def set_up() -> ServeSetup:
        with spans.span("setup"):
            return serve_setup(workload, args, tmp, spans)

    def tear_down(setup: ServeSetup) -> None:
        setup.server.stop()
        shutil.rmtree(setup.archive.directory)

    setup, setup_times = repeated_setup(
        set_up, tear_down, once=bool(args.trace or args.smoke))
    try:
        mix = serving.QueryMix(setup.stream)
        oracle = check.ServeOracle(setup.stream)
        serving.warm_up(setup.server, mix, workload.query, args.seed)
        if not args.trace:
            summary = serve_section(setup, workload.query, args.seed,
                                    args.seconds, mix, oracle,
                                    Spans(False))
            sections = [summary]
            metrics = summary["metrics"]
            metrics["setup_s"] = median(setup_times)
            metrics["peak_rss_mb"] = setup.server.peak_rss_mb()
            metrics.update(storage_metrics(setup.archive.directory,
                                           len(setup.stream)))
        else:
            slice_s = args.seconds * TRACE_SLICE_SHARE
            plain = serve_section(setup, workload.query, args.seed,
                                  slice_s, mix, oracle, Spans(False))
            with spans.span("serve.section") as parent:
                summary = serve_section(
                    setup, workload.query, args.seed + 1, slice_s, mix,
                    oracle, spans, parent)
            sections = [plain, summary]
            conn = setup.server.connect()
            shed = serving.shed_total(conn)
            conn.close()
    finally:
        exit_code = setup.server.stop()
    errors = [e for section in sections for e in section["errors"]]
    if exit_code != 0:
        errors.append(f"server exited with {exit_code} on SIGTERM")
    if args.trace:
        metrics = layers.per_layer_metrics(
            setup.stream, seed=args.seed, tmp=tmp, spans=spans,
            gill_on_path=False, kind="serve", query=workload.query,
            e2e_cpu_us_per_op=slices_cpu_us_per_op(plain, summary),
            generate_s=setup.generate_s, served=setup.archive)
        metrics.update(traced_pass_metrics(plain, summary))
        # Under the workload's own two-client load, not the replay's
        # single connection.
        metrics["query.server.shed_total"] += shed
        metrics["query.server.http_5xx_total"] += sum(
            section["http_5xx"] for section in sections)
    attempted = sum(section["requests"] for section in sections)
    return {
        "attempted": attempted,
        "failed": min(attempted, len(errors)),
        "errors": errors,
        "metrics": metrics,
        "spans": spans,
        "info": dict(summary["extra"], offered=len(setup.stream),
                     requests=attempted),
    }


# -- child entry point --------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True,
                        help="scratch directory (removed by the parent)")
    parser.add_argument("--kill-after-s", type=float, default=150.0,
                        help="hard kill for the server subprocess")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run = run_collect if workload.kind == "collect" else run_serve
    outcome = run(workload, args, args.tmp)
    spans: Spans = outcome.pop("spans")
    failed_share = outcome["failed"] / outcome["attempted"]
    if args.trace:
        outcome["metrics"]["e2e.failed_ops_share"] = failed_share
        with spans.span("cluster.flood_probe"):
            outcome["metrics"]["cluster.flood_probe_ok"] = \
                layers.flood_probe(smoke=args.smoke)
        spans.write(os.path.join(RESULTS_DIR,
                                 f"trace-{workload.name}.json"))
    else:
        outcome["info"]["failed_ops_share"] = failed_share
    outcome["errors"] = outcome["errors"][:5]
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
