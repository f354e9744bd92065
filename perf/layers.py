"""The per-layer pass: a staged replay of one workload's input.

Each stage calls one module's public functions over the workload's
own input stream, single-threaded and one layer at a time, with a
span around every call; counters come from the public snapshots
(``PipelineMetricsSnapshot``, ``GillStage.summary()``,
``engine.stats_snapshot()``, ``/status``, ``/metrics?format=json``).
Every workload reports every layer, whether or not its end-to-end path
runs through it — ``_attributed_us_per_op`` says which layers add up to
the workload's CPU, and ``pipeline.unattributed_share`` is what they
leave unexplained.
"""

from __future__ import annotations

import bz2
import json
import os
import random
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

import serving
from common import PERF_DIR, SCENARIO_SEED, Spans, archive_writer, \
    collection_pipeline, dir_bytes, median, run_in_group

#: ``GillStage.offer`` costs grow with the state it has accumulated, so
#: workloads that do not run gill replay it over a bounded head of
#: their stream.
GILL_REPLAY_UPDATES = 2500
#: Layers off a workload's path replay this long a head of its input
#: (all of ``collect_filtered``'s; the first 16 segments of the serve
#: workloads' ``wide`` stream).  A collect workload's on-path layers —
#: gill where it runs, the sealed write and what a seal does per
#: segment — replay all of it, because their cost per update depends on
#: the length of the run.  The runtime skeleton replays the head: with
#: no archive to hold it back it behaves unlike the same threads inside
#: the real run once the input is long (34-76 us per update in
#: isolation against the ~25 us the real run leaves for it).
REPLAY_UPDATES = 16000
SKELETON_RUNS = 3
#: Envelopes per cluster wire frame (``PipelineConfig.ipc_batch``).
WIRE_BATCH = 256
#: Updates per JSON body timed for ``query.server.json_us_per_update``
#: (median of ``JSON_RUNS`` bodies).
JSON_BODY_UPDATES = 2000
JSON_RUNS = 5
N_ZIPF_REQUESTS = 400
N_UNCACHED_POINTS = 100
N_SCANS = 12
#: The ``processes`` flood probe: stream seconds, and its hard kill
#: (full run, smoke run).
PROBE_DURATION_S = 3600.0
PROBE_KILL_AFTER_S = (10.0, 3.0)


def _timed(spans: Spans, name: str, parent: Optional[int],
           call: Callable[[], object]):
    """Run ``call`` under a span; returns ``(result, seconds)``."""
    with spans.span(name, parent):
        started = time.perf_counter()
        result = call()
        return result, time.perf_counter() - started


def flood_probe(smoke: bool = False) -> int:
    """1 when a physical flood through ``backend="processes"`` returns
    from ``pipeline.run()`` before the hard kill, else 0.

    Runs alone, after everything else: under concurrent load the
    deadlock it looks for (README, finding 3) sometimes does not
    strike.
    """
    exit_code, _ = run_in_group(
        [sys.executable, os.path.join(PERF_DIR, "flood_probe.py"),
         str(SCENARIO_SEED), str(PROBE_DURATION_S)],
        PROBE_KILL_AFTER_S[smoke])
    return int(exit_code == 0)


def _codec(stream: list, spans: Spans, root: Optional[int]
           ) -> Dict[str, float]:
    from repro.bgp import mrt

    n = len(stream)
    blobs, encode_s = _timed(
        spans, "bgp.mrt.encode", root,
        lambda: [mrt.encode_update(u) for u in stream])
    payload = b"".join(blobs)
    decoded, decode_s = _timed(
        spans, "bgp.mrt.decode", root,
        lambda: list(mrt.decode_records(payload)))
    if decoded != stream:
        raise AssertionError("mrt round trip changed the stream")
    return {
        "bgp.mrt.encode_us_per_update": encode_s / n * 1e6,
        "bgp.mrt.decode_us_per_update": decode_s / n * 1e6,
        "bgp.mrt.bytes_per_update": len(payload) / n,
    }


def _queue_hop(stream: list, spans: Spans, root: Optional[int]
               ) -> Dict[str, float]:
    from repro.pipeline import BoundedQueue

    queue = BoundedQueue(1024)

    def hops() -> None:
        for low in range(0, len(stream), queue.capacity):
            chunk = stream[low:low + queue.capacity]
            for update in chunk:
                queue.put(update)
            for _ in chunk:
                queue.get()

    _, seconds = _timed(spans, "pipeline.queue_hop", root, hops)
    return {"pipeline.queue_hop_us_per_update": seconds / len(stream) * 1e6}


def _skeleton(stream: list, spans: Spans, root: Optional[int]
              ) -> Dict[str, float]:
    """The threaded runtime with no archive behind it: sessions,
    two queue hops, shard workers, the writer's reorder heap.

    26 threads hand the GIL around, and how they interleave changes
    the CPU they burn from 20 to 80 us per update between two runs of
    the same input: the median of ``SKELETON_RUNS`` is reported.
    """
    from repro.workload import split_by_vp

    streams = split_by_vp(stream)
    runs = []
    for _ in range(SKELETON_RUNS):
        pipeline = collection_pipeline(None, gill=False)
        cpu_started = time.process_time()
        result, _ = _timed(spans, "pipeline.skeleton", root,
                           lambda: pipeline.run(streams))
        runs.append((time.process_time() - cpu_started, result))
    cpu_s, result = sorted(runs, key=lambda run: run[0])[SKELETON_RUNS // 2]
    write = next(s for s in result.metrics.stages if s.name == "write")
    return {
        "pipeline.skeleton_us_per_update": cpu_s / len(stream) * 1e6,
        "pipeline.write_queue_high_water": write.queue_high_water,
        "pipeline.write_latency_p50_ms": write.latency_p50_s * 1e3,
    }


def _wire(stream: list, spans: Spans, root: Optional[int]
          ) -> Dict[str, float]:
    from repro.cluster import wire
    from repro.pipeline.stages import Envelope

    envelopes = [Envelope(u, u.vp, 0.0) for u in stream]
    batches = [envelopes[low:low + WIRE_BATCH]
               for low in range(0, len(envelopes), WIRE_BATCH)]
    frames, encode_s = _timed(
        spans, "cluster.wire.encode", root,
        lambda: [wire.encode_frame(sequence, 0, batch)
                 for sequence, batch in enumerate(batches)])
    _, decode_s = _timed(
        spans, "cluster.wire.decode", root,
        lambda: [wire.decode_frame(frame) for frame in frames])
    n = len(stream)
    return {
        "cluster.wire.encode_us_per_update": encode_s / n * 1e6,
        "cluster.wire.decode_us_per_update": decode_s / n * 1e6,
        "cluster.wire.bytes_per_update": sum(map(len, frames)) / n,
    }


def _gill(stream: list, tmp: str, spans: Spans, root: Optional[int]):
    """``GillStage`` alone: offer every update, flush, read counters.

    Returns the metrics and the kept stream.
    """
    from repro.gill import GillConfig, GillStage, gill_journal_path_for

    directory = tempfile.mkdtemp(prefix="gill-", dir=tmp)
    stage = GillStage(GillConfig(), vps=sorted({u.vp for u in stream}))
    stage.attach(archive_writer(directory))

    def offer_all() -> list:
        kept = []
        for update in stream:
            kept.extend(stage.offer(update))
        kept.extend(stage.flush())
        return kept

    kept, seconds = _timed(spans, "gill.offer", root, offer_all)
    summary = stage.summary()
    n = len(stream)
    return {
        "gill.offer_us_per_update": seconds / n * 1e6,
        "gill.rescores": summary["rescores"],
        "gill.dropped_share": summary["dropped_fraction"],
        "gill.journal_bytes_per_update":
            os.path.getsize(gill_journal_path_for(directory)) / n,
    }, kept


def _write_side(written: list, offered: int, tmp: str, spans: Spans,
                root: Optional[int]):
    """The archive writer, bare and then as production runs it.

    ``written`` is what reaches the writer (the gill-kept stream on
    the filtered path); per-update figures are per *offered* update so
    they add up against the end-to-end CPU.  Returns the metrics and
    the full-settings archive for the read-side stages.
    """
    bare = archive_writer(tempfile.mkdtemp(prefix="bare-", dir=tmp),
                          index=False, checkpoint=False)
    _, bare_s = _timed(
        spans, "bgp.archive.write", root,
        lambda: (bare.write_stream(written), bare.close()))

    archive = archive_writer(tempfile.mkdtemp(prefix="full-", dir=tmp))
    seals: List[float] = []
    with spans.span("bgp.archive.write_sealed", root) as parent:
        full_started = time.perf_counter()

        def timed(call, *args) -> float:
            """Time one writer call; one that returns a segment sealed."""
            started = time.perf_counter()
            sealed = call(*args)
            ended = time.perf_counter()
            if sealed is not None:
                seals.append(ended - started)
                spans.add("bgp.archive.seal", started, ended, parent)
            return ended

        for update in written:
            timed(archive.write, update)
        ended = timed(archive.close)
        full_s = ended - full_started
    return {
        "bgp.archive.write_us_per_update": bare_s / offered * 1e6,
        "bgp.archive.sealed_write_us_per_update": full_s / offered * 1e6,
        "bgp.archive.seal_ms_p50": median(seals) * 1e3,
        "bgp.archive.segments": len(archive.segments),
    }, archive


def _segments(archive, offered: int, spans: Spans, root: Optional[int]
              ) -> Dict[str, float]:
    """Per-segment costs over the sealed files: bz2 both ways, guard
    digests, index build and load."""
    from repro.guard.integrity import file_digests, verify_file
    from repro.query.index import build_index, load_index

    stored = sum(segment.count for segment in archive.segments)
    totals = dict.fromkeys(
        ("decompress", "compress", "digest", "verify", "build", "load"),
        0.0)
    raw_bytes = packed_bytes = 0
    for segment in archive.segments:
        with open(segment.path, "rb") as handle:
            packed = handle.read()
        raw, seconds = _timed(spans, "bgp.archive.bz2_decompress", root,
                              lambda: bz2.decompress(packed))
        totals["decompress"] += seconds
        totals["compress"] += _timed(
            spans, "bgp.archive.bz2_compress", root,
            lambda: bz2.compress(raw))[1]
        raw_bytes += len(raw)
        packed_bytes += len(packed)
        totals["digest"] += _timed(
            spans, "guard.digest", root,
            lambda: file_digests(segment.path))[1]
        reason, seconds = _timed(
            spans, "guard.verify", root,
            lambda: verify_file(segment.path, size=segment.size,
                                crc32=segment.crc32))
        if reason is not None:
            raise AssertionError(f"{segment.path} fails verification")
        totals["verify"] += seconds
        totals["build"] += _timed(
            spans, "query.index.build", root,
            lambda: build_index(segment.path, True, persist=False))[1]
        totals["load"] += _timed(
            spans, "query.index.load", root,
            lambda: load_index(segment.path))[1]
    n_segments = len(archive.segments)
    _, read_s = _timed(spans, "bgp.archive.read_range", root,
                       lambda: archive.read_range(0.0, float("inf")))
    return {
        "bgp.archive.bz2_compress_us_per_update":
            totals["compress"] / offered * 1e6,
        "bgp.archive.bz2_decompress_us_per_update":
            totals["decompress"] / stored * 1e6,
        "bgp.archive.read_range_us_per_update": read_s / stored * 1e6,
        "bgp.archive.compress_ratio": raw_bytes / packed_bytes,
        "guard.digest_us_per_segment":
            totals["digest"] / n_segments * 1e6,
        "guard.verify_us_per_segment":
            totals["verify"] / n_segments * 1e6,
        "query.index.build_us_per_update":
            totals["build"] / offered * 1e6,
        "query.index.bytes_per_update": dir_bytes(
            archive.directory, lambda name: name.endswith(".idx"))
            / offered,
        "query.index.load_ms_per_segment":
            totals["load"] / n_segments * 1e3,
    }


def _events(archive, offered: int, tmp: str, spans: Spans,
            root: Optional[int]) -> Dict[str, float]:
    from repro.events import EventPipeline, EventStore

    journal = os.path.join(tempfile.mkdtemp(prefix="events-", dir=tmp),
                           "events.jsonl")
    store = EventStore(journal)
    pipeline = EventPipeline(store=store)
    per_segment = [
        _timed(spans, "events.process_segment", root,
               lambda: pipeline.process_segment(segment))[1]
        for segment in archive.segments]
    size = os.path.getsize(journal) if os.path.exists(journal) else 0
    return {
        "events.segment_ms_p50": median(per_segment) * 1e3,
        "events.us_per_update": sum(per_segment) / offered * 1e6,
        "events.incidents": len(store),
        "events.journal_bytes_per_update": size / offered,
    }


def _read_side(stream: list, archive, seed: int, spans: Spans,
               root: Optional[int]) -> Dict[str, float]:
    """The same requests twice: straight into a ``QueryEngine``
    (cache off) and over HTTP into a ``serve`` subprocess."""
    from repro.query import QueryEngine, QuerySpec, update_to_json

    mix = serving.QueryMix(stream)
    rng = random.Random(f"{seed}/replay")
    zipf = [mix.draw("point", rng) for _ in range(N_ZIPF_REQUESTS)]
    points = mix.uncached_points(N_UNCACHED_POINTS)
    scans = [mix.draw("scan", rng) for _ in range(N_SCANS)]

    def spec_of(query: serving.Query) -> "QuerySpec":
        return QuerySpec(prefix=query.prefix, start=query.start,
                         end=query.end)

    metrics: Dict[str, float] = {}
    returned = {"point": 0, "scan": 0}       # updates in the answers
    with QueryEngine(archive.directory, cache_size=0) as engine:
        for query in points[:3]:        # load the index sidecars
            engine.query(spec_of(query))
        plan_s = [_timed(spans, "query.engine.plan", root,
                         lambda: engine.plan(spec_of(query)))[1]
                  for query in points]
        engine_s = {}
        for kind, queries in (("point", points), ("scan", scans)):
            before = engine.stats_snapshot()
            engine_s[kind] = []
            for query in queries:
                hits, seconds = _timed(
                    spans, f"query.engine.{kind}", root,
                    lambda: engine.query(spec_of(query)))
                engine_s[kind].append(seconds)
                returned[kind] += len(hits)
            after = engine.stats_snapshot()
            if kind == "point":
                in_range = (after.segments_considered
                            - before.segments_considered) \
                    - (after.segments_pruned_time
                       - before.segments_pruned_time)
                metrics["query.index.prune_share"] = (
                    after.segments_pruned_index
                    - before.segments_pruned_index) / max(1, in_range)
        total = engine.stats_snapshot()
        metrics.update({
            "query.engine.plan_us_p50": median(plan_s) * 1e6,
            "query.engine.point_ms_p50": median(engine_s["point"]) * 1e3,
            "query.engine.scan_ms_p50": median(engine_s["scan"]) * 1e3,
            "query.engine.segments_decoded_per_query":
                total.segments_decoded / total.queries,
            "query.engine.records_decoded_per_returned":
                total.records_decoded / max(1, total.records_returned),
            "query.engine.updates_per_scan": returned["scan"] / len(scans),
        })

    body = stream[:JSON_BODY_UPDATES]
    json_s = median(
        _timed(spans, "query.server.json", root,
               lambda: json.dumps({"updates": [update_to_json(u)
                                               for u in body]}))[1]
        for _ in range(JSON_RUNS))
    metrics["query.server.json_us_per_update"] = json_s / len(body) * 1e6

    server = serving.ServerProcess(
        archive.directory, os.path.join(archive.directory, "server.log"),
        kill_after_s=60.0)
    try:
        server.wait_ready()
        conn = server.connect()
        with spans.span("query.server.zipf", root):
            replies = [serving.request(conn, query, sampled=False)
                       for query in zipf]
        conn.request("GET", "/status")
        status = json.loads(conn.getresponse().read())
        metrics["query.engine.cache_hit_share"] = status["cache_hit_rate"]
        metrics["client.response_bytes_per_request.point"] = \
            sum(r.n_bytes for r in replies) / len(replies)
        server_errors = sum(reply.status >= 500 for reply in replies)
        for kind, queries in (("point", points), ("scan", scans)):
            with spans.span(f"query.server.{kind}", root) as parent:
                replies = [serving.request(conn, query, sampled=False)
                           for query in queries]
            for reply in replies:
                spans.add("client.request", reply.sent_at,
                          reply.sent_at + reply.latency_s, parent)
            server_errors += sum(reply.status >= 500 for reply in replies)
            http_p50 = median([r.latency_s for r in replies])
            metrics[f"query.server.overhead_ms_p50.{kind}"] = \
                (http_p50 - median(engine_s[kind])) * 1e3
            if kind == "scan":
                metrics["client.response_bytes_per_request.scan"] = \
                    sum(r.n_bytes for r in replies) / len(replies)
        metrics["query.server.shed_total"] = serving.shed_total(conn)
        # The server exports no per-status counter, so 5xx answers are
        # counted where they arrive.
        metrics["query.server.http_5xx_total"] = server_errors
        conn.close()
    finally:
        server.stop()
    return metrics


def _attributed_us_per_op(kind: str, query: str, gill_on_path: bool,
                          m: Dict[str, float]) -> float:
    """CPU per operation the on-path layers account for.

    collect: the runtime skeleton plus the sealed write, which already
    holds mrt encode, bz2, the guard digest, the index build and the
    checkpoint fsync; gill and events only where they run.  serve: the
    engine's work on a cache miss plus rendering the body — what is
    left is HTTP handling, admission, request tracing, cache lookups.
    """
    if kind == "collect":
        total = m["pipeline.skeleton_us_per_update"] \
            + m["bgp.archive.sealed_write_us_per_update"]
        if gill_on_path:
            total += m["gill.offer_us_per_update"] \
                + m["events.us_per_update"]
        return total
    if query == "scan":
        return m["query.engine.scan_ms_p50"] * 1e3 \
            + m["query.server.json_us_per_update"] \
            * m["query.engine.updates_per_scan"]
    return (1.0 - m["query.engine.cache_hit_share"]) \
        * m["query.engine.point_ms_p50"] * 1e3


def per_layer_metrics(stream: list, *, seed: int, tmp: str, spans: Spans,
                      gill_on_path: bool, kind: str,
                      e2e_cpu_us_per_op: float, generate_s: float,
                      query: str = "", served=None) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload
    (the driver reads all of them from every workload's traced run).

    See ``REPLAY_UPDATES`` for how much of the input each stage
    replays.  The read-side stages query ``served`` — the archive a
    serve workload built in set-up — or else an archive of the head.
    """
    head = stream[:REPLAY_UPDATES]
    on_path = stream if kind == "collect" else head
    metrics: Dict[str, float] = {"workload.generate_s": generate_s}
    with spans.span("replay") as root:
        metrics.update(_codec(head, spans, root))
        metrics.update(_queue_hop(head, spans, root))
        metrics.update(_wire(head, spans, root))
        metrics.update(_skeleton(head, spans, root))
        gill_metrics, kept = _gill(
            on_path if gill_on_path else head[:GILL_REPLAY_UPDATES],
            tmp, spans, root)
        metrics.update(gill_metrics)
        written = kept if gill_on_path else on_path
        write_metrics, archive = _write_side(written, len(on_path), tmp,
                                             spans, root)
        metrics.update(write_metrics)
        metrics.update(_segments(archive, len(on_path), spans, root))
        if len(written) > REPLAY_UPDATES:
            written = head
            archive = archive_writer(
                tempfile.mkdtemp(prefix="head-", dir=tmp))
            archive.write_stream(head)
            archive.close()
        metrics.update(_events(archive, min(len(on_path), REPLAY_UPDATES),
                               tmp, spans, root))
        if served is not None:
            written, archive = stream, served
        metrics.update(_read_side(written, archive, seed, spans, root))
    metrics["pipeline.unattributed_share"] = 1.0 - _attributed_us_per_op(
        kind, query, gill_on_path, metrics) / e2e_cpu_us_per_op
    return metrics
