"""Command-line interface: ``repro-bgp <command>``.

Gives operators the platform's everyday verbs without writing Python:

* ``generate``    — produce a synthetic RIS/RV-like stream as an MRT archive
* ``inspect``     — summarize an archive (VPs, prefixes, redundancy)
* ``sample``      — run GILL's sampling on an archive; write the retained
                    archive plus the public filters/anchors documents
* ``orchestrate`` — replay an archive through the orchestrator control loop
* ``pipeline``    — replay an archive through the concurrent collection
                    runtime (sharded sessions, bounded queues, live
                    metrics, optional fault injection)
* ``recover``     — recover a checkpointed archive directory after a
                    crash (delete torn segments, report the watermark)
* ``scrub``       — verify every segment against its manifest digests,
                    quarantine mismatches, rebuild missing or torn
                    sidecar indexes (docs/FAULTS.md)
* ``serve``       — serve an archive directory over the JSON query
                    API (indexed per-prefix/VP/origin lookups, RIB
                    snapshots, the event store's ``/moas``,
                    ``/hijacks`` and ``/events`` incidents, plus a
                    Prometheus ``/metrics`` endpoint)
* ``events``      — query or tail an archive's event journal and
                    render incident tables and reports (docs/EVENTS.md)
* ``top``         — live terminal dashboard polling a running
                    ``serve`` instance's ``/metrics`` endpoint
* ``growth``      — print the Figs. 2-3 historical series
* ``survey``      — print the §16 survey (Table 4)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .bgp.message import BGPUpdate
from .bgp.mrt import read_archive, write_archive
from .bgp.rib import annotate_stream
from .core.filters import anchors_document, filters_document
from .core.orchestrator import Orchestrator, OrchestratorConfig
from .core.redundancy import RedundancyDefinition, update_redundancy
from .core.sampler import GillSampler
from .platform.survey import render_table
from .workload.generator import StreamConfig, SyntheticStreamGenerator
from .workload.growth import growth_series


def _read_updates(path: str, compressed: bool) -> List[BGPUpdate]:
    records = read_archive(path, compressed)
    return [r for r in records if isinstance(r, BGPUpdate)]


def cmd_generate(args: argparse.Namespace) -> int:
    if args.scenario == "monitoring":
        from .simulation import monitoring_showcase

        # The showcase picks its attackers structurally; seed 0 is the
        # generate default, so map it to the scenario's own default.
        scenario, truth = monitoring_showcase(seed=args.seed or 7)
        count = write_archive(scenario.stream, args.output,
                              compress=not args.no_compress)
        print(f"wrote {count} updates (monitoring showcase) "
              f"to {args.output}")
        print(f"  forged-origin hijack: AS{truth.forged_attacker} "
              f"on {truth.forged_prefix}")
        print(f"  origin hijack (MOAS): AS{truth.moas_attacker} "
              f"on {truth.moas_prefix}")
        print(f"  sub-prefix hijack:    AS{truth.subprefix_attacker} "
              f"on {truth.subprefix}")
        print(f"  mass withdrawal:      "
              f"{len(truth.withdrawn_prefixes)} prefixes")
        print(f"  flap storm:           {truth.flap_prefix}")
        return 0
    if args.scenario == "overshoot":
        from .workload.generator import overshoot_config

        generator = SyntheticStreamGenerator(overshoot_config(
            seed=args.seed, n_vps=args.vps, duration_s=args.duration))
        warmup, stream = generator.generate()
        updates = warmup + stream if args.include_warmup else stream
        count = write_archive(updates, args.output,
                              compress=not args.no_compress)
        print(f"wrote {count} updates ({len(generator.vps)} VPs, "
              f"overshoot scenario) to {args.output}")
        return 0
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=args.vps,
        n_prefix_groups=args.groups,
        duration_s=args.duration,
        seed=args.seed,
    ))
    warmup, stream = generator.generate()
    updates = warmup + stream if args.include_warmup else stream
    count = write_archive(updates, args.output,
                          compress=not args.no_compress)
    print(f"wrote {count} updates ({len(generator.vps)} VPs) "
          f"to {args.output}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    updates = _read_updates(args.archive, not args.no_compress)
    if not updates:
        print("archive holds no updates")
        return 0
    vps = {u.vp for u in updates}
    prefixes = {u.prefix for u in updates}
    start = min(u.time for u in updates)
    end = max(u.time for u in updates)
    print(f"{len(updates)} updates from {len(vps)} VPs over "
          f"{len(prefixes)} prefixes, time span "
          f"{start:.0f}..{end:.0f} ({end - start:.0f}s)")
    withdrawals = sum(1 for u in updates if u.is_withdrawal)
    print(f"withdrawals: {withdrawals} "
          f"({withdrawals / len(updates):.1%})")
    if args.redundancy:
        annotated = annotate_stream(
            sorted(updates, key=lambda u: u.time))
        for definition in RedundancyDefinition:
            report = update_redundancy(annotated, definition)
            print(f"redundant under Def. {definition.value}: "
                  f"{report.fraction:.1%}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    updates = _read_updates(args.archive, not args.no_compress)
    sampler = GillSampler(
        target_power=args.target_power,
        events_per_cell=args.events_per_cell,
        seed=args.seed,
    )
    result = sampler.run(updates)
    retained = result.sample(updates)
    print(f"component #1 retention: {result.component1.retention:.1%}  "
          f"anchors: {len(result.anchor_vps)}  "
          f"filters: {len(result.filters)} rules")
    print(f"retained {len(retained)}/{len(updates)} updates "
          f"({len(retained) / max(1, len(updates)):.1%})")
    if args.output:
        write_archive(retained, args.output,
                      compress=not args.no_compress)
        print(f"wrote retained updates to {args.output}")
    if args.filters_doc:
        with open(args.filters_doc, "w") as handle:
            handle.write(filters_document(result.filters))
        print(f"wrote filters document to {args.filters_doc}")
    if args.anchors_doc:
        with open(args.anchors_doc, "w") as handle:
            handle.write(anchors_document(result.anchor_vps))
        print(f"wrote anchors document to {args.anchors_doc}")
    return 0


def cmd_orchestrate(args: argparse.Namespace) -> int:
    from .bgp.validation import RouteValidator
    from .platform.status import collect_status, render_status

    updates = _read_updates(args.archive, not args.no_compress)
    updates.sort(key=lambda u: u.time)
    orchestrator = Orchestrator(
        OrchestratorConfig(
            component1_interval_s=args.refresh_interval,
            component2_interval_s=4 * args.refresh_interval,
            mirror_window_s=args.mirror_window,
            events_per_cell=args.events_per_cell,
        ),
        validator=RouteValidator() if args.validate else None,
    )
    retained = orchestrator.process_stream(updates)
    stats = orchestrator.stats
    print(f"received {stats.received}  retained {stats.retained} "
          f"({stats.retention:.1%})  discarded {stats.discarded}")
    print(f"component #1 runs: {stats.component1_runs}  "
          f"component #2 runs: {stats.component2_runs}  "
          f"anchors: {len(orchestrator.anchor_vps)}")
    if args.status:
        print()
        print(render_status(
            collect_status(orchestrator, updates, retained)), end="")
    if args.output:
        write_archive(retained, args.output,
                      compress=not args.no_compress)
        print(f"wrote retained updates to {args.output}")
    return 0


def _add_gill_flags(p: argparse.ArgumentParser) -> None:
    """``--gill`` and its tuning flags, shared by pipeline and merge."""
    p.add_argument("--gill", action="store_true",
                   help="filter redundant updates online ahead of the "
                        "archive writer (pipeline: requires "
                        "--archive-dir; docs/GILL.md)")
    p.add_argument("--filter-def", type=int, choices=(1, 2, 3),
                   default=1,
                   help="redundancy definition for --gill (1 = "
                        "prefix+time, 2 = +AS path, 3 = +communities)")
    p.add_argument("--keep",
                   help="comma-separated VPs that always bypass the "
                        "gill filter (on top of the auto anchors)")
    p.add_argument("--gill-max-anchors", type=int, default=None,
                   help="cap the auto-selected anchor set size")


def _gill_config(args: argparse.Namespace):
    """The ``GillConfig`` the ``--gill`` flags ask for (None without
    ``--gill``); raises ``ValueError`` on flags that need it."""
    if not args.gill:
        if args.keep or args.gill_max_anchors is not None:
            raise ValueError("--keep/--gill-max-anchors require --gill")
        return None
    from .gill import GillConfig

    keep = tuple(v for v in (args.keep or "").split(",") if v)
    return GillConfig(definition=args.filter_def, keep=keep,
                      max_anchors=args.gill_max_anchors)


def _write_metrics(registry, path: str) -> None:
    """``--metrics``: the Prometheus exposition to a file or stdout."""
    text = registry.prometheus()
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote metrics exposition to {path}")


def cmd_pipeline(args: argparse.Namespace) -> int:
    from .bgp.archive import RollingArchiveWriter
    from .bgp.daemon import CPU_CAPACITY
    from .bgp.validation import RouteValidator
    from .pipeline import (
        CollectionPipeline,
        FaultPlan,
        PipelineConfig,
        ServiceCostModel,
        SupervisorConfig,
        render_metrics,
    )
    from .workload.streams import split_by_vp

    updates = _read_updates(args.archive, not args.no_compress)
    if not updates:
        print("archive holds no updates")
        return 0
    updates.sort(key=lambda u: (u.time, u.vp, u.prefix))

    filters = None
    if args.train_filters:
        result = GillSampler(seed=args.seed).run(updates)
        filters = result.filters
        print(f"trained {len(filters)} drop rules, "
              f"{len(result.anchor_vps)} anchors")

    archive = None
    if args.archive_dir:
        archive = RollingArchiveWriter(args.archive_dir,
                                       interval_s=args.interval,
                                       compress=not args.no_compress,
                                       checkpoint=args.checkpoint,
                                       index=args.index)
    elif args.checkpoint:
        print("--checkpoint requires --archive-dir", file=sys.stderr)
        return 2
    try:
        gill_config = _gill_config(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if gill_config is not None and archive is None:
        print("--gill requires --archive-dir", file=sys.stderr)
        return 2
    if args.metrics_jsonl and args.metrics_interval is None:
        print("--metrics-jsonl requires --metrics-interval",
              file=sys.stderr)
        return 2
    cost_model = None
    if args.model_cpu:
        cost_model = ServiceCostModel(args.capacity or CPU_CAPACITY)

    streams = split_by_vp(updates)
    fault_plan = None
    if args.faults:
        fault_plan = FaultPlan.parse(args.faults)
    elif args.chaos:
        fault_plan = FaultPlan.seeded(
            args.chaos_seed, sorted(streams), args.shards,
            horizon=max(2, len(updates) // max(1, len(streams))))
    if fault_plan:
        print(f"fault plan: {fault_plan.describe()}")

    pipeline = CollectionPipeline(
        PipelineConfig(
            n_shards=args.shards,
            ingest_queue_capacity=args.queue_capacity,
            overflow_policy=args.policy,
            time_scale=args.time_scale,
            cost_model=cost_model,
            fault_plan=fault_plan,
            supervision=SupervisorConfig(seed=args.seed),
            trace_sample_rate=args.trace_sample,
            metrics_interval_s=args.metrics_interval,
            metrics_jsonl=args.metrics_jsonl,
            gill=gill_config,
        ),
        filters=filters,
        validator=RouteValidator() if args.validate else None,
        archive=archive,
    )
    event_store = None
    if args.events:
        if archive is None:
            print("--events requires --archive-dir", file=sys.stderr)
            return 2
        from .events import EventPipeline, EventStore, journal_path_for

        event_store = EventStore(journal_path_for(args.archive_dir))
        event_pipeline = EventPipeline(
            store=event_store, registry=pipeline.metrics.registry)
        try:
            event_pipeline.attach(archive)
        except ValueError as exc:
            print(f"cannot attach event pipeline: {exc}",
                  file=sys.stderr)
            return 2
    result = pipeline.run(streams)
    print(render_metrics(result.metrics, per_session=args.per_session),
          end="")
    for event in result.fault_log:
        print(f"fault fired: {event}")
    if archive is not None:
        print(f"wrote {len(result.segments)} segments to "
              f"{args.archive_dir}")
    if pipeline.gill is not None:
        info = pipeline.gill.summary()
        print(f"gill (definition {info['definition']}): "
              f"dropped {info['dropped']} of "
              f"{info['kept'] + info['dropped']} updates "
              f"({info['dropped_fraction']:.1%}), "
              f"{info['rescores']} rescores, "
              f"keep-list {len(info['keep_list'])} VPs")
    if event_store is not None:
        from .events import render_store_summary
        print(render_store_summary(event_store))
    if args.slow_traces:
        from .telemetry import render_slow_traces
        print(render_slow_traces(
            pipeline.metrics.tracer.to_json(args.slow_traces)["traces"]),
            end="")
    if args.metrics_jsonl:
        points = len(pipeline.sampler.points()) if pipeline.sampler \
            else 0
        print(f"wrote {points} time-series points to "
              f"{args.metrics_jsonl}")
    if args.metrics_out:
        _write_metrics(pipeline.metrics.registry, args.metrics_out)
    if not result.accounted:
        print("WARNING: pipeline lost queued updates", file=sys.stderr)
        return 1
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from .cluster import PartitionError, merge_archives
    from .telemetry import MetricsRegistry

    try:
        gill_config = _gill_config(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    event_pipeline = None
    event_store = None
    if args.events:
        from .events import EventPipeline, EventStore, journal_path_for

        event_store = EventStore(journal_path_for(args.out))
        event_pipeline = EventPipeline(store=event_store,
                                       registry=registry)
    try:
        report = merge_archives(args.parts, args.out,
                                gill=gill_config,
                                events=event_pipeline,
                                registry=registry)
    except PartitionError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    print(f"merged {report.partitions} partitions "
          f"({report.empty_partitions} empty): {report.updates} updates "
          f"into {len(report.segments)} segments at {args.out}")
    print(f"max partition-head lag {report.max_lag_s:.1f}s stream time, "
          f"merge took {report.duration_s:.2f}s")
    if event_store is not None:
        from .events import render_store_summary
        print(render_store_summary(event_store))
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from .bgp.archive import RollingArchiveWriter

    archive = RollingArchiveWriter(args.directory,
                                   interval_s=args.interval,
                                   compress=not args.no_compress,
                                   checkpoint=True)
    report = archive.recover()
    for name in report.torn_removed:
        print(f"deleted torn segment {name}")
    watermark = "none" if report.watermark is None \
        else f"{report.watermark:.0f}"
    print(f"recovered: {report.segments} durable segments, "
          f"watermark {watermark}")
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    import os

    from .events import EventStore, journal_path_for
    from .guard import IntegrityGuard, scrub_directory

    events_store = None
    journal = journal_path_for(args.directory)
    if os.path.exists(journal):
        # Quarantines journal integrity incidents next to hijacks.
        events_store = EventStore(journal)
    guard = IntegrityGuard(args.directory, events=events_store)
    report = scrub_directory(
        args.directory,
        compressed=False if args.no_compress else None,
        guard=guard,
        rebuild_indexes=not args.no_rebuild_indexes)
    for name, reason in report.quarantined:
        print(f"quarantined {name} ({reason})")
    already = f", {report.skipped} already quarantined" \
        if report.skipped else ""
    healed = f", {report.indexes_rebuilt} indexes rebuilt" \
        if report.indexes_rebuilt else ""
    print(f"scrubbed {report.checked} segments in "
          f"{report.duration_s:.2f}s: {report.intact} intact, "
          f"{len(report.quarantined)} quarantined{already}{healed}")
    if not report.clean:
        print(f"quarantine directory: "
              f"{os.path.join(args.directory, 'quarantine')}")
    if args.strict and not report.clean:
        return 1
    return 0


#: Endpoints the ``serve --smoke`` self-test exercises, with the
#: statuses each may legitimately answer (``/rib`` 404s when the
#: archive holds no RIB dump; ``/moas``, ``/hijacks`` and ``/events``
#: when it has no event journal).
_SMOKE_ENDPOINTS = (
    ("/healthz", (200,)),
    ("/readyz", (200,)),
    ("/updates?limit=5", (200,)),
    ("/vps", (200,)),
    ("/vps?limit=5&sort=updates", (200,)),
    ("/vps?sort=value", (200, 400)),
    ("/rib", (200, 404)),
    ("/moas", (200, 404)),
    # The retired source selector is an unknown parameter like any
    # other (split so a grep for the old path finds only this note).
    ("/moas?source="
     "scan", (400,)),
    ("/hijacks", (200, 404)),
    ("/events", (200, 404)),
    ("/events?state=resolved&limit=5", (200, 404)),
    ("/status", (200,)),
    ("/metrics", (200,)),
    ("/metrics?format=json", (200,)),
    ("/debug/traces", (200,)),
)


def cmd_serve(args: argparse.Namespace) -> int:
    from .guard import IntegrityGuard
    from .pipeline import PipelineMetrics
    from .query import QueryAPIServer, QueryEngine

    # A full PipelineMetrics hub (not just QueryStats) backs the
    # engine's counters, so /metrics exposes the pipeline, fault
    # supervision and trace families too — zeroed in a standalone
    # server, live when a collection runtime shares the registry.
    metrics = PipelineMetrics()
    # Event store: auto-attach when the archive carries a journal,
    # forced on/off with --events / --no-events.
    import os

    from .events import EventPipeline, EventStore, journal_path_for

    journal = journal_path_for(args.directory)
    journaled = os.path.exists(journal)
    backfill = bool(args.events) and not journaled
    events_store = None
    if args.events or (args.events is None and journaled):
        events_store = EventStore(journal)
    # One guard instance is shared by the engine's read path, the
    # background scrubber and /readyz, so every quarantine shows up
    # everywhere at once (and as an /events integrity incident).
    guard = IntegrityGuard(args.directory,
                           registry=metrics.registry,
                           events=events_store)
    engine = QueryEngine(
        args.directory,
        compressed=False if args.no_compress else None,
        persist_indexes=not args.no_persist_indexes,
        stats=metrics.query,
        guard=guard,
    )
    segments = engine.catalog.segments()
    if not segments:
        print(f"no archive segments under {args.directory}",
              file=sys.stderr)
        return 2
    if backfill:
        # --events on an archive collected without them: build the
        # missing journal once, with the collector's own function of
        # the sealed segments (byte-identical to `pipeline --events`).
        EventPipeline(store=events_store).sync(segments)
    # Gill drop journal: auto-attach when the archive was written with
    # --gill, so /vps can rank VPs by filter value.
    gill_journal = None
    from .gill import GillJournal, gill_journal_path_for

    gill_path = gill_journal_path_for(args.directory)
    if os.path.exists(gill_path):
        gill_journal = GillJournal(gill_path)
        gill_journal.load()
    scrub_interval = None if args.no_scrub else args.scrub_interval
    server = QueryAPIServer(engine, host=args.host, port=args.port,
                            quiet=not args.verbose,
                            events=events_store,
                            gill=gill_journal,
                            guard=guard,
                            max_concurrent=args.max_concurrent,
                            queue_limit=args.queue_limit,
                            request_timeout_s=args.request_timeout,
                            scrub_interval_s=scrub_interval)
    watermark = engine.watermark()
    print(f"serving {len(segments)} segments "
          f"(watermark {watermark:.0f}) from {args.directory} "
          f"on {server.url}")
    if events_store is not None:
        print(f"event store: {len(events_store)} incidents "
              f"from {events_store.path}"
              + (f" (built from {len(segments)} segments)"
                 if backfill else ""))
    if gill_journal is not None:
        totals = gill_journal.totals()
        print(f"gill journal: {len(gill_journal)} slot records "
              f"({totals['dropped']} updates dropped) from {gill_path}")
    if args.smoke:
        # Self-test mode for CI: hit every endpoint once, report, exit.
        import urllib.error
        import urllib.request

        server.start()
        failures = 0
        try:
            for endpoint, accepted in _SMOKE_ENDPOINTS:
                try:
                    with urllib.request.urlopen(
                            server.url + endpoint, timeout=30) as reply:
                        status = reply.status
                        body = reply.read()
                except urllib.error.HTTPError as exc:
                    status, body = exc.code, exc.read()
                verdict = "ok" if status in accepted else "FAIL"
                failures += verdict == "FAIL"
                print(f"  {verdict} {status} {endpoint} "
                      f"({len(body)} bytes)")
        finally:
            server.stop()
            engine.close()
        return 1 if failures else 0
    import signal

    # SIGTERM (the orchestrator's stop signal) drains gracefully:
    # new requests get a fast 503 while in-flight ones finish, then
    # the serve loop exits and we fall through to cleanup.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: server.request_shutdown())
    try:
        server.serve_forever()
        print("\ndrained and stopped")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        engine.close()
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    import os
    import time

    from .events import (
        EventStore,
        journal_path_for,
        render_event_report,
        render_event_table,
        render_store_summary,
    )

    path = journal_path_for(args.directory) \
        if os.path.isdir(args.directory) else args.directory
    if not os.path.exists(path):
        print(f"no event journal at {path} "
              "(collect with repro-bgp pipeline --events)",
              file=sys.stderr)
        return 2
    store = EventStore(path)

    if args.id:
        event = store.get(args.id)
        if event is None:
            print(f"no event {args.id!r}", file=sys.stderr)
            return 1
        print(render_event_report(event))
        return 0

    def matching():
        return store.query(
            type=args.type, prefix=args.prefix, origin=args.origin,
            start=args.start, end=args.end, state=args.state,
            limit=args.limit)

    try:
        hits = matching()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.report:
        for event in hits:
            print(render_event_report(event))
            print()
    else:
        print(render_event_table(hits))
    print(render_store_summary(store))

    if not args.follow:
        return 0
    # Tail mode: re-render whenever another process appends to the
    # journal (a live pipeline sealing segments).
    iterations = 0
    try:
        while args.iterations is None or iterations < args.iterations:
            time.sleep(args.interval)
            iterations += 1
            changed = store.refresh()
            if not changed:
                continue
            touched = [e for e in matching() if e.id in set(changed)]
            if not touched:
                continue
            print()
            if args.report:
                for event in touched:
                    print(render_event_report(event))
            else:
                print(render_event_table(touched))
            print(render_store_summary(store))
    except KeyboardInterrupt:
        print()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    import urllib.error
    import urllib.request

    from .telemetry import render_request_traces

    url = args.target if "://" in args.target \
        else f"http://{args.target}"
    url = url.rstrip("/") + f"/debug/traces?n={args.limit}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as reply:
            document = json.loads(reply.read())
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"cannot fetch {url}: {exc}", file=sys.stderr)
        return 2
    print(render_request_traces(document), end="")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .telemetry import TopDashboard

    dashboard = TopDashboard(args.target, interval_s=args.interval)
    if args.once:
        print(dashboard.render_once(), end="")
        return 0
    try:
        dashboard.run(iterations=args.iterations,
                      clear=not args.no_clear)
    except KeyboardInterrupt:
        print()
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    for point in growth_series(args.start, args.end):
        print(f"{point.year}: RIS {point.ris_vp_ases:4.0f} AS  "
              f"RV {point.rv_vp_ases:4.0f} AS  "
              f"coverage {point.coverage:5.2%}  "
              f"per-VP {point.updates_per_vp:6.0f}/h  "
              f"total {point.total_updates / 1e6:6.1f}M/h")
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    print(render_table(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description="GILL reproduction toolkit (SIGCOMM 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic archive")
    p.add_argument("output")
    p.add_argument("--scenario",
                   choices=("synthetic", "monitoring", "overshoot"),
                   default="synthetic",
                   help="'monitoring' seeds the five-incident event "
                        "showcase (docs/EVENTS.md); 'overshoot' seeds "
                        "redundant VP clusters plus a few uniquely "
                        "valuable VPs for gill filtering (docs/GILL.md)")
    p.add_argument("--vps", type=int, default=30)
    p.add_argument("--groups", type=int, default=20)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-warmup", action="store_true")
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("inspect", help="summarize an archive")
    p.add_argument("archive")
    p.add_argument("--redundancy", action="store_true",
                   help="also measure Def. 1-3 redundancy")
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("sample", help="run GILL's sampling")
    p.add_argument("archive")
    p.add_argument("--output")
    p.add_argument("--filters-doc")
    p.add_argument("--anchors-doc")
    p.add_argument("--target-power", type=float, default=0.94)
    p.add_argument("--events-per-cell", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("orchestrate",
                       help="replay through the control loop")
    p.add_argument("archive")
    p.add_argument("--output")
    p.add_argument("--refresh-interval", type=float, default=900.0)
    p.add_argument("--mirror-window", type=float, default=600.0)
    p.add_argument("--events-per-cell", type=int, default=10)
    p.add_argument("--status", action="store_true",
                   help="print the per-peer status page afterwards")
    p.add_argument("--validate", action="store_true",
                   help="screen the stream with the route validator")
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_orchestrate)

    p = sub.add_parser("pipeline",
                       help="replay through the concurrent runtime")
    p.add_argument("archive")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--queue-capacity", type=int, default=1024)
    p.add_argument("--policy", choices=("drop", "block"), default="block")
    p.add_argument("--time-scale", type=float, default=None,
                   help="stream seconds per wall second (default: flood)")
    p.add_argument("--model-cpu", action="store_true",
                   help="charge Table-1 work units against a CPU budget")
    p.add_argument("--capacity", type=float, default=None,
                   help="modelled CPU capacity in work units/s")
    p.add_argument("--train-filters", action="store_true",
                   help="train GILL filters on the archive first")
    p.add_argument("--validate", action="store_true",
                   help="screen the stream with the route validator")
    p.add_argument("--archive-dir",
                   help="write retained updates as rolling MRT segments")
    p.add_argument("--interval", type=float, default=300.0,
                   help="archive segment interval in seconds")
    p.add_argument("--per-session", action="store_true",
                   help="print per-session ingest/drop rows")
    p.add_argument("--faults",
                   help="inject faults: kind=target@at[xN][~dur], "
                        "comma-separated (e.g. disconnect=vp-1@50x2,"
                        "stall=shard0@40~inf,io-error=writer@2)")
    p.add_argument("--chaos", action="store_true",
                   help="inject a seeded random fault plan")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for the --chaos fault plan")
    p.add_argument("--checkpoint", action="store_true",
                   help="crash-consistent archive checkpointing "
                        "(requires --archive-dir)")
    p.add_argument("--index", action="store_true",
                   help="build query indexes at segment seal time "
                        "(the repro-bgp serve fast path)")
    p.add_argument("--events", action="store_true",
                   help="run the event-analysis pipeline on sealed "
                        "segments, journaling incidents next to the "
                        "archive (requires --archive-dir)")
    _add_gill_flags(p)
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="fraction of updates carrying a telemetry "
                        "trace span (0 disables tracing)")
    p.add_argument("--slow-traces", type=int, default=0,
                   help="print the N slowest sampled spans afterwards")
    p.add_argument("--metrics", dest="metrics_out",
                   help="dump the Prometheus exposition to a file "
                        "('-' for stdout) after the run")
    p.add_argument("--metrics-interval", type=float, default=None,
                   help="sample the registry every N seconds while "
                        "running (enables the time-series layer)")
    p.add_argument("--metrics-jsonl",
                   help="append each time-series sample to this JSONL "
                        "file (requires --metrics-interval)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("merge",
                       help="merge partitioned partial archives into "
                            "the canonical combined archive")
    p.add_argument("parts",
                   help="directory holding part-<i> partial archives "
                        "(from partitioned collection)")
    p.add_argument("out", help="combined archive output directory")
    _add_gill_flags(p)
    p.add_argument("--events", action="store_true",
                   help="run event analysis on the merged segments, "
                        "journaling incidents next to the output")
    p.add_argument("--metrics", dest="metrics_out",
                   help="dump the Prometheus exposition to a file "
                        "('-' for stdout) after the merge")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("recover",
                       help="recover a checkpointed archive directory")
    p.add_argument("directory")
    p.add_argument("--interval", type=float, default=300.0,
                   help="archive segment interval in seconds")
    p.add_argument("--no-compress", action="store_true")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("scrub",
                       help="verify archive segments, quarantine rot")
    p.add_argument("directory",
                   help="archive directory (rolling MRT segments)")
    p.add_argument("--no-rebuild-indexes", action="store_true",
                   help="verify only; do not heal sidecar indexes")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any segment was quarantined")
    p.add_argument("--no-compress", action="store_true",
                   help="archive segments are uncompressed MRT")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("serve",
                       help="serve an archive over the JSON query API")
    p.add_argument("directory",
                   help="archive directory (rolling MRT segments)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8480,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--no-persist-indexes", action="store_true",
                   help="keep lazily built indexes in memory only")
    p.add_argument("--events", dest="events", action="store_true",
                   default=None,
                   help="attach the event store; when the archive "
                        "has no journal yet, build it once from the "
                        "sealed segments (default: attach only when "
                        "the journal exists)")
    p.add_argument("--no-events", dest="events", action="store_false",
                   help="never attach the event store")
    p.add_argument("--max-concurrent", type=int, default=8,
                   help="requests executing at once; more queue "
                        "briefly, then shed with a fast 503")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="admission queue depth (0 sheds instantly)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request deadline in seconds, polled "
                        "before each segment read and inside view "
                        "builds")
    p.add_argument("--scrub-interval", type=float, default=300.0,
                   help="background scrubber verifies one segment "
                        "every N seconds")
    p.add_argument("--no-scrub", action="store_true",
                   help="disable the background scrubber")
    p.add_argument("--smoke", action="store_true",
                   help="hit every endpoint once and exit (CI mode)")
    p.add_argument("--verbose", action="store_true",
                   help="log every request")
    p.add_argument("--no-compress", action="store_true",
                   help="archive segments are uncompressed MRT")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("events",
                       help="query or tail an archive's event journal")
    p.add_argument("directory",
                   help="archive directory (or an events.jsonl path)")
    p.add_argument("--id", help="render one incident's full report")
    p.add_argument("--type", help="filter by event type")
    p.add_argument("--state", help="filter by state "
                                   "(new/ongoing/resolved)")
    p.add_argument("--prefix", help="filter by exact prefix")
    p.add_argument("--origin", type=int,
                   help="filter by implicated ASN")
    p.add_argument("--start", type=float,
                   help="events overlapping [start, end)")
    p.add_argument("--end", type=float)
    p.add_argument("--limit", type=int)
    p.add_argument("--report", action="store_true",
                   help="full incident reports instead of the table")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing the journal for new incidents")
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll interval for --follow")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop --follow after N polls")
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("trace",
                       help="slowest traced requests from a serve "
                            "instance's /debug/traces ring")
    p.add_argument("target",
                   help="host:port or URL of a repro-bgp serve "
                        "instance")
    p.add_argument("-n", "--limit", type=int, default=20,
                   help="show at most N traces (default 20)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("top",
                       help="live dashboard over a /metrics endpoint")
    p.add_argument("target",
                   help="host:port or URL of a repro-bgp serve "
                        "instance (the /metrics path is implied)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: run forever)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of repainting")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("growth", help="print the Figs. 2-3 series")
    p.add_argument("--start", type=int, default=2003)
    p.add_argument("--end", type=int, default=2023)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("survey", help="print the survey (Table 4)")
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
