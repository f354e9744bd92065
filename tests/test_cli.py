"""Tests for the repro-bgp command-line interface."""

import pytest

from repro.bgp.mrt import read_archive
from repro.cli import build_parser, main


@pytest.fixture
def archive(tmp_path):
    path = str(tmp_path / "stream.mrt.bz2")
    code = main(["generate", path, "--vps", "8", "--groups", "5",
                 "--duration", "600", "--seed", "1",
                 "--include-warmup"])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_archive(self, archive):
        records = read_archive(archive)
        assert len(records) > 0

    def test_deterministic(self, tmp_path):
        a = str(tmp_path / "a.mrt.bz2")
        b = str(tmp_path / "b.mrt.bz2")
        main(["generate", a, "--vps", "6", "--groups", "4",
              "--duration", "300", "--seed", "7"])
        main(["generate", b, "--vps", "6", "--groups", "4",
              "--duration", "300", "--seed", "7"])
        assert read_archive(a) == read_archive(b)

    def test_uncompressed(self, tmp_path):
        path = str(tmp_path / "raw.mrt")
        main(["generate", path, "--vps", "4", "--groups", "3",
              "--duration", "300", "--no-compress"])
        assert read_archive(path)


class TestInspect:
    def test_summary(self, archive, capsys):
        assert main(["inspect", archive]) == 0
        out = capsys.readouterr().out
        assert "updates from 8 VPs" in out

    def test_redundancy_flag(self, archive, capsys):
        assert main(["inspect", archive, "--redundancy"]) == 0
        out = capsys.readouterr().out
        assert "Def. 1" in out and "Def. 3" in out

    def test_empty_archive(self, tmp_path, capsys):
        from repro.bgp.mrt import write_archive
        path = str(tmp_path / "empty.mrt.bz2")
        write_archive([], path)
        assert main(["inspect", path]) == 0
        assert "no updates" in capsys.readouterr().out


class TestSample:
    def test_sampling_and_documents(self, archive, tmp_path, capsys):
        out_path = str(tmp_path / "retained.mrt.bz2")
        filters_path = str(tmp_path / "filters.txt")
        anchors_path = str(tmp_path / "anchors.txt")
        code = main(["sample", archive,
                     "--output", out_path,
                     "--filters-doc", filters_path,
                     "--anchors-doc", anchors_path,
                     "--events-per-cell", "5"])
        assert code == 0
        retained = read_archive(out_path)
        original = read_archive(archive)
        assert 0 < len(retained) <= len(original)
        with open(filters_path) as handle:
            assert "default accept" in handle.read()
        with open(anchors_path) as handle:
            assert handle.read().strip()


class TestOrchestrate:
    def test_control_loop(self, archive, capsys):
        code = main(["orchestrate", archive,
                     "--refresh-interval", "300",
                     "--mirror-window", "200",
                     "--events-per-cell", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "component #1 runs:" in out


class TestPipeline:
    def test_flood_run(self, archive, capsys):
        code = main(["pipeline", archive, "--shards", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline metrics" in out
        assert "ingest-dropped 0" in out

    def test_with_filters_validation_and_archive(self, archive, tmp_path,
                                                 capsys):
        out_dir = str(tmp_path / "segments")
        code = main(["pipeline", archive,
                     "--train-filters", "--validate",
                     "--archive-dir", out_dir,
                     "--per-session"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained" in out
        assert "wrote" in out and "segments" in out
        assert "session" in out

    def test_empty_archive(self, tmp_path, capsys):
        from repro.bgp.mrt import write_archive
        path = str(tmp_path / "empty.mrt.bz2")
        write_archive([], path)
        assert main(["pipeline", path]) == 0
        assert "no updates" in capsys.readouterr().out


class TestInfoCommands:
    def test_growth(self, capsys):
        assert main(["growth", "--start", "2020", "--end", "2023"]) == 0
        out = capsys.readouterr().out
        assert "2023" in out and "coverage" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        assert "[C1]" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestOrchestrateStatus:
    def test_status_page(self, archive, capsys):
        code = main(["orchestrate", archive,
                     "--refresh-interval", "300",
                     "--mirror-window", "200",
                     "--events-per-cell", "4",
                     "--status", "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "platform status" in out
        assert "honesty" in out

    def test_output_archive_written(self, archive, tmp_path, capsys):
        out_path = str(tmp_path / "kept.mrt.bz2")
        code = main(["orchestrate", archive,
                     "--refresh-interval", "300",
                     "--mirror-window", "200",
                     "--events-per-cell", "4",
                     "--output", out_path])
        assert code == 0
        assert read_archive(out_path)


class TestServe:
    def archive_dir(self, archive, tmp_path):
        out_dir = str(tmp_path / "segments")
        assert main(["pipeline", archive, "--archive-dir", out_dir,
                     "--index"]) == 0
        return out_dir

    def test_smoke_passes_on_pipeline_archive(self, archive, tmp_path,
                                              capsys):
        out_dir = self.archive_dir(archive, tmp_path)
        capsys.readouterr()
        assert main(["serve", out_dir, "--port", "0", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out and "watermark" in out
        assert "FAIL" not in out
        for endpoint in ("/updates", "/vps", "/rib", "/moas",
                         "/hijacks", "/status"):
            assert endpoint in out

    def test_empty_directory_refused(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["serve", str(empty), "--port", "0"]) == 2
        assert "no archive segments" in capsys.readouterr().err

    def test_pipeline_index_flag_builds_indexes(self, archive, tmp_path):
        import os
        out_dir = self.archive_dir(archive, tmp_path)
        segments = [n for n in os.listdir(out_dir)
                    if n.startswith("updates.")
                    and not n.endswith(".idx")]
        indexes = [n for n in os.listdir(out_dir) if n.endswith(".idx")]
        assert segments and len(indexes) == len(segments)

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "somedir"])
        assert args.port == 8480 and not args.smoke
        # Nothing the serve path reads is sized by a flag any more.
        for retired in ("--workers", "--cache-size"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "somedir", retired,
                                           "4"])


class TestEventsCLI:
    @pytest.fixture
    def event_archive(self, tmp_path):
        stream = str(tmp_path / "showcase.mrt.bz2")
        assert main(["generate", stream, "--scenario", "monitoring"]) == 0
        directory = str(tmp_path / "arch")
        assert main(["pipeline", stream, "--archive-dir", directory,
                     "--checkpoint", "--index", "--events"]) == 0
        return directory

    def test_generate_monitoring_scenario(self, tmp_path, capsys):
        path = str(tmp_path / "mon.mrt.bz2")
        assert main(["generate", path, "--scenario", "monitoring"]) == 0
        out = capsys.readouterr().out
        assert "monitoring showcase" in out
        assert read_archive(path)

    def test_pipeline_events_writes_journal(self, event_archive,
                                            capsys):
        import os
        assert os.path.exists(os.path.join(event_archive,
                                           "events.jsonl"))

    def test_events_requires_archive_dir(self, tmp_path, capsys):
        stream = str(tmp_path / "s.mrt.bz2")
        main(["generate", stream, "--duration", "300"])
        assert main(["pipeline", stream, "--events"]) == 2

    def test_events_table_and_report(self, event_archive, capsys):
        assert main(["events", event_archive]) == 0
        out = capsys.readouterr().out
        assert "origin_hijack" in out and "event(s)" in out
        assert main(["events", event_archive, "--type", "moas",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "MOAS conflict" in out and "timeline:" in out

    def test_events_single_id(self, event_archive, capsys):
        assert main(["events", event_archive, "--id",
                     "ev-000001"]) == 0
        out = capsys.readouterr().out
        assert "ev-000001" in out
        assert main(["events", event_archive, "--id",
                     "ev-999999"]) == 1

    def test_events_bad_filters(self, event_archive, tmp_path, capsys):
        assert main(["events", event_archive, "--type", "bogus"]) == 2
        assert main(["events", str(tmp_path / "nope")]) == 2

    def test_serve_smoke_with_events(self, event_archive, capsys):
        assert main(["serve", event_archive, "--port", "0",
                     "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "event store: " in out
        assert "ok 200 /events " in out

    def test_serve_events_builds_a_missing_journal(self, event_archive,
                                                   tmp_path, capsys):
        """The same input collected without --events: `serve --events`
        builds the journal the collector would have written, once."""
        import json
        import os
        import urllib.request

        from repro.events import EventStore, journal_path_for
        from repro.query import QueryAPIServer, QueryEngine

        bare = str(tmp_path / "bare")
        assert main(["pipeline", str(tmp_path / "showcase.mrt.bz2"),
                     "--archive-dir", bare, "--checkpoint",
                     "--index"]) == 0
        journal = journal_path_for(bare)
        listing = sorted(os.listdir(bare))
        capsys.readouterr()

        # Default serve: no store, no backfill, no file.
        assert main(["serve", bare, "--port", "0", "--smoke"]) == 0
        out = capsys.readouterr().out
        for endpoint in ("/moas", "/hijacks", "/events"):
            assert f"ok 404 {endpoint} " in out
        assert "ok 400 /moas?source=scan " in out
        assert sorted(os.listdir(bare)) == listing

        assert main(["serve", bare, "--port", "0", "--smoke",
                     "--events"]) == 0
        out = capsys.readouterr().out
        for endpoint in ("/moas", "/hijacks", "/events"):
            assert f"ok 200 {endpoint} " in out
        with open(journal, "rb") as built, \
                open(journal_path_for(event_archive), "rb") as collected:
            assert built.read() == collected.read()

        # A second start finds the journal and rewrites nothing.
        stamp = os.stat(journal)
        assert main(["serve", bare, "--port", "0", "--smoke",
                     "--events"]) == 0
        assert "built from" not in capsys.readouterr().out
        after = os.stat(journal)
        assert (after.st_ino, after.st_mtime_ns, after.st_size) \
            == (stamp.st_ino, stamp.st_mtime_ns, stamp.st_size)

        def bodies(directory):
            engine = QueryEngine(directory)
            store = EventStore(journal_path_for(directory))
            with QueryAPIServer(engine, events=store) as api:
                found = [json.load(urllib.request.urlopen(
                    api.url + path, timeout=30))
                    for path in ("/moas", "/hijacks", "/events")]
            engine.close()
            return found

        assert bodies(bare) == bodies(event_archive)
        assert bodies(bare)[0]["count"] >= 1

    def test_serve_no_events_flag(self, event_archive, capsys):
        assert main(["serve", event_archive, "--port", "0", "--smoke",
                     "--no-events"]) == 0
        out = capsys.readouterr().out
        assert "event store" not in out
        assert "ok 404 /events " in out


class TestScrubCLI:
    @pytest.fixture
    def segment_dir(self, archive, tmp_path):
        out_dir = str(tmp_path / "segments")
        assert main(["pipeline", archive, "--archive-dir", out_dir,
                     "--checkpoint", "--index"]) == 0
        return out_dir

    def test_clean_archive_scrubs_clean(self, segment_dir, capsys):
        assert main(["scrub", segment_dir, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 quarantined" in out and "quarantined " not in out

    def test_rot_is_reported_and_strict_fails(self, segment_dir,
                                              capsys):
        import os

        from repro.pipeline.faults import corrupt_bitflip
        victim = sorted(n for n in os.listdir(segment_dir)
                        if n.startswith("updates.")
                        and not n.endswith(".idx"))[0]
        corrupt_bitflip(os.path.join(segment_dir, victim))
        assert main(["scrub", segment_dir]) == 0   # default: report only
        out = capsys.readouterr().out
        assert f"quarantined {victim} (crc32)" in out
        assert "quarantine directory:" in out
        # The rot is already quarantined; strict now passes clean.
        assert main(["scrub", segment_dir, "--strict"]) == 0
        assert "already quarantined" in capsys.readouterr().out

    def test_strict_exits_nonzero_on_fresh_rot(self, segment_dir):
        import os

        from repro.pipeline.faults import corrupt_truncate
        victim = sorted(n for n in os.listdir(segment_dir)
                        if n.startswith("updates.")
                        and not n.endswith(".idx"))[-1]
        corrupt_truncate(os.path.join(segment_dir, victim))
        assert main(["scrub", segment_dir, "--strict"]) == 1


class TestGillCLI:
    @pytest.fixture
    def overshoot(self, tmp_path):
        path = str(tmp_path / "overshoot.mrt")
        code = main(["generate", path, "--scenario", "overshoot",
                     "--vps", "12", "--duration", "600",
                     "--seed", "3", "--no-compress"])
        assert code == 0
        return path

    def test_generate_overshoot_is_deterministic(self, tmp_path,
                                                 capsys):
        a = str(tmp_path / "a.mrt")
        b = str(tmp_path / "b.mrt")
        for path in (a, b):
            assert main(["generate", path, "--scenario", "overshoot",
                         "--vps", "10", "--duration", "400",
                         "--seed", "9", "--no-compress"]) == 0
        assert read_archive(a) == read_archive(b)
        assert "overshoot scenario" in capsys.readouterr().out

    def test_pipeline_gill_filters_and_journals(self, overshoot,
                                                tmp_path, capsys):
        import json
        import os

        out_dir = str(tmp_path / "filtered")
        code = main(["pipeline", overshoot,
                     "--archive-dir", out_dir, "--checkpoint",
                     "--gill", "--filter-def", "1",
                     "--keep", "vp10000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gill (definition 1): dropped" in out
        journal = os.path.join(out_dir, "gill.jsonl")
        with open(journal) as handle:
            records = [json.loads(line) for line in handle]
        assert records
        assert all(r["definition"] == 1 for r in records)
        assert all("vp10000" in r["anchors"] for r in records)
        assert sum(r["dropped"] for r in records) > 0

    def test_gill_requires_archive_dir(self, overshoot, capsys):
        assert main(["pipeline", overshoot, "--gill"]) == 2
        assert "--gill requires --archive-dir" \
            in capsys.readouterr().err

    def test_keep_requires_gill(self, overshoot, capsys):
        assert main(["pipeline", overshoot, "--keep", "vp10000"]) == 2
        assert "--keep" in capsys.readouterr().err

    def test_serve_smoke_covers_gill_vps(self, overshoot, tmp_path,
                                         capsys):
        out_dir = str(tmp_path / "filtered")
        assert main(["pipeline", overshoot, "--no-compress",
                     "--archive-dir", out_dir, "--checkpoint",
                     "--gill"]) == 0
        capsys.readouterr()
        assert main(["serve", out_dir, "--port", "0", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "gill journal:" in out
        assert "ok 200 /vps?sort=value" in out


class TestArchivesDescribeThemselves:
    """Every reading verb takes a file's encoding from its bytes; only
    the writing verbs have ``--no-compress``."""

    @pytest.fixture
    def plain(self, tmp_path):
        path = str(tmp_path / "plain.mrt")
        assert main(["generate", path, "--vps", "8", "--groups", "5",
                     "--duration", "600", "--seed", "1",
                     "--no-compress"]) == 0
        return path

    @staticmethod
    def segment_names(directory):
        import os

        return sorted(name for name in os.listdir(directory)
                      if name.startswith("updates.")
                      and not name.endswith(".idx"))

    def test_readers_take_a_plain_input_with_no_flag(self, plain,
                                                     tmp_path, capsys):
        count = len(read_archive(plain))
        capsys.readouterr()
        assert main(["inspect", plain]) == 0
        assert f"{count} updates from 8 VPs" in capsys.readouterr().out
        out_path = str(tmp_path / "retained.mrt.bz2")
        assert main(["sample", plain, "--output", out_path,
                     "--events-per-cell", "5"]) == 0
        assert f"/{count} updates" in capsys.readouterr().out
        assert 0 < len(read_archive(out_path)) <= count
        assert main(["orchestrate", plain, "--refresh-interval", "300",
                     "--mirror-window", "200",
                     "--events-per-cell", "4"]) == 0
        assert f"received {count} " in capsys.readouterr().out
        assert main(["pipeline", plain, "--shards", "2"]) == 0
        assert "ingest-dropped 0" in capsys.readouterr().out

    def test_pipeline_no_compress_chooses_only_the_output(self, archive,
                                                          tmp_path):
        out_dir = str(tmp_path / "segments")
        assert main(["pipeline", archive, "--no-compress",
                     "--archive-dir", out_dir]) == 0
        names = self.segment_names(out_dir)
        assert names and all(name.endswith(".mrt") for name in names)

    def test_recover_and_scrub_a_plain_archive(self, plain, tmp_path,
                                               capsys):
        out_dir = str(tmp_path / "segments")
        assert main(["pipeline", plain, "--no-compress", "--archive-dir",
                     out_dir, "--checkpoint", "--index"]) == 0
        names = self.segment_names(out_dir)
        capsys.readouterr()
        assert main(["recover", out_dir]) == 0
        assert f"recovered: {len(names)} durable segments" \
            in capsys.readouterr().out
        assert self.segment_names(out_dir) == names
        assert main(["scrub", out_dir, "--strict"]) == 0
        assert f"{len(names)} intact, 0 quarantined" \
            in capsys.readouterr().out

    def test_only_writers_have_an_encoding_flag(self):
        parser = build_parser()
        for verb in ("inspect", "sample", "orchestrate", "recover",
                     "scrub", "serve"):
            with pytest.raises(SystemExit):
                parser.parse_args([verb, "x", "--no-compress"])
        with pytest.raises(SystemExit):
            parser.parse_args(["recover", "x", "--interval", "600"])
        for verb in ("generate", "pipeline"):
            assert parser.parse_args([verb, "x", "--no-compress"]) \
                .no_compress
