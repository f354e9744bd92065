"""Every metric family has a reader.

A ``--gill --events`` collection and a serve smoke run in-process
through the CLI; every family either registry holds must be listed in
docs/TELEMETRY.md's catalogue and named by a reader: a test, the
``perf/`` harness, ``repro-bgp top`` or a CI step.  A family nothing
reads is a cost with no question behind it.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.query import QueryEngine

ROOT = Path(__file__).resolve().parents[2]


def families(registry):
    return {family.name for family in registry.families()}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Names of the families a collection and a serve smoke hold."""
    tmp = tmp_path_factory.mktemp("readers")
    stream = str(tmp / "stream.mrt")
    archive = str(tmp / "segs")
    prom = tmp / "final.prom"
    assert main(["generate", stream, "--scenario", "overshoot",
                 "--vps", "8", "--duration", "1200", "--seed", "3",
                 "--no-compress"]) == 0
    assert main(["pipeline", stream, "--no-compress",
                 "--archive-dir", archive, "--checkpoint", "--index",
                 "--gill", "--events", "--trace-sample", "0.05",
                 "--metrics", str(prom)]) == 0
    collected = set(re.findall(r"^# TYPE (\S+) ", prom.read_text(),
                               re.MULTILINE))

    registries = []
    monkeypatch = pytest.MonkeyPatch()
    close = QueryEngine.close

    def keep_registry(engine):
        registries.append(engine.registry)
        close(engine)

    monkeypatch.setattr(QueryEngine, "close", keep_registry)
    try:
        assert main(["serve", archive, "--port", "0", "--smoke"]) == 0
    finally:
        monkeypatch.undo()
    assert len(registries) == 1
    return collected, families(registries[0])


def reader_text():
    """What reads metrics: tests (but this one), perf/, top, CI."""
    here = Path(__file__).resolve()
    paths = [p for p in (ROOT / "tests").rglob("*.py") if p != here]
    paths += list((ROOT / "perf").rglob("*.py"))
    paths += [ROOT / "src" / "repro" / "telemetry" / "top.py",
              ROOT / ".github" / "workflows" / "ci.yml"]
    return "\n".join(p.read_text() for p in paths)


def named(name, text):
    """``name`` appears whole, or as one of a histogram's series."""
    pattern = re.escape(name) + r"(_bucket|_count|_sum)?(?![a-z0-9_])"
    return re.search(pattern, text) is not None


def test_both_surfaces_emit_families(emitted):
    collected, served = emitted
    assert "repro_gill_decisions_total" in collected
    assert "repro_events_detections_total" in collected
    assert "repro_query_requests_total" in served


def test_every_family_is_catalogued(emitted):
    catalogue = (ROOT / "docs" / "TELEMETRY.md").read_text()
    missing = sorted(name for name in set.union(*emitted)
                     if not named(name, catalogue))
    assert missing == []


def test_every_family_has_a_reader(emitted):
    text = reader_text()
    unread = sorted(name for name in set.union(*emitted)
                    if not named(name, text))
    assert unread == []
