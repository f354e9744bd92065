"""Tests for the platform status page."""

import pytest

from repro.bgp.session import PeeringDB, PeeringRequest, SessionManager
from repro.bgp.validation import RouteValidator
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.platform.status import collect_status, render_status
from repro.workload import StreamConfig, SyntheticStreamGenerator


@pytest.fixture(scope="module")
def run():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=10, n_prefix_groups=6, duration_s=1500.0, seed=23))
    warmup, stream = generator.generate(start_time=10.0)
    data = warmup + stream
    orchestrator = Orchestrator(
        OrchestratorConfig(component1_interval_s=600.0,
                           component2_interval_s=1800.0,
                           mirror_window_s=400.0,
                           events_per_cell=5),
        validator=RouteValidator(),
    )
    retained = orchestrator.process_stream(data)
    return orchestrator, data, retained


class TestCollectStatus:
    def test_totals_match_stats(self, run):
        orchestrator, data, retained = run
        status = collect_status(orchestrator, data, retained)
        assert status.total_received == len(data)
        assert status.total_retained == len(retained)
        assert 0.0 < status.retention <= 1.0

    def test_per_vp_rows(self, run):
        orchestrator, data, retained = run
        status = collect_status(orchestrator, data, retained)
        assert len(status.vps) == 10
        assert sum(r.received for r in status.vps) == len(data)
        assert sum(r.retained for r in status.vps) == len(retained)

    def test_anchor_rows_flagged(self, run):
        orchestrator, data, retained = run
        status = collect_status(orchestrator, data, retained)
        anchors = {r.vp for r in status.vps if r.is_anchor}
        assert anchors == set(orchestrator.anchor_vps)
        # Anchors keep everything.
        for row in status.vps:
            if row.is_anchor and row.received:
                assert row.retention == 1.0

    def test_honest_peers_score_one(self, run):
        orchestrator, data, retained = run
        status = collect_status(orchestrator, data, retained)
        assert all(r.honesty >= 0.95 for r in status.vps)

    def test_session_accounting(self, run):
        orchestrator, data, retained = run
        db = PeeringDB({65001: {"good.example"}})
        manager = SessionManager(db)
        manager.submit_form(
            PeeringRequest(65001, "noc@good.example", "r1"))
        vp2 = manager.submit_form(
            PeeringRequest(65001, "x@evil.example", "r2"))
        manager.receive_email(vp2, "x@evil.example", 65001)
        status = collect_status(orchestrator, data, retained,
                                sessions=manager)
        assert status.pending_sessions == 1
        assert status.rejected_sessions == 1


class TestRenderStatus:
    def test_renders_all_sections(self, run):
        orchestrator, data, retained = run
        text = render_status(collect_status(orchestrator, data, retained))
        assert "platform status" in text
        assert "peers: 10 active" in text
        assert "filters:" in text
        assert text.count("\n") >= 15

    def test_empty_platform(self):
        orchestrator = Orchestrator(OrchestratorConfig(
            component1_interval_s=600.0, mirror_window_s=400.0))
        status = collect_status(orchestrator, [], [])
        text = render_status(status)
        assert "peers: 0 active" in text
        assert status.retention == 1.0
