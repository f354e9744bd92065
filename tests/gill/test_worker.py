"""The scoring worker's lifecycle: one child process per filter stage,
gone when the run is, loud when it dies, never an orphan."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.cluster import collect_partitioned, merge_archives
from repro.gill import GillConfig, IncrementalVPScorer
from repro.gill.worker import FINALIZE, ScoringWorkerError
from repro.pipeline import CollectionPipeline, FaultPlan, InjectedCrash, \
    PipelineConfig
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

TIMEOUT = 60.0
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def children():
    """Live child processes of this process (any thread's).  Tests
    compare against a set taken before: another test's abandoned stage
    may be collected, and its worker reaped, in between."""
    found = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as handle:
            found.update(int(pid) for pid in handle.read().split())
    return found


def exited(pid):
    """True once ``pid`` is gone or a zombie nobody reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture(scope="module")
def streams():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=8, n_prefix_groups=6, duration_s=900.0, seed=21))
    _, stream = generator.generate()
    return split_by_vp(stream)


def pipeline(directory, plan=None):
    archive = RollingArchiveWriter(str(directory), interval_s=120.0,
                                   compress=False, checkpoint=True)
    return CollectionPipeline(
        PipelineConfig(n_shards=2, overflow_policy="block",
                       gill=GillConfig(definition=1),
                       fault_plan=FaultPlan.parse(plan) if plan else None),
        archive=archive)


def test_one_worker_per_stage_reaped_when_the_run_returns(streams,
                                                          tmp_path):
    before = children()
    run = pipeline(tmp_path)
    run.start(streams)
    pid = run.gill._scorer._worker.pid
    assert children() - before == {pid}
    result = run.wait(TIMEOUT)
    assert result.accounted and result.metrics.gill_kept > 0
    assert not children() - before
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    # The slot syncs are where the writer waited for the worker.
    wait = run.gill._sync_wait_seconds.snapshot()
    assert wait.count == run.gill.summary()["rescores"]
    assert wait.sum > 0.0


def test_no_worker_outlives_a_writer_fatal_error(streams, tmp_path):
    before = children()
    with pytest.raises(InjectedCrash):
        pipeline(tmp_path, "crash=writer@60").run(streams, TIMEOUT)
    assert not children() - before


def test_no_worker_outlives_a_merge(streams, tmp_path):
    report = collect_partitioned(
        streams, str(tmp_path / "parts"), 2, interval_s=120.0,
        compress=False, config=PipelineConfig(overflow_policy="block"),
        timeout=TIMEOUT)
    assert report.accounted
    before = children()
    merged = merge_archives(str(tmp_path / "parts"),
                            str(tmp_path / "merged"),
                            gill=GillConfig(definition=1))
    assert merged.segments
    assert not children() - before


def test_a_killed_worker_fails_the_run_promptly(streams, tmp_path):
    run = pipeline(tmp_path)
    killed = []

    def kill_worker(segment, build_s):
        if not killed:
            killed.append(run.gill._scorer._worker.pid)
            os.kill(killed[0], signal.SIGKILL)
    run.archive.add_seal_listener(kill_worker)
    started = time.monotonic()
    with pytest.raises(ScoringWorkerError, match="killed by signal 9"):
        run.run(streams, TIMEOUT)
    assert time.monotonic() - started < TIMEOUT / 2
    assert killed and exited(killed[0])
    assert killed[0] not in children()


def test_a_failing_worker_reports_its_traceback():
    scorer = IncrementalVPScorer(["vp1", "vp2"])
    scorer._worker.add((FINALIZE, 1, 2))    # snapshots never taken
    with pytest.raises(ScoringWorkerError, match="KeyError"):
        scorer.scores()
    assert scorer._worker.pid not in children()


def test_scores_survive_the_worker():
    """After close() the scorer answers from its last sync."""
    scorer = IncrementalVPScorer(["vp1", "vp2"])
    pid = scorer._worker.pid
    scorer.close()
    assert scorer._worker is None and pid not in children()
    np.testing.assert_array_equal(scorer.scores(), np.ones((2, 2)))


def run_script(tmp_path, body):
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)


def test_a_dead_parent_leaves_no_orphan(tmp_path):
    """The worker exits on end-of-file when its parent is killed."""
    done = run_script(tmp_path, """
        import os, signal
        from repro.gill import IncrementalVPScorer
        scorer = IncrementalVPScorer(["vp1", "vp2"])
        scorer.scores()
        print(scorer._worker.pid, flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    """)
    assert done.returncode == -signal.SIGKILL
    pid = int(done.stdout)
    deadline = time.monotonic() + 10.0
    while not exited(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert exited(pid)


def test_a_script_without_a_main_guard_collects(tmp_path):
    """The worker is forked, not spawned: the caller's module is never
    imported again, so a script with no ``__main__`` guard works."""
    done = run_script(tmp_path, """
        from repro.bgp.archive import RollingArchiveWriter
        from repro.gill import GillConfig
        from repro.pipeline import CollectionPipeline, PipelineConfig
        from repro.workload import StreamConfig, \\
            SyntheticStreamGenerator, split_by_vp
        print("module body ran")
        _, stream = SyntheticStreamGenerator(StreamConfig(
            n_vps=6, n_prefix_groups=4, duration_s=600.0, seed=3)).generate()
        pipeline = CollectionPipeline(
            PipelineConfig(overflow_policy="block", gill=GillConfig()),
            archive=RollingArchiveWriter("segs", interval_s=120.0,
                                         compress=False, checkpoint=True))
        result = pipeline.run(split_by_vp(stream), timeout=60.0)
        print("kept", result.metrics.gill_kept, "rescores",
              pipeline.gill.summary()["rescores"])
    """)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "module body ran" and len(lines) == 2
    assert lines[1].startswith("kept ") and " rescores " in lines[1]
