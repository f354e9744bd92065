"""One physical end-to-end benchmark: collect → seal → serve.

    python3 perf/run.py --seed N             all four workloads, 3 runs each
    python3 perf/run.py --seed N --traced    ... plus the per-layer pass
    python3 perf/run.py --smoke              small sizes, same checks
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             one run, one JSON line

Every workload runs in a child process under a hard wall-clock kill;
metric names, units and regression bounds come from ``BENCHMARK.json``.
See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import List, Optional

from common import PERF_DIR, RESULTS_DIR, ROOT, SRC, run_in_group

SMOKE_SECONDS = 0.7
#: Runs per workload in a full run: enough for a median and for the
#: spread ``--compare`` needs to call a cell resolved.
DEFAULT_RUNS = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names(contract: dict) -> List[str]:
    return [workload["name"] for workload in contract["workloads"]]


def kill_after_s(seconds: float, trace: int) -> float:
    """About three times what a run of ``seconds`` takes with its
    set-up and checks (2x ``seconds``), or with the per-layer pass (up
    to 5x); inside the driver's 180 s limit."""
    return min(170.0, max(45.0, (11.0 if trace else 6.0) * seconds))


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool = False) -> dict:
    """Run one workload in its own process group; always clean up.

    Returns the child's result object; a child that fails, prints no
    result or hits the hard kill yields ``{"error": ...}``.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{workload}-", dir=RESULTS_DIR)
    limit = kill_after_s(seconds, trace)
    command = [sys.executable, os.path.join(PERF_DIR, "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--tmp", tmp, "--kill-after-s", str(limit)]
    if smoke:
        command.append("--smoke")
    try:
        exit_code, output = run_in_group(command, limit, capture=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if exit_code is None:
        return {"error": f"hard timeout after {limit:.0f}s"}
    if exit_code != 0:
        return {"error": f"child exited with {exit_code}"}
    try:
        return json.loads(output.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def report(contract: dict, result: dict, trace: int) -> dict:
    """The driver's result object for one run: exactly the contract's
    metrics for this pass.  A run whose metric names differ from the
    contract's counts as failed."""
    declared = contract["per_layer" if trace else "end_to_end"]
    if "error" not in result:
        names = {m["name"] for m in declared}
        if set(result["metrics"]) != names:
            result = {"error": "metric names differ from BENCHMARK.json: "
                      f"{sorted(names ^ set(result['metrics']))}"}
    if "error" in result:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "errors": [result["error"]], "info": {}}
    return {
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in declared},
        "errors": result["errors"],
        "info": result["info"],
    }


def driver_run(args, contract: dict) -> int:
    result = report(contract,
                    run_child(args.workload, args.seed, args.seconds,
                              args.trace), args.trace)
    for error in result["errors"]:
        print(f"FAILED {args.workload}: {error}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# -- the human-facing modes ---------------------------------------------------

def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_table(workload: str, label: str, result: dict) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"\n== {workload} [{label}] {verdict}: "
          f"{result['failed']} of {result['attempted']} operations "
          f"failed")
    for error in result["errors"]:
        print(f"   ! {error}")
    for name, metric in result["metrics"].items():
        print(f"   {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print("   (" + ", ".join(f"{key} {value:.6g}" for key, value
                             in result["info"].items()) + ")")


def full_run(args, contract: dict) -> int:
    """Every workload ``--runs`` times with the same seed (a set of
    runs: ``--compare`` takes its medians and its spread), then once
    more with the per-layer pass if asked for."""
    seconds = SMOKE_SECONDS if args.smoke else (
        args.seconds or contract["run_seconds"])
    n_runs = args.runs or (1 if args.smoke else DEFAULT_RUNS)
    document = {
        "meta": {"seed": args.seed, "seconds": seconds, "runs": n_runs,
                 "smoke": args.smoke, "git": _git_sha(),
                 "python": platform.python_version(),
                 "nproc": os.cpu_count()},
        "workloads": {},
    }
    ok = True
    for workload in workload_names(contract):
        # The smoke run checks the per-layer names on the one workload
        # that exercises every layer.
        traced = args.traced or (args.smoke
                                 and workload == "collect_filtered")
        results = {"end_to_end": [], "per_layer": []}
        for label, trace, count in (("end_to_end", 0, n_runs),
                                    ("per_layer", 1, int(traced))):
            for index in range(count):
                result = report(contract,
                                run_child(workload, args.seed, seconds,
                                          trace, args.smoke), trace)
                print_table(workload, f"{label} {index + 1}/{count}",
                            result)
                results[label].append(result)
                ok = ok and result["correct"]
        document["workloads"][workload] = results
    path = args.json or os.path.join(
        RESULTS_DIR, f"run-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nwrote {path}")
    return 0 if ok else 1


def _median_and_spread(runs: List[dict], name: str):
    """Median of one metric over a set of runs, and the distance
    between its quartiles as a share of the median (None for a set of
    one run)."""
    values = [run["metrics"][name]["value"] for run in runs]
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, None
    quartiles = statistics.quantiles(values, n=4)
    return middle, (quartiles[2] - quartiles[0]) / abs(middle)


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Per workload × end-to-end metric: both medians, how much worse
    B is than A, the bound, the verdict.  A cell whose run-to-run
    spread on either side is wider than its bound is ``unresolved``:
    the two sets cannot tell a change of that size from noise."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    exceeded = 0
    print(f"{'workload':18s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in workload_names(contract):
        runs_a = a[workload]["end_to_end"]
        runs_b = b[workload]["end_to_end"]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            value_a, spread_a = _median_and_spread(runs_a, name)
            value_b, spread_b = _median_and_spread(runs_b, name)
            worse = (value_b - value_a) / value_a
            if metric["better"] == "higher":
                worse = -worse
            spread = max(spread_a or 0.0, spread_b or 0.0)
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "EXCEEDED"
                exceeded += 1
            else:
                verdict = "ok"
            print(f"{workload:18s} {name:26s} {value_a:12.6g} "
                  f"{value_b:12.6g} {worse:+9.2%} {metric['bound']:6.0%} "
                  f"{spread:7.2%}  {verdict}")
        # Failed operations have an absolute bound of zero.
        failed_a = sum(run["failed"] for run in runs_a)
        failed_b = sum(run["failed"] for run in runs_b)
        if failed_b > failed_a:
            exceeded += 1
            print(f"{workload:18s} failed operations: {failed_a} "
                  f"-> {failed_b}  EXCEEDED")
    return 1 if exceeded else 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workload_names(contract),
                        help="run this one workload and print one JSON "
                             "line (how the driver calls the benchmark)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed section per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="add the per-layer pass to a full run")
    parser.add_argument("--runs", type=int,
                        help=f"runs per workload in a full run (default "
                             f"{DEFAULT_RUNS}; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, short sections, same checks")
    parser.add_argument("--json", help="where a full run is recorded")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two recorded full runs")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.workload:
        if args.seconds is None:
            args.seconds = contract["run_seconds"]
        return driver_run(args, contract)
    return full_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
