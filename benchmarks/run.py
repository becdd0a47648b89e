#!/usr/bin/env python3
"""Benchmark of ``dpfedsim run`` on an MNIST-shaped synthetic protocol.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: it runs the program from
``src/`` of the checkout that holds this file and writes only below
``.bench_work/`` there.

Untraced (``--trace 0``): writes a ``key = value`` config for the workload
with the seed in it, then runs ``python -m dpfedsim.cli run`` as a child
process, one at a time, a fixed number of times that ``--seconds`` sets.
Every run is checked (exit code, row count, finite losses, deterministic
columns identical across the runs, epsilon column equal to ``dpfedsim
privacy``).  It reports the median and tail of per-round wall time read from
``metrics.csv``, the set-up time (child wall time minus its rounds) and peak
RSS.  The run count depends only on ``--seconds``, so two commits measured
with the same settings report the same statistic of the same sample count.

Traced (``--trace 1``): half the untraced runs, then one in-process run of
``dpfedsim.cli.main`` with spans around the public functions of each module
(see tracing.py).  It reports calls and seconds per function, self time per
layer within rounds, DP and correction counts, and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

from stats import check_metrics_csv, parse_privacy_schedule, round_time_summary
from tracing import SETUP, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Each workload's measurement stops within this many seconds, children included.
DEADLINE_S = 170

# MNIST-shaped task with no download: 10k train / 2k test, D = 101,770.
# Everything else (sigma 0.8, C 1.5, serial clients) keeps its default; the
# thread pool stays off because a later change may delete that option.
PROTOCOL = {
    "dataset": "synthetic",
    "synthetic_classes": "10",
    "synthetic_per_class": "1000",
    "synthetic_dim": "784",
    "layer_sizes": "784,128,10",
    "batch_size": "32",
}


@dataclass(frozen=True)
class Workload:
    name: str
    delta: dict[str, str]
    # rounds in one child run
    rounds: int
    # wall seconds of one child run on the 2-core machine the benchmark was
    # sized on; --seconds / run_s sets the number of child runs
    run_s: float


WORKLOADS = {
    w.name: w
    for w in (
        # The per-sample DP step is most of a round; correction is 1 test.
        Workload(
            "n2_gcfl_reference",
            {"n_clients": "2", "algorithm": "gcfl", "correction_mode": "reference"},
            rounds=10,
            run_s=1.9,
        ),
        # Pairwise correction (992 cosine tests per round) is most of a round.
        Workload(
            "n32_gcfl_pairwise",
            {"n_clients": "32", "algorithm": "gcfl", "correction_mode": "pairwise"},
            rounds=2,
            run_s=11.6,
        ),
        # Prox term before clipping, Poisson batch sizes, 4 local steps,
        # 8 of 32 clients per round; correction is bypassed.
        Workload(
            "n32_fedprox_k8_ls4",
            {
                "n_clients": "32",
                "clients_per_round": "8",
                "local_steps": "4",
                "sampling_mode": "poisson",
                "algorithm": "dp_fedprox",
            },
            rounds=4,
            run_s=8.3,
        ),
    )
}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout


@contextlib.contextmanager
def alarm_at(deadline: float):
    """Raise RunTimeout in this process once ``deadline`` (monotonic) passes."""
    signal.alarm(max(1, int(deadline - time.monotonic())))
    try:
        yield
    finally:
        signal.alarm(0)


def write_config(path: Path, workload: Workload, seed: int) -> None:
    keys = {**PROTOCOL, **workload.delta}
    keys.update(rounds=str(workload.rounds), seeds=str(seed))
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def machine_info() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_child(args: list[str], log_path: Path, deadline: float):
    """Run ``python -m dpfedsim.cli ARGS``; return (exit code, wall s, max RSS KiB).

    The child is killed, and so exits non-zero, if it outlives the deadline.
    """
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dpfedsim.cli", *args],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            with alarm_at(deadline):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, RunTimeout):
                raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Checker:
    """Checks each run's metrics.csv and compares the runs of one invocation."""

    def __init__(self, rounds: int, epsilons: list[str], privacy_error: str | None):
        self.rounds = rounds
        self.epsilons = epsilons
        self.privacy_error = privacy_error
        self.reference = None

    def check(self, csv_path: Path) -> tuple[list[int], list[str]]:
        """(wall_ms per round, problems) of one run."""
        try:
            text = csv_path.read_text()
        except OSError as exc:
            return [], [f"cannot read metrics.csv: {exc}"]
        det, wall_ms, problems = check_metrics_csv(text, self.rounds, self.epsilons)
        if self.privacy_error:
            problems.append(self.privacy_error)
        if self.reference is None:
            self.reference = det
        elif det != self.reference:
            problems.append("deterministic columns differ from the first run")
        return wall_ms, problems


def untraced_runs(count: int, work: Path, cfg: Path, checker: Checker, deadline: float):
    runs = []
    for k in range(count):
        out = work / f"run{k}"
        args = ["run", "--config", str(cfg), "--out", str(out)]
        code, wall, maxrss_kib = run_child(args, work / f"run{k}.log", deadline)
        run = {"kind": "untraced", "exit_code": code, "wall_s": wall}
        run["peak_rss_mb"] = maxrss_kib / 1024
        if code != 0:
            run["problems"] = [f"exit code {code}"]
        else:
            wall_ms, run["problems"] = checker.check(out / "metrics.csv")
            run["round_s"] = [ms / 1000.0 for ms in wall_ms]
            run["setup_s"] = wall - sum(run["round_s"])
        runs.append(run)
    return runs


def traced_run(work: Path, cfg: Path, checker: Checker, deadline: float):
    """One in-process traced run; return (run record, per-layer metrics)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dpfedsim.cli

    out = work / "traced"
    run = {"kind": "traced", "problems": []}
    try:
        with open(work / "traced.log", "w") as log, contextlib.redirect_stdout(log):
            with contextlib.redirect_stderr(log), alarm_at(deadline):
                with Tracer() as tracer:
                    code = dpfedsim.cli.main(
                        ["run", "--config", str(cfg), "--out", str(out)]
                    )
        tracer.write_spans(work / "spans.jsonl")
        layer = tracer.metrics()
    except Exception:  # the program or the trace broke: report it and go on
        run["problems"].append(traceback.format_exc())
        return run, {}
    if code != 0:
        run["problems"].append(f"exit code {code}")
        return run, layer
    wall_ms, run["problems"] = checker.check(out / "metrics.csv")
    run["round_s"] = [ms / 1000.0 for ms in wall_ms]
    if tracer.clip_violations:
        run["problems"].append(
            f"{tracer.clip_violations} clip_gradient outputs exceed C"
            f" (max ratio {tracer.clip_max_ratio!r})"
        )
    if tracer.absent:
        print(f"absent from the program: {', '.join(tracer.absent)}")
    return run, layer


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "workload.cfg"
    write_config(cfg, workload, seed)

    privacy_log = work / "privacy.log"
    code, _, _ = run_child(["privacy", "--config", str(cfg)], privacy_log, deadline)
    epsilons, privacy_error = [], None
    try:
        epsilons = parse_privacy_schedule(privacy_log.read_text())
    except ValueError as exc:
        privacy_error = f"no privacy schedule (exit code {code}): {exc}"
    checker = Checker(workload.rounds, epsilons, privacy_error)

    runs_wanted = max(2, round(seconds / workload.run_s))
    result = {"workload": workload.name, "seed": seed, "metrics": {}}
    if trace:
        runs = untraced_runs(max(1, runs_wanted // 2), work, cfg, checker, deadline)
        traced, metrics = traced_run(work, cfg, checker, deadline)
        runs.append(traced)
        untraced = [r for r in runs if r["kind"] == "untraced" and not r["problems"]]
        untraced_s = [s for r in untraced for s in r["round_s"]]
        if metrics and untraced_s and traced.get("round_s"):
            base = round_time_summary(untraced_s)["round_s_p50"]
            overhead = round_time_summary(traced["round_s"])["round_s_p50"] - base
            metrics["trace.overhead_s"] = overhead, "s"
            metrics["trace.overhead_share"] = overhead / base, "ratio"
        result["metrics"] = metrics
    else:
        runs = untraced_runs(runs_wanted, work, cfg, checker, deadline)
        good = [r for r in runs if not r["problems"]]
        if good:
            summary = round_time_summary([s for r in good for s in r["round_s"]])
            result["metrics"] = {
                "round_s_p50": (summary["round_s_p50"], "s"),
                "round_s_tail": (summary["round_s_tail"], "s"),
                "setup_s": (statistics.median(r["setup_s"] for r in good), "s"),
                "peak_rss_mb": (
                    statistics.median(r["peak_rss_mb"] for r in good),
                    "MB",
                ),
            }
            result["tail"] = summary
    result["attempted"] = len(runs)
    result["failed"] = sum(1 for r in runs if r["problems"])
    result["runs"] = runs
    return result


def print_report(result: dict, trace: bool) -> None:
    name, metrics = result["workload"], result["metrics"]
    print(
        f"== {name} (seed {result['seed']}): "
        f"{result['attempted']} runs, {result['failed']} failed"
    )
    for k, run in enumerate(result["runs"]):
        for problem in run["problems"]:
            print(f"   run {k} ({run['kind']}) FAILED: {problem}")
    if trace:
        rounds = metrics.get("federation.run_round_s", (0.0,))[0]
        for key, (value, unit) in metrics.items():
            share = ""
            function = key.removesuffix("_s")
            in_rounds = function in TRACED and function not in SETUP
            if key.endswith("_s") and in_rounds and rounds:
                share = f"  ({100 * value / rounds:5.1f}% of run_round_s)"
            print(f"   {key:44s} {value:.6g} {unit}{share}")
    else:
        tail = result.get("tail", {})
        for key, (value, unit) in metrics.items():
            note = ""
            if key == "round_s_tail":
                note = (
                    f"  (p{tail['tail_percentile']:.1f} of {tail['rounds']} rounds,"
                    f" {tail['tail_samples_beyond']} beyond)"
                )
            print(f"   {key:14s} {value:.6f} {unit}{note}")
        print(f"   failed_share   {result['failed']}/{result['attempted']} = "
              f"{result['failed'] / result['attempted']:.3f}")
    print(f"   correct: {'yes' if result['failed'] == 0 else 'NO'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "dpfedsim" / "cli.py").is_file():
        print(f"error: no dpfedsim sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(result, bool(args.trace))
        results.append(result)
    report = {"machine": info, "results": results}
    (WORK / "result.json").write_text(json.dumps(report, indent=1))

    if any(not r["metrics"] for r in results):
        print("error: no run passed its checks; nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for key, (value, unit) in r["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    verdict = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
