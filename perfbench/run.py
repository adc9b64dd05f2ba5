#!/usr/bin/env python3
"""permrev benchmark: closed-loop verification workloads, one process each.

One run of one workload:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

sets the workload up, runs jobs one after another until ``--seconds`` have
passed, checking every job's output, then sets the workload up twice more
(``setup_s`` is the import time plus the median set-up time). With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics, writing the spans to ``perfbench/out/``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when any job failed.

Without ``--workload`` it runs every workload in its own process and prints
``job_p75_s``, ``setup_s``, ``peak_rss_mb`` and ``error_rate`` for each.
``--smoke`` runs on tiny inputs, one job (or one untraced and traced pair)
per run, both traced and untraced, and checks every metric name.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ("verify", "grid", "probe", "textio")


def declared_metrics() -> dict[str, dict[str, str]]:
    """Unit of every metric BENCHMARK.json declares, for trace 0 and trace 1."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_permrev() -> float:
    """Import permrev from this checkout's ``src``; return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import permrev

    seconds = time.perf_counter() - start
    if Path(permrev.__file__).resolve().parent.parent != src:
        raise ImportError(f"permrev was imported from {permrev.__file__}, not {src}")
    return seconds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def attempt(workload, call) -> tuple[float, bool]:
    """Run and check one job; a raised error or a wrong output is a failure."""
    start = time.perf_counter()
    try:
        result, seconds = call()
        workload.check(result)
        return seconds, True
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, False


def untraced(workload):
    start = time.perf_counter()
    result = workload.job()
    return result, time.perf_counter() - start


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: start the next job once the previous one is checked.

    Untraced, it runs jobs until ``seconds`` have passed. Traced, it runs
    pairs of one untraced and one traced job, alternating which goes first.
    Every mode runs at least one job (or pair).
    """
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    failed = 0
    start = time.perf_counter()
    while not times["untraced"] or time.perf_counter() - start < seconds:
        steps = [("untraced", lambda: untraced(workload))]
        if tracer is not None:
            steps.append(("traced", lambda: tracer.run(workload.job)))
            if len(times["traced"]) % 2:
                steps.reverse()
        for kind, call in steps:
            job_s, ok = attempt(workload, call)
            times[kind].append(job_s)
            failed += not ok
    attempted = len(times["untraced"]) + len(times["traced"])
    return {"times": times, "attempted": attempted, "failed": failed}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    declared = declared_metrics()
    try:
        import_s = import_permrev()
        import workloads
    except ImportError as exc:
        print(f"cannot import permrev from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    def set_up():
        start = time.perf_counter()
        workload = workloads.make(name, seed, smoke)
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        return workload

    setup_times: list[float] = []
    workload = set_up()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    run = measure(workload, 0 if smoke else seconds, tracer)
    untraced_s = quartiles(run["times"]["untraced"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The further set-ups come after the jobs, so that the median of the
    # set-up times is not taken from one short stretch of the run.
    for _ in range(SETUP_REPEATS - 1):
        set_up()

    if trace:
        traced_s = statistics.median(run["times"]["traced"])
        values = tracer.metrics()
        values["trace.job_s"] = traced_s
        values["trace.untraced_job_s"] = untraced_s[1]
        values["trace.overhead_s"] = traced_s - untraced_s[1]
    else:
        values = {
            "job_p75_s": untraced_s[2],
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared["1" if trace else "0"]
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "commit": git_commit(),
        "input_states": workload.sizes(),
    }
    error_rate = run["failed"] / run["attempted"]
    print("context " + json.dumps(context))
    print(f"{name}: job_s median {untraced_s[1]:.4f} q1 {untraced_s[0]:.4f} "
          f"q3 {untraced_s[2]:.4f} over {len(run['times']['untraced'])} untraced jobs; "
          f"setup_s {import_s:.4f} import + {statistics.median(setup_times):.4f} "
          f"median of {SETUP_REPEATS}; peak_rss_mb {peak_rss_mb:.1f}; "
          f"error_rate {error_rate:g} ({run['failed']}/{run['attempted']})")
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{name}-seed{seed}{'-smoke' if smoke else ''}.json.gz"
        with gzip.open(path, "wt") as f:
            json.dump({"context": context, "metrics": values, **tracer.dump()}, f)
        print(f"spans written to {path.relative_to(ROOT)}")

    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Each workload in its own process (so peak RSS is its own), in turn."""
    traces = ("0", "1") if smoke else ("0",)
    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            proc = subprocess.run(argv + (["--smoke"] if smoke else []),
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(proc.stdout, end="")
                print(f"{name} trace {trace}: no result (exit {proc.returncode})")
                status = 1
                continue
            print("\n".join(line for line in lines if line.startswith(name + ":")))
            print(f"result {name} trace {trace} {lines[-1]}")
            if proc.returncode:
                status = 1
            if trace == "0":
                rows.append((name, result))
    print(f"{'workload':<8} {'job_p75_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} "
          f"{'error_rate':>11}")
    for name, result in rows:
        m = result["metrics"]
        print(f"{name:<8} {m['job_p75_s']['value']:>10.4f} "
              f"{m['setup_s']['value']:>10.4f} {m['peak_rss_mb']['value']:>12.1f} "
              f"{result['failed'] / result['attempted']:>11g}")
    print("all workloads correct" if status == 0 else "FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1009)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one job per run, check every metric name")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.smoke)
    return run_one(args.workload, args.seed, args.seconds, args.trace == "1", args.smoke)


if __name__ == "__main__":
    sys.exit(main())
