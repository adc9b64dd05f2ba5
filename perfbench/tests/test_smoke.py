"""Tests of the benchmark itself: the smoke mode and failure counting.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def test_smoke_runs_every_workload_and_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    seen = set()
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            _, workload, _, trace, payload = line.split(" ", 4)
            result = json.loads(payload)
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == names[trace]
            seen.add((workload, trace))
    assert seen == {(w, t) for w in run.WORKLOADS for t in ("0", "1")}


class _Stub:
    def __init__(self, job, check):
        self.job, self.check = job, check


def _wrong(result):
    raise AssertionError("wrong output")


def _crash():
    raise RuntimeError("job crashed")


def test_wrong_output_and_raised_error_count_as_failures():
    assert run.measure(_Stub(lambda: 1, _wrong), 0)["failed"] == 1
    assert run.measure(_Stub(_crash, lambda r: None), 0)["failed"] == 1
    ok = run.measure(_Stub(lambda: 1, lambda r: None), 0)
    assert (ok["attempted"], ok["failed"]) == (1, 0)
