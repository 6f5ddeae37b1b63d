"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench -q              # about two minutes
    python3 -m pytest bench -q -m "not slow"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(run.WORKLOADS)
DETERMINISTIC = {"replay.priorities.items", "planning.plan_search.expansions",
                 "harness.simulations_per_cell"}


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--size", "smoke", "--seconds", "0",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def printed(lines, name, unit) -> bool:
    """A report line names the metric, gives a number, then the unit."""
    for line in lines:
        words = line.split()
        if len(words) >= 3 and words[0] == name and words[2] == unit:
            float(words[1])
            return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--trace", "0")
    result = result_of(proc)
    lines = proc.stdout.splitlines()[:-1]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
        assert printed(lines, entry["name"], entry["unit"]), entry["name"]
    for name, unit in run.E2E_UNITS.items():   # bounded or printed only
        assert printed(lines, name, unit), name
    assert printed(lines, "error_rate", "ratio")
    machine = json.loads(next(l for l in lines if l.startswith("machine "))[len("machine "):])
    for key in ("nproc", "cpu", "python", "numpy", "commit", "loadavg_start",
                "loadavg_end", "cpu_per_wall", "twin_slowdown", "raw_steps_per_s"):
        assert key in machine


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_keeps_the_digests_and_repeats_its_counts(workload):
    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--trace", "1")
        result = result_of(proc)
        assert result["correct"], proc.stdout   # pinned digests; traced == untraced
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        lines = proc.stdout.splitlines()[:-1]
        for entry in SPEC["per_layer"]:
            assert printed(lines, entry["name"], entry["unit"]), entry["name"]
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if name.endswith(".calls") or name in DETERMINISTIC})
    assert counts[0] == counts[1]
    if workload == "long_run":   # plan_search ran with an injected stats dict
        assert counts[0]["planning.plan_search.calls"] > 0
        assert counts[0]["planning.plan_search.expansions"] > 0


def test_a_tampered_reference_digest_fails_the_run(capsys):
    digests = json.loads((BENCH / "digests.json").read_text())
    pinned = digests["smoke"]["sweep"]["0"]
    pinned["sweep.csv"] = "0" * 64
    code = run.main(["--workload", "sweep", "--size", "smoke", "--seconds", "0"],
                    digests=digests)
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any("FAILED" in line and "sweep.csv" in line for line in out)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".out"))
    proc = bench("--workload", "sweep", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tail_is_p99_or_p90_with_ten_samples_beyond_else_the_maximum():
    assert run.tail(range(1, 101)) == (90.0, 90, 10)
    assert run.tail(range(1, 1001)) == (99.0, 990, 10)
    assert run.tail(range(1, 10_001)) == (99.0, 9900, 100)
    assert run.tail([3, 1, 2]) == (100.0, 3, 0)      # too few: the maximum
    assert run.tail(range(1, 33)) == (100.0, 32, 0)


def test_timed_leaves_out_twin_work_done_inside_a_run():
    class Yardstick:
        spent_ns = 0
        calls = []

        def start_run(self):
            self.calls.append("start_run")

        def unit_done(self, busy_ns):
            self.calls.append("unit_done")

        def catch_up(self):
            self.calls.append("catch_up")

    yardstick, sink = Yardstick(), []

    def work():   # as if the twin caught up for 50 ms inside the run
        time.sleep(0.05)
        yardstick.spent_ns += 50_000_000

    run.timed(work, sink, yardstick, run=True, unit=True)()
    assert abs(sink[0]) < 20_000_000
    assert yardstick.calls == ["start_run", "unit_done", "catch_up"]


@pytest.mark.slow
def test_the_pool_is_anchored_to_the_canonical_matrix_digest():
    import pin_digests

    run.bootstrap()
    run.WORK.mkdir(exist_ok=True)
    got = pin_digests.canonical_report_digest()
    assert got == run.load_digests()["canonical_matrix_report.csv"]
    assert got == "ca90f5afbe889319a8f26dd299a2be5d6cbaafc9b5b89f7d3310ec71faac60df"
