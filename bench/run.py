"""The gridmind benchmark: one command for every workload.

    python3 bench/run.py --workload matrix --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --size smoke --seconds 0

Runs every workload in one process, without pools or threads (set-up time
alone is taken in fresh interpreters, started one at a time), from the
root of a source checkout: it imports ``gridmind`` from ``src/`` and reads
``configs/``.
Workloads and their reasons are in ``workloads.py``; metric names, units
and bounds in ``BENCHMARK.json``.

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json by
name with its unit; every time is scaled by how fast a frozen copy of
gridmind, doing the same kind of work at the same moments (``Yardstick``,
``twin_probe``), ran against its nominal speed, and the raw figures are
printed too. With
``--trace 1`` it makes the workload's fixed traced passes, each once
untraced and once under the tracer of ``tracing.py``, and prints every
per-layer metric; the spans go to ``bench/.out/spans_<workload>.csv``.
Either way every output is hashed and compared with the sha256 pinned in
``digests.json``, a traced output must equal its untraced counterpart,
and any difference makes the run fail with exit code 1. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

from tracing import Rebinding, Tracer
from workloads import LAYER_MOVES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"   # temporary output directories live here
SETUP_PROBES = 7
TAIL_BEYOND = 10
# Every end-to-end metric a run measures, with its unit. BENCHMARK.json bounds
# those that stay within a bound on a shared host; the others are printed only.
E2E_UNITS = {"steps_per_s": "1/s", "run_s_p50": "s", "run_s_tail": "s",
             "step_us_p50": "us", "step_us_tail": "us", "setup_s": "s",
             "peak_rss_mib": "MiB"}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to build and run gridmind."""


class FirstStep(BaseException):
    """Raised by a set-up probe at the first simulated step. A BaseException,
    so the matrix harness's per-cell ``except Exception`` lets it through."""


def bootstrap():
    """Import gridmind from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "gridmind" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SetupError(f"no gridmind source tree (src/gridmind, configs/) under {ROOT}")
    sys.path.insert(0, str(src))
    import gridmind

    if Path(gridmind.__file__).resolve().parent != (src / "gridmind").resolve():
        raise SetupError(f"gridmind was imported from {gridmind.__file__}, not {src}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- timing ---------------------------------------------------------------------

TWIN_CATCH_UP_NS = 200_000_000   # timed program work between two catch-ups of the twin
_DONE = object()


class Yardstick:
    """The frozen twin of the workload's seeded runs (``Workload.twin``, on
    the copy in ``gridmind_frozen/``), run in step with the program.

    Every program run gets a fresh twin run. After each unit of program
    work (a step, or a whole run when steps are not timed) the twin owes
    one unit; it does the units it owes after every TWIN_CATCH_UP_NS of
    program work and at the end of each program run. So the twin does the
    same kind of work at the same moments, with its buffer as full as the
    program's, and a shared host that slows one slows the other by nearly
    the same factor. The twin's work is fixed, and ``slowdown()`` is its
    time over its nominal time; the program's times divided by it stay
    put while the raw times drift. The twin's own time is left out of
    every program time."""

    def __init__(self, twin, size):
        self._twin, self._size = twin, size
        self._units = iter(())
        self._owed = 0
        self._due_ns = TWIN_CATCH_UP_NS
        self.runs = 0
        self.twin_ns = 0       # time of the twin's units
        self.unit_ns = array("q")   # each twin unit's time
        self.spent_ns = 0      # all time spent on the twin, creation included
        for _ in zip(range(3), twin(size)):   # imports and first calls, untimed
            pass

    def start_run(self):
        self.catch_up()
        start = time.perf_counter_ns()
        self._units = self._twin(self._size)
        self.runs += 1
        self.spent_ns += time.perf_counter_ns() - start

    def unit_done(self, busy_ns: int):
        self._owed += 1
        self._due_ns -= busy_ns
        if self._due_ns <= 0:
            self.catch_up()

    def catch_up(self):
        self._due_ns = TWIN_CATCH_UP_NS
        clock = time.perf_counter_ns
        begin = clock()
        for _ in range(self._owed):
            start = clock()
            if next(self._units, _DONE) is _DONE:
                break
            self.unit_ns.append(clock() - start)
        took = clock() - begin
        self._owed = 0
        self.twin_ns += took
        self.spent_ns += took

    def slowdown(self) -> float:
        """Twin time over nominal twin time: above 1 on a slow host."""
        return self.twin_ns / 1e9 / (self.runs * self._size.twin_s)

    def step_slowdown(self) -> float:
        """Median twin step over the nominal one. A host phase moves a
        typical step and a whole run by different factors (the full-buffer
        scans that dominate a run feel cache contention more), so step
        latencies are scaled by this and not by ``slowdown()``."""
        return statistics.median(self.unit_ns) / 1e3 / self._size.twin_step_us


def timed(fn, sink, yardstick, run=False, unit=False):
    """Wrap ``fn`` to append its duration in ns, less any twin work done
    inside it, to ``sink``. A ``run`` starts a twin run and settles it at
    its end; a ``unit`` makes the twin owe one unit."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if run:
            yardstick.start_run()
        spent = yardstick.spent_ns
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = clock() - start - (yardstick.spent_ns - spent)
            sink.append(took)
            if unit:
                yardstick.unit_done(took)
            if run:
                yardstick.catch_up()

    return wrapper


def tail(values):
    """(percentile, value, samples beyond): the higher of p99 and p90 that has
    at least TAIL_BEYOND samples beyond it; the maximum when neither has.

    Not the very highest percentile with ten beyond: over the 12k-26k steps
    of a run that is set by a handful of steps of the seeds the run drew and
    moved by 10% between seed pairs, where p99 moved by 3%."""
    ordered = sorted(values)
    n = len(ordered)
    for percent in (99, 90):
        rank = -(-n * percent // 100)   # nearest rank
        if n - rank >= TAIL_BEYOND:
            return float(percent), ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def entry(size, seed: int, j: int) -> int:
    """The pool entry pass ``j`` of a run uses: the run cycles over
    size.entries consecutive entries starting at its seed."""
    return (seed + j % size.entries) % size.pool


# -- the machine -----------------------------------------------------------------


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def machine() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def git_commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


# -- passes ----------------------------------------------------------------------


class Checks:
    """Operations attempted and failed: seeded runs, and outputs compared
    with their pinned digests."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def runs(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} seeded runs failed in {what}")

    def outputs(self, k: int, outputs: dict, what: str) -> dict:
        digests = {}
        expected = self.pinned.get(str(k), {})
        for name, data in sorted(outputs.items()):
            digests[name] = got = sha256(data)
            self.attempted += 1
            if got != expected.get(name):
                self.failed += 1
                self.problems.append(f"{what}: {name} sha256 {got} != pinned "
                                     f"{expected.get(name)}")
        return digests


def run_pass(workload, size, k):
    """One pass and its wall time in seconds."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        start = time.perf_counter_ns()
        result = workload.run_pass(ROOT, size, k, Path(tmp))
        return result, (time.perf_counter_ns() - start) / 1e9


def setup_seconds(workload, size_name, seed) -> tuple[list, list]:
    """Wall time from process start to the first simulated step, once per
    fresh interpreter, SETUP_PROBES times, one after the other; each
    followed by the same for the twin on the frozen copy (``twin_probe``),
    whose times show how slow the host was at that moment."""
    samples, twin_samples = [], []
    for _ in range(SETUP_PROBES):
        for flag, sink in (("--setup-probe", samples), ("--twin-probe", twin_samples)):
            t0 = time.monotonic_ns()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload.name,
                 "--seed", str(seed), "--size", size_name, flag, str(t0)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            sink.append(int(proc.stdout.split()[-1]) / 1e9)
    return samples, twin_samples


def probe(workload, size, seed, t0: int) -> int:
    """Child side of setup_seconds: do the workload's first pass up to its
    first simulated step and print the nanoseconds since ``t0``."""
    def stop(fn):
        def first_step(*args, **kwargs):
            raise FirstStep(time.monotonic_ns())
        return first_step

    binding = Rebinding()
    binding.wrap(*workload.first_step, stop)
    try:
        run_pass(workload, size, entry(size, seed, 0))
    except FirstStep as reached:
        print(reached.args[0] - t0)
        return 0
    finally:
        binding.restore()
    print("the workload finished without a simulated step", file=sys.stderr)
    return 1


def twin_probe(workload, size, t0: int) -> int:
    """Child side of setup_seconds for the twin: import the frozen copy, set
    up the twin run and do its first unit; print the nanoseconds since
    ``t0``. Nothing of ``src/`` is imported."""
    next(workload.twin(size))
    print(time.monotonic_ns() - t0)
    return 0


def measure(workload, size, size_name, seed, seconds, checks) -> dict:
    """Untraced passes for about ``seconds`` (and at least size.min_passes),
    cycling over size.entries pool entries, with the frozen twin run in
    step (``Yardstick``); the end-to-end metrics."""
    setup, twin_setup = setup_seconds(workload, size_name, seed)
    setup_slow = statistics.median(twin_setup) / size.twin_setup_s
    yardstick = Yardstick(workload.twin, size)
    run_ns, step_ns = array("q"), array("q")   # compact, so they barely move peak RSS
    binding = Rebinding()
    binding.wrap(*workload.run_unit, lambda fn: timed(
        fn, run_ns, yardstick, run=True, unit=workload.step_unit is None))
    if workload.step_unit is not None:
        binding.wrap(*workload.step_unit, lambda fn: timed(fn, step_ns, yardstick, unit=True))
    walls, lengths, steps = [], [], 0   # per pass: program time, time with the twin
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        # Start no pass that would likely end after the deadline.
        while len(walls) < size.min_passes or (
                time.perf_counter() - start + statistics.median(lengths) < seconds):
            k = entry(size, seed, len(walls))
            what = f"{workload.name} pass {len(walls)} (pool entry {k})"
            spent = yardstick.spent_ns
            result, length = run_pass(workload, size, k)
            checks.runs(result.cells, result.failed, what)
            checks.outputs(k, result.outputs, what)
            walls.append(length - (yardstick.spent_ns - spent) / 1e9)
            lengths.append(length)
            steps += result.steps
    finally:
        binding.restore()
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu0

    slow = yardstick.slowdown()
    run_s = [ns / 1e9 / slow for ns in run_ns]
    if workload.step_unit is None:   # one step is too short to time alone
        per_pass, step_slow = steps / len(walls), slow
        step_us = [wall * 1e6 / per_pass / slow for wall in walls]
    else:
        step_slow = yardstick.step_slowdown()
        step_us = [ns / 1e3 / step_slow for ns in step_ns]
    run_p, run_tail, run_beyond = tail(run_s)
    step_p, step_tail, step_beyond = tail(step_us)
    raw = steps / sum(walls)
    at_nominal = f"at the twin's nominal speed (times / {slow:.4f})"
    return {
        "metrics": {
            "steps_per_s": raw * slow,
            "run_s_p50": statistics.median(run_s),
            "run_s_tail": run_tail,
            "step_us_p50": statistics.median(step_us),
            "step_us_tail": step_tail,
            "setup_s": statistics.median(setup) / setup_slow,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "notes": {
            "steps_per_s": f"{steps} steps in {len(walls)} passes of {size.entries} pool "
                           f"entries, {at_nominal}; {raw:.6g} as timed",
            "run_s_p50": f"median of {len(run_s)} seeded runs, {at_nominal}",
            "run_s_tail": f"p{run_p:.4g} of {len(run_s)} seeded runs, {run_beyond} beyond",
            "step_us_p50": f"median of {len(step_us)} "
                           + ("steps" if workload.step_unit else "per-pass step means")
                           + f", at the twin's nominal speed (times / {step_slow:.4f})",
            "step_us_tail": f"p{step_p:.4g} of {len(step_us)}, {step_beyond} beyond",
            "setup_s": f"median of {len(setup)} fresh processes, at the twin's nominal "
                       f"speed (times / {setup_slow:.4f}); "
                       f"{statistics.median(setup):.6g} as timed",
            "peak_rss_mib": "peak resident set of this process",
        },
        "host": {"wall_s": wall_s, "cpu_s": cpu_s, "cpu_per_wall": cpu_s / wall_s,
                 "twin_runs": yardstick.runs, "twin_s": yardstick.twin_ns / 1e9,
                 "twin_slowdown": slow, "twin_step_slowdown": step_slow,
                 "twin_setup_slowdown": setup_slow,
                 "raw_steps_per_s": raw},
    }


def trace(workload, size, seed, checks) -> dict:
    """size.trace_passes passes, each once untraced and once traced; the
    per-layer metrics and the tracing overhead."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    cells = output_bytes = 0
    run_pass(workload, workload.sizes["smoke"], 0)  # lazy imports, first calls
    for j in range(size.trace_passes):
        k = entry(size, seed, j)
        what = f"{workload.name} pass {j} (pool entry {k})"
        plain, wall = run_pass(workload, size, k)
        untraced_s += wall
        checks.runs(plain.cells, plain.failed, what)
        plain_digests = checks.outputs(k, plain.outputs, what)
        with tracer:
            result, wall = run_pass(workload, size, k)
        traced_s += wall
        checks.runs(result.cells, result.failed, what + " traced")
        traced_digests = checks.outputs(k, result.outputs, what + " traced")
        checks.attempted += 1
        if traced_digests != plain_digests:
            checks.failed += 1
            checks.problems.append(f"{what}: traced outputs differ from untraced ones")
        cells += result.cells
        output_bytes += sum(len(data) for data in result.outputs.values())

    out = BENCH / ".out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans_{workload.name}.csv"
    tracer.write_spans(spans)
    metrics = tracer.layer_metrics()
    metrics["harness.simulations_per_cell"] = (
        metrics["harness.run.calls"] / cells if cells else 0.0)
    metrics["harness.output_bytes"] = output_bytes
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    notes = {f"{layer} should move": moves for layer, moves in LAYER_MOVES.items()}
    notes["spans"] = f"{len(tracer.span_start)} spans in {spans.relative_to(ROOT)}"
    return {"metrics": metrics, "notes": notes}


# -- one workload, start to end ---------------------------------------------------


def run_workload(name, size_name, seed, seconds, traced, spec, digests) -> dict:
    workload = WORKLOADS[name]
    size = workload.sizes[size_name]
    checks = Checks(digests.get(size_name, {}).get(name, {}))
    host = machine()
    print(f"workload {name}  size {size_name}  seed {seed}  seconds {seconds}  "
          f"trace {int(traced)}")
    if traced:
        measured = trace(workload, size, seed, checks)
        wanted = spec["per_layer"]
    else:
        measured = measure(workload, size, size_name, seed, seconds, checks)
        wanted = spec["end_to_end"]
        host.update(measured["host"])
    host["loadavg_end"] = loadavg()
    print("machine " + json.dumps(host, sort_keys=True))

    units = {entry["name"]: entry["unit"] for entry in wanted}
    printed_only = {} if traced else {name: unit for name, unit in E2E_UNITS.items()
                                      if name not in units}
    metrics = {}
    for name, unit in {**units, **printed_only}.items():
        value = measured["metrics"][name]
        note = measured["notes"].get(name, "")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        else:
            note += " (printed only: no bound in BENCHMARK.json)"
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")
    for key, note in measured["notes"].items():
        if key not in units and key not in printed_only:
            print(f"  {key}: {note}")
    rate = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  {'error_rate':<36} {rate:>16.6g} ratio  "
          f"{checks.failed} failed of {checks.attempted} attempted")
    for problem in checks.problems:
        print(f"  FAILED {problem}")
    return {"correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--twin-probe", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, digests=None) -> int:
    args = parse_args(argv)
    if args.twin_probe is not None:   # before bootstrap: the frozen copy alone
        workload = WORKLOADS[args.workload]
        return twin_probe(workload, workload.sizes[args.size], args.twin_probe)
    try:
        bootstrap()
        spec = load_spec()
    except (SetupError, OSError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.setup_probe is not None:
        workload = WORKLOADS[args.workload]
        return probe(workload, workload.sizes[args.size], args.seed, args.setup_probe)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    digests = load_digests() if digests is None else digests

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.size, args.seed, seconds,
                                     bool(args.trace), spec, digests)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
