"""Steadiness check: run the benchmark over several seeds and show how much
each end-to-end metric spreads, next to the host noise seen while it ran.

    python3 bench/steady.py --workload matrix --runs 10 [--sets 2] [--seconds 30]

Each run is a fresh ``bench/run.py --trace 0`` process with its own seed,
one after the other. A metric's spread is the distance between the first
and third quartiles of its values (``statistics.quantiles(n=4)``) as a
share of their median. Every spread but ``setup_s``'s must stay within the
metric's bound in BENCHMARK.json, and with ``--sets 2`` or more each later
set's median must not be worse than the first set's by more than the
bound. Exit code 1 if any of that fails or a run fails.

The host is shown, not hidden: every run prints the load average at its
start and end, the CPU time of its measured window over its wall time,
the steps per second as timed, and how much slower than nominal the frozen
twin ran beside the program (``run.Yardstick``), which the reported times
are divided by. A run whose raw figures and twin slowed together, with
its CPU share still near 1, was slowed by the host (contention for shared
cores and caches, clock changes), not by the program and not by
descheduling.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, load_spec
from workloads import WORKLOADS


def one_run(workload: str, seed: int, seconds) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    host = next(json.loads(line[len("machine "):]) for line in lines
                if line.startswith("machine "))
    return json.loads(lines[-1]), host


def spread(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}

    ok = True
    first_medians = None
    for set_no in range(args.sets):
        seeds = [args.first_seed + set_no * args.runs + i for i in range(args.runs)]
        print(f"{args.workload} set {set_no + 1}: seeds {seeds[0]}..{seeds[-1]}")
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, host = one_run(args.workload, seed, args.seconds)
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed:>4}  correct {result['correct']!s:<5}  "
                  f"load {host['loadavg_start'].split()[0]} -> {host['loadavg_end'].split()[0]}  "
                  f"cpu/wall {host['cpu_per_wall']:.3f}  "
                  f"raw {host['raw_steps_per_s']:.5g}/s  "
                  f"twin slowdown {host['twin_slowdown']:.3f}  "
                  + "  ".join(f"{name} {values[name][-1]:.5g}" for name in bounds),
                  flush=True)
        medians = {}
        for name, entry in bounds.items():
            median, q1, q3, share = spread(values[name])
            medians[name] = median
            verdict = "ok"
            if name != "setup_s" and share > entry["bound"]:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif name != "setup_s" and share > entry["bound"] / 3:
                verdict = "spread above a third of the bound"
            if first_medians is not None:
                base = first_medians[name]
                worse = (base - median) / base if entry["better"] == "higher" else (median - base) / base
                if worse > entry["bound"]:
                    verdict, ok = f"MEDIAN {worse:.1%} WORSE THAN SET 1", False
            print(f"  {name:<14} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:7.2%}  bound {entry['bound']:.0%}  {verdict}")
        first_medians = first_medians or medians
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
