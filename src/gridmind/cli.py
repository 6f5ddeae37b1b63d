"""Command-line interface.

    gridmind simulate --config run.json [--seed N] [--out DIR] [--validate-only]
    gridmind experiment --matrix matrix.json --out DIR
    gridmind sweep-threshold --world W --policy P.json --out DIR
    gridmind --version

Exit codes: 0 ok, 1 partial experiment failure, 2 invalid configuration,
3 runtime invariant breach. GRIDMIND_VERBOSE=1 prints progress lines.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .affect import InterruptPolicy, sweep_threshold
from .presets import get_world
from .suffering import LedgerError
from .world import WorldError


def _verbose() -> bool:
    return os.environ.get("GRIDMIND_VERBOSE", "") not in ("", "0")


def _say(msg: str):
    if _verbose():
        print(msg, file=sys.stderr)


def cmd_simulate(args) -> int:
    try:
        config = harness.load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        harness.validate_config(config)
    except harness.ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        print("config ok")
        return 0
    try:
        _, summary = harness.run(config, out_dir=args.out)
    except (LedgerError, WorldError) as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return 3
    _say(f"run {summary['run_id']} done: total frustration "
         f"{summary['totals']['total']:.4f}")
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_experiment(args) -> int:
    try:
        matrix = json.loads(Path(args.matrix).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"invalid matrix: {exc}", file=sys.stderr)
        return 2
    try:
        rows, failures = harness.experiment(matrix, out_dir=args.out)
    except harness.ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except (LedgerError, WorldError) as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return 3
    _say(f"{len(rows)} report rows, {failures} failed cells")
    print(f"wrote {Path(args.out) / 'report.csv'} ({len(rows)} rows)")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    try:
        world = get_world(args.world)
        spec = json.loads(Path(args.policy).read_text())
    except (OSError, json.JSONDecodeError, WorldError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    thresholds = spec.pop("thresholds", None)
    seeds = spec.pop("seeds", list(range(5)))
    steps = spec.pop("steps", 300)
    if not thresholds or len(thresholds) < 2:
        print("invalid config: policy.thresholds: need at least two", file=sys.stderr)
        return 2
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    try:
        policy = InterruptPolicy(**spec)
        table = sweep_threshold(world, thresholds, policy, seeds, steps=steps)
    except (TypeError, ValueError) as exc:
        print(f"invalid config: policy: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("threshold", "false_alarms",
                                                "misses", "realized_cost"))
        writer.writeheader()
        writer.writerows(table)
    print(f"wrote {path} ({len(table)} thresholds)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmind", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"gridmind {harness.VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one seeded simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--validate-only", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("experiment", help="run an intervention matrix")
    exp.add_argument("--matrix", required=True)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_experiment)

    sw = sub.add_parser("sweep-threshold", help="signal-detection threshold sweep")
    sw.add_argument("--world", required=True)
    sw.add_argument("--policy", required=True)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
