"""Command-line interface.

    gridmind simulate --config run.json [--seed N] [--out DIR] [--validate-only]
    gridmind experiment --matrix matrix.json --out DIR
    gridmind sweep-threshold --world W --policy P.json --out DIR
    gridmind --version

Exit codes: 0 ok; 1 some experiment cells failed (each is marked in
report.csv); 2 bad input (a config, matrix, policy or world file that
cannot be read, or a value that breaks a rule, named by its dotted path);
3 any other error. Errors are one line on stderr, never a traceback.
GRIDMIND_VERBOSE=1 prints, on stderr, a progress line per (world, seed)
of experiment and one summary line after simulate or experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .affect import sweep_threshold
from .inputs import InputError, load_json


def cmd_simulate(args) -> int:
    data = load_json(args.config)
    if args.seed is not None and isinstance(data, dict):
        data["seed"] = args.seed  # read by the same rule as the file's seed
    config = harness.config_from_dict(data)
    if args.validate_only:
        harness.open_world(config.world)  # a run builds it when it starts
        print("config ok")
        return 0
    _, summary = harness.run(config, out_dir=args.out)
    harness.say(f"run {summary['run_id']} done: total frustration "
                f"{summary['totals']['total']:.4f}")
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_experiment(args) -> int:
    rows, failures = harness.experiment(load_json(args.matrix), out_dir=args.out)
    harness.say(f"{len(rows)} report rows, {failures} failed cells")
    print(f"wrote {Path(args.out) / 'report.csv'} ({len(rows)} rows)")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    world = harness.open_world(args.world)
    thresholds, policy, seeds, steps = harness.sweep_from_dict(load_json(args.policy))
    path = harness.out_path(args.out) / "sweep.csv"
    table = sweep_threshold(world, thresholds, policy, seeds, steps=steps)
    harness.write_table(path, harness.SWEEP_COLUMNS,
                        ([row[c] for c in harness.SWEEP_COLUMNS] for row in table))
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
    try:
        return args.func(args)
    except InputError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - one line, never a traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
