"""Recompute the reference sha256 of every pool entry's outputs and pin them.

    python3 bench/pin_digests.py            # print what would change
    python3 bench/pin_digests.py --write    # rewrite bench/digests.json

Every benchmark run compares its outputs with these digests, so rewrite
them only for a deliberate change of output bytes, announced as such. The
canonical matrix (``configs/matrix.json`` as it stands, 20 seeds) is
recomputed too; its ``report.csv`` digest is the anchor that ties the
pinned passes, which are its seeds one at a time, to the published
reference. Takes about five minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def canonical_report_digest() -> str:
    from gridmind import harness

    matrix = json.loads((run.ROOT / "configs" / "matrix.json").read_text())
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        harness.experiment(matrix, out_dir=tmp)
        return run.sha256((Path(tmp) / "report.csv").read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    run.bootstrap()
    run.WORK.mkdir(exist_ok=True)

    fresh = {"canonical_matrix_report.csv": canonical_report_digest()}
    for size_name in ("smoke", "full"):
        fresh[size_name] = {}
        for name, workload in WORKLOADS.items():
            size = workload.sizes[size_name]
            fresh[size_name][name] = pool = {}
            for k in range(size.pool):
                result, _ = run.run_pass(workload, size, k)
                pool[str(k)] = {out: run.sha256(data)
                                for out, data in sorted(result.outputs.items())}
                print(f"{size_name} {name} {k} {pool[str(k)]}", flush=True)

    path = run.BENCH / "digests.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    changed = old != fresh
    print("digests changed" if changed else "digests unchanged")
    if args.write and changed:
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
