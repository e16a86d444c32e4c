"""Capture the outputs that the benchmark's reference checks compare against.

Run from the repository root, on the commit whose outputs become the
reference (it overwrites ``bench/reference.json``):

    python3 bench/record_reference.py --seeds 0-19

Each op runs once per seed; ops whose output does not depend on the seed
run once. Every output must first pass the benchmark's own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
from workloads import INSTANCES, build_ops


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-19"), help="range such as 0-19")
    args = parser.parse_args(argv)
    hyperteam, toy_path = run.import_package()
    reference = {"git_sha": run._git_sha(), "src_sha256": run._src_digest(),
                 "seeds": {}, "any_seed": {}}
    work = run.WORK / f"record-{os.getpid()}"
    try:
        for n, seed in enumerate(args.seeds):
            for workload in INSTANCES:
                ops = [op for op in build_ops(workload, hyperteam, toy_path, seed)
                       if op.seeded or n == 0]
                runner = run.Runner(ops, work, seed, {})
                runner.rep()
                if runner.failed:
                    print("\n".join(runner.problems), file=sys.stderr)
                    return 1
                for op in ops:
                    if op.name in runner.observed:
                        bucket = (reference["seeds"].setdefault(str(seed), {}) if op.seeded
                                  else reference["any_seed"])
                        bucket[op.name] = runner.observed[op.name]
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
