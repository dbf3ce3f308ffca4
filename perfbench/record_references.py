"""Record the output hashes of every workload for seeds 0..N-1.

    python3 perfbench/record_references.py [--seeds N] [--workload NAME ...]

Run from the root of the repository. It runs each job once, untraced, and
merges the hashes into ``perfbench/references.json``, which ``run.py``
compares every run against. Re-record only when a change is meant to alter
the program's outputs, and say so with the change.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

import workloads  # noqa: E402
from run import OUT_DIR_NAME, REFERENCES  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) \
        if REFERENCES.is_file() else {}
    for name in args.workload:
        for seed in range(args.seeds):
            inputs = workloads.make_inputs(name, seed, Path(OUT_DIR_NAME))
            loaded = workloads.set_up(inputs.scenario_path, inputs.map_path)
            job = workloads.run_job(inputs, loaded)
            if job.errors:
                print(f"{name} seed {seed}: {job.errors}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = job.hashes
            print(f"{name} seed={seed} {job.hashes}", flush=True)
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
