"""Build the coarse trim map that the cruise_transition workload reads.

The grid is the unit-test grid (v_a 0:4:20 m/s, gamma -10:5:10 deg) and the
solver settings are the defaults of ``build_trim_map``. Run from the root of
the repository:

    PYTHONPATH=src python3 perfbench/make_coarse_map.py

It writes ``perfbench/data/coarse_map.csv`` and prints the SHA-256 of the file,
which ``perfbench/data/coarse_map.sha256`` records. The map is committed so
that the benchmark measures the closed loop, not a two-minute map build.
"""
from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from tiltwing.trim import build_trim_map, save_trim_map
from tiltwing.vehicle import default_vehicle

OUT = Path(__file__).resolve().parent / "data" / "coarse_map.csv"


def main() -> int:
    va = np.arange(0.0, 20.0 + 1e-9, 4.0)
    gamma = np.radians(np.arange(-10.0, 10.0 + 1e-9, 5.0))
    t0 = time.perf_counter()
    tmap = build_trim_map(default_vehicle(), va_axis=va, gamma_axis=gamma)
    elapsed = time.perf_counter() - t0
    save_trim_map(tmap, OUT)
    digest = hashlib.sha256(OUT.read_bytes()).hexdigest()
    total = va.size * gamma.size
    print(f"{tmap.n_feasible}/{total} feasible cells in {elapsed:.1f} s")
    print(f"{digest}  {OUT.name}")
    return 0 if tmap.n_feasible == total else 1


if __name__ == "__main__":
    sys.exit(main())
