"""Time one set-up in a fresh interpreter: import, vehicle, scenario, map.

    python3 perfbench/setup_probe.py [--scenario PATH] [--map PATH]

Run from the root of the checkout. Prints the elapsed seconds.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, "src")

import tiltwing  # noqa: E402,F401
from workloads import set_up  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", type=Path)
    ap.add_argument("--map", type=Path)
    args = ap.parse_args()
    set_up(args.scenario, args.map)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
