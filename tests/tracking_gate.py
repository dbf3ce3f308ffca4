"""Tracking gate: rerun the four shipped scenarios and compare their report
metrics with the committed record ``tests/tracking_record.json``.

    PYTHONPATH=src python3 tests/tracking_gate.py [--record]

Cruise scenarios fly on ``perfbench/data/coarse_map.csv``. The gate exits 1
when a run faults, when its row count differs from the record, or when a
metric is worse than the record by more than ``BOUND`` relative: larger is
worse for the errors, the allocator passes and the residual, smaller is
worse for ``altitude_min``. ``--record`` rewrites the record from this
run instead. The file name keeps pytest from collecting it; the runs take
about half a minute.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tiltwing.sim import compute_metrics, load_scenario, run_scenario
from tiltwing.trim import load_trim_map
from tiltwing.vehicle import default_vehicle

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("tracking_record.json")
MAP = ROOT / "perfbench" / "data" / "coarse_map.csv"
SCENARIOS = ("hover_steps", "forward_transition", "back_transition_fast", "vz_steps")
BOUND = 0.02
# +1: a larger value is worse; -1: a smaller one is
WORSE = {**{f"{axis}_err_{kind}": 1 for axis in ("roll", "pitch", "vz")
            for kind in ("rms", "max")},
         "altitude_min": -1, "alloc_passes_mean": 1, "alloc_res_rms": 1}


def run(name: str, vp, tmap) -> dict[str, float]:
    """The recorded metrics of one shipped scenario run to its end."""
    sc = load_scenario(name)
    metrics = compute_metrics(run_scenario(sc, vp, tmap if sc.mode == "cruise" else None), sc)
    return {k: metrics[k] for k in ("rows", "fault", *WORSE) if k in metrics}


def failures(name: str, record: dict[str, float], now: dict[str, float]) -> list[str]:
    """What fails the gate in one scenario's run against its record."""
    out = []
    if now["fault"]:
        out.append(f"{name}: the run faults")
    if now["rows"] != record["rows"]:
        out.append(f"{name}: {now['rows']:g} rows, recorded {record['rows']:g}")
    if now.keys() != record.keys():
        out.append(f"{name}: metrics {sorted(now)}, recorded {sorted(record)}")
    for key, sign in WORSE.items():
        if key in now and key in record \
                and not sign * (now[key] - record[key]) <= BOUND * abs(record[key]):
            out.append(f"{name}: {key} = {now[key]!r} is worse than the recorded "
                       f"{record[key]!r} by more than {BOUND:.0%}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true",
                    help="rewrite the record from this run")
    args = ap.parse_args(argv)
    vp, tmap = default_vehicle(), load_trim_map(MAP)
    results = {name: run(name, vp, tmap) for name in SCENARIOS}
    if args.record:
        RECORD.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"recorded {RECORD}")
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    bad = []
    for name, now in results.items():
        for key, value in now.items():
            old = record[name].get(key, float("nan"))
            rel = (value - old) / abs(old) if old else value - old
            print(f"{name:22s} {key:18s} {old:12.6g} -> {value:12.6g}  {rel:+.2e}")
        bad += failures(name, record[name], now)
    for line in bad:
        print("FAIL", line, file=sys.stderr)
    print("tracking gate:", "FAILED" if bad else f"passed (bound {BOUND:.0%})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
