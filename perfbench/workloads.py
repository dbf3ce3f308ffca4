"""Seeded workload inputs, the job each workload times, and its checks.

A job is the unit of work one workload repeats: simulating a scenario
window and saving its log, or building a trim map and saving it. Inputs
come from the seed alone; seed 0 is the shipped input, other seeds jitter
it within the ranges below. Only the generated files reach the program.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent
COARSE_MAP = BENCH_DIR / "data" / "coarse_map.csv"
# Copies of the shipped scenarios, so that later edits under src/ do not
# change the benchmark's inputs.
SCENARIO_DIR = BENCH_DIR / "data" / "scenarios"
# hover_initial_guess(default_vehicle()) as shipped: the seed guess that
# build_trim_map uses when it is given none.
TRIM_SEED_GUESS = np.array([1.0, 0.7612471497809078, 0.0, 0.0, 0.05, 0.0])

# Jitter ranges for seeds other than 0. Only the setpoints get amplitude
# jitter; the feed-forward wing tilt and throttle stay as shipped.
SETPOINT_KEYS = ("roll_deg", "pitch_deg", "yaw_rate_deg_s", "vax", "vaz")
STEP_TIME_JITTER_S = 0.2        # each timeline entry after t = 0, uniform +-
AMPLITUDE_JITTER = 0.05         # each nonzero setpoint step, relative +-
TRIM_GUESS_JITTER = 0.01        # each trim seed-guess component, absolute +-


@dataclass(frozen=True)
class ScenarioSpec:
    shipped: str                # scenario file under SCENARIO_DIR
    horizon_s: float            # simulated seconds of the shipped timeline
    needs_map: bool


SCENARIOS = {
    # Roll steps of +-15 deg at 3 s and 7 s and the return at 11 s; the
    # later pitch and yaw-rate steps fall outside the window.
    "hover_alloc": ScenarioSpec("hover_steps", 12.0, needs_map=False),
    # Hold to 2 s, then the ramp to 18 m/s, which ends at 14 s.
    "cruise_transition": ScenarioSpec("forward_transition", 14.0, needs_map=True),
}

# Grid of the trim_map workload: 3x3 cells including the hover column.
TRIM_VA = np.array([0.0, 4.0, 8.0])
TRIM_GAMMA = np.radians([-5.0, 0.0, 5.0])

WORKLOADS = (*SCENARIOS, "trim_map")


class WorkloadError(RuntimeError):
    pass


@dataclass
class Inputs:
    """Files the program reads, written from the seed."""

    workload: str
    seed: int
    out_dir: Path
    scenario_path: Path | None = None
    map_path: Path | None = None
    trim_guess: list[float] | None = None


@dataclass
class JobResult:
    wall_s: float
    attempted: int
    failed: int
    hashes: dict[str, str]
    quality: dict[str, float]
    errors: list[str] = field(default_factory=list)
    ticks: int = 0


def make_inputs(workload: str, seed: int, out_root: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    out_dir = out_root / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload=workload, seed=seed, out_dir=out_dir)
    if workload in SCENARIOS:
        spec = SCENARIOS[workload]
        raw = yaml.safe_load((SCENARIO_DIR / f"{spec.shipped}.yaml")
                             .read_text(encoding="utf-8"))
        raw["duration"] = spec.horizon_s
        if seed != 0:
            _jitter_timeline(raw["timeline"], rng)
        inputs.scenario_path = out_dir / "scenario.yaml"
        inputs.scenario_path.write_text(yaml.safe_dump(raw, sort_keys=False),
                                        encoding="utf-8")
        if spec.needs_map:
            check_coarse_map()
            inputs.map_path = COARSE_MAP
    else:
        guess = TRIM_SEED_GUESS
        if seed != 0:
            guess = guess + rng.uniform(-TRIM_GUESS_JITTER, TRIM_GUESS_JITTER,
                                        guess.size)
        inputs.trim_guess = [float(g) for g in guess]
    return inputs


def check_coarse_map() -> None:
    """The committed map is an input: refuse a file that is not the one recorded."""
    recorded = (COARSE_MAP.parent / "coarse_map.sha256").read_text().split()[0]
    actual = hashlib.sha256(COARSE_MAP.read_bytes()).hexdigest()
    if actual != recorded:
        raise WorkloadError(f"{COARSE_MAP.name} has sha256 {actual}, "
                            f"recorded {recorded}")


def _jitter_timeline(timeline: list[dict], rng: np.random.Generator) -> None:
    for entry in timeline:
        if entry["t"] > 0.0:
            entry["t"] = float(entry["t"] + rng.uniform(-STEP_TIME_JITTER_S,
                                                        STEP_TIME_JITTER_S))
        for key, value in entry.items():
            if key in SETPOINT_KEYS and value != 0.0:
                entry[key] = float(value * (1.0 + rng.uniform(
                    -AMPLITUDE_JITTER, AMPLITUDE_JITTER)))


@dataclass
class Loaded:
    """What set-up hands to the job: the parsed program inputs."""

    vp: object
    scenario: object = None
    tmap: object = None


def set_up(scenario_path: Path | None, map_path: Path | None) -> Loaded:
    """Vehicle, scenario and trim-map load: the user's set-up cost."""
    from tiltwing.sim import load_scenario
    from tiltwing.trim import load_trim_map
    from tiltwing.vehicle import default_vehicle
    loaded = Loaded(vp=default_vehicle())
    if scenario_path is not None:
        loaded.scenario = load_scenario(scenario_path)
    if map_path is not None:
        loaded.tmap = load_trim_map(map_path)
    return loaded


def run_job(inputs: Inputs, loaded: Loaded) -> JobResult:
    if inputs.workload in SCENARIOS:
        return _scenario_job(inputs, loaded)
    return _trim_job(inputs, loaded)


def _scenario_job(inputs: Inputs, loaded: Loaded) -> JobResult:
    from tiltwing import sim
    sc = loaded.scenario
    log_path = inputs.out_dir / "run_log.csv"
    t0 = time.perf_counter()
    log = sim.run_scenario(sc, loaded.vp, loaded.tmap)
    log.save(log_path)
    wall = time.perf_counter() - t0

    errors = []
    n_expected = int(round(sc.duration * sim.SIM_RATE))
    if log.fault:
        errors.append(f"integration fault at t={log.rows[-1, 0]:.3f}: {log.fault}")
    elif log.rows.shape[0] != n_expected:
        errors.append(f"{log.rows.shape[0]} log rows, expected {n_expected}")
    reloaded = sim.RunLog.load(log_path)
    if not np.array_equal(reloaded.rows, log.rows, equal_nan=True):
        errors.append("saved run log does not reload to the same rows")
    quality = tracking_quality(log)
    for name, limit in TRACKING_LIMITS.items():
        if name in quality and not quality[name] <= limit:
            errors.append(f"{name}={quality[name]:.4g} above sanity limit {limit}")
    return JobResult(wall_s=wall, attempted=1, failed=int(log.fault is not None),
                     hashes={"log_rows": digest(log.rows)}, quality=quality,
                     errors=errors, ticks=int(log.rows.shape[0]))


# Loose ceilings that only a broken controller exceeds; seed 0 sits at a
# fraction of each.
TRACKING_LIMITS = {"roll_err_rms_deg": 6.0, "pitch_err_rms_deg": 6.0,
                   "vz_err_rms": 2.0}


def tracking_quality(log) -> dict[str, float]:
    from tiltwing.sim import compute_metrics
    m = compute_metrics(log)
    out = {"roll_err_rms_deg": math.degrees(m["roll_err_rms"]),
           "pitch_err_rms_deg": math.degrees(m["pitch_err_rms"])}
    if "vz_err_rms" in m:
        out["vz_err_rms"] = m["vz_err_rms"]
    return out


def _trim_job(inputs: Inputs, loaded: Loaded) -> JobResult:
    from tiltwing import trim
    map_path = inputs.out_dir / "trim_map.csv"
    t0 = time.perf_counter()
    tmap = trim.build_trim_map(loaded.vp, va_axis=TRIM_VA, gamma_axis=TRIM_GAMMA,
                               seed=(0.0, 0.0, np.array(inputs.trim_guess)))
    trim.save_trim_map(tmap, map_path)
    wall = time.perf_counter() - t0

    errors = []
    points = [p for row in tmap.points for p in row]
    w = tmap.weights
    for p in points:
        if not p.feasible:
            continue
        v_dot, th_dd = trim.trim_accelerations(p.u, p.theta, p.v_a, p.gamma,
                                               loaded.vp)
        if not (np.linalg.norm(v_dot) < w.eps_v and abs(th_dd) < w.eps_theta):
            errors.append(f"cell va={p.v_a} gamma={p.gamma:.4f} marked feasible "
                          "but is not in trim")
    reloaded = trim.load_trim_map(map_path)
    if map_points(reloaded).tobytes() != map_points(tmap).tobytes():
        errors.append("saved trim map does not reload to the same points")
    feasible = [p.cost for p in points if p.feasible]
    quality = {"map_cost_mean": float(np.mean(feasible)) if feasible else math.nan}
    return JobResult(wall_s=wall, attempted=len(points),
                     failed=len(points) - len(feasible),
                     hashes={"map_points": digest(map_points(tmap))},
                     quality=quality, errors=errors)


def map_points(tmap) -> np.ndarray:
    """Every stored field of every cell, row-major over (v_a, gamma)."""
    return np.array([[p.v_a, p.gamma, float(p.feasible), p.theta, *p.u,
                      p.cost, p.res_v, p.res_theta]
                     for row in tmap.points for p in row], dtype=float)


def digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return hashlib.sha256(a.tobytes()).hexdigest()
