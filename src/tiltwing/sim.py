"""Scenario execution: closed-loop simulation, logging, and report metrics.

A scenario scripts a run: initial state, wind profile, a setpoint timeline,
and the controller mode (open_loop holds the initial actuation, attitude
runs the attitude stack only, cruise runs the full cascade). Execution is
deterministic at fixed rates: dynamics and attitude at 250 Hz, cruise at
50 Hz; the log holds one row per dynamics tick.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import aero
from .attitude import (AttitudeController, AttitudeSetpoint,
                       daisy_chain_allocate, dynamic_inversion,
                       nominal_moment_estimate)
from .cruise import CruiseController, CruiseSetpoint
from .dynamics import IntegrationFault, RigidBodyState, integrate_step
from .rotations import euler_zyx_to_matrix, matrix_to_euler_zyx
from .trim import TrimMap
from .vehicle import (ACTUATOR_ORDER, ActuatorSet, VehicleParams, _vec3,
                      actuation_from_commands, apply_actuator_rates,
                      nominal_actuation)

SIM_RATE = 250.0           # Hz, dynamics and attitude
CRUISE_DIVIDER = 5         # cruise runs every 5th tick (50 Hz)
STEADY_AFTER = 3.0         # s after a setpoint change before a sample is steady

SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"

MODES = ("open_loop", "attitude", "cruise")

# timeline fields by mode; angles in the file are degrees
CRUISE_FIELDS = ("vax", "vaz", "roll_deg")
ATTITUDE_FIELDS = ("roll_deg", "pitch_deg", "yaw_rate_deg_s",
                   "wing_tilt", "main_throttle")
# initial-state keys, and initial actuator commands by key
STATE_KEYS = ("position", "velocity", "attitude_deg", "omega")
INITIAL_COMMANDS = {"wing_tilt": "delta_w", "main_throttle": "delta_plr",
                    "tail_throttle": "delta_pt", "aileron_left": "delta_al",
                    "aileron_right": "delta_ar", "elevator": "delta_e",
                    "rudder": "delta_r", "tail_tilt": "delta_tt"}


class ScenarioError(ValueError):
    pass


@dataclass
class TimelineEntry:
    t: float
    values: dict[str, float]
    ramp: bool = False      # interpolate from the previous entry


@dataclass
class WindStep:
    t: float
    value: np.ndarray


@dataclass
class Scenario:
    name: str
    mode: str
    duration: float
    initial: dict
    timeline: list[TimelineEntry]
    wind_constant: np.ndarray = field(default_factory=lambda: np.zeros(3))
    wind_steps: list[WindStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode}")
        if not self.duration > 0.0:
            raise ScenarioError("duration must be > 0")
        for what, times in (("timeline timestamps", [e.t for e in self.timeline]),
                            ("wind step times", [s.t for s in self.wind_steps])):
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ScenarioError(f"{what} must be strictly increasing")
        unknown = set(self.initial) - {*STATE_KEYS, *INITIAL_COMMANDS}
        if unknown:
            raise ScenarioError(f"unknown initial keys {sorted(unknown)}")
        fields = CRUISE_FIELDS if self.mode == "cruise" else ATTITUDE_FIELDS
        for e in self.timeline:
            unknown = set(e.values) - set(fields)
            if unknown:
                raise ScenarioError(f"timeline t={e.t}: {sorted(unknown)} are "
                                    f"not setpoints of mode {self.mode}")
        state_from_dict(self.initial)  # its vectors fail here, not at t = 0

    def wind_at(self, t: float) -> np.ndarray:
        value = self.wind_constant
        for step in self.wind_steps:
            if t >= step.t:
                value = step.value
        return value

    def setpoint_at(self, t: float) -> dict[str, float]:
        """Zero-order hold with optional linear ramps between entries."""
        fields = CRUISE_FIELDS if self.mode == "cruise" else ATTITUDE_FIELDS
        values = {k: 0.0 for k in fields}
        prev_t = 0.0
        for entry in self.timeline:
            if entry.t <= t:
                values.update(entry.values)
                prev_t = entry.t
                continue
            if entry.ramp and t > prev_t:
                frac = (t - prev_t) / (entry.t - prev_t)
                for k, v in entry.values.items():
                    values[k] = values[k] + (v - values[k]) * frac
            break
        return values

    def last_setpoint_change_before(self, t: float) -> float:
        """Time of the most recent timeline activity (ramps count while active)."""
        t_change = 0.0
        prev_t = 0.0
        for entry in self.timeline:
            if entry.t <= t:
                t_change = entry.t
                prev_t = entry.t
            elif entry.ramp and prev_t <= t:
                t_change = t  # mid-ramp: the setpoint is still moving
                break
            else:
                break
        return t_change


def scenario_from_dict(raw: dict) -> Scenario:
    if "mode" not in raw:
        raise ScenarioError("missing required field: mode")
    if "duration" not in raw:
        raise ScenarioError("missing required field: duration")
    timeline = []
    for item in raw.get("timeline", []):
        item = dict(item)
        t = float(item.pop("t"))
        ramp = bool(item.pop("ramp", False))
        timeline.append(TimelineEntry(t=t, ramp=ramp,
                                      values={k: float(v) for k, v in item.items()}))
    wraw = raw.get("wind", {}) or {}
    steps = [WindStep(float(s["t"]), _vec3(s["value"], "wind.steps[].value"))
             for s in wraw.get("steps", [])]
    return Scenario(
        name=raw.get("name", "scenario"),
        mode=raw["mode"],
        duration=float(raw["duration"]),
        initial=raw.get("initial", {}) or {},
        timeline=timeline,
        wind_constant=_vec3(wraw.get("constant", [0.0, 0.0, 0.0]), "wind.constant"),
        wind_steps=steps,
    )


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario file; bare names resolve to the shipped scenarios."""
    path = Path(name_or_path)
    if not path.exists():
        shipped = SCENARIO_DIR / f"{name_or_path}.yaml"
        if shipped.exists():
            path = shipped
        else:
            raise ScenarioError(f"scenario not found: {name_or_path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(raw)


def state_from_dict(raw: dict) -> RigidBodyState:
    """Rigid-body state from the keys ``position``, ``velocity``,
    ``attitude_deg`` (roll, pitch, yaw) and ``omega``; missing keys are 0."""
    x, v, att, omega = (_vec3(raw.get(k, [0.0, 0.0, 0.0]), k) for k in STATE_KEYS)
    return RigidBodyState(x=x, v=v, omega=omega, R_IB=euler_zyx_to_matrix(
        *(math.radians(a) for a in att)))


def initial_state_and_actuation(sc: Scenario,
                                vp: VehicleParams) -> tuple[RigidBodyState, ActuatorSet]:
    act = actuation_from_commands(vp, **{cmd: float(sc.initial.get(key, 0.0))
                                         for key, cmd in INITIAL_COMMANDS.items()})
    return state_from_dict(sc.initial), act


# ---------------------------------------------------------------------------
# Run log
# ---------------------------------------------------------------------------

LOG_COLUMNS = (
    ["t", "x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw",
     "wx", "wy", "wz"]
    + [f"cmd_{n}" for n in ACTUATOR_ORDER]
    + ["zeta_w", "eta_pl", "eta_pr", "eta_pt", "zeta_al", "zeta_ar",
       "zeta_e", "zeta_r", "zeta_tt"]
    + ["sp_roll", "sp_pitch", "sp_yaw_rate", "sp_vax", "sp_vaz"]
    + ["m_des_x", "m_des_y", "m_des_z", "m_hat_x", "m_hat_y", "m_hat_z",
       "alloc_res_x", "alloc_res_y", "alloc_res_z"]
    + ["fc_x", "fc_z", "uc_theta", "uc_dplr", "vlu_x", "vlu_z",
       "trim_dw", "trim_dplr", "trim_theta", "lookup_clamped"]
    + ["f_x", "f_y", "f_z", "m_x", "m_y", "m_z",
       "f_props_z", "f_segments_z", "f_fuselage_z"]
    + ["fault"]
)


@dataclass
class RunLog:
    columns: list[str]
    rows: np.ndarray             # (n, len(columns))
    scenario: str = ""
    fault: str | None = None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as f:
            f.write(f"# tiltwing run log scenario={self.scenario}\n")
            if self.fault:
                f.write(f"# fault={self.fault}\n")
            f.write(",".join(self.columns) + "\n")
            for row in self.rows:
                f.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunLog":
        scenario = ""
        fault = None
        columns: list[str] | None = None
        rows = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                if "scenario=" in line:
                    scenario = line.split("scenario=", 1)[1].strip()
                if "fault=" in line:
                    fault = line.split("fault=", 1)[1].strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            if line.strip():
                rows.append([float(tok) for tok in line.split(",")])
        if columns is None:
            raise ScenarioError(f"no header in log {path}")
        arr = np.array(rows, dtype=float) if rows \
            else np.empty((0, len(columns)))
        return cls(columns=columns, rows=arr, scenario=scenario, fault=fault)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def _same_actuation(a: ActuatorSet, b: ActuatorSet) -> bool:
    """Whether two actuator states hold the same bits (``==`` would take
    -0.0 for 0.0)."""
    return np.array(list(vars(a).values())).tobytes() \
        == np.array(list(vars(b).values())).tobytes()


def run_scenario(sc: Scenario, vp: VehicleParams,
                 tmap: TrimMap | None = None) -> RunLog:
    """Deterministic fixed-rate closed-loop run; one log row per tick.

    A non-finite wrench or state anywhere in a tick ends the run; the log
    keeps the rows before it and a fault text with the tick time and cause.
    """
    if sc.mode == "cruise" and tmap is None:
        raise ScenarioError("cruise mode requires a trim map")
    dt = 1.0 / SIM_RATE
    n_ticks = int(round(sc.duration * SIM_RATE))
    state, act = initial_state_and_actuation(sc, vp)
    att = AttitudeController()
    cc = CruiseController()
    hold_cmd = act.copy()

    cruise_out = None
    rows = np.empty((n_ticks, len(LOG_COLUMNS)))
    fault = None
    n_logged = 0

    for k in range(n_ticks):
        t = k * dt
        try:
            wind = sc.wind_at(t)
            sp = sc.setpoint_at(t)

            m_des = np.zeros(3)
            m_hat = np.zeros(3)
            alloc = None
            alloc_res = np.zeros(3)
            att_sp = AttitudeSetpoint()
            if sc.mode == "open_loop":
                cmd = hold_cmd
            else:
                if sc.mode == "cruise":
                    if k % CRUISE_DIVIDER == 0:
                        csp = CruiseSetpoint(v_ax=sp["vax"], v_az=sp["vaz"],
                                             roll=math.radians(sp["roll_deg"]))
                        cruise_out = cc.step(state, csp, tmap, vp, act,
                                             dt * CRUISE_DIVIDER, wind)
                    att_sp = cruise_out.setpoint
                    delta_w = cruise_out.delta_w
                    delta_plr = cruise_out.delta_plr
                else:
                    att_sp = AttitudeSetpoint(
                        roll=math.radians(sp["roll_deg"]),
                        pitch=math.radians(sp["pitch_deg"]),
                        yaw_rate=math.radians(sp["yaw_rate_deg_s"]))
                    delta_w, delta_plr = sp["wing_tilt"], sp["main_throttle"]
                u_n = nominal_actuation(vp, act, delta_plr=delta_plr,
                                        delta_w=delta_w)
                omega_dot_des = att.attitude_error_control(state, att_sp,
                                                           act.zeta_w, dt)
                m_des = dynamic_inversion(omega_dot_des, state.omega, vp.inertia)
                nominal = nominal_moment_estimate(state, u_n, vp, wind)
                m_hat = nominal[0].moment
                alloc = daisy_chain_allocate(m_des - m_hat, state, u_n, vp, wind, nominal)
                cmd = alloc.commanded
                alloc_res = alloc.residual

            act = apply_actuator_rates(act, cmd, dt, vp)

            if alloc is not None and _same_actuation(act, alloc.commanded):
                # the allocator evaluated this state, actuation and wind last
                fm, tab = alloc.evaluation
            else:
                fm, tab = aero.total_wrench(state, act, vp, wind)
            # z force per source group; +0.0 turns a signed zero into +0.0
            group_fz = [0.0 + tab.prop_force.sum(axis=0)[2],
                        0.0 + tab.seg_force.sum(axis=0)[2],
                        0.0 + tab.fus_force[2]]

            roll, pitch, yaw = matrix_to_euler_zyx(state.R_IB)
            co = cruise_out if sc.mode == "cruise" else None
            rows[k] = (
                [t, *state.x, *state.v, roll, pitch, yaw, *state.omega]
                + [getattr(act, f"delta_{n}") for n in ACTUATOR_ORDER]
                + [act.position(n, vp) for n in ACTUATOR_ORDER]
                + [att_sp.roll, att_sp.pitch, att_sp.yaw_rate,
                   sp.get("vax", np.nan), sp.get("vaz", np.nan)]
                + [*m_des, *m_hat, *alloc_res]
                + ([*co.force_correction, *co.u_correction, *co.v_lookup,
                    co.trim_u[0], co.trim_u[1], co.trim_theta,
                    float(co.lookup_clamped)] if co is not None
                   else [np.nan] * 9 + [0.0])
                + [*fm.force, *fm.moment, *group_fz]
                + [0.0]
            )
            n_logged = k + 1
            state = integrate_step(state, act, vp, wind, dt, wrench=fm)
        except (IntegrationFault, FloatingPointError) as exc:
            # a fault anywhere in the tick ends the run; the tick's row
            # carries the flag if it was logged before the fault
            fault = f"t={t:.3f} s: {exc}"
            if n_logged > k:
                rows[k, -1] = 1.0
            break

    return RunLog(columns=list(LOG_COLUMNS), rows=rows[:n_logged],
                  scenario=sc.name, fault=fault)


# ---------------------------------------------------------------------------
# Report metrics
# ---------------------------------------------------------------------------

def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else math.nan


def _settling(t: np.ndarray, err: np.ndarray, band: float) -> float:
    """Time after t[0] from which |err| stays within the band (nan if
    never)."""
    outside = np.abs(err) > band
    if not outside.any():
        return 0.0
    last_out = np.flatnonzero(outside)[-1]
    if last_out == len(t) - 1:
        return math.nan
    return float(t[last_out + 1] - t[0])


def compute_metrics(log: RunLog, sc: Scenario | None = None) -> dict[str, float]:
    """Tracking, altitude, settling, and feed-forward share metrics."""
    t = log.column("t")
    metrics: dict[str, float] = {
        "duration": float(t[-1] - t[0]) if t.size else 0.0,
        "rows": float(t.size),
        "fault": 1.0 if log.fault else 0.0,
    }
    alt = -log.column("z")
    metrics["altitude_min"] = float(alt.min())
    metrics["altitude_max"] = float(alt.max())
    metrics["altitude_excursion"] = float(alt.max() - alt.min())

    pitch_err = log.column("pitch") - log.column("sp_pitch")
    roll_err = log.column("roll") - log.column("sp_roll")
    metrics["pitch_err_rms"] = float(np.sqrt(np.mean(pitch_err ** 2)))
    metrics["pitch_err_max"] = float(np.abs(pitch_err).max())
    metrics["pitch_err_p90"] = _percentile(np.abs(pitch_err), 90.0)
    metrics["roll_err_rms"] = float(np.sqrt(np.mean(roll_err ** 2)))
    metrics["roll_err_max"] = float(np.abs(roll_err).max())

    sp_vaz = log.column("sp_vaz")
    if np.isfinite(sp_vaz).any():
        vz_err = log.column("vz") - sp_vaz
        vz_err = vz_err[np.isfinite(vz_err)]
        metrics["vz_err_rms"] = float(np.sqrt(np.mean(vz_err ** 2)))
        metrics["vz_err_max"] = float(np.abs(vz_err).max())

    if sc is not None and sc.mode != "open_loop":
        since_change = np.array([tt - sc.last_setpoint_change_before(tt) for tt in t])
        steady = since_change >= STEADY_AFTER
        cmd = log.column("cmd_pl")
        trim = log.column("trim_dplr")
        mask = steady & np.isfinite(trim) & (cmd > 0.05)
        if mask.any():
            metrics["ff_throttle_ratio"] = float(np.mean(trim[mask] / cmd[mask]))
            metrics["steady_samples"] = float(mask.sum())
        # settling time of the last roll step, when the timeline steps roll
        sp_roll = log.column("sp_roll")
        changes = np.flatnonzero(np.abs(np.diff(sp_roll)) > 1e-9)
        if changes.size:
            k0 = changes[-1] + 1
            step = sp_roll[k0] - sp_roll[changes[-1]]
            err = log.column("roll")[k0:] - sp_roll[k0:]
            metrics["roll_step_settle_s"] = _settling(
                t[k0:], err, 0.1 * abs(step) + math.radians(0.5))
            peak = np.max(np.sign(step) * (log.column("roll")[k0:] - sp_roll[changes[-1]]))
            metrics["roll_step_overshoot_frac"] = float(
                max(peak - abs(step), 0.0) / abs(step)) if step else 0.0
    return metrics


def emit_report(log: RunLog, out_prefix: str | Path | None = None,
                sc: Scenario | None = None) -> dict[str, float]:
    """Compute metrics; optionally write <prefix>.csv and <prefix>.txt."""
    if log.rows.size == 0:
        raise ScenarioError("cannot report on an empty log")
    metrics = compute_metrics(log, sc)
    if out_prefix is not None:
        prefix = Path(out_prefix)
        with prefix.with_suffix(".csv").open("w", encoding="utf-8") as f:
            f.write("metric,value\n")
            for k, v in metrics.items():
                f.write(f"{k},{v!r}\n")
        lines = [f"scenario: {log.scenario}"]
        if log.fault:
            lines.append(f"FAULT: {log.fault}")
        lines += [f"{k:28s} {v:.6g}" for k, v in metrics.items()]
        prefix.with_suffix(".txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    return metrics
