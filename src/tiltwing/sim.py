"""Scenario execution: closed-loop simulation, logging, and report metrics.

A scenario scripts a run: initial state, wind profile, a setpoint timeline,
and the controller mode (open_loop holds the initial actuation, attitude
runs the attitude stack only, cruise runs the full cascade).
`scenario_from_dict` is its one reader, and the `Scenario` it returns holds
only checked values, the initial state built once for every run. It walks
the file with `vehicle.read_keys` against `scenario_keys`, so it refuses an
unknown key in any section, a timeline key that is not a setpoint of the
mode, a value that is not a finite number (a YAML bool is not one) and a
vector that is not 3 numbers, each by its path (``timeline[1].roll_deg``,
``wind.steps[0].value``), raising ScenarioError, a ConfigError. Execution is
deterministic at fixed rates: dynamics and attitude at 250 Hz, cruise at
50 Hz; the log holds one row per dynamics tick. `run_tick` runs one tick on a
`LoopState`, the record of all that a tick hands the next; `run_scenario`
loops it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aero
# the nominal evaluation of a tick; perfbench/tracing.py wraps this name in sim
from .aero import total_wrench as nominal_moment_estimate
from .attitude import (AttitudeController, AttitudeSetpoint,
                       daisy_chain_allocate, dynamic_inversion)
from .cruise import CruiseController, CruiseOutput, CruiseSetpoint
from .dynamics import IntegrationFault, RigidBodyState, integrate_step
from .rotations import euler_angles, euler_zyx_to_matrix
from .trim import TrimMap
from .vehicle import (ACTUATOR_ORDER, OPTIONAL, REQUIRED, ActuatorSet,
                      ConfigError, VehicleParams, actuation_from_commands,
                      apply_actuator_rates, flag, nominal_actuation, number,
                      read_csv_table, read_keys, read_yaml_file, table, tables,
                      text, vec3)

SIM_RATE = 250.0           # Hz, dynamics and attitude
CRUISE_DIVIDER = 5         # cruise runs every 5th tick (50 Hz)
STEADY_AFTER = 3.0         # s after a setpoint change before a sample is steady
# s; a run allocates its log's rows up front, at most 900,000 rows of 66
# doubles (475 MB). Saving adds one chunk of rows, and loading one array.
MAX_DURATION = 3600.0
SAVE_CHUNK_ROWS = 64       # rows a save turns into Python floats at a time

SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"

MODES = ("open_loop", "attitude", "cruise")

# timeline fields by mode; angles in the file are degrees
CRUISE_FIELDS = ("vax", "vaz", "roll_deg")
ATTITUDE_FIELDS = ("roll_deg", "pitch_deg", "yaw_rate_deg_s",
                   "wing_tilt", "main_throttle")
# the rigid-body state's keys (attitude in degrees, roll, pitch, yaw), and
# the ActuatorSet fields of each initial command
STATE_KEYS = dict.fromkeys(("position", "velocity", "attitude_deg", "omega"),
                           (vec3, [0.0, 0.0, 0.0]))
INITIAL_COMMANDS = {"wing_tilt": ("delta_w",), "main_throttle": ("delta_pl", "delta_pr"),
                    "tail_throttle": ("delta_pt",), "aileron_left": ("delta_al",),
                    "aileron_right": ("delta_ar",), "elevator": ("delta_e",),
                    "rudder": ("delta_r",), "tail_tilt": ("delta_tt",)}
INITIAL_KEYS = {**STATE_KEYS, **dict.fromkeys(INITIAL_COMMANDS, (number, OPTIONAL))}
WIND_KEYS = {"constant": (vec3, [0.0, 0.0, 0.0]),
             "steps": (tables({"t": (number, REQUIRED), "value": (vec3, REQUIRED)}), None)}


class ScenarioError(ConfigError):
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
    """What `scenario_from_dict` checked: every value finite, the times
    strictly increasing, each timeline key a setpoint of the mode."""

    name: str
    mode: str
    duration: float
    initial_state: RigidBodyState       # a run steps from it to new states
    initial_commands: dict[str, float]  # by ActuatorSet field
    timeline: list[TimelineEntry]
    wind_constant: np.ndarray
    wind_steps: list[WindStep]

    def wind_at(self, t: float) -> np.ndarray:
        values = [step.value for step in self.wind_steps if t >= step.t]
        return values[-1] if values else self.wind_constant

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

    def setpoint_change_times(self, t: np.ndarray) -> np.ndarray:
        """Per time in ``t``, the time of the last timeline entry at or
        before it (0 before the first), or the time itself while a ramp to
        the next entry runs: the setpoint is still moving."""
        times = np.array([0.0, *(e.t for e in self.timeline)])
        ramps = np.array([*(e.ramp for e in self.timeline), False])
        k = np.searchsorted(times[1:], t, side="right")
        return np.where(ramps[k] & (times[k] <= t), t, times[k])


def scenario_keys(mode) -> dict:
    """The key table of a scenario; its timeline takes the setpoints of
    ``mode``, the attitude ones unless it is cruise."""
    fields = CRUISE_FIELDS if mode == "cruise" else ATTITUDE_FIELDS
    return {"name": (text(), "scenario"), "mode": (text(*MODES), REQUIRED),
            "duration": (number, REQUIRED),
            "timeline": (tables({"t": (number, REQUIRED), "ramp": (flag, False),
                                 **dict.fromkeys(fields, (number, OPTIONAL))}), None),
            "wind": (table(WIND_KEYS), None), "initial": (table(INITIAL_KEYS), None)}


def scenario_from_dict(raw: dict) -> Scenario:
    """The one reader of a scenario: `read_keys` parses and checks each
    value against `scenario_keys`, and raises ScenarioError naming it; the
    duration's range and the order of the times are checked here."""
    r = read_keys(raw, scenario_keys(isinstance(raw, dict) and raw.get("mode")), ScenarioError)
    if not 0.0 < (duration := r["duration"]) <= MAX_DURATION:
        raise ScenarioError(f"duration must be > 0 and at most {MAX_DURATION:g} s, "
                            f"got {duration}")
    if round(duration * SIM_RATE) == 0:
        raise ScenarioError(f"duration {duration} s rounds to 0 ticks")
    timeline = [TimelineEntry(t=e.pop("t"), ramp=e.pop("ramp"), values=e) for e in r["timeline"]]
    steps = [WindStep(**step) for step in r["wind"]["steps"]]
    for what, times in (("timeline timestamps", [e.t for e in timeline]),
                        ("wind step times", [s.t for s in steps])):
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError(f"{what} must be strictly increasing")
    initial = r["initial"]
    return Scenario(
        name=r["name"], mode=r["mode"], duration=duration,
        initial_state=rigid_body_state(initial),
        initial_commands={name: initial[key] for key, names in INITIAL_COMMANDS.items()
                          if key in initial for name in names},
        timeline=timeline, wind_constant=r["wind"]["constant"], wind_steps=steps)


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario file; bare names resolve to the shipped scenarios."""
    path = Path(name_or_path)
    if not path.exists():
        shipped = SCENARIO_DIR / f"{name_or_path}.yaml"
        if shipped.exists():
            path = shipped
        else:
            raise ScenarioError(f"scenario not found: {name_or_path}")
    return scenario_from_dict(read_yaml_file(path, "scenario", ScenarioError))


def rigid_body_state(values: dict) -> RigidBodyState:
    """The state of the values of STATE_KEYS that `read_keys` read."""
    return RigidBodyState(x=values["position"], v=values["velocity"], omega=values["omega"],
                          R_IB=euler_zyx_to_matrix(*map(math.radians, values["attitude_deg"])))


def state_from_dict(raw: dict) -> RigidBodyState:
    """Rigid-body state from a mapping of STATE_KEYS, read by `read_keys`:
    each value finite, missing keys 0, any other key refused."""
    return rigid_body_state(read_keys(raw, STATE_KEYS, ConfigError))


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
    + ["alloc_passes", "fault"]
)
# the start of the comment line that holds each metadata value of a run log
LOG_META = {"scenario": "tiltwing run log scenario=", "fault": "fault="}


@dataclass
class RunLog:
    columns: list[str]
    rows: np.ndarray             # (n, len(columns))
    scenario: str = ""
    fault: str | None = None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def save(self, path: str | Path) -> None:
        """Write the comments, the header and one line per row, each cell the
        repr of its value as a Python float. Rows become Python floats
        SAVE_CHUNK_ROWS at a time, so saving needs one chunk's memory beyond
        the array, whatever the log's length."""
        with Path(path).open("w", encoding="utf-8") as f:
            f.write(f"# {LOG_META['scenario']}{self.scenario}\n")
            if self.fault:
                f.write(f"# {LOG_META['fault']}{self.fault}\n")
            f.write(",".join(self.columns) + "\n")
            for start in range(0, len(self.rows), SAVE_CHUNK_ROWS):
                f.writelines(",".join(map(repr, row)) + "\n" for row
                             in self.rows[start:start + SAVE_CHUNK_ROWS].tolist())

    @classmethod
    def load(cls, path: str | Path) -> "RunLog":
        """The log a file holds, its rows parsed into one array: loading needs
        about the rows' memory (`read_csv_table`). Each metadata value is the
        rest of the comment line that starts with its LOG_META prefix."""
        comments, columns, rows, _ = read_csv_table(path, ScenarioError)
        missing = [c for c in LOG_COLUMNS if c not in columns]
        if missing:
            raise ScenarioError(f"{path}: header lacks the run-log columns {missing}")
        meta = {key: line[len(prefix):].strip() for line in map(str.strip, comments)
                for key, prefix in LOG_META.items() if line.startswith(prefix)}
        return cls(columns=columns, rows=rows, scenario=meta.get("scenario", ""),
                   fault=meta.get("fault"))


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

@dataclass
class LoopState:
    """Everything a tick hands the next: state, actuation, the controllers
    (their PIDs' memory) and the cruise output held between its updates."""

    state: RigidBodyState
    act: ActuatorSet
    att: AttitudeController
    cc: CruiseController
    cruise_out: CruiseOutput | None     # None outside cruise mode


def run_tick(loop: LoopState, k: int, sc: Scenario, vp: VehicleParams,
             tmap: TrimMap | None, row: np.ndarray) -> None:
    """Tick ``k`` of ``sc``: control, actuator rates and the model evaluation,
    logged in ``row``, then the RK4 step, which leaves ``loop`` at tick k + 1.
    A non-finite wrench or state raises IntegrationFault or FloatingPointError."""
    dt = 1.0 / SIM_RATE
    t = k * dt
    state, act = loop.state, loop.act
    wind = sc.wind_at(t)
    sp = sc.setpoint_at(t)
    alloc = None
    if sc.mode == "open_loop":
        # the current commands are the initial ones: clamping them again
        # changes no bit, and the wing sits at its commanded angle
        cmd, att_sp, moments = act, AttitudeSetpoint(), [0.0] * 9
    else:
        if sc.mode == "cruise":
            if k % CRUISE_DIVIDER == 0:
                csp = CruiseSetpoint(v_ax=sp["vax"], v_az=sp["vaz"],
                                     roll=math.radians(sp["roll_deg"]))
                loop.cruise_out = loop.cc.step(state, csp, tmap, vp, act,
                                               dt * CRUISE_DIVIDER, wind)
            att_sp = loop.cruise_out.setpoint
            delta_w, delta_plr = loop.cruise_out.delta_w, loop.cruise_out.delta_plr
        else:
            att_sp = AttitudeSetpoint(
                roll=math.radians(sp["roll_deg"]),
                pitch=math.radians(sp["pitch_deg"]),
                yaw_rate=math.radians(sp["yaw_rate_deg_s"]))
            delta_w, delta_plr = sp["wing_tilt"], sp["main_throttle"]
        u_n = nominal_actuation(vp, act, delta_plr=delta_plr, delta_w=delta_w)
        omega_dot_des = loop.att.attitude_error_control(state, att_sp, act.zeta_w, dt)
        m_des = dynamic_inversion(omega_dot_des, state.y[15:], vp.inertia)
        nominal = nominal_moment_estimate(state, u_n, vp, wind)
        alloc = daisy_chain_allocate([d - n for d, n in zip(m_des, nominal.moment)],
                                     state, u_n, vp, wind, nominal)
        cmd = alloc.commanded
        moments = [*m_des, *nominal.moment, *alloc.residual]

    act = loop.act = apply_actuator_rates(act, cmd, dt, vp)
    # the allocator's last evaluation is of this state and wind, and is the
    # result itself when the wing does not slew
    ev = aero.total_wrench(state, act, vp, wind, alloc.evaluation if alloc else None)
    # z force per source group; sum's start 0 and +0.0 turn a signed zero into +0.0
    group_fz = [sum(p.force[2] for p in ev.props), sum(s.force[2] for s in ev.segs),
                0.0 + ev.fus_force[2]]
    co = loop.cruise_out
    row[:] = (
        [t, *state.y[:6], *euler_angles(state.y[6:15]), *state.y[15:]]
        + [getattr(act, f"delta_{n}") for n in ACTUATOR_ORDER]
        + [act.position(n, vp) for n in ACTUATOR_ORDER]
        + [att_sp.roll, att_sp.pitch, att_sp.yaw_rate,
           sp.get("vax", np.nan), sp.get("vaz", np.nan)]
        + moments
        + ([*co.force_correction, *co.u_correction, *co.v_lookup,
            co.trim_u[0], co.trim_u[1], co.trim_theta,
            float(co.lookup_clamped)] if co is not None else [np.nan] * 9 + [0.0])
        + [*ev.force, *ev.moment, *group_fz]
        + [alloc.passes if alloc else 0, 0.0])
    loop.state = integrate_step(state, act, vp, wind, dt, wrench=ev)


def run_scenario(sc: Scenario, vp: VehicleParams,
                 tmap: TrimMap | None = None) -> RunLog:
    """Deterministic fixed-rate closed-loop run: `run_tick` in a loop, one
    log row per tick. A fault in a tick ends the run; the log keeps the rows
    before it and a fault text with the tick time and cause."""
    if sc.mode == "cruise" and tmap is None:
        raise ScenarioError("cruise mode requires a trim map")
    loop = LoopState(sc.initial_state, actuation_from_commands(vp, **sc.initial_commands),
                     AttitudeController(), CruiseController(), None)
    rows = np.full((round(sc.duration * SIM_RATE), len(LOG_COLUMNS)), np.nan)
    fault = None
    for k, row in enumerate(rows):
        try:
            run_tick(loop, k, sc, vp, tmap, row)
        except (IntegrationFault, FloatingPointError) as exc:
            fault = f"t={k * (1.0 / SIM_RATE):.3f} s: {exc}"
            row[-1] = 1.0   # kept if it was logged: rows start nan, t is set
            rows = rows[:k + (not math.isnan(row[0]))]
            break
    return RunLog(columns=list(LOG_COLUMNS), rows=rows, scenario=sc.name, fault=fault)


# ---------------------------------------------------------------------------
# Report metrics
# ---------------------------------------------------------------------------

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
    """Tracking, altitude, allocation, settling, and feed-forward share
    metrics."""
    t = log.column("t")
    metrics: dict[str, float] = {
        "duration": float(t[-1] - t[0]) if t.size else 0.0,
        "rows": float(t.size),
        "fault": 1.0 if log.fault else 0.0,
    }
    if not t.size:     # a run that faulted before its first row
        return metrics
    alt = -log.column("z")
    metrics["altitude_min"] = float(alt.min())
    metrics["altitude_max"] = float(alt.max())
    metrics["altitude_excursion"] = float(alt.max() - alt.min())

    pitch_err = log.column("pitch") - log.column("sp_pitch")
    roll_err = log.column("roll") - log.column("sp_roll")
    metrics["pitch_err_rms"] = float(np.sqrt(np.mean(pitch_err ** 2)))
    metrics["pitch_err_max"] = float(np.abs(pitch_err).max())
    metrics["pitch_err_p90"] = float(np.percentile(np.abs(pitch_err), 90.0))
    metrics["roll_err_rms"] = float(np.sqrt(np.mean(roll_err ** 2)))
    metrics["roll_err_max"] = float(np.abs(roll_err).max())

    # the residual's norm per row, RMS over the rows
    res_sq = sum(log.column(f"alloc_res_{axis}") ** 2 for axis in "xyz")
    metrics["alloc_passes_mean"] = float(log.column("alloc_passes").mean())
    metrics["alloc_res_rms"] = float(np.sqrt(np.mean(res_sq)))

    sp_vaz = log.column("sp_vaz")
    if np.isfinite(sp_vaz).any():
        vz_err = log.column("vz") - sp_vaz
        vz_err = vz_err[np.isfinite(vz_err)]
        metrics["vz_err_rms"] = float(np.sqrt(np.mean(vz_err ** 2)))
        metrics["vz_err_max"] = float(np.abs(vz_err).max())

    if sc is not None and sc.mode != "open_loop":
        steady = t - sc.setpoint_change_times(t) >= STEADY_AFTER
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


def emit_report(log: RunLog, out_prefix: str | Path | None,
                sc: Scenario | None) -> dict[str, float]:
    """Compute metrics; write <prefix>.csv and <prefix>.txt if given a prefix."""
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
