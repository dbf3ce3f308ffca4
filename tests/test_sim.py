from pathlib import Path

import numpy as np
import pytest

from tiltwing import aero, dynamics, sim
from tiltwing.sim import (LOG_COLUMNS, SCENARIO_DIR, SIM_RATE, RunLog,
                          ScenarioError, compute_metrics,
                          initial_state_and_actuation, load_scenario,
                          run_scenario, scenario_from_dict)
from tiltwing.trim import load_trim_map
from tiltwing.vehicle import ACTUATOR_ORDER, ConfigError

POSITION_COLUMNS = ("zeta_w", "eta_pl", "eta_pr", "eta_pt", "zeta_al",
                    "zeta_ar", "zeta_e", "zeta_r", "zeta_tt")


def test_attitude_run_with_wind_step_logs_source_groups(vp):
    sc = scenario_from_dict({
        "name": "hover_gust", "mode": "attitude", "duration": 0.4,
        "initial": {"position": [0.0, 0.0, -20.0], "wing_tilt": 1.0,
                    "main_throttle": 0.78},
        "timeline": [{"t": 0.0, "roll_deg": 5.0, "wing_tilt": 1.0,
                      "main_throttle": 0.78}],
        "wind": {"steps": [{"t": 0.2, "value": [3.0, 1.0, 0.0]}]},
    })
    log = run_scenario(sc, vp)
    assert log.fault is None
    assert log.rows.shape[0] == round(sc.duration * SIM_RATE)
    assert np.all(log.column("fault") == 0.0)
    f_z = log.column("f_z")
    groups = (log.column("f_props_z") + log.column("f_segments_z")
              + log.column("f_fuselage_z"))
    scale = max(np.abs(f_z).max(), 1.0)
    assert np.abs(groups - f_z).max() < 1e-9 * scale


def test_open_loop_holds_initial_actuation(vp):
    sc = scenario_from_dict({
        "name": "hold", "mode": "open_loop", "duration": 0.1,
        "initial": {"position": [0.0, 0.0, -20.0], "wing_tilt": 0.6,
                    "main_throttle": 0.7, "tail_throttle": 0.2,
                    "aileron_left": 0.1, "aileron_right": -0.1,
                    "elevator": 0.3, "rudder": -0.2, "tail_tilt": 0.15},
    })
    log = run_scenario(sc, vp)
    assert log.fault is None
    assert log.rows.shape[0] == round(sc.duration * SIM_RATE)
    _, act0 = initial_state_and_actuation(sc, vp)
    for name, col in zip(ACTUATOR_ORDER, POSITION_COLUMNS):
        assert np.all(log.column(f"cmd_{name}") == getattr(act0, f"delta_{name}"))
        assert np.all(log.column(col) == act0.position(name, vp))
    # the vehicle is not trimmed, so the held actuation moves it
    assert np.abs(log.column("vx")[-1]) > 0.0


def test_cruise_run_on_committed_map(vp, committed_map_path):
    tmap = load_trim_map(committed_map_path)
    sc = scenario_from_dict({
        "name": "cruise_start", "mode": "cruise", "duration": 0.2,
        "initial": {"position": [0.0, 0.0, -30.0], "wing_tilt": 1.0,
                    "main_throttle": 0.78},
        "timeline": [{"t": 0.0, "vax": 2.0, "vaz": 0.0}],
    })
    log = run_scenario(sc, vp, tmap)
    assert log.fault is None
    assert log.rows.shape[0] == round(sc.duration * SIM_RATE)
    # the lookup velocity is the setpoint, well inside the band around hover
    assert np.allclose(log.column("vlu_x"), 2.0, atol=1e-12)
    # the feed-forward wing tilt is the commanded one
    assert np.array_equal(log.column("cmd_w"), log.column("trim_dw"))
    # cruise updates at 50 Hz: its outputs hold for 5 ticks
    fc = log.column("fc_x").reshape(-1, 5)
    assert np.all(fc == fc[:, :1])


@pytest.mark.parametrize("mode", ["open_loop", "attitude"])
def test_fault_outside_integrator_is_recorded(vp, mode):
    """A wrench that overflows at t = 0 ends the run with a recorded fault:
    in the log wrench (open loop) or the nominal moment (attitude)."""
    sc = scenario_from_dict({
        "name": "overflow", "mode": mode, "duration": 0.1,
        "initial": {"velocity": [1.0e160, 0.0, 0.0], "wing_tilt": 1.0,
                    "main_throttle": 0.5},
    })
    log = run_scenario(sc, vp)
    assert log.fault == "t=0.000 s: non-finite aerodynamic wrench"
    assert log.rows.shape[0] == 0


def test_roll_step_inside_band_settles_at_once():
    """A roll step smaller than the settling band is settled from the step
    on: its settling time is 0, not the step's time stamp."""
    sc = scenario_from_dict({
        "name": "tiny_step", "mode": "attitude", "duration": 1.0,
        "timeline": [{"t": 0.0, "roll_deg": 0.0}, {"t": 0.5, "roll_deg": 0.3}],
    })
    n = round(sc.duration * SIM_RATE)
    rows = np.zeros((n, len(LOG_COLUMNS)))
    log = RunLog(columns=list(LOG_COLUMNS), rows=rows, scenario=sc.name)
    t = np.arange(n) / SIM_RATE
    rows[:, LOG_COLUMNS.index("t")] = t
    sp_roll = np.array([np.radians(sc.setpoint_at(tt)["roll_deg"]) for tt in t])
    rows[:, LOG_COLUMNS.index("sp_roll")] = sp_roll
    rows[:, LOG_COLUMNS.index("roll")] = np.radians(0.3) * (t >= 0.6)
    metrics = compute_metrics(log, sc)
    assert metrics["roll_step_settle_s"] == 0.0


def test_header_only_log_loads_with_all_columns(tmp_path):
    path = tmp_path / "log.csv"
    RunLog(columns=list(LOG_COLUMNS), rows=np.empty((0, len(LOG_COLUMNS))),
           scenario="overflow", fault="t=0.000 s: boom").save(path)
    log = RunLog.load(path)
    assert log.rows.shape == (0, len(LOG_COLUMNS))
    assert log.column("t").size == 0
    assert log.fault == "t=0.000 s: boom"


def test_attitude_tick_integrates_with_three_evaluations(vp, monkeypatch):
    """The wrench logged at a tick is RK4's first stage: the step evaluates
    only the other three stages."""
    calls = []
    real = dynamics.body_wrench

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dynamics, "body_wrench", counting)
    sc = load_scenario("hover_steps")
    sc.duration = 0.2
    log = run_scenario(sc, vp)
    ticks = round(sc.duration * SIM_RATE)
    assert log.fault is None and log.rows.shape[0] == ticks
    assert len(calls) == 3 * ticks


def test_tick_logs_the_allocators_last_evaluation(vp, monkeypatch):
    """When the applied actuation is the allocator's commanded one bit for
    bit, the log and RK4's first stage take the allocator's last evaluation:
    one model evaluation fewer on every tick of hover_steps, and the same log
    bytes as evaluating the tick's wrench again."""
    calls = []
    real = aero.body_wrench

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(aero, "body_wrench", counting)
    sc = load_scenario("hover_steps")
    sc.duration = 0.2
    ticks = round(sc.duration * SIM_RATE)
    log = run_scenario(sc, vp)
    reused = len(calls)
    calls.clear()
    monkeypatch.setattr(sim, "_same_actuation", lambda a, b: False)
    evaluated = run_scenario(sc, vp)
    assert log.fault is None and log.rows.shape[0] == ticks
    assert len(calls) - reused == ticks
    assert log.rows.tobytes() == evaluated.rows.tobytes()


def _scenario(mode="attitude", initial=None, timeline=(), wind=None) -> dict:
    return {"name": "bad", "mode": mode, "duration": 0.1,
            "initial": initial or {}, "timeline": list(timeline),
            "wind": wind or {}}


@pytest.mark.parametrize("raw", [
    _scenario(initial={"position": [0.0, 0.0]}),
    _scenario(initial={"velocity": [5.0, 0.0]}),
    _scenario(initial={"attitude_deg": [0.0, 5.0, 0.0, 1.0]}),
    _scenario(initial={"omega": 0.5}),
    _scenario(wind={"constant": [1.0, 0.0]}),
    _scenario(wind={"steps": [{"t": 0.05, "value": [1.0, 0.0]}]}),
], ids=["position", "velocity", "attitude_deg", "omega", "wind_constant",
        "wind_step_value"])
def test_scenario_vectors_must_have_three_elements(raw):
    with pytest.raises(ConfigError, match="must be a 3-element list"):
        scenario_from_dict(raw)


def test_scenario_rejects_unknown_initial_key():
    with pytest.raises(ScenarioError, match="unknown initial keys.*wingtilt"):
        scenario_from_dict(_scenario(initial={"wingtilt": 1.0}))


@pytest.mark.parametrize("mode, entry", [
    ("attitude", {"t": 0.0, "rol_deg": 5.0}),
    ("cruise", {"t": 0.0, "vax": 5.0, "pitch_deg": 2.0}),
    ("attitude", {"t": 0.05, "vax": 5.0, "ramp": True}),
], ids=["typo", "attitude_field_in_cruise", "cruise_ramp_in_attitude"])
def test_scenario_rejects_timeline_key_outside_its_mode(mode, entry):
    with pytest.raises(ScenarioError, match="not setpoints of mode " + mode):
        scenario_from_dict(_scenario(mode=mode, timeline=[entry]))


@pytest.mark.parametrize("times", [(0.3, 0.1), (0.2, 0.2)])
def test_scenario_wind_steps_strictly_increasing(times):
    steps = [{"t": t, "value": [float(k), 0.0, 0.0]} for k, t in enumerate(times)]
    with pytest.raises(ScenarioError, match="wind step times"):
        scenario_from_dict(_scenario(wind={"steps": steps}))


@pytest.mark.parametrize("path", sorted(
    [*SCENARIO_DIR.glob("*.yaml"),
     *(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "scenarios")
     .glob("*.yaml")]), ids=lambda p: f"{p.parents[2].name}/{p.stem}")
def test_shipped_scenarios_pass_the_checks(path):
    sc = load_scenario(path)
    assert sc.name == path.stem
