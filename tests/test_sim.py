import copy
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tiltwing import aero, dynamics, sim, vehicle
from tiltwing.attitude import AttitudeController
from tiltwing.cruise import CruiseController
from tiltwing.dynamics import IntegrationFault
from tiltwing.sim import (LOG_COLUMNS, SCENARIO_DIR, SIM_RATE, RunLog,
                          ScenarioError, compute_metrics, load_scenario,
                          run_scenario, scenario_from_dict)
from tiltwing.trim import load_trim_map
from tiltwing.vehicle import ACTUATOR_ORDER, ConfigError, actuation_from_commands

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
    act0 = actuation_from_commands(vp, **sc.initial_commands)
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
    in the log wrench (open loop) or the nominal moment (attitude). The
    metrics of the empty log say so, and a report on it is refused."""
    sc = scenario_from_dict({
        "name": "overflow", "mode": mode, "duration": 1.0,
        "initial": {"velocity": [1.0e160, 0.0, 0.0], "wing_tilt": 1.0,
                    "main_throttle": 0.5},
    })
    log = run_scenario(sc, vp)
    assert log.fault == "t=0.000 s: non-finite aerodynamic wrench"
    assert log.rows.shape[0] == 0
    assert compute_metrics(log, sc) == {"duration": 0.0, "rows": 0.0, "fault": 1.0}
    with pytest.raises(ScenarioError, match="empty log"):
        sim.emit_report(log, None, sc)


def test_fault_in_the_step_flags_the_logged_row(vp, monkeypatch):
    """A fault in the RK4 step comes after the tick's row is written: the
    run keeps that row, flagged, and the fault text has the tick's time."""
    sc = load_scenario("hover_steps")
    sc.duration = 3 / SIM_RATE
    clean = run_scenario(sc, vp)
    real = sim.integrate_step
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise IntegrationFault("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "integrate_step", failing_third)
    sc.duration = 0.1
    log = run_scenario(sc, vp)
    assert log.column("fault").tolist() == [0.0, 0.0, 1.0]
    assert log.fault.startswith("t=0.008 s:")
    assert np.array_equal(log.rows[:, :-1], clean.rows[:, :-1], equal_nan=True)


@pytest.mark.parametrize("name, k", [("hover_steps", 30), ("forward_transition", 7)])
def test_loop_state_is_explicit(vp, committed_map_path, name, k):
    """A deep copy of the loop state after tick k runs on to the same rows,
    bit for bit, as the state itself, and both are run_scenario's rows: a
    tick keeps nothing outside the record. In cruise mode k % 5 != 0, so
    the next ticks fly on the held cruise output."""
    sc = load_scenario(name)
    tmap = load_trim_map(committed_map_path) if sc.mode == "cruise" else None
    n = k + 1 + 2 * sim.CRUISE_DIVIDER
    sc.duration = n / SIM_RATE
    loop = sim.LoopState(sc.initial_state, actuation_from_commands(vp, **sc.initial_commands),
                         AttitudeController(), CruiseController(), None)
    rows = np.empty((n, len(LOG_COLUMNS)))
    for i in range(k + 1):
        sim.run_tick(loop, i, sc, vp, tmap, rows[i])
    twin, twin_rows = copy.deepcopy(loop), rows.copy()
    for record, out in ((loop, rows), (twin, twin_rows)):
        for i in range(k + 1, n):
            sim.run_tick(record, i, sc, vp, tmap, out[i])
    assert twin_rows.tobytes() == rows.tobytes()
    assert run_scenario(sc, vp, tmap).rows.tobytes() == rows.tobytes()


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


@pytest.mark.parametrize("scenario, fault", [("x fault=1", None),
                                             ("x", "t=0.100 s: scenario=y fault=2")],
                         ids=["fault_in_the_name", "scenario_in_the_fault"])
def test_log_metadata_is_read_by_line_prefix(tmp_path, scenario, fault):
    """The scenario name is the rest of the line that starts with
    ``tiltwing run log scenario=`` and the fault the rest of the line that
    starts with ``fault=``, so neither text is taken for the other."""
    path = tmp_path / "log.csv"
    RunLog(columns=list(LOG_COLUMNS), rows=np.zeros((1, len(LOG_COLUMNS))),
           scenario=scenario, fault=fault).save(path)
    log = RunLog.load(path)
    assert (log.scenario, log.fault) == (scenario, fault)


def test_saved_log_cells_are_float_reprs_and_reload_bit_for_bit(tmp_path):
    """Every cell of a saved log is the repr of its value as a Python float,
    signed zeros, nan, infinities, subnormals and 17-digit values included,
    and the file reloads to the same bytes."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((6, len(LOG_COLUMNS))) * 10.0 ** rng.integers(
        -300, 300, (6, len(LOG_COLUMNS)))
    rows[:, :10] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                    2.2250738585072009e-308, 0.1 + 0.2, -1.0 / 3.0]
    path = tmp_path / "log.csv"
    RunLog(columns=list(LOG_COLUMNS), rows=rows, scenario="cells").save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:] == [",".join(repr(float(v)) for v in row) for row in rows]
    assert RunLog.load(path).rows.tobytes() == rows.tobytes()


GOLDEN_LOG = Path(__file__).resolve().parent / "data" / "run_log_golden.csv"
GOLDEN_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1,
                 -1.0 / 3.0, 2.5e-7, 12345.678901234567, 0.0, -2.0, 0.1 + 0.2]


def _golden_log() -> RunLog:
    return RunLog(columns=list(LOG_COLUMNS),
                  rows=np.resize(np.array(GOLDEN_VALUES), (5, len(LOG_COLUMNS))),
                  scenario="golden", fault="t=0.016 s: non-finite aerodynamic wrench")


@pytest.mark.parametrize("chunk", [1, 2, sim.SAVE_CHUNK_ROWS])
def test_log_format_matches_the_golden_file(tmp_path, monkeypatch, chunk):
    """The committed golden log was written by the writer that held every row
    as Python floats at once. Saving in chunks of any size writes the same
    bytes, and reading the file back gives the same rows, scenario and fault."""
    monkeypatch.setattr(sim, "SAVE_CHUNK_ROWS", chunk)
    golden = _golden_log()
    path = tmp_path / "log.csv"
    golden.save(path)
    assert path.read_bytes() == GOLDEN_LOG.read_bytes()
    loaded = RunLog.load(GOLDEN_LOG)
    assert loaded.rows.tobytes() == golden.rows.tobytes()
    assert (loaded.columns, loaded.scenario, loaded.fault) == \
        (golden.columns, golden.scenario, golden.fault)


@pytest.mark.parametrize("change", ["grows", "shrinks"])
def test_log_that_changes_between_the_two_reads_is_refused(tmp_path, monkeypatch,
                                                           change):
    """The reader counts the rows, then parses them into an array of that
    length: a file that gains or loses a row in between is an error."""
    path = tmp_path / "log.csv"
    _golden_log().save(path)
    real, changed = vehicle._stripped_lines, []

    def change_after_first_read(p):
        yield from real(p)
        if not changed:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines + lines[-1:] if change == "grows"
                                    else lines[:-1]), encoding="utf-8")
            changed.append(change)

    monkeypatch.setattr(vehicle, "_stripped_lines", change_after_first_read)
    with pytest.raises(ScenarioError, match="changed while it was read"):
        RunLog.load(path)
    assert changed == [change]


def test_log_save_and_load_memory_is_bounded_by_the_array(tmp_path):
    """Saving a 20,000-row log allocates less than a tenth of its array, and
    loading it little more than the array itself (tracemalloc peaks)."""
    rows = np.random.default_rng(0).standard_normal((20_000, len(LOG_COLUMNS)))
    log = RunLog(columns=list(LOG_COLUMNS), rows=rows, scenario="synthetic")
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        peaks = []
        for step in (lambda: log.save(path), lambda: RunLog.load(path)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / rows.nbytes)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 0.1 and peaks[1] < 1.25, peaks
    assert RunLog.load(path).rows.tobytes() == rows.tobytes()


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


def _drop_priors(monkeypatch):
    """Make every `aero.body_wrench` call a full evaluation."""
    real = aero.body_wrench
    monkeypatch.setattr(aero, "body_wrench",
                        lambda v, omega, act, vp, prior=None: real(v, omega, act, vp))


def test_tick_logs_the_allocators_last_evaluation(vp, monkeypatch):
    """When the applied actuation is the allocator's commanded one bit for
    bit, the log and RK4's first stage take the allocator's last evaluation
    as it is: on every tick of hover_steps, whose wing does not slew. The log
    bytes are those of a run in which every evaluation is a full one."""
    reused = []
    real = aero.total_wrench

    def recording(state, act, vp, wind, prior=None):
        result = real(state, act, vp, wind, prior)
        if prior is not None:
            reused.append(result is prior)
        return result

    monkeypatch.setattr(aero, "total_wrench", recording)
    sc = load_scenario("hover_steps")
    sc.duration = 0.2
    ticks = round(sc.duration * SIM_RATE)
    log = run_scenario(sc, vp)
    assert log.fault is None and log.rows.shape[0] == ticks
    assert reused == [True] * ticks
    _drop_priors(monkeypatch)
    assert run_scenario(sc, vp).rows.tobytes() == log.rows.tobytes()


def test_cruise_log_matches_full_evaluations(vp, committed_map_path, monkeypatch):
    """Re-evaluating from priors changes no bit of 0.5 s of
    forward_transition in cruise mode, cruise updates included."""
    tmap = load_trim_map(committed_map_path)
    sc = load_scenario("forward_transition")
    sc.duration = 0.5
    log = run_scenario(sc, vp, tmap)
    _drop_priors(monkeypatch)
    full = run_scenario(sc, vp, tmap)
    assert log.fault is None and log.rows.shape[0] == round(sc.duration * SIM_RATE)
    assert log.rows.tobytes() == full.rows.tobytes()


def _scenario(mode="attitude", initial=None, timeline=(), wind=None) -> dict:
    return {"name": "bad", "mode": mode, "duration": 0.1,
            "initial": initial or {}, "timeline": list(timeline),
            "wind": wind or {}}


@pytest.mark.parametrize("raw, where", [
    (_scenario(initial={"position": [0.0, 0.0]}), "initial.position"),
    (_scenario(initial={"velocity": [5.0, 0.0]}), "initial.velocity"),
    (_scenario(initial={"attitude_deg": [0.0, 5.0, 0.0, 1.0]}), "initial.attitude_deg"),
    (_scenario(initial={"omega": 0.5}), "initial.omega"),
    (_scenario(wind={"constant": [1.0, 0.0]}), "wind.constant"),
    (_scenario(wind={"steps": [{"t": 0.05, "value": [1.0, 0.0]}]}),
     "wind.steps[0].value"),
], ids=["position", "velocity", "attitude_deg", "omega", "wind_constant",
        "wind_step_value"])
def test_scenario_vectors_must_have_three_elements(raw, where):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a 3-element list"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("raw, where", [
    (_scenario(timeline=[{"t": 0.0, "roll_deg": 0.0}, {"t": 0.05, "roll_deg": math.nan}]),
     "timeline[1].roll_deg"),
    (_scenario(timeline=[{"t": 0.0, "pitch_deg": -math.inf}]), "timeline[0].pitch_deg"),
    (_scenario(wind={"constant": [math.nan, 0.0, 0.0]}), "wind.constant"),
    (_scenario(wind={"steps": [{"t": 0.05, "value": [0.0, math.inf, 0.0]}]}),
     "wind.steps[0].value"),
    (_scenario(initial={"velocity": [math.inf, 0.0, 0.0]}), "initial.velocity"),
    (_scenario(initial={"omega": [0.0, 0.0, math.nan]}), "initial.omega"),
    (_scenario(initial={"attitude_deg": [math.inf, 0.0, 0.0]}), "initial.attitude_deg"),
    (_scenario(initial={"wing_tilt": math.nan}), "initial.wing_tilt"),
], ids=["timeline_nan", "timeline_inf", "wind_constant", "wind_step_value",
        "velocity", "omega", "attitude_deg", "wing_tilt"])
def test_scenario_numbers_must_be_finite(raw, where):
    """A nan setpoint would fly on with nan log columns, and a non-finite
    wind or initial value would fault at t = 0: both are refused when the
    scenario is built, naming the field."""
    with pytest.raises(ScenarioError, match=f"^{re.escape(where)} must be finite"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("section", ["timeline", "wind", "initial"])
def test_scenario_null_section_is_empty(section):
    """A key with no value in the file (YAML null) reads as an empty section."""
    sc = scenario_from_dict(dict(_scenario(), **{section: None}))
    assert (sc.timeline, sc.wind_steps, sc.initial_commands) == ([], [], {})


def test_scenario_rejects_unknown_initial_key():
    with pytest.raises(ScenarioError, match="unknown initial keys.*wingtilt"):
        scenario_from_dict(_scenario(initial={"wingtilt": 1.0}))


def test_scenario_names_unknown_keys_of_any_type():
    """YAML keys may be numbers; the message lists them beside strings."""
    with pytest.raises(ScenarioError, match=re.escape("unknown initial keys ['1', 'wingtilt']")):
        scenario_from_dict(_scenario(initial={1: 2.0, "wingtilt": 1.0}))


@pytest.mark.parametrize("name", ["a\nb", "hover\r", 2024, ["a", "b"]],
                         ids=["newline", "carriage_return", "number", "list"])
def test_scenario_name_must_be_one_printable_line(name):
    """The name is the run log's first comment: a line break in it would
    write a log that `RunLog.load` refuses."""
    with pytest.raises(ScenarioError, match="^name must be one line of printable text"):
        scenario_from_dict(dict(_scenario(), name=name))


@pytest.mark.parametrize("name", [" hover ", "hover ", " hover"],
                         ids=["both_ends", "trailing", "leading"])
def test_scenario_name_with_outer_whitespace_is_refused(name):
    """A log strips its comment lines as it reads them, so a name with
    leading or trailing whitespace would load as another name."""
    with pytest.raises(ScenarioError, match=re.escape(
            f"name must be free of leading and trailing whitespace, got {name!r}")):
        scenario_from_dict(dict(_scenario(), name=name))


def test_scenario_name_round_trips_through_its_log(tmp_path):
    sc = scenario_from_dict(dict(_scenario(), name="hover  two"))
    path = tmp_path / "log.csv"
    RunLog(columns=list(LOG_COLUMNS), rows=np.zeros((1, len(LOG_COLUMNS))),
           scenario=sc.name).save(path)
    assert RunLog.load(path).scenario == "hover  two"


@pytest.mark.parametrize("mode, entry, unknown", [
    ("attitude", {"t": 0.0, "rol_deg": 5.0}, ["rol_deg"]),
    ("cruise", {"t": 0.0, "vax": 5.0, "pitch_deg": 2.0}, ["pitch_deg"]),
    ("attitude", {"t": 0.05, "vax": 5.0, "ramp": True}, ["vax"]),
    ("attitude", {"t": 0.0, 5: 1.0, "rol_deg": 2.0}, ["5", "rol_deg"]),
], ids=["typo", "attitude_field_in_cruise", "cruise_ramp_in_attitude", "number_key"])
def test_scenario_rejects_timeline_key_outside_its_mode(mode, entry, unknown):
    with pytest.raises(ScenarioError, match=re.escape(f"unknown timeline[0] keys {unknown}")):
        scenario_from_dict(_scenario(mode=mode, timeline=[entry]))


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf, 1.0e12,
                                      math.nextafter(sim.MAX_DURATION, math.inf)])
def test_scenario_duration_must_be_positive_and_bounded(duration):
    """An unbounded duration is refused when the scenario is built, before a
    run allocates its log, a non-finite one as it is read; the bound itself
    is a valid duration."""
    raw = dict(_scenario(), duration=duration)
    message = ("^duration must be > 0 and at most" if math.isfinite(duration)
               else f"^duration must be finite, got {duration}$")
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(raw)
    assert scenario_from_dict(dict(raw, duration=sim.MAX_DURATION)).duration == sim.MAX_DURATION


@pytest.mark.parametrize("duration", [0.001, 0.5 / SIM_RATE])
def test_scenario_without_a_tick_is_refused(duration):
    """A duration that rounds to no tick would run an empty log."""
    with pytest.raises(ScenarioError, match="rounds to 0 ticks"):
        scenario_from_dict(dict(_scenario(), duration=duration))
    assert scenario_from_dict(dict(_scenario(), duration=1.0 / SIM_RATE))


def test_scenario_initial_commands_must_be_numbers():
    """A command that is not a number fails when the scenario is built."""
    with pytest.raises(ConfigError, match="initial.wing_tilt must be a number"):
        scenario_from_dict(_scenario(initial={"wing_tilt": "abc"}))


@pytest.mark.parametrize("times", [(0.3, 0.1), (0.2, 0.2), (0.05, math.nan),
                                   (math.inf,)])
def test_scenario_wind_steps_strictly_increasing(times):
    """Step times must be finite and increase; a step at nan passes any
    order check and is never applied, so it is refused as it is read."""
    steps = [{"t": t, "value": [float(k), 0.0, 0.0]} for k, t in enumerate(times)]
    bad = [k for k, t in enumerate(times) if not math.isfinite(t)]
    message = (re.escape(f"wind.steps[{bad[0]}].t must be finite") if bad
               else "^wind step times must be strictly increasing$")
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(_scenario(wind={"steps": steps}))


@pytest.mark.parametrize("times", [(0.3, 0.1), (0.2, 0.2), (0.0, math.nan, 0.05),
                                   (-math.inf, 0.0)])
def test_scenario_timeline_timestamps_strictly_increasing(times):
    """Timestamps must be finite and increase; `setpoint_at` stops at an
    entry at nan, so no entry after it would ever apply: a non-finite one is
    refused as it is read."""
    timeline = [{"t": t, "roll_deg": 10.0 * k} for k, t in enumerate(times)]
    bad = [k for k, t in enumerate(times) if not math.isfinite(t)]
    message = (re.escape(f"timeline[{bad[0]}].t must be finite") if bad
               else "^timeline timestamps must be strictly increasing$")
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(_scenario(timeline=timeline))


@pytest.mark.parametrize("path", sorted(
    [*SCENARIO_DIR.glob("*.yaml"),
     *(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "scenarios")
     .glob("*.yaml")]), ids=lambda p: f"{p.parents[2].name}/{p.stem}")
def test_shipped_scenarios_pass_the_checks(path):
    sc = load_scenario(path)
    assert sc.name == path.stem


def _last_change_walk(sc, t: float) -> float:
    """The per-time walk that `Scenario.setpoint_change_times` replaced."""
    t_change = 0.0
    prev_t = 0.0
    for entry in sc.timeline:
        if entry.t <= t:
            t_change = entry.t
            prev_t = entry.t
        elif entry.ramp and prev_t <= t:
            t_change = t  # mid-ramp: the setpoint is still moving
            break
        else:
            break
    return t_change


@pytest.mark.parametrize("timeline", [
    [],
    [{"t": 0.0, "roll_deg": 1.0}],
    [{"t": 0.5, "roll_deg": 1.0, "ramp": True}, {"t": 1.0, "roll_deg": 2.0}],
    [{"t": 0.0, "roll_deg": 1.0}, {"t": 0.5, "roll_deg": 2.0},
     {"t": 1.0, "roll_deg": -1.0, "ramp": True}, {"t": 1.5, "pitch_deg": 3.0},
     {"t": 2.0, "ramp": True, "pitch_deg": 0.0}],
], ids=["empty", "entry_at_0", "first_ramp_after_0", "ramp_in_the_middle"])
def test_setpoint_change_times_match_the_walk(timeline):
    """The vectorised lookup gives, bit for bit, the walk's change time at
    query times on, between, before and after the entries."""
    sc = scenario_from_dict(_scenario(timeline=timeline))
    entries = [e.t for e in sc.timeline]
    t = np.array(sorted({-0.25, 0.0, 0.2, 0.75, 1.25, 1.75, 2.5, 10.0, *entries,
                         *(math.nextafter(e, -math.inf) for e in entries),
                         *(math.nextafter(e, math.inf) for e in entries)}))
    expected = [_last_change_walk(sc, tt) for tt in t]
    assert sc.setpoint_change_times(t).tolist() == expected


def test_one_scenario_runs_twice_to_the_same_log(vp, tmp_path):
    """A loaded scenario holds the initial state that every run starts
    from, and no run changes it: a second run logs the same bytes."""
    sc = load_scenario("hover_steps")
    sc.duration = 0.5
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run_scenario(sc, vp).save(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
