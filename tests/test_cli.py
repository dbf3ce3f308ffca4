import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from tiltwing import cli, sim
from tiltwing.attitude import PASSES
from tiltwing.trim import CSV_HEADER, load_trim_map
from tiltwing.vehicle import DEFAULT_CONFIG

VEHICLE_TEXT = DEFAULT_CONFIG.read_text()


def test_check_all_pass(capsys):
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "rk4_order:", "rotation_orthonormality:", "allocation_accounting:",
        "coefficient_continuity:", "mirror_symmetry:"]
    assert all(line.startswith("PASS ") for line in lines)


def test_continuity_check_spans_the_wrap_at_180_deg(vp):
    """A blend that ends 5 deg short of 180 deg is accepted and continuous
    across +-180 deg; the check sees the jump of one that ends beyond, a
    segment made here without the vehicle's checks."""
    seg = vp.segments[1]
    inside = replace(seg, alpha_stall_pos=math.radians(170.0))
    replace(vp, segments=[vp.segments[0], inside, *vp.segments[2:]])   # accepted
    assert cli._check_continuity(SimpleNamespace(segments=[inside]))[0]
    beyond = replace(seg, alpha_stall_pos=math.radians(178.0))
    ok, detail = cli._check_continuity(SimpleNamespace(segments=[beyond]))
    assert not ok and float(detail.split()[-1]) > 1.0


def _model_eval(capsys, tmp_path, actuators: str) -> dict[str, np.ndarray]:
    state = tmp_path / "state.yaml"
    state.write_text("velocity: [8.0, 0.5, 1.0]\nattitude_deg: [2.0, 5.0, 10.0]\n"
                     "omega: [0.1, -0.05, 0.02]\n")
    act = tmp_path / "act.yaml"
    act.write_text(actuators)
    assert cli.main(["model", "eval", "--state", str(state),
                     "--actuators", str(act)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "source,fx,fy,fz,mx,my,mz,stalled"
    return {row[0]: np.array([float(v) for v in row[1:]])
            for row in (line.split(",") for line in lines[1:])}


def test_model_eval_rows_sum_to_total(capsys, tmp_path, vp):
    rows = _model_eval(capsys, tmp_path, "w: 0.6\nplr: 0.7\npt: 0.2\ne: 0.1\n")
    names = ([p.name for p in vp.propellers] + [s.name for s in vp.segments]
             + ["fuselage", "TOTAL"])
    assert list(rows) == names
    total = rows.pop("TOTAL")[:6]
    parts = np.sum([r[:6] for r in rows.values()], axis=0)
    assert np.abs(parts - total).max() < 1e-9 * max(np.abs(total).max(), 1.0)


def test_model_eval_accepts_wind(capsys, tmp_path):
    cmds = "w: 0.6\nplr: 0.7\npt: 0.2\ne: 0.1\n"
    calm = _model_eval(capsys, tmp_path, cmds)["TOTAL"]
    windy = _model_eval(capsys, tmp_path, cmds + "wind: [1, 0, 0]\n")["TOTAL"]
    assert not np.allclose(calm, windy)


def test_model_eval_without_wind_is_zero_wind(capsys, tmp_path):
    """An actuator file without ``wind:`` prints the bytes of zero wind."""
    (tmp_path / "s.yaml").write_text("velocity: [8.0, 0.5, 1.0]\n"
                                     "attitude_deg: [2.0, 5.0, 10.0]\n")
    outputs = []
    for wind in ("", "wind: [0, 0, 0]\n"):
        (tmp_path / "a.yaml").write_text("w: 0.6\nplr: 0.7\npt: 0.2\n" + wind)
        assert cli.main(["model", "eval", "--state", str(tmp_path / "s.yaml"),
                         "--actuators", str(tmp_path / "a.yaml")]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_config_validate(capsys, tmp_path):
    assert cli.main(["config", "validate", str(DEFAULT_CONFIG)]) == 0
    assert capsys.readouterr().out.startswith("OK: ")
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    raw["mass"] = -1.0
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw))
    assert cli.main(["config", "validate", str(broken)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: mass must be > 0")


@pytest.mark.parametrize("old, new", [("mass: 1.9", "mass: heavy"),
                                      ("ct: [0.11, -0.12]", "ct: 0.1")])
def test_config_validate_rejects_non_numbers(capsys, tmp_path, old, new):
    broken = tmp_path / "broken.yaml"
    broken.write_text(VEHICLE_TEXT.replace(old, new))
    assert new in broken.read_text()
    assert cli.main(["config", "validate", str(broken)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: ")


def test_trim_query_inside_and_outside_hull(capsys, committed_map_path):
    assert cli.main(["trim", "query", "--map", str(committed_map_path),
                     "--va", "6.0", "--gamma", "0.02"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split()[0] for line in out.splitlines()[1:]] == [
        "delta_w", "delta_plr", "delta_al", "delta_e", "delta_pt", "theta_t"]
    assert cli.main(["trim", "query", "--map", str(committed_map_path),
                     "--va", "40.0", "--gamma", "0.0"]) == 0
    assert "WARNING: query outside grid hull" in capsys.readouterr().err


def test_trim_build_one_cell(capsys, tmp_path):
    out = tmp_path / "map.csv"
    assert cli.main(["trim", "build", "--out", str(out), "--va-max", "0",
                     "--gamma-max-deg", "0"]) == 0
    assert "built 1x1 map: 1/1 feasible" in capsys.readouterr().out
    tmap = load_trim_map(out)
    assert tmap.points[0][0].feasible


@pytest.mark.parametrize("grid", [
    ["--va-step", "0"], ["--gamma-step-deg", "0"], ["--va-step", "-1"],
    ["--va-max", "-1"], ["--gamma-max-deg", "-5"], ["--va-max", "inf"],
    ["--gamma-max-deg", "inf"], ["--va-max", "nan"], ["--va-step", "inf"],
    ["--gamma-step-deg", "inf"], ["--va-max", "1e300"],
    ["--va-max", "1e9", "--va-step", "1e-3"], ["--va-step", "1e-300"]])
def test_trim_build_rejects_bad_grid(capsys, tmp_path, grid):
    out = tmp_path / "map.csv"
    assert cli.main(["trim", "build", "--out", str(out), *grid]) == 2
    assert capsys.readouterr().err.startswith("error: grid ")
    assert not out.exists()


def _scenario_file(tmp_path, initial: str) -> str:
    path = tmp_path / "scenario.yaml"
    path.write_text("name: short\nmode: open_loop\nduration: 0.1\n"
                    f"initial: {initial}\n")
    return str(path)


def test_sim_run_then_report(capsys, tmp_path):
    scenario = _scenario_file(
        tmp_path, "{position: [0, 0, -20], wing_tilt: 1.0, main_throttle: 0.78}")
    log = tmp_path / "log.csv"
    assert cli.main(["sim", "run", "--scenario", scenario,
                     "--out", str(log)]) == 0
    assert capsys.readouterr().out.endswith("25 ticks -> " + str(log) + " (ok)\n")
    prefix = tmp_path / "report"
    assert cli.main(["report", "--log", str(log), "--scenario", scenario,
                     "--out", str(prefix)]) == 0
    metrics = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(metrics["rows"]) == 25.0
    assert float(metrics["fault"]) == 0.0
    assert prefix.with_suffix(".csv").read_text().startswith("metric,value\n")
    assert prefix.with_suffix(".txt").read_text().startswith("scenario: short\n")


def test_report_carries_the_allocation_record(capsys, tmp_path, vp):
    """A hover_steps log records the chain passes of every tick, and the
    report prints their mean and the RMS of the residual's per-row norm."""
    log = tmp_path / "log.csv"
    scenario = sim.load_scenario("hover_steps")
    scenario.duration = 0.4
    sim.run_scenario(scenario, vp).save(log)
    loaded = sim.RunLog.load(log)
    passes = loaded.column("alloc_passes")
    assert np.all((passes >= 0) & (passes <= PASSES) & (passes == np.round(passes)))
    assert passes.max() > 0
    assert cli.main(["report", "--log", str(log)]) == 0
    metrics = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(metrics["alloc_passes_mean"]) == pytest.approx(passes.mean(), rel=1e-5)
    res = np.stack([loaded.column(f"alloc_res_{axis}") for axis in "xyz"], axis=1)
    rms = np.sqrt(np.mean(np.linalg.norm(res, axis=1) ** 2))
    assert rms > 0.0
    assert float(metrics["alloc_res_rms"]) == pytest.approx(rms, rel=1e-5)


def test_sim_run_fault_exits_1(capsys, tmp_path):
    scenario = _scenario_file(tmp_path, "{velocity: [1.0e160, 0, 0]}")
    assert cli.main(["sim", "run", "--scenario", scenario,
                     "--out", str(tmp_path / "log.csv")]) == 1
    out, err = capsys.readouterr()
    assert "0 ticks" in out
    assert "FAULT at t=0.000 s: non-finite aerodynamic wrench" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, files", [
    ("model eval --state {d}/nope.yaml --actuators {d}/a.yaml", {"a.yaml": "w: 1\n"}),
    ("trim query --map {d}/nope.csv --va 1 --gamma 0", {}),
    ("sim run --scenario hover_steps --map {d}/nope.csv --out {d}/log.csv", {}),
    ("report --log {d}/nope.csv", {}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "throttle: 0.6\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "wind: [1, 0]\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\ninitial: {velocity: [5, 0]}\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "[1, 2, 3]\n", "a.yaml": "w: 1\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: attitude\nduration: 0.1\ntimeline:\n  - {roll_deg: 5}\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: cruise\nduration: 0.1\ntimeline:\n  - {t: 0, vax: fast}\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\ninitial: {velocity: [fast, 0, 0]}\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "[0.5, 0.5]\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "w: fast\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\nwind: [1, 0, 0]\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\nwind: {steps: 5}\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: attitude\nduration: 0.1\n"
                 "timeline:\n  - {t: 0, ramp: no_thanks, roll_deg: 5}\n"}),
    ("check --vehicle {d}/v.yaml",
     {"v.yaml": VEHICLE_TEXT.replace("mass: 1.9", "mass: heavy")}),
    ("model eval --vehicle {d}/v.yaml --state {d}/s.yaml --actuators {d}/a.yaml",
     {"v.yaml": VEHICLE_TEXT.replace("ct: [0.11, -0.12]", "ct: 0.1"),
      "s.yaml": "{}\n", "a.yaml": "w: 1\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "a: [1, 2\n", "a.yaml": "w: 1\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "a: [1, 2\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: .inf\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 1.0e12\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.001\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\ninitial: {wing_tilt: abc}\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: attitude\nduration: 2\ntimeline:\n  - {t: .nan, pitch_deg: 1}\n"
                 "  - {t: 1, roll_deg: 20}\n"}),
    ("report --log {d}/log.csv", {"log.csv": "t,x\n0.0,1.0\n0.004,fast\n"}),
    ("report --log {d}/log.csv", {"log.csv": "t,x\n0.0,1.0\n0.004\n"}),
    ("trim query --map {d}/map.csv --va 1 --gamma 0",
     {"map.csv": CSV_HEADER + "\n0.0,0.0,1,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,fast\n"}),
    ("trim query --map {d}/map.csv --va nan --gamma 0",
     {"map.csv": CSV_HEADER + "\n0.0,0.0,1,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n"}),
    ("trim query --map {d}/map.csv --va 1 --gamma inf",
     {"map.csv": CSV_HEADER + "\n0.0,0.0,1,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: attitude\nduration: 0.2\ntimeline:\n  - {t: 0.1, roll_deg: .nan}\n"}),
    ("check --vehicle {d}/v.yaml",
     {"v.yaml": VEHICLE_TEXT.replace("tail_tilt_travel_deg: 25.0", "tail_tilt_travel_deg: 0")}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "w: .nan\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "attitude_deg: [1e400, 0, 0]\n", "a.yaml": "w: 1\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "velocity: [1.0e200, 0, 0]\n", "a.yaml": "w: 1\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "position: [.inf, 0, 0]\n", "a.yaml": "w: 1\n"}),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: 0.1\ninitial: {attitude_deg: [.inf, 0, 0]}\n"}),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "velocit: [12, 0, 0]\n", "a.yaml": "w: 1\n"}),
], ids=["missing_state", "missing_map_query", "missing_map_sim", "missing_log",
        "unknown_command", "wind_2_vector", "velocity_2_vector", "state_list",
        "timeline_entry_without_t", "timeline_value_not_a_number",
        "velocity_not_numbers", "actuators_list", "actuator_not_a_number",
        "wind_not_a_mapping", "wind_steps_not_a_list", "ramp_not_a_bool",
        "vehicle_mass_not_a_number", "vehicle_ct_not_a_list",
        "state_yaml_malformed", "actuators_yaml_malformed",
        "duration_inf", "duration_1e12", "duration_no_tick",
        "initial_command_not_a_number", "timeline_t_nan",
        "log_value_not_a_number", "log_row_short", "map_value_not_a_number",
        "query_va_nan", "query_gamma_inf", "timeline_value_nan",
        "vehicle_tail_tilt_travel_zero", "actuator_nan", "attitude_overflow",
        "model_fault", "position", "initial_attitude_inf", "state_unknown_key"])
def test_input_errors_exit_2_without_traceback(capsys, tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv.format(d=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("state, actuators, message", [
    ("{}", "w: .nan", "actuators.w must be finite, got nan"),
    ("attitude_deg: [1e400, 0, 0]", "w: 1", "attitude_deg must be finite, got [inf, 0.0, 0.0]"),
    ("velocity: [1.0e200, 0, 0]", "w: 1",
     "the model faults at this state and actuation: non-finite aerodynamic wrench"),
    ("position: [.inf, 0, 0]", "w: 1", "position must be finite, got [inf, 0.0, 0.0]"),
    ("velocit: [12, 0, 0]", "w: 1", "unknown top-level keys ['velocit']"),
    ("{}", "w: 1\nthrottle: 0.6", "unknown actuators keys ['throttle']"),
], ids=["actuator_nan", "attitude_overflow", "model_fault", "position",
        "state_unknown_key", "actuator_unknown_key"])
def test_model_eval_bad_number_names_the_field_or_fault(capsys, tmp_path, state,
                                                       actuators, message):
    (tmp_path / "s.yaml").write_text(state + "\n")
    (tmp_path / "a.yaml").write_text(actuators + "\n")
    assert cli.main(["model", "eval", "--state", str(tmp_path / "s.yaml"),
                     "--actuators", str(tmp_path / "a.yaml")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, files, status, message", [
    ("config validate {d}/v.yaml", {"v.yaml": VEHICLE_TEXT.replace("mass: 1.9", "mass: yes")},
     1, "INVALID: mass must be a number, got True"),
    ("sim run --scenario {d}/sc.yaml --out {d}/log.csv",
     {"sc.yaml": "mode: open_loop\nduration: on\n"},
     2, "error: duration must be a number, got True"),
    ("model eval --state {d}/s.yaml --actuators {d}/a.yaml",
     {"s.yaml": "{}\n", "a.yaml": "w: true\n"},
     2, "error: actuators.w must be a number, got True"),
], ids=["vehicle_mass", "scenario_duration", "actuator_command"])
def test_yaml_booleans_are_not_numbers(capsys, tmp_path, argv, files, status, message):
    """YAML reads yes, on and true as booleans, which float() would take as
    1.0."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv.format(d=tmp_path).split()) == status
    out, err = capsys.readouterr()
    assert out + err == message + "\n"


@pytest.mark.parametrize("command, name, text", [
    ("report --log", "log.csv", "# tiltwing run log\nt,x\n0.004\n"),
    ("trim query --va 1 --gamma 0 --map", "map.csv",
     "# tiltwing trim map\n" + CSV_HEADER + "\n0.0,0.0,1,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,x\n"),
    ("trim query --va 1 --gamma 0 --map", "map.csv",
     CSV_HEADER + "\n0.0,0.0,1,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n"
     "0.0,0.0,0,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n"),
    ("trim query --va 1 --gamma 0 --map", "map.csv",
     "# tiltwing trim map\n" + CSV_HEADER + "\n0.0,0.0,1,nan,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n"),
    ("trim query --va 1 --gamma 0 --map", "map.csv",
     "# tiltwing trim map\n" + CSV_HEADER
     + "\n0.0,0.0,0.5,0.0,1.0,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n")],
    ids=["log", "map", "map_duplicate_cell", "map_non_finite", "map_feasible_flag"])
def test_malformed_row_error_names_file_and_line(capsys, tmp_path, command, name,
                                                 text):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main([*command.split(), str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} line 3: ")


@pytest.mark.parametrize("key", ["propellers", "wing", "segments"])
def test_vehicle_section_of_the_wrong_structure_is_a_config_error(capsys, tmp_path,
                                                                   key):
    """A vehicle section that is a number, not the list or mapping the parser
    expects, is reported like any other config error: INVALID with exit 1
    under `config validate`, error: with exit 2 under --vehicle."""
    raw = yaml.safe_load(VEHICLE_TEXT)
    raw[key] = 5
    path = tmp_path / "v.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["config", "validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"INVALID: {key} must be a ")
    assert cli.main(["check", "--vehicle", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a ") and "Traceback" not in err


def test_report_names_the_run_log_columns_a_log_lacks(capsys, tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("t,x\n0.0,1.0\n")
    assert cli.main(["report", "--log", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: header lacks the run-log columns ['y', 'z', ")
    assert "'fault']" in err
