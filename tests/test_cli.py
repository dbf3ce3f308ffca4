import numpy as np
import pytest
import yaml

from tiltwing import cli
from tiltwing.trim import load_trim_map
from tiltwing.vehicle import DEFAULT_CONFIG


def test_check_all_pass(capsys):
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "rk4_order:", "rotation_orthonormality:", "allocation_accounting:",
        "coefficient_continuity:", "mirror_symmetry:"]
    assert all(line.startswith("PASS ") for line in lines)


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


def test_config_validate(capsys, tmp_path):
    assert cli.main(["config", "validate", str(DEFAULT_CONFIG)]) == 0
    assert capsys.readouterr().out.startswith("OK: ")
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    raw["mass"] = -1.0
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw))
    assert cli.main(["config", "validate", str(broken)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: mass must be > 0")


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
    ["--va-max", "-1"], ["--gamma-max-deg", "-5"]])
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
], ids=["missing_state", "missing_map_query", "missing_map_sim", "missing_log",
        "unknown_command", "wind_2_vector", "velocity_2_vector"])
def test_input_errors_exit_2_without_traceback(capsys, tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv.format(d=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
