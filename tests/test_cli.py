import numpy as np

from tiltwing import cli


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
