import numpy as np

from tiltwing.sim import SIM_RATE, run_scenario, scenario_from_dict


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
