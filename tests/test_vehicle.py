import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tiltwing.vehicle import (ActuatorSet, ConfigError, DEFAULT_CONFIG,
                              actuation_from_commands, apply_actuator_rates,
                              load_vehicle_config, vehicle_from_dict)


def test_default_config_mass_and_span(vp):
    assert vp.mass == 1.9
    tips = [abs(s.cp[1]) + s.span / 2.0 for s in vp.segments if s.kind == "wing"]
    assert 2.0 * max(tips) == pytest.approx(0.94, abs=1e-9)


def test_default_config_counts(vp):
    wing = [s for s in vp.segments if s.kind == "wing"]
    htail = [s for s in vp.segments if s.kind == "htail"]
    vtail = [s for s in vp.segments if s.kind == "vtail"]
    assert (len(wing), len(htail), len(vtail)) == (8, 3, 1)
    assert sum(s.slipstream != "none" for s in wing) == 4
    assert sum(s.slipstream == "pt" for s in htail) == 1


def test_negative_mass_rejected():
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    raw["mass"] = -1.0
    with pytest.raises(ConfigError, match="mass"):
        vehicle_from_dict(raw)


def test_missing_fuselage_rejected():
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    del raw["fuselage"]
    with pytest.raises(ConfigError, match="fuselage"):
        vehicle_from_dict(raw)


def test_parse_error_reported(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mass: [unclosed\n")
    with pytest.raises(ConfigError, match="parse"):
        load_vehicle_config(bad)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_vehicle_config("/nonexistent/vehicle.yaml")


def test_asymmetric_inertia_rejected():
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    raw["inertia"][0][1] = 0.01
    with pytest.raises(ConfigError, match="symmetric"):
        vehicle_from_dict(raw)


# ---------------------------------------------------------------------------
# Actuator rate limiting
# ---------------------------------------------------------------------------

def test_tilt_up_rate(vp):
    cur = actuation_from_commands(vp, delta_w=0.0)
    cmd = actuation_from_commands(vp, delta_w=1.0)
    out = apply_actuator_rates(cur, cmd, 1.0, vp)
    assert math.degrees(out.zeta_w) == pytest.approx(18.0, rel=1e-12)


def test_tilt_down_rate(vp):
    cur = actuation_from_commands(vp, delta_w=1.0)
    cmd = actuation_from_commands(vp, delta_w=0.0)
    out = apply_actuator_rates(cur, cmd, 1.0, vp)
    assert math.degrees(out.zeta_w) == pytest.approx(81.0, rel=1e-12)


def test_rates_fixed_point(vp):
    cur = actuation_from_commands(vp, delta_w=0.4, delta_plr=0.6, delta_e=-0.2)
    out = apply_actuator_rates(cur, cur, 0.01, vp)
    assert out == cur


def test_other_actuators_immediate(vp):
    cur = actuation_from_commands(vp)
    cmd = actuation_from_commands(vp, delta_plr=0.5, delta_e=0.3, delta_tt=-0.7)
    out = apply_actuator_rates(cur, cmd, 1e-4, vp)
    assert out.position("pl", vp) == 0.5 * vp.actuators["pl"].travel
    assert out.position("pr", vp) == 0.5 * vp.actuators["pr"].travel
    assert out.position("e", vp) == 0.3 * vp.actuators["e"].travel
    assert out.position("tt", vp) == -0.7 * vp.actuators["tt"].travel


def test_commands_clamped(vp):
    cur = actuation_from_commands(vp)
    cmd = ActuatorSet(delta_pl=1.5, delta_e=-2.0, delta_w=-0.3)
    out = apply_actuator_rates(cur, cmd, 0.1, vp)
    assert out.delta_pl == 1.0
    assert out.delta_e == -1.0
    assert out.delta_w == 0.0


@given(cmd=st.floats(0.0, 1.0), dt=st.floats(1e-3, 3.0), start=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_tilt_never_overshoots(cmd, dt, start):
    vp = _VP
    cur = actuation_from_commands(vp, delta_w=start)
    out = apply_actuator_rates(cur, actuation_from_commands(vp, delta_w=cmd), dt, vp)
    target = cmd * vp.actuators["w"].travel
    lo, hi = sorted((cur.zeta_w, target))
    assert lo - 1e-12 <= out.zeta_w <= hi + 1e-12


@given(cmd=st.floats(0.0, 1.0), dt1=st.floats(1e-3, 2.0), dt2=st.floats(1e-3, 2.0),
       start=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_rate_time_consistency(cmd, dt1, dt2, start):
    vp = _VP
    cur = actuation_from_commands(vp, delta_w=start)
    cmd_act = actuation_from_commands(vp, delta_w=cmd)
    chained = apply_actuator_rates(
        apply_actuator_rates(cur, cmd_act, dt1, vp), cmd_act, dt2, vp)
    single = apply_actuator_rates(cur, cmd_act, dt1 + dt2, vp)
    assert chained.zeta_w == pytest.approx(single.zeta_w, abs=1e-12)


def test_dt_must_be_positive(vp):
    cur = actuation_from_commands(vp)
    with pytest.raises(ValueError):
        apply_actuator_rates(cur, cur, 0.0, vp)


# module-level vehicle for hypothesis (fixtures are awkward inside @given)
from tiltwing.vehicle import default_vehicle as _dv  # noqa: E402
_VP = _dv()
