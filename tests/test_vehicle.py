import math
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tiltwing.aero import body_wrench
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


def _set(raw, path, value):
    """``raw`` with the field at ``path`` (keys and list indices) set."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("path, value, where", [
    (("mass",), math.inf, "mass"),
    (("air_density",), math.inf, "air_density"),
    (("segments", 0, "coefficients", "cl0"), math.nan, "segments.wing_l_in.coefficients.cl0"),
    (("propellers", 0, "ct"), [0.1, math.nan], "propellers.pl.ct"),
    (("wing", "tilt_up_time"), math.inf, "wing.tilt_up_time"),
    (("propellers", 2, "max_speed"), math.inf, "propellers.pt.max_speed"),
    (("fuselage", "cd_x"), math.nan, "fuselage.cd_x"),
    (("mass",), 10 ** 400, "mass"),
], ids=["mass", "air_density", "cl0", "ct", "tilt_up_time", "max_speed", "cd_x",
        "integer_beyond_float_range"])
def test_non_finite_number_rejected(path, value, where):
    """A non-finite number passes every ordering check (a nan compares
    false, an infinite mass is > 0), so each is refused by its path."""
    raw = _set(yaml.safe_load(DEFAULT_CONFIG.read_text()), path, value)
    with pytest.raises(ConfigError, match=f"^{where} must be finite"):
        vehicle_from_dict(raw)


@pytest.mark.parametrize("path, value, message", [
    (("gravty",), [0.0, 0.0, 9.81], "unknown top-level keys ['gravty']"),
    (("segments", 0, "coefficients", "cm_alfa"), 0.1,
     "unknown segments.wing_l_in.coefficients keys ['cm_alfa']"),
    (("segments", 3, "slipstrem"), "pl", "unknown segments.wing_l_out2 keys ['slipstrem']"),
    (("segments", 0, "x-note"), "a", "unknown segments.wing_l_in keys ['x-note']"),
    (("segments", 1, "name"), ["a", "b"],
     "segments[1].name must be one line of printable text, got ['a', 'b']"),
], ids=["top_level", "coefficients", "segment", "x_key_in_a_segment", "segment_name_list"])
def test_unknown_keys_and_non_text_names_rejected(path, value, message):
    """A misspelt key would leave its default in place, so every key the
    file does not know is refused by its path; ``x-`` keys are set aside at
    the top level only, where they hold the YAML anchor blocks."""
    raw = _set(yaml.safe_load(DEFAULT_CONFIG.read_text()), path, value)
    assert {k for k in raw if k.startswith("x-")} == {"x-wing-aero", "x-tail-aero"}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        vehicle_from_dict(raw)


@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
def test_surface_travel_must_be_finite_and_positive(value):
    """A zero travel would divide the allocator's tail tilt by zero. The
    message gives the value in the config's degrees too; a non-finite
    value is refused as it is read, by its key."""
    raw = _set(yaml.safe_load(DEFAULT_CONFIG.read_text()),
               ("actuators", "tail_tilt_travel_deg"), value)
    message = ("^actuators.tail_tilt_travel must be finite and > 0" if math.isfinite(value)
               else f"^actuators.tail_tilt_travel_deg must be finite, got {value}$")
    with pytest.raises(ConfigError, match=message) as info:
        vehicle_from_dict(raw)
    if math.isfinite(value):
        assert str(info.value).endswith(f" rad ({value:g} deg)")


def test_travel_follows_max_speed(vp):
    """A variant with another propeller speed limit maps full command to
    that limit, in the position and in the model."""
    pt = replace(vp.prop["pt"], max_speed=150.0)
    variant = replace(vp, propellers=[pt if p.name == "pt" else p for p in vp.propellers])
    act = actuation_from_commands(variant, delta_pt=1.0)
    assert act.position("pt", variant) == 150.0
    i_pt = [p.name for p in variant.propellers].index("pt")
    assert body_wrench((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), act, variant).props[i_pt].eta == 150.0
    assert act.position("pt", vp) == vp.prop["pt"].max_speed


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
    assert out.position("pl", vp) == 0.5 * vp.travel["pl"]
    assert out.position("pr", vp) == 0.5 * vp.travel["pr"]
    assert out.position("e", vp) == 0.3 * vp.travel["e"]
    assert out.position("tt", vp) == -0.7 * vp.travel["tt"]


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
    target = cmd * vp.travel["w"]
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
