import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tiltwing.aero import body_wrench
from tiltwing.vehicle import (ActuatorSet, AirfoilSegmentParams, ConfigError, DEFAULT_CONFIG,
                              FuselageParams, PropellerParams, VehicleParams, WingParams,
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
    (("segments", 1, "name"), "wing_l_mid ",
     "segments.wing_l_mid .name must be free of leading and trailing whitespace, "
     "got 'wing_l_mid '"),
    (("propellers", 2, "mount"), "wing", "unknown propellers.pt keys ['mount']"),
], ids=["top_level", "coefficients", "segment", "x_key_in_a_segment", "segment_name_list",
        "segment_name_trailing_space", "mount"])
def test_unknown_keys_and_non_text_names_rejected(path, value, message):
    """A misspelt key would leave its default in place, so every key the
    file does not know is refused by its path; ``x-`` keys are set aside at
    the top level only, where they hold the YAML anchor blocks."""
    raw = _set(yaml.safe_load(DEFAULT_CONFIG.read_text()), path, value)
    assert {k for k in raw if k.startswith("x-")} == {"x-wing-aero", "x-tail-aero"}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        vehicle_from_dict(raw)


def _unshared_default() -> dict:
    """The default config as plain nested data, its YAML anchor blocks
    copied into each segment rather than shared among them."""
    return json.loads(json.dumps(yaml.safe_load(DEFAULT_CONFIG.read_text())))


def _variant(vp, record: str, name: str, value):
    """``vp`` with field ``name`` of ``record`` (``""``, ``wing``,
    ``fuselage``, ``propellers.<name>`` or ``segments.<name>``) set."""
    if record in ("", "wing", "fuselage"):
        return replace(vp, **({name: value} if not record else
                              {record: replace(getattr(vp, record), **{name: value})}))
    kind, which = record.split(".")
    return replace(vp, **{kind: [replace(x, **{name: value}) if x.name == which else x
                                 for x in getattr(vp, kind)]})


# one case per field with a declared bound: its record, the config path and
# value that break it, and the refusal, the same from a file and a variant
BOUND_CASES = [
    ("", "mass", ("mass",), -1.0, "mass must be > 0, got -1.0"),
    ("", "rho", ("air_density",), 0.0, "air_density must be > 0, got 0.0"),
    ("wing", "tilt_up_time", ("wing", "tilt_up_time"), 0.0,
     "wing.tilt_up_time must be > 0, got 0.0"),
    ("wing", "tilt_down_time", ("wing", "tilt_down_time"), -10.0,
     "wing.tilt_down_time must be > 0, got -10.0"),
    ("propellers.pl", "diameter", ("propellers", 0, "diameter"), -0.22,
     "propellers.pl.diameter must be > 0, got -0.22"),
    ("propellers.pl", "ct0", ("propellers", 0, "ct"), [0.0, -0.12],
     "propellers.pl.ct0 must be > 0, got 0.0"),
    ("propellers.pr", "normal_force_coeff", ("propellers", 1, "normal_force_coeff"), 0.0,
     "propellers.pr.normal_force_coeff must be > 0, got 0.0"),
    ("propellers.pt", "handedness", ("propellers", 2, "handedness"), 0.5,
     "propellers.pt.handedness must be -1 or +1, got 0.5"),
    ("propellers.pt", "max_speed", ("propellers", 2, "max_speed"), -200.0,
     "propellers.pt.max_speed must be > 0, got -200.0"),
    ("segments.wing_l_mid", "kind", ("segments", 1, "kind"), "wings",
     "segments.wing_l_mid.kind must be one of ('wing', 'htail', 'vtail'), got 'wings'"),
    ("segments.wing_l_mid", "chord", ("segments", 1, "chord"), -0.16,
     "segments.wing_l_mid.chord must be > 0, got -0.16"),
    ("segments.wing_l_mid", "span", ("segments", 1, "span"), 0.0,
     "segments.wing_l_mid.span must be > 0, got 0.0"),
    ("segments.wing_l_mid", "blend_halfwidth", ("segments", 1, "blend_halfwidth_deg"), 0.0,
     "segments.wing_l_mid.blend_halfwidth must be > 0, got 0.0"),
    *(("segments.wing_l_mid", f"fp_{key}", ("segments", 1, "flat_plate", key), -0.5,
       f"segments.wing_l_mid.fp_{key} must be >= 0, got -0.5")
      for key in ("cl45", "cd_min", "cd90", "cm_max")),
    ("segments.wing_l_mid", "control", ("segments", 1, "control"), "flap",
     "segments.wing_l_mid.control must be one of ('none', 'aileron-left', "
     "'aileron-right', 'elevator', 'rudder'), got 'flap'"),
    ("segments.wing_l_mid", "control_gain", ("segments", 1, "control_gain"), 0.5,
     "segments.wing_l_mid.control_gain must be -1 or +1, got 0.5"),
    ("segments.wing_l_mid", "slipstream", ("segments", 1, "slipstream"), "pq",
     "segments.wing_l_mid.slipstream must be one of ('none', 'pl', 'pr', 'pt'), got 'pq'"),
    *(("fuselage", key, ("fuselage", key), -0.01, f"fuselage.{key} must be >= 0, got -0.01")
      for key in ("cd_x", "cd_y", "cd_z")),
]


def test_every_declared_bound_has_a_case():
    declared = [f.name for cls in (VehicleParams, WingParams, PropellerParams,
                                   AirfoilSegmentParams, FuselageParams)
                for f in fields(cls) if "bound" in f.metadata]
    assert sorted(declared) == sorted(case[1] for case in BOUND_CASES)


@pytest.mark.parametrize("record, name, path, value, message", BOUND_CASES,
                         ids=[case[1] for case in BOUND_CASES])
def test_declared_bound_refused_in_a_file_and_in_a_variant(vp, tmp_path, record, name,
                                                          path, value, message):
    """Each bound is checked where it is declared, so a vehicle file and a
    `dataclasses.replace` variant are refused alike, by the field's path."""
    config = tmp_path / "vehicle.yaml"
    config.write_text(yaml.safe_dump(_set(_unshared_default(), path, value)))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_vehicle_config(config)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _variant(vp, record, name, math.radians(value) if path[-1].endswith("_deg")
                 else value[0] if isinstance(value, list) else value)


@pytest.mark.parametrize("key, deg, band", [("alpha_stall_pos", 178.0, "[-17, 183]"),
                                            ("alpha_stall_neg", -178.0, "[-183, 19]")],
                         ids=["positive", "negative"])
def test_stall_band_and_blend_must_lie_within_a_half_turn(vp, tmp_path, key, deg, band):
    """The law is periodic in alpha only if the pre-stall weight is 0 at
    +-180 deg, so the blend must end inside the half turn on both sides."""
    message = (f"segments.wing_l_mid: the stall band and its blend must lie within "
               f"+-180 deg, got {band} deg")
    config = tmp_path / "vehicle.yaml"
    config.write_text(yaml.safe_dump(_set(_unshared_default(), ("segments", 1, f"{key}_deg"),
                                          deg)))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_vehicle_config(config)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _variant(vp, "segments.wing_l_mid", key, math.radians(deg))


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
