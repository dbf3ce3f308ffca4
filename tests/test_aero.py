import copy
import math
import warnings

import numpy as np
import pytest

from aero_reference import (decompose_at_propeller, decompose_at_segment,
                            fuselage_wrench, induced_velocity, local_airspeed,
                            propeller_geometry, propeller_slipstream,
                            propeller_wrench, segment_deflection, segment_frame,
                            segment_wrench)
from rotation_reference import rot_y
from tiltwing.aero import (advance_ratio, airfoil_coefficients, body_wrench,
                           total_wrench)
from tiltwing.dynamics import RigidBodyState
from tiltwing.rotations import euler_zyx_to_matrix
from tiltwing.vehicle import (COMMAND_HI, COMMAND_LO, AirfoilSegmentParams,
                              FuselageParams, PropellerParams,
                              actuation_from_commands, clamp_command, mirror_twin)


def _test_prop(**over):
    kw = dict(name="p", hub_offset=np.zeros(3), diameter=0.3,
              ct0=0.09, ct1=-0.08, cq0=0.005, cq1=-0.002,
              normal_force_coeff=1e-3, handedness=1, max_speed=200.0)
    kw.update(over)
    return PropellerParams(**kw)


def _test_segment(**over):
    kw = dict(name="s", kind="htail", cp=np.zeros(3), chord=0.2, span=0.5,
              cl0=0.0, cl_alpha=5.0, cl_delta=2.0, cd0=0.02, cd_alpha2=1.5,
              cm0=0.0, cm_alpha=0.0, cm_delta=-0.4,
              alpha_stall_neg=math.radians(-12.0),
              alpha_stall_pos=math.radians(14.0),
              blend_halfwidth=math.radians(5.0),
              fp_cl45=1.1, fp_cd_min=0.02, fp_cd90=1.8, fp_cm_max=0.4)
    kw.update(over)
    return AirfoilSegmentParams(**kw)


# ---------------------------------------------------------------------------
# local airspeed
# ---------------------------------------------------------------------------

def test_local_airspeed_identity():
    flow = local_airspeed(np.array([0.3, 0.1, -0.2]), np.array([5.0, 1.0, 2.0]),
                          np.zeros(3))
    assert np.allclose(flow.u_a, [5.0, 1.0, 2.0])


def test_local_airspeed_cross_product():
    flow = local_airspeed(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                          np.array([0.0, 1.0, 0.0]))
    assert np.allclose(flow.u_a, [0.0, 0.0, -1.0])


def test_local_airspeed_slipstream_additive():
    flow = local_airspeed(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                          np.array([0.0, 1.0, 0.0]),
                          slipstream=np.array([5.0, 0.0, 0.0]))
    assert np.allclose(flow.u_a, [5.0, 0.0, -1.0])


def test_propeller_decomposition_invariants():
    axis = np.array([1.0, 0.0, 0.0])
    flow = decompose_at_propeller(
        local_airspeed(np.zeros(3), np.array([3.0, 4.0, 0.0]), np.zeros(3)), axis)
    assert flow.v_axial == pytest.approx(3.0)
    assert flow.v_radial == pytest.approx(4.0)
    assert abs(flow.axis @ flow.radial) < 1e-12
    assert np.linalg.norm(flow.radial) == pytest.approx(1.0)


def test_segment_decomposition_invariants():
    ex, ey, ez = np.eye(3)
    flow = decompose_at_segment(
        local_airspeed(np.zeros(3), np.array([10.0, 2.0, 1.0]), np.zeros(3)),
        ex, ey, ez)
    assert abs(flow.e_lift @ flow.e_drag) < 1e-12
    assert np.linalg.norm(flow.e_lift) == pytest.approx(1.0)
    assert np.linalg.norm(flow.e_drag) == pytest.approx(1.0)
    u_ldp = flow.u_a - (flow.u_a @ ey) * ey
    assert np.allclose(flow.e_drag, -u_ldp / np.linalg.norm(u_ldp))
    assert flow.alpha == pytest.approx(math.atan2(1.0, 10.0))


# ---------------------------------------------------------------------------
# propeller
# ---------------------------------------------------------------------------

def _prop_flow(prop, v_body, position=None):
    flow = local_airspeed(position if position is not None else np.zeros(3),
                          v_body, np.zeros(3))
    return decompose_at_propeller(flow, np.array([1.0, 0.0, 0.0]))


def test_propeller_zero_speed_zero_wrench():
    p = _test_prop()
    fm = propeller_wrench(p, 0.0, _prop_flow(p, np.array([5.0, 1.0, 0.0])), 1.225)
    assert np.allclose(fm.force, 0.0)
    assert np.allclose(fm.moment, 0.0)


def test_propeller_static_thrust_only():
    p = _test_prop()
    fm = propeller_wrench(p, 100.0, _prop_flow(p, np.zeros(3)), 1.225)
    expected = 1.225 * 100.0 ** 2 * 0.3 ** 4 * 0.09
    assert np.allclose(fm.force, [expected, 0.0, 0.0])


def test_propeller_hand_evaluated_thrust():
    # independent hand evaluation: 1.225 * 1e4 * 0.0081 * 0.09 = 8.93025 N
    p = _test_prop()
    fm = propeller_wrench(p, 100.0, _prop_flow(p, np.zeros(3)), 1.225)
    assert fm.force[0] == pytest.approx(8.93025, rel=1e-12)


def test_propeller_handedness_flips_torque_only():
    v = np.array([4.0, 1.0, 0.0])
    f1 = propeller_wrench(_test_prop(handedness=1), 120.0,
                          _prop_flow(None, v), 1.225)
    f2 = propeller_wrench(_test_prop(handedness=-1), 120.0,
                          _prop_flow(None, v), 1.225)
    assert np.allclose(f1.force, f2.force)
    # hub at origin: the moment is the pure reactive torque
    assert np.allclose(f1.moment, -f2.moment)
    assert np.linalg.norm(f1.moment) > 0.0


def test_propeller_normal_force_direction():
    p = _test_prop()
    flow = _prop_flow(p, np.array([4.0, 2.0, 0.0]))
    fm = propeller_wrench(p, 100.0, flow, 1.225)
    assert fm.force[1] == pytest.approx(-100.0 * p.normal_force_coeff * 2.0)


def test_advance_ratio_clamps():
    p = _test_prop()
    # thrust never negative: high-speed inflow drives C_T to its zero
    fast = _prop_flow(p, np.array([100.0, 0.0, 0.0]))
    fm = propeller_wrench(p, 50.0, fast, 1.225)
    assert fm.force[0] == pytest.approx(0.0, abs=1e-12)
    # negative inflow clamps J at zero (static coefficient)
    back = _prop_flow(p, np.array([-10.0, 0.0, 0.0]))
    fm2 = propeller_wrench(p, 100.0, back, 1.225)
    assert fm2.force[0] == pytest.approx(1.225 * 1e4 * 0.3 ** 4 * 0.09)


def test_advance_ratio_stopped_reversed_and_clamped():
    p = _test_prop()
    # below ETA_MIN the prop counts as stopped
    assert advance_ratio(p, 0.5, 10.0) == 0.0
    # reverse inflow clamps at zero, fast inflow at the C_T zero
    assert advance_ratio(p, 100.0, -10.0) == 0.0
    assert advance_ratio(p, 100.0, 6.0) == pytest.approx(0.2, rel=1e-15)
    assert advance_ratio(p, 50.0, 100.0) == p.advance_ratio_max == 0.09 / 0.08


def test_induced_velocity_static():
    p = _test_prop()
    w = induced_velocity(p, 10.0, 0.0, 1.225, np.array([1.0, 0.0, 0.0]))
    expected = math.sqrt(10.0 / (2.0 * 1.225 * p.disk_area))
    assert np.linalg.norm(w) == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(w) == pytest.approx(7.60, abs=2e-3)


def test_induced_velocity_zero_thrust():
    p = _test_prop()
    assert np.allclose(induced_velocity(p, 0.0, 5.0, 1.225,
                                        np.array([1.0, 0.0, 0.0])), 0.0)


def test_induced_velocity_negative_thrust_returns_zero():
    p = _test_prop()
    assert np.allclose(induced_velocity(p, -1.0, 5.0, 1.225,
                                        np.array([1.0, 0.0, 0.0])), 0.0)


# ---------------------------------------------------------------------------
# airfoil coefficients
# ---------------------------------------------------------------------------

def test_flat_plate_cl_at_45deg():
    s = _test_segment()
    cl, _, _, _ = airfoil_coefficients(s, math.pi / 4.0, 0.0)
    assert cl == pytest.approx(s.fp_cl45, rel=1e-12)


def test_flat_plate_cd_at_90deg():
    s = _test_segment()
    _, cd, _, _ = airfoil_coefficients(s, math.pi / 2.0, 0.0)
    assert cd == pytest.approx(s.fp_cd90, rel=1e-12)


def test_symmetric_segment_zero_alpha():
    s = _test_segment(cl0=0.0, cm0=0.0)
    cl, _, cm, _ = airfoil_coefficients(s, 0.0, 0.0)
    assert cl == 0.0
    assert cm == 0.0


def test_coefficient_continuity_at_blend_edges():
    # jump across each blend-band edge, probed at adjacent floats
    s = _test_segment()
    hw = s.blend_halfwidth
    edges = [s.alpha_stall_pos - hw, s.alpha_stall_pos + hw,
             s.alpha_stall_neg - hw, s.alpha_stall_neg + hw]
    for edge in edges:
        for zeta in (0.0, 0.2):
            lo = airfoil_coefficients(s, np.nextafter(edge, -10.0), zeta)[:3]
            hi = airfoil_coefficients(s, np.nextafter(edge, 10.0), zeta)[:3]
            for a, b in zip(lo, hi):
                assert abs(a - b) < 1e-12


def test_coefficient_continuity_dense_sweep():
    s = _test_segment()
    alphas = np.linspace(-math.pi, math.pi, 20001)
    vals = np.array([airfoil_coefficients(s, a, 0.15)[:3] for a in alphas])
    diffs = np.abs(np.diff(vals, axis=0)).max(axis=0)
    # continuous: steps shrink with the grid (slope bounded by ~10/rad)
    assert np.all(diffs < 10.0 * (alphas[1] - alphas[0]))


def test_coefficient_periodicity_at_pi():
    s = _test_segment()
    lo = airfoil_coefficients(s, -math.pi, 0.0)[:3]
    hi = airfoil_coefficients(s, math.pi, 0.0)[:3]
    for a, b in zip(lo, hi):
        assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# segment wrench
# ---------------------------------------------------------------------------

def _segment_flow(seg, v_body, omega=None):
    flow = local_airspeed(seg.cp, v_body,
                          omega if omega is not None else np.zeros(3))
    return decompose_at_segment(flow, *np.eye(3))


def test_segment_zero_speed_zero_wrench():
    s = _test_segment()
    fm = segment_wrench(s, _segment_flow(s, np.zeros(3)), 0.0, 1.225)
    assert np.allclose(fm.force, 0.0)
    assert np.allclose(fm.moment, 0.0)


def test_segment_speed_squared_scaling():
    s = _test_segment()
    f1 = segment_wrench(s, _segment_flow(s, np.array([5.0, 0.0, 1.0])), 0.1, 1.225)
    f2 = segment_wrench(s, _segment_flow(s, np.array([10.0, 0.0, 2.0])), 0.1, 1.225)
    assert np.allclose(f2.force, 4.0 * f1.force, rtol=1e-12)
    assert np.allclose(f2.moment, 4.0 * f1.moment, rtol=1e-12)


def test_symmetric_segment_pure_drag():
    s = _test_segment(cl0=0.0, cm0=0.0)
    fm = segment_wrench(s, _segment_flow(s, np.array([8.0, 0.0, 0.0])), 0.0, 1.225)
    q = 0.5 * 1.225 * 64.0 * s.chord * s.span
    assert np.allclose(fm.force, [-q * s.cd0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# fuselage
# ---------------------------------------------------------------------------

def test_fuselage_zero():
    fm = fuselage_wrench(np.zeros(3), FuselageParams(0.05, 0.1, 0.1), 1.225)
    assert np.allclose(fm.force, 0.0)
    assert np.allclose(fm.moment, 0.0)


def test_fuselage_odd_symmetry():
    f = FuselageParams(0.05, 0.1, 0.1)
    fp = fuselage_wrench(np.array([3.0, 0.0, 0.0]), f, 1.225)
    fm = fuselage_wrench(np.array([-3.0, 0.0, 0.0]), f, 1.225)
    assert fp.force[0] == -fm.force[0]


def test_fuselage_hand_evaluated():
    # -(1.225/2) * 0.05 * 2 * |2| = -0.1225 N
    fm = fuselage_wrench(np.array([2.0, 0.0, 0.0]), FuselageParams(0.05, 0.0, 0.0),
                         1.225)
    assert fm.force[0] == pytest.approx(-0.1225, rel=1e-12)


# ---------------------------------------------------------------------------
# total wrench
# ---------------------------------------------------------------------------

def test_total_wrench_all_zero(vp):
    state = RigidBodyState()
    act = actuation_from_commands(vp)
    ev = total_wrench(state, act, vp, np.zeros(3))
    assert np.allclose(ev.force, 0.0)
    assert np.allclose(ev.moment, 0.0)


def test_total_wrench_symmetric_state(vp):
    # the tail rotor is the only chiral element (its reactive torque yaws),
    # so a mirror-invariant actuation keeps it off
    state = RigidBodyState(v=np.array([12.0, 0.0, 0.5]))
    act = actuation_from_commands(vp, delta_w=0.1, delta_plr=0.6, delta_e=0.1)
    ev = total_wrench(state, act, vp, np.zeros(3))
    assert abs(ev.force[1]) < 1e-9
    assert abs(ev.moment[0]) < 1e-9
    assert abs(ev.moment[2]) < 1e-9


def test_total_wrench_hover_thrust_balance(vp):
    # one-dimensional static thrust balance: 2 rho eta^2 D^4 C_T0 = mg
    main = vp.prop["pl"]
    eta = math.sqrt(vp.weight / (2.0 * vp.rho * main.diameter ** 4 * main.ct0))
    state = RigidBodyState()
    act = actuation_from_commands(vp, delta_w=1.0, delta_plr=eta / main.max_speed)
    ev = total_wrench(state, act, vp, np.zeros(3))
    # inertial z force balances weight to within the (small) downloads
    assert abs(ev.force[2] + vp.weight) < 0.05 * vp.weight


def test_breakdown_sums_to_totals(vp):
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = RigidBodyState(
            v=rng.uniform(-5, 18, 3),
            R_IB=euler_zyx_to_matrix(*rng.uniform(-0.5, 0.5, 3)),
            omega=rng.uniform(-1, 1, 3))
        act = actuation_from_commands(
            vp, delta_w=rng.uniform(0, 1), delta_plr=rng.uniform(0, 1),
            delta_pt=rng.uniform(0, 1), delta_al=rng.uniform(-1, 1),
            delta_ar=rng.uniform(-1, 1), delta_e=rng.uniform(-1, 1),
            delta_r=rng.uniform(-1, 1), delta_tt=rng.uniform(-1, 1))
        ev = total_wrench(state, act, vp, np.zeros(3))
        scale = max(np.abs(ev.force).max(), np.abs(ev.moment).max(), 1.0)
        f_sum = (np.sum([p.force for p in ev.props], axis=0)
                 + np.sum([s.force for s in ev.segs], axis=0) + ev.fus_force)
        m_sum = (np.sum([p.moment for p in ev.props], axis=0)
                 + np.sum([s.moment for s in ev.segs], axis=0))
        assert np.abs(f_sum - ev.force).max() < 1e-9 * scale
        assert np.abs(m_sum - ev.moment).max() < 1e-9 * scale


def test_single_element_ops_match_vector_path(vp):
    """The single-element reference operations (numpy vector math, one
    propeller/segment/fuselage at a time) reproduce the whole-vehicle
    evaluation source by source."""
    rng = np.random.default_rng(2)
    state = RigidBodyState(
        v=np.array([9.0, 0.7, 1.2]),
        R_IB=euler_zyx_to_matrix(0.05, 0.12, -0.3),
        omega=np.array([0.2, -0.1, 0.15]))
    act = actuation_from_commands(vp, delta_w=0.45, delta_plr=0.62,
                                  delta_pt=0.3, delta_al=0.2, delta_ar=-0.1,
                                  delta_e=0.25, delta_r=-0.2, delta_tt=0.15)
    v_a_body = state.R_IB.T @ state.v
    tab = body_wrench(v_a_body, state.omega, act, vp)

    # propellers
    for i, prop in enumerate(vp.propellers):
        r_p, axis = propeller_geometry(vp, prop, act)
        flow = decompose_at_propeller(
            local_airspeed(r_p, v_a_body, state.omega), axis)
        ref = propeller_wrench(prop, act.position(prop.name, vp), flow, vp.rho)
        assert np.allclose(ref.force, tab.props[i].force, atol=1e-12)
        assert np.allclose(ref.moment, tab.props[i].moment, atol=1e-12)

    # segments, including slipstream immersion
    prop_index = {p.name: i for i, p in enumerate(vp.propellers)}
    for k, seg in enumerate(vp.segments):
        r_cp, ex, ey, ez = segment_frame(vp, seg, act)
        slip = None
        if seg.slipstream != "none":
            i = prop_index[seg.slipstream]
            flow = tab.props[i]
            slip = propeller_slipstream(vp.propellers[i], flow.eta, flow.thrust,
                                        flow.v_axial, vp.rho, np.array(flow.axis))
        flow = decompose_at_segment(
            local_airspeed(r_cp, v_a_body, state.omega, slipstream=slip),
            ex, ey, ez)
        ref = segment_wrench(seg, flow, segment_deflection(vp, seg, act), vp.rho)
        assert np.allclose(ref.force, tab.segs[k].force, atol=1e-10)
        assert np.allclose(ref.moment, tab.segs[k].moment, atol=1e-10)

    ref = fuselage_wrench(v_a_body, vp.fuselage, vp.rho)
    assert np.allclose(ref.force, tab.fus_force, atol=1e-12)


def test_mirror_symmetry_property(vp):
    """Reflecting state and actuation about the x-z plane negates
    (F_y, M_x, M_z) and preserves (F_x, F_z, M_y). The reflection flips the
    rotors' handedness (a spinning rotor is chiral), so the mirrored
    evaluation runs on the mirror twin vehicle."""
    vp_m = mirror_twin(vp)

    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.uniform(-3, 15, 3)
        om = rng.uniform(-1, 1, 3)
        kw = dict(delta_w=rng.uniform(0, 1), delta_pt=rng.uniform(0, 1),
                  delta_e=rng.uniform(-1, 1))
        dal, dar = rng.uniform(-1, 1, 2)
        dpl, dpr = rng.uniform(0, 1, 2)
        dr, dtt = rng.uniform(-1, 1, 2)

        act = actuation_from_commands(vp, delta_al=dal, delta_ar=dar,
                                      delta_pl=dpl, delta_pr=dpr,
                                      delta_r=dr, delta_tt=dtt, **kw)
        act_m = actuation_from_commands(vp_m, delta_al=-dar, delta_ar=-dal,
                                        delta_pl=dpr, delta_pr=dpl,
                                        delta_r=-dr, delta_tt=-dtt, **kw)
        v_m = np.array([v[0], -v[1], v[2]])
        om_m = np.array([-om[0], om[1], -om[2]])
        ev = body_wrench(v, om, act, vp)
        ev_m = body_wrench(v_m, om_m, act_m, vp_m)
        scale = max(np.abs(ev.force).max(), np.abs(ev.moment).max(), 1.0)
        assert np.allclose(ev_m.force, [ev.force[0], -ev.force[1], ev.force[2]],
                           atol=1e-9 * scale)
        assert np.allclose(ev_m.moment, [-ev.moment[0], ev.moment[1], -ev.moment[2]],
                           atol=1e-9 * scale)


def test_unbinding_slipstream_reproduces_free_stream(vp):
    vp2 = copy.deepcopy(vp)
    seg2 = next(s for s in vp2.segments if s.name == "wing_l_in")
    seg2.slipstream = "none"
    vp2.__post_init__()

    act_kw = dict(delta_w=0.8, delta_plr=0.7)
    state = RigidBodyState(v=np.array([4.0, 0.0, 0.0]))
    tab1 = total_wrench(state, actuation_from_commands(vp, **act_kw), vp, np.zeros(3))
    tab2 = total_wrench(state, actuation_from_commands(vp2, **act_kw), vp2, np.zeros(3))
    k = next(k for k, s in enumerate(vp.segments) if s.name == "wing_l_in")
    f1, f2 = tab1.segs[k].force, tab2.segs[k].force
    # bound segment feels the slipstream...
    assert not np.allclose(f1, f2)
    # ...and the unbound result equals a free-stream evaluation
    seg = next(s for s in vp.segments if s.name == "wing_l_in")
    act = actuation_from_commands(vp, **act_kw)
    r_cp, ex, ey, ez = segment_frame(vp, seg, act)
    flow = decompose_at_segment(local_airspeed(r_cp, state.v, np.zeros(3)),
                                ex, ey, ez)
    ref = segment_wrench(seg, flow, 0.0, vp.rho)
    assert np.allclose(ref.force, f2, atol=1e-12)


def test_thrust_nonnegative_along_axis(vp):
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.uniform(-5, 30, 3)
        act = actuation_from_commands(vp, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0, 1),
                                      delta_pt=rng.uniform(0, 1))
        tab = body_wrench(v, np.zeros(3), act, vp)
        assert all(p.thrust >= -1e-12 for p in tab.props)


@pytest.mark.parametrize("where", ["v_a_body", "omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
def test_non_finite_or_overflowing_input_raises_floating_point_error(vp, where, value):
    """A non-finite or overflowing input ends in the model's own fault, in
    every component, with no warning and no other exception type."""
    act = actuation_from_commands(vp, delta_w=0.5, delta_plr=0.6, delta_pt=0.3,
                                  delta_e=0.2, delta_tt=0.1)
    for i in range(3):
        inputs = {"v_a_body": np.array([8.0, 0.5, 1.0]),
                  "omega": np.array([0.1, -0.2, 0.05])}
        inputs[where][i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite aerodynamic wrench"):
                body_wrench(inputs["v_a_body"], inputs["omega"], act, vp)


# ---------------------------------------------------------------------------
# re-evaluation from a prior
# ---------------------------------------------------------------------------

COMMANDS = ("pl", "pr", "pt", "al", "ar", "e", "r", "tt")
# each command alone, then the allocator's wing group and tail group
STEPS = [(c,) for c in COMMANDS] + [("al", "ar", "pl", "pr"), ("pt", "tt")]


def _random_actuation(vp, rng):
    act = actuation_from_commands(vp, delta_w=rng.uniform(0, 1))
    for c in COMMANDS:
        setattr(act, f"delta_{c}", rng.uniform(COMMAND_LO[c], COMMAND_HI))
    return act


def _assert_same_evaluation(got, want):
    assert np.array(got.force).tobytes() == np.array(want.force).tobytes()
    assert np.array(got.moment).tobytes() == np.array(want.moment).tobytes()
    # repr round-trips every float and tells -0.0 from 0.0
    assert repr(got) == repr(want)


def test_prior_reevaluation_matches_full_bit_for_bit(vp):
    """Given a prior at the same airspeed, rate and wing tilt, a step of
    any command or command group gives the full evaluation's force, moment
    and records bit for bit; a step that changes no command bit (clamped
    at a limit) returns the prior itself."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        v, omega = rng.uniform(-3, 18, 3), rng.uniform(-1, 1, 3)
        act = _random_actuation(vp, rng)
        prior = body_wrench(v, omega, act, vp)
        for names in STEPS:
            stepped = act.copy()
            for c in names:
                key = f"delta_{c}"
                setattr(stepped, key, clamp_command(c, getattr(act, key)
                                                    + rng.uniform(-0.5, 0.5)))
            _assert_same_evaluation(body_wrench(v, omega, stepped, vp, prior),
                                    body_wrench(v, omega, stepped, vp))
        for c in COMMANDS:
            at_limit = act.copy()
            setattr(at_limit, f"delta_{c}", COMMAND_HI)
            limited = body_wrench(v, omega, at_limit, vp)
            stepped = at_limit.copy()
            setattr(stepped, f"delta_{c}", clamp_command(c, COMMAND_HI + 0.3))
            assert body_wrench(v, omega, stepped, vp, limited) is limited


@pytest.mark.parametrize("c", COMMANDS)
def test_prior_reevaluation_tells_signed_zeros_apart(vp, c):
    """A command flipped between +0.0 and -0.0 is a moved command: the
    result carries the signs of a full evaluation at the new command."""
    v, omega = np.array([0.0, 0.0, 0.0]), np.zeros(3)
    act = actuation_from_commands(vp, delta_w=0.0)
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        setattr(act, f"delta_{c}", first)
        prior = body_wrench(v, omega, act, vp)
        flipped = act.copy()
        setattr(flipped, f"delta_{c}", second)
        got = body_wrench(v, omega, flipped, vp, prior)
        assert got is not prior
        _assert_same_evaluation(got, body_wrench(v, omega, flipped, vp))


@pytest.mark.parametrize("moved", ["v_a_body", "omega", "zeta_w"])
def test_prior_at_another_operating_point_is_a_full_evaluation(vp, moved):
    """A prior whose airspeed, rate or wing tilt differs from this call's by
    one bit is not reused, whatever commands moved."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        v, omega = rng.uniform(-3, 18, 3), rng.uniform(-1, 1, 3)
        act = _random_actuation(vp, rng)
        prior = body_wrench(v, omega, act, vp)
        v2, omega2, act2 = v.copy(), omega.copy(), act.copy()
        act2.delta_r = -act.delta_r
        if moved == "zeta_w":
            act2.zeta_w = np.nextafter(act.zeta_w, 2.0)
        else:
            arr = v2 if moved == "v_a_body" else omega2
            arr[1] = np.nextafter(arr[1], 10.0)
        _assert_same_evaluation(body_wrench(v2, omega2, act2, vp, prior),
                                body_wrench(v2, omega2, act2, vp))


def test_net_wrench_is_the_documented_sum_of_the_records(vp):
    """``force`` and ``moment`` add the segments in row order, then the
    fuselage force, then the propellers, each sum from +0.0, bit for bit,
    for a full evaluation and for one re-evaluated from a prior."""
    def in_order(vectors):
        total = (0.0, 0.0, 0.0)
        for vec in vectors:
            total = tuple(t + x for t, x in zip(total, vec))
        return total

    rng = np.random.default_rng(31)
    for _ in range(20):
        v, omega = rng.uniform(-3, 18, 3), rng.uniform(-1, 1, 3)
        act = _random_actuation(vp, rng)
        full = body_wrench(v, omega, act, vp)
        stepped = act.copy()
        stepped.delta_pl, stepped.delta_e = rng.uniform(0, 1), rng.uniform(-1, 1)
        reevaluated = body_wrench(v, omega, stepped, vp, full)
        assert reevaluated is not full
        for ev in (full, reevaluated):
            seg_f, prop_f = (in_order(r.force for r in rows) for rows in (ev.segs, ev.props))
            seg_m, prop_m = (in_order(r.moment for r in rows) for rows in (ev.segs, ev.props))
            force = [s + f + p for s, f, p in zip(seg_f, ev.fus_force, prop_f)]
            moment = [s + p for s, p in zip(seg_m, prop_m)]
            assert np.array(ev.force).tobytes() == np.array(force).tobytes()
            assert np.array(ev.moment).tobytes() == np.array(moment).tobytes()
