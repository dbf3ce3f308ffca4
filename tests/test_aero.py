import copy
import math

import numpy as np
import pytest

from tiltwing import aero
from tiltwing.aero import (LocalFlow, airfoil_coefficients, body_wrench,
                           decompose_at_propeller, decompose_at_segment,
                           fuselage_wrench, induced_velocity, local_airspeed,
                           propeller_wrench, segment_wrench, total_wrench)
from tiltwing.dynamics import RigidBodyState
from tiltwing.rotations import euler_zyx_to_matrix, rot_y
from tiltwing.vehicle import (AirfoilSegmentParams, FuselageParams,
                              PropellerParams, actuation_from_commands,
                              mirror_twin)


def _test_prop(**over):
    kw = dict(name="p", mount="tail", hub_offset=np.zeros(3), diameter=0.3,
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
    cl, _, _ = airfoil_coefficients(s, math.pi / 4.0)
    assert cl == pytest.approx(s.fp_cl45, rel=1e-12)


def test_flat_plate_cd_at_90deg():
    s = _test_segment()
    _, cd, _ = airfoil_coefficients(s, math.pi / 2.0)
    assert cd == pytest.approx(s.fp_cd90, rel=1e-12)


def test_symmetric_segment_zero_alpha():
    s = _test_segment(cl0=0.0, cm0=0.0)
    cl, _, cm = airfoil_coefficients(s, 0.0, 0.0)
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
            lo = airfoil_coefficients(s, np.nextafter(edge, -10.0), zeta)
            hi = airfoil_coefficients(s, np.nextafter(edge, 10.0), zeta)
            for a, b in zip(lo, hi):
                assert abs(a - b) < 1e-12


def test_coefficient_continuity_dense_sweep():
    s = _test_segment()
    alphas = np.linspace(-math.pi, math.pi, 20001)
    vals = np.array([airfoil_coefficients(s, a, 0.15) for a in alphas])
    diffs = np.abs(np.diff(vals, axis=0)).max(axis=0)
    # continuous: steps shrink with the grid (slope bounded by ~10/rad)
    assert np.all(diffs < 10.0 * (alphas[1] - alphas[0]))


def test_coefficient_periodicity_at_pi():
    s = _test_segment()
    lo = airfoil_coefficients(s, -math.pi)
    hi = airfoil_coefficients(s, math.pi)
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
    fm, _ = total_wrench(state, act, vp)
    assert np.allclose(fm.force, 0.0)
    assert np.allclose(fm.moment, 0.0)


def test_total_wrench_symmetric_state(vp):
    # the tail rotor is the only chiral element (its reactive torque yaws),
    # so a mirror-invariant actuation keeps it off
    state = RigidBodyState(v=np.array([12.0, 0.0, 0.5]))
    act = actuation_from_commands(vp, delta_w=0.1, delta_plr=0.6, delta_e=0.1)
    fm, _ = total_wrench(state, act, vp)
    assert abs(fm.force[1]) < 1e-9
    assert abs(fm.moment[0]) < 1e-9
    assert abs(fm.moment[2]) < 1e-9


def test_total_wrench_hover_thrust_balance(vp):
    # one-dimensional static thrust balance: 2 rho eta^2 D^4 C_T0 = mg
    main = vp.prop["pl"]
    eta = math.sqrt(vp.weight / (2.0 * vp.rho * main.diameter ** 4 * main.ct0))
    state = RigidBodyState()
    act = actuation_from_commands(vp, delta_w=1.0, delta_plr=eta / main.max_speed)
    fm, _ = total_wrench(state, act, vp)
    # inertial z force balances weight to within the (small) downloads
    assert abs(fm.force[2] + vp.weight) < 0.05 * vp.weight


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
        fm, tab = total_wrench(state, act, vp)
        scale = max(np.abs(fm.force).max(), np.abs(fm.moment).max(), 1.0)
        f_sum = (tab.prop_force.sum(axis=0) + tab.seg_force.sum(axis=0)
                 + tab.fus_force)
        m_sum = tab.prop_moment.sum(axis=0) + tab.seg_moment.sum(axis=0)
        assert np.abs(f_sum - fm.force).max() < 1e-9 * scale
        assert np.abs(m_sum - fm.moment).max() < 1e-9 * scale


def test_single_element_ops_match_vector_path(vp):
    """The scalar propeller/segment/fuselage operations reproduce the
    vectorized total evaluation source by source."""
    rng = np.random.default_rng(2)
    state = RigidBodyState(
        v=np.array([9.0, 0.7, 1.2]),
        R_IB=euler_zyx_to_matrix(0.05, 0.12, -0.3),
        omega=np.array([0.2, -0.1, 0.15]))
    act = actuation_from_commands(vp, delta_w=0.45, delta_plr=0.62,
                                  delta_pt=0.3, delta_al=0.2, delta_ar=-0.1,
                                  delta_e=0.25, delta_r=-0.2, delta_tt=0.15)
    v_a_body = state.R_IB.T @ state.v
    _, tab = body_wrench(v_a_body, state.omega, act, vp)

    # propellers
    for i, prop in enumerate(vp.propellers):
        r_p, axis = aero.propeller_geometry(vp, prop, act)
        flow = decompose_at_propeller(
            local_airspeed(r_p, v_a_body, state.omega), axis)
        ref = propeller_wrench(prop, act.eta(prop.name), flow, vp.rho)
        assert np.allclose(ref.force, tab.prop_force[i], atol=1e-12)
        assert np.allclose(ref.moment, tab.prop_moment[i], atol=1e-12)

    # segments, including slipstream immersion
    prop_index = {p.name: i for i, p in enumerate(vp.propellers)}
    for k, seg in enumerate(vp.segments):
        r_cp, ex, ey, ez = aero.segment_frame(vp, seg, act)
        slip = None
        if seg.slipstream != "none":
            i = prop_index[seg.slipstream]
            prop = vp.propellers[i]
            slip = aero.propeller_slipstream(prop, tab.prop_eta[i],
                                             tab.prop_thrust[i],
                                             tab.prop_v_axial[i], vp.rho,
                                             tab.prop_axis[i])
        flow = decompose_at_segment(
            local_airspeed(r_cp, v_a_body, state.omega, slipstream=slip),
            ex, ey, ez)
        ref = segment_wrench(seg, flow, aero.segment_deflection(seg, act), vp.rho)
        assert np.allclose(ref.force, tab.seg_force[k], atol=1e-10)
        assert np.allclose(ref.moment, tab.seg_moment[k], atol=1e-10)

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
        fm, _ = body_wrench(v, om, act, vp)
        fm_m, _ = body_wrench(v_m, om_m, act_m, vp_m)
        scale = max(np.abs(fm.force).max(), np.abs(fm.moment).max(), 1.0)
        assert np.allclose(fm_m.force, [fm.force[0], -fm.force[1], fm.force[2]],
                           atol=1e-9 * scale)
        assert np.allclose(fm_m.moment, [-fm.moment[0], fm.moment[1], -fm.moment[2]],
                           atol=1e-9 * scale)


def test_unbinding_slipstream_reproduces_free_stream(vp):
    vp2 = copy.deepcopy(vp)
    seg2 = next(s for s in vp2.segments if s.name == "wing_l_in")
    seg2.slipstream = "none"
    vp2.__post_init__()

    act_kw = dict(delta_w=0.8, delta_plr=0.7)
    state = RigidBodyState(v=np.array([4.0, 0.0, 0.0]))
    _, tab1 = total_wrench(state, actuation_from_commands(vp, **act_kw), vp)
    _, tab2 = total_wrench(state, actuation_from_commands(vp2, **act_kw), vp2)
    k = next(k for k, s in enumerate(vp.segments) if s.name == "wing_l_in")
    f1, f2 = tab1.seg_force[k], tab2.seg_force[k]
    # bound segment feels the slipstream...
    assert not np.allclose(f1, f2)
    # ...and the unbound result equals a free-stream evaluation
    seg = next(s for s in vp.segments if s.name == "wing_l_in")
    act = actuation_from_commands(vp, **act_kw)
    r_cp, ex, ey, ez = aero.segment_frame(vp, seg, act)
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
        _, tab = body_wrench(v, np.zeros(3), act, vp)
        assert np.all(tab.prop_thrust >= -1e-12)
