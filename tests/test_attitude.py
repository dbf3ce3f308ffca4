import copy
import dataclasses
import math

import numpy as np
import pytest

from tiltwing import aero
from tiltwing.aero import body_wrench, total_wrench
from tiltwing.attitude import (INTEGRATOR_LIMIT, AttitudeController,
                               AttitudeSetpoint, _prop_moment_eta_gain,
                               _surface_moment_gain, _thrust_eta_derivative,
                               _torque_eta_derivative, block3_objective,
                               daisy_chain_allocate, dynamic_inversion,
                               nominal_moment_estimate, solve_block3)
from tiltwing.dynamics import RigidBodyState
from tiltwing.rotations import euler_zyx_to_matrix
from tiltwing.vehicle import (BINDING_TO_ACTUATOR, actuation_from_commands,
                              apply_actuator_rates, nominal_actuation)


def hover_state():
    return RigidBodyState()


def hover_nominal(vp):
    return actuation_from_commands(vp, delta_w=1.0, delta_plr=0.78)


def cruise_state(v=16.0, pitch=0.02):
    return RigidBodyState(v=np.array([v, 0.0, 0.0]),
                          R_IB=euler_zyx_to_matrix(0.0, pitch, 0.0))


def cruise_nominal(vp):
    return actuation_from_commands(vp, delta_w=0.07, delta_plr=0.55)


# ---------------------------------------------------------------------------
# error control
# ---------------------------------------------------------------------------

def test_zero_error_zero_command(vp):
    ctl = AttitudeController()
    out = ctl.attitude_error_control(hover_state(), AttitudeSetpoint(),
                                     math.pi / 2, 0.004)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_pure_roll_error_rolls_only():
    ctl = AttitudeController()
    sp = AttitudeSetpoint(roll=math.radians(10.0))
    out = ctl.attitude_error_control(hover_state(), sp, math.pi / 2, 0.004)
    assert out[0] > 0.0
    assert abs(out[1]) < 1e-9 * abs(out[0])
    assert abs(out[2]) < 1e-9 * abs(out[0])


def test_pitch_down_gain_reduced_near_hover():
    down = AttitudeController().attitude_error_control(
        hover_state(), AttitudeSetpoint(pitch=math.radians(-10.0)),
        math.pi / 2, 0.004)
    up = AttitudeController().attitude_error_control(
        hover_state(), AttitudeSetpoint(pitch=math.radians(10.0)),
        math.pi / 2, 0.004)
    assert abs(down[1]) < abs(up[1])
    assert abs(down[1]) == pytest.approx(0.5 * abs(up[1]), rel=1e-6)


def test_pitch_gain_symmetric_in_cruise():
    down = AttitudeController().attitude_error_control(
        cruise_state(), AttitudeSetpoint(pitch=0.02 - math.radians(10.0)), 0.0, 0.004)
    up = AttitudeController().attitude_error_control(
        cruise_state(), AttitudeSetpoint(pitch=0.02 + math.radians(10.0)), 0.0, 0.004)
    assert abs(down[1]) == pytest.approx(abs(up[1]), rel=1e-6)


def test_yaw_rate_feedthrough():
    ctl = AttitudeController()
    out = ctl.attitude_error_control(hover_state(),
                                     AttitudeSetpoint(yaw_rate=0.5),
                                     math.pi / 2, 0.004)
    assert out[2] > 0.0


def test_integrator_clamped():
    ctl = AttitudeController()
    sp = AttitudeSetpoint(roll=1.0)
    for _ in range(10000):
        ctl.attitude_error_control(hover_state(), sp, math.pi / 2, 0.004)
    assert np.all(np.abs(ctl._integral) <= INTEGRATOR_LIMIT + 1e-12)


# ---------------------------------------------------------------------------
# dynamic inversion
# ---------------------------------------------------------------------------

def test_di_zero_rate():
    I = np.diag([1.0, 2.0, 3.0])
    wd = np.array([0.1, -0.2, 0.3])
    assert np.allclose(dynamic_inversion(wd, np.zeros(3), I), I @ wd)


def test_di_spherical_inertia_zero_accel():
    I = 2.0 * np.eye(3)
    assert np.allclose(dynamic_inversion(np.zeros(3), np.array([1.0, 2.0, 3.0]), I),
                       0.0, atol=1e-12)


def test_di_hand_evaluated_cross_term():
    I = np.diag([1.0, 2.0, 3.0])
    M = dynamic_inversion(np.zeros(3), np.array([1.0, 1.0, 0.0]), I)
    assert np.allclose(M, [0.0, 0.0, 1.0], atol=1e-14)


# ---------------------------------------------------------------------------
# nominal moment estimate
# ---------------------------------------------------------------------------

def test_nominal_moment_symmetric_state(vp):
    fm, _ = nominal_moment_estimate(cruise_state(), cruise_nominal(vp), vp)
    m_hat = fm.moment
    assert abs(m_hat[0]) < 1e-9
    assert abs(m_hat[2]) < 1e-9


def test_m_act_reconstruction(vp):
    rng = np.random.default_rng(0)
    fm, _ = nominal_moment_estimate(cruise_state(), cruise_nominal(vp), vp)
    m_hat = fm.moment
    for _ in range(10):
        m_des = rng.uniform(-1, 1, 3)
        m_act = m_des - m_hat
        assert np.allclose(m_act + m_hat, m_des, atol=1e-12)


def test_hover_nominal_pitch_moment_matches_moment_arm(vp):
    """With the tail off and no flow over the tail, the nominal hover pitch
    moment is thrust times the hub x-offset (hand moment-arm oracle),
    plus the small slipstream-immersed wing contribution."""
    vp2 = copy.deepcopy(vp)
    for s in vp2.segments:
        s.slipstream = "none"   # isolate the pure thrust moment
    vp2.__post_init__()
    u_n = actuation_from_commands(vp2, delta_w=1.0, delta_plr=0.78)
    m_hat = nominal_moment_estimate(hover_state(), u_n, vp2)[0].moment
    main = vp2.prop["pl"]
    eta = 0.78 * main.max_speed
    thrust = vp2.rho * eta ** 2 * main.diameter ** 4 * main.ct0
    hub_x = vp2.wing.pivot[0]  # hub x at 90 deg tilt equals the pivot x
    assert m_hat[1] == pytest.approx(2.0 * thrust * hub_x, rel=1e-9)


# ---------------------------------------------------------------------------
# daisy-chain allocation
# ---------------------------------------------------------------------------

def test_zero_demand_keeps_nominal(vp):
    u_n = cruise_nominal(vp)
    res = daisy_chain_allocate(np.zeros(3), cruise_state(), u_n, vp)
    for name in ("delta_al", "delta_ar", "delta_e", "delta_r", "delta_tt",
                 "delta_pt"):
        assert getattr(res.commanded, name) == pytest.approx(0.0, abs=1e-12)
    assert res.commanded.delta_pl == pytest.approx(u_n.delta_pl, abs=1e-12)
    assert np.allclose(res.residual, 0.0, atol=1e-12)


def test_small_pitch_demand_uses_elevator_only(vp):
    res = daisy_chain_allocate(np.array([0.0, -0.15, 0.0]), cruise_state(),
                               cruise_nominal(vp), vp)
    cmd = res.commanded
    assert abs(cmd.delta_e) > 1e-3
    assert abs(cmd.delta_e) < 0.9
    assert cmd.delta_pt == 0.0
    assert cmd.delta_tt == 0.0
    assert np.abs(res.residual).max() < 1e-8


def test_large_pitch_demand_engages_tail(vp):
    slow = RigidBodyState(v=np.array([4.0, 0.0, 0.0]))
    u_n = actuation_from_commands(vp, delta_w=0.7, delta_plr=0.7)
    res = daisy_chain_allocate(np.array([0.0, -0.8, 0.0]), slow, u_n, vp)
    assert res.commanded.delta_e == pytest.approx(1.0)   # saturated
    assert res.commanded.delta_pt > 0.01                 # thrust vectoring assists
    assert abs(res.residual[1]) < 0.2


def test_accounting_random_demands(vp):
    rng = np.random.default_rng(6)
    for _ in range(100):
        state = RigidBodyState(
            v=np.array([rng.uniform(0, 18), rng.uniform(-1, 1), rng.uniform(-2, 2)]),
            R_IB=euler_zyx_to_matrix(*rng.uniform(-0.3, 0.3, 3)),
            omega=rng.uniform(-0.5, 0.5, 3))
        u_n = actuation_from_commands(vp, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0.2, 0.9))
        M_act = rng.uniform(-0.6, 0.6, 3)
        res = daisy_chain_allocate(M_act, state, u_n, vp)
        assert np.abs(res.allocated + res.residual - M_act).max() < 1e-9


def test_accounting_holds_against_applied_actuation(vp_uneven_mains):
    """What the allocator books is what the applied commands produce, also
    when the two main propellers have different top speeds."""
    vp2 = vp_uneven_mains
    rng = np.random.default_rng(12)
    for _ in range(20):
        state = RigidBodyState(
            v=np.array([rng.uniform(0, 18), rng.uniform(-1, 1), rng.uniform(-2, 2)]),
            R_IB=euler_zyx_to_matrix(*rng.uniform(-0.3, 0.3, 3)),
            omega=rng.uniform(-0.5, 0.5, 3))
        u_n = actuation_from_commands(vp2, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0.2, 0.9))
        res = daisy_chain_allocate(rng.uniform(-0.6, 0.6, 3), state, u_n, vp2)
        applied = apply_actuator_rates(res.commanded, res.commanded, 0.004, vp2)
        v_a_body = state.R_IB.T @ state.v
        m_n = body_wrench(v_a_body, state.omega, u_n, vp2)[0].moment
        m_applied = body_wrench(v_a_body, state.omega, applied, vp2)[0].moment
        assert np.abs(m_applied - (m_n + res.allocated)).max() < 1e-9


def test_allocation_respects_ranges(vp):
    rng = np.random.default_rng(8)
    for _ in range(50):
        state = RigidBodyState(v=np.array([rng.uniform(0, 15), 0.0, 0.0]))
        u_n = actuation_from_commands(vp, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0.2, 0.9))
        M_act = rng.uniform(-3, 3, 3)  # often saturating
        cmd = daisy_chain_allocate(M_act, state, u_n, vp).commanded
        for name in ("al", "ar", "e", "r", "tt"):
            assert -1.0 - 1e-12 <= getattr(cmd, f"delta_{name}") <= 1.0 + 1e-12
        for name in ("pl", "pr", "pt"):
            assert -1e-12 <= getattr(cmd, f"delta_{name}") <= 1.0 + 1e-12


def test_block3_qp_matches_grid_search():
    rng = np.random.default_rng(9)
    for _ in range(30):
        gain_ail = rng.uniform(-2, 2, 3)
        gain_thr = rng.uniform(-2, 2, 3)
        l_t, n_t = rng.uniform(-1, 1, 2)
        a_box = tuple(sorted(rng.uniform(-1, 1, 2)))
        d_box = tuple(sorted(rng.uniform(-0.5, 0.5, 2)))
        a, d = solve_block3(l_t, n_t, gain_ail, gain_thr, a_box, d_box)
        best = block3_objective(a, d, l_t, n_t, gain_ail, gain_thr, 2.0, 1.0)
        grid_a = np.linspace(a_box[0], a_box[1], 101)
        grid_d = np.linspace(d_box[0], d_box[1], 101)
        vals = np.array([[block3_objective(ga, gd, l_t, n_t, gain_ail,
                                           gain_thr, 2.0, 1.0)
                          for gd in grid_d] for ga in grid_a])
        # the exact QP solution is at least as good as any grid point
        assert best <= vals.min() + 1e-9


def test_chain_monotonicity_elevator_limit(vp):
    """Enlarging the elevator's travel never increases tail usage."""
    vp_big = copy.deepcopy(vp)
    vp_big.actuators["e"].travel *= 1.5
    state = RigidBodyState(v=np.array([6.0, 0.0, 0.0]))
    for m_pitch in (-0.5, -0.9, -1.5):
        u_n = actuation_from_commands(vp, delta_w=0.5, delta_plr=0.7)
        u_n2 = actuation_from_commands(vp_big, delta_w=0.5, delta_plr=0.7)
        demand = np.array([0.0, m_pitch, 0.0])
        small = daisy_chain_allocate(demand, state, u_n, vp)
        big = daisy_chain_allocate(demand, state, u_n2, vp_big)
        assert big.commanded.delta_pt <= small.commanded.delta_pt + 1e-9


def flight_consistent_sample(vp, rng):
    """State + nominal actuation drawn around plausible transition
    conditions (wing tilt paired with airspeed, as visited in closed loop).

    The airspeed is drawn in the body frame, mostly along the nose, and
    turned into the inertial velocity: a heading drawn at random must not
    leave the vehicle flying sideways or backwards."""
    v_a = rng.uniform(0.0, 20.0)
    tilt_deg = np.clip(90.0 - 5.0 * v_a + rng.uniform(-12.0, 12.0), 0.0, 90.0)
    v_body = np.array([v_a, rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)])
    R_IB = euler_zyx_to_matrix(rng.uniform(-0.2, 0.2),
                               rng.uniform(-0.1, 0.2), rng.uniform(-3, 3))
    state = RigidBodyState(v=R_IB @ v_body, R_IB=R_IB,
                           omega=rng.uniform(-0.3, 0.3, 3))
    u_n = actuation_from_commands(vp, delta_w=tilt_deg / 90.0,
                                  delta_plr=rng.uniform(0.3, 0.8))
    return state, u_n


def test_closed_loop_linearization_sample(vp):
    """Unsaturated allocation realizes the demanded angular acceleration on
    the exact model to better than 1%."""
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(60):
        state, u_n = flight_consistent_sample(vp, rng)
        omega_dot_des = rng.uniform(-3.0, 3.0, 3)
        M_des = dynamic_inversion(omega_dot_des, state.omega, vp.inertia)
        m_hat = nominal_moment_estimate(state, u_n, vp)[0].moment
        res = daisy_chain_allocate(M_des - m_hat, state, u_n, vp)
        if np.abs(res.residual).max() > 1e-5:
            continue  # authority-limited case
        fm, _ = total_wrench(state, res.commanded, vp)
        omega_dot = vp.inertia_inv @ (fm.moment
                                      - np.cross(state.omega,
                                                 vp.inertia @ state.omega))
        err = np.linalg.norm(omega_dot - omega_dot_des) \
            / max(np.linalg.norm(omega_dot_des), 1e-9)
        assert err < 0.01
        checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# evaluations the caller already made
# ---------------------------------------------------------------------------

def _bytes(act):
    return np.array([getattr(act, f.name) for f in dataclasses.fields(act)]).tobytes()


def test_allocate_given_nominal_matches_evaluating_it(vp):
    """Passing the nominal pair of the same state, u_n and wind changes no
    bit of the allocation."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        state, u_n = flight_consistent_sample(vp, rng)
        wind = rng.uniform(-2.0, 2.0, 3)
        M_act = rng.uniform(-0.6, 0.6, 3)
        nominal = nominal_moment_estimate(state, u_n, vp, wind)
        given = daisy_chain_allocate(M_act, state, u_n, vp, wind, nominal)
        evaluated = daisy_chain_allocate(M_act, state, u_n, vp, wind)
        assert _bytes(given.commanded) == _bytes(evaluated.commanded)
        assert given.blocks.keys() == evaluated.blocks.keys()
        for name in given.blocks:
            assert given.blocks[name].tobytes() == evaluated.blocks[name].tobytes()
        assert given.residual.tobytes() == evaluated.residual.tobytes()


def test_allocation_carries_the_evaluation_at_its_commands(vp):
    """`AllocationResult.evaluation` is the model at the commanded actuation,
    state and wind, bit for bit: the last booked pair, or the nominal one
    when nothing was booked."""
    rng = np.random.default_rng(13)
    for k in range(20):
        state, u_n = flight_consistent_sample(vp, rng)
        wind = rng.uniform(-2.0, 2.0, 3)
        M_act = rng.uniform(-0.6, 0.6, 3) if k % 4 else np.zeros(3)
        nominal = nominal_moment_estimate(state, u_n, vp, wind)
        res = daisy_chain_allocate(M_act, state, u_n, vp, wind, nominal)
        fm, tab = res.evaluation
        fm_ref, tab_ref = total_wrench(state, res.commanded, vp, wind)
        assert fm.force.tobytes() == fm_ref.force.tobytes()
        assert fm.moment.tobytes() == fm_ref.moment.tobytes()
        for f in dataclasses.fields(tab):
            assert getattr(tab, f.name).tobytes() == getattr(tab_ref, f.name).tobytes()


def test_allocate_given_nominal_and_no_demand_evaluates_nothing(vp, monkeypatch):
    state, u_n = cruise_state(), cruise_nominal(vp)
    nominal = nominal_moment_estimate(state, u_n, vp)
    calls = []
    real = aero.body_wrench

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(aero, "body_wrench", counting)
    res = daisy_chain_allocate(np.zeros(3), state, u_n, vp, None, nominal)
    assert len(calls) == 0
    assert _bytes(res.commanded) == _bytes(u_n)


# ---------------------------------------------------------------------------
# local actuator gains against the per-row numpy form
# ---------------------------------------------------------------------------

def _surface_moment_gain_reference(vp, tab, act, actuator):
    """Per-row numpy form of the surface gain: scans every segment."""
    travel = vp.actuators[actuator].travel
    zeta_now = act.position(actuator, vp)
    g = np.zeros(3)
    for row, seg in enumerate(vp.segments):
        if seg.control == "none" or BINDING_TO_ACTUATOR[seg.control] != actuator:
            continue
        gain = seg.control_gain
        lam = tab.seg_lam[row]
        if lam <= 0.0:
            continue
        V2 = tab.seg_speed[row] ** 2
        dz = gain * travel
        dcl = lam * seg.cl_delta * dz
        kd = seg.cl_delta / seg.cl_alpha if seg.cl_alpha != 0.0 else 0.0
        dcd = lam * seg.cd_alpha2 * 2.0 \
            * (tab.seg_alpha[row] + kd * gain * zeta_now) * kd * dz
        dcm = lam * seg.cm_delta * dz
        q_area = 0.5 * vp.rho * V2 * (seg.chord * seg.span)
        dF = q_area * (dcl * tab.seg_e_lift[row] + dcd * tab.seg_e_drag[row])
        moment_scale = 0.5 * (seg.chord * seg.chord) * seg.span
        g += (dcm * vp.rho * V2 * moment_scale) * tab.seg_ey[row] \
            + np.cross(tab.seg_r[row], dF)
    return g


def _prop_moment_eta_gain_reference(vp, tab, idx):
    """Numpy-array form of the propeller gain."""
    prop = vp.propellers[idx]
    eta = tab.prop_eta[idx]
    v_ax = tab.prop_v_axial[idx]
    axis = tab.prop_axis[idx]
    dT = _thrust_eta_derivative(prop, eta, v_ax, vp.rho)
    dQ = _torque_eta_derivative(prop, eta, v_ax, vp.rho)
    dF = dT * axis - prop.normal_force_coeff * tab.prop_v_radial[idx] \
        * tab.prop_radial[idx]
    return -dQ * prop.handedness * axis + np.cross(tab.prop_r[idx], dF)


def test_gains_match_per_row_numpy_reference(vp):
    rng = np.random.default_rng(5)
    for _ in range(60):
        state, u_n = flight_consistent_sample(vp, rng)
        act = u_n.copy()
        for name in ("al", "ar", "e", "r", "tt"):
            setattr(act, f"delta_{name}", rng.uniform(-1.0, 1.0))
        act.delta_pt = rng.uniform(0.0, 1.0)
        _, tab = total_wrench(state, act, vp)
        for name in ("al", "ar", "e", "r"):
            new = _surface_moment_gain(vp, tab, act, name)
            ref = _surface_moment_gain_reference(vp, tab, act, name)
            assert new.tobytes() == ref.tobytes(), name
        for idx in range(len(vp.propellers)):
            new = _prop_moment_eta_gain(vp, tab, idx)
            ref = _prop_moment_eta_gain_reference(vp, tab, idx)
            assert new.tobytes() == ref.tobytes(), idx
