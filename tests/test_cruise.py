import math

import numpy as np
import pytest

from tiltwing import cruise
from tiltwing.cruise import (CruiseController, CruiseSetpoint,
                             control_derivatives, lookup_velocity,
                             schedule_ramp, turn_coordination, weight_schedule,
                             wls_allocate)
from tiltwing.dynamics import RigidBodyState
from tiltwing.rotations import euler_zyx_to_matrix, rot_y
from tiltwing.trim import lookup_trim, trim_actuation
from tiltwing.vehicle import actuation_from_commands


# ---------------------------------------------------------------------------
# lookup velocity (trim-map query band)
# ---------------------------------------------------------------------------

def test_lookup_within_band_passthrough():
    v = lookup_velocity(np.array([14.0, -0.5]), np.array([13.0, 0.0]))
    assert np.allclose(v, [14.0, -0.5])


def test_lookup_clamps_to_band_edge():
    v = lookup_velocity(np.array([23.0, 0.0]), np.array([13.0, 0.0]))
    assert v[0] == pytest.approx(13.0 + cruise.V_X_PLUS, abs=1e-6)
    assert v[0] < 13.0 + cruise.V_X_PLUS  # strictly inside the open band


def test_lookup_identity_at_actual():
    v = lookup_velocity(np.array([10.0, 1.0]), np.array([10.0, 1.0]))
    assert np.allclose(v, [10.0, 1.0])


def test_lookup_band_invariant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        va = rng.uniform(-5, 25, 2)
        vd = rng.uniform(-30, 30, 2)
        v = lookup_velocity(vd, va)
        assert abs(v[0] - va[0]) <= cruise.V_X_PLUS
        assert abs(v[1] - va[1]) <= cruise.V_Z_PLUS


# ---------------------------------------------------------------------------
# velocity feedback
# ---------------------------------------------------------------------------

def test_feedback_zero_history():
    cc = CruiseController()
    assert np.allclose(cc.velocity_feedback(np.zeros(2), 1.9, 0.02), 0.0)


def test_feedback_proportional_term():
    # a constant error: no derivative term, and the integral grows by e dt
    cc = CruiseController()
    e, m, dt = np.array([1.5, -0.5]), 1.9, 0.02
    f1 = cc.velocity_feedback(e, m, dt)
    f2 = cc.velocity_feedback(e, m, dt)
    assert np.allclose(f1, m * (cruise.KP * e + cruise.KI * e * dt),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(f2, m * (cruise.KP * e + 2.0 * cruise.KI * e * dt),
                       rtol=1e-12, atol=0.0)


def test_feedback_mass_scaling():
    e = np.array([1.0, 0.2])
    f1 = CruiseController().velocity_feedback(e, 1.0, 0.02)
    f2 = CruiseController().velocity_feedback(e, 2.0, 0.02)
    assert np.allclose(f2, 2.0 * f1)


def test_feedback_integrator_clamped():
    cc = CruiseController()
    for _ in range(100000):
        cc.velocity_feedback(np.array([100.0, 100.0]), 1.9, 0.02)
    assert np.all(np.abs(cc._integral) <= cruise.INTEGRATOR_LIMIT + 1e-9)


# ---------------------------------------------------------------------------
# control derivatives
# ---------------------------------------------------------------------------

def test_hover_throttle_force_derivative_sign(vp):
    state = RigidBodyState()
    act = actuation_from_commands(vp, delta_w=1.0, delta_plr=0.78)
    J = control_derivatives(state, act, vp)
    assert J[1, 1] < 0.0  # more throttle at hover pushes up (negative down-force)


def test_unstalled_cruise_matches_plain_differences(vp):
    state = RigidBodyState(v=np.array([18.0, 0.0, 0.0]),
                           R_IB=euler_zyx_to_matrix(0.0, 0.03, 0.0))
    act = actuation_from_commands(vp, delta_w=0.05, delta_plr=0.6)
    J = control_derivatives(state, act, vp)

    # independent route: plain differences of the projected total force
    from tiltwing.aero import body_wrench
    heading = np.array([1.0, 0.0, 0.0])

    def f_of(theta, dplr):
        R = euler_zyx_to_matrix(0.0, theta, 0.0)
        a = actuation_from_commands(vp, delta_w=0.05, delta_plr=dplr)
        fm, _ = body_wrench(R.T @ state.v, np.zeros(3), a, vp)
        fi = R @ fm.force
        return np.array([fi @ heading, fi[2]])

    h, s = cruise.FD_THETA, cruise.FD_THROTTLE
    J_ref = np.empty((2, 2))
    J_ref[:, 0] = (f_of(0.03 + h, 0.6) - f_of(0.03 - h, 0.6)) / (2 * h)
    J_ref[:, 1] = (f_of(0.03, 0.6 + s) - f_of(0.03, 0.6 - s)) / (2 * s)
    assert np.allclose(J, J_ref, rtol=1e-6, atol=1e-9)


def test_stall_exclusion_changes_pitch_column(vp):
    # deep-stall: slow flight with the wing level -> large alpha on the wing
    state = RigidBodyState(v=np.array([5.0, 0.0, 3.0]))
    act = actuation_from_commands(vp, delta_w=0.0, delta_plr=0.3)
    J = control_derivatives(state, act, vp)

    from tiltwing.aero import body_wrench
    heading = np.array([1.0, 0.0, 0.0])

    def f_of(theta):
        R = euler_zyx_to_matrix(0.0, theta, 0.0)
        fm, _ = body_wrench(R.T @ state.v, np.zeros(3), act, vp)
        fi = R @ fm.force
        return np.array([fi @ heading, fi[2]])

    h = cruise.FD_THETA
    col_naive = (f_of(h) - f_of(-h)) / (2 * h)
    assert not np.allclose(J[:, 0], col_naive, rtol=1e-3)


# ---------------------------------------------------------------------------
# WLS allocation
# ---------------------------------------------------------------------------

def test_wls_zero_force_zero_correction():
    J = np.array([[30.0, 5.0], [-8.0, -40.0]])
    u = wls_allocate(J, np.zeros(2), np.eye(2), np.eye(2), 0.3)
    assert np.allclose(u, 0.0)


def test_wls_small_regularization_limit():
    J = np.array([[30.0, 5.0], [-8.0, -40.0]])
    F = np.array([3.0, -5.0])
    u = wls_allocate(J, F, np.eye(2), 1e-12 * np.eye(2), 10.0,
                     throttle_bounds=(-10, 10))
    assert np.allclose(u, np.linalg.solve(J, F), rtol=1e-6)


def test_wls_gradient_at_optimum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        J = rng.normal(scale=20.0, size=(2, 2))
        A = rng.normal(size=(2, 2))
        W = A @ A.T + 0.5 * np.eye(2)
        B = rng.normal(size=(2, 2))
        K = B @ B.T + 0.5 * np.eye(2)
        F = rng.normal(scale=5.0, size=2)
        u = wls_allocate(J, F, W, K, math.inf, throttle_bounds=(-np.inf, np.inf))
        grad = 2.0 * (J.T @ W @ (J @ u - F) + K @ u)
        assert np.linalg.norm(grad) < 1e-9


def test_wls_clamps():
    J = np.array([[30.0, 5.0], [-8.0, -40.0]])
    u = wls_allocate(J, np.array([500.0, -500.0]), np.eye(2), np.eye(2),
                     0.2, throttle_bounds=(-0.3, 0.3))
    assert abs(u[0]) <= 0.2 + 1e-12
    assert -0.3 - 1e-12 <= u[1] <= 0.3 + 1e-12


def test_wls_matches_grid_search_sample():
    rng = np.random.default_rng(2)
    for _ in range(5):
        J = rng.normal(scale=15.0, size=(2, 2))
        A = rng.normal(size=(2, 2))
        W = A @ A.T + 0.3 * np.eye(2)
        B = rng.normal(size=(2, 2))
        K = B @ B.T + 0.3 * np.eye(2)
        F = rng.normal(scale=4.0, size=2)
        u = wls_allocate(J, F, W, K, math.inf, throttle_bounds=(-np.inf, np.inf))

        def objective(uu):
            r = J @ uu - F
            return float(r @ W @ r + uu @ K @ uu)

        span = np.abs(u) + 0.5
        g0 = np.linspace(u[0] - span[0], u[0] + span[0], 81)
        g1 = np.linspace(u[1] - span[1], u[1] + span[1], 81)
        best = min(objective(np.array([a, b])) for a in g0 for b in g1)
        assert objective(u) <= best + 1e-9


# ---------------------------------------------------------------------------
# scheduling and turn coordination
# ---------------------------------------------------------------------------

def test_weight_schedule_endpoints():
    assert weight_schedule(12.0)[0, 0] == cruise.W_XX_LO
    assert weight_schedule(5.0)[0, 0] == cruise.W_XX_LO
    assert weight_schedule(15.0)[0, 0] == cruise.W_XX_HI
    assert weight_schedule(20.0)[0, 0] == cruise.W_XX_HI


def test_weight_schedule_midpoint():
    w = weight_schedule(13.5)
    assert w[0, 0] == pytest.approx(0.5 * (cruise.W_XX_LO + cruise.W_XX_HI))
    assert w[1, 1] == cruise.W_ZZ
    assert w[0, 1] == 0.0 and w[1, 0] == 0.0


def test_weight_schedule_continuous_piecewise_linear():
    speeds = np.linspace(8.0, 18.0, 2001)
    h = speeds[1] - speeds[0]
    vals = np.array([weight_schedule(v)[0, 0] for v in speeds])
    dv = np.diff(vals)
    assert np.all(dv >= -1e-15)
    # continuous: no step exceeds the ramp's slope times the grid spacing
    slope = ((cruise.W_XX_HI - cruise.W_XX_LO)
             / (cruise.SCHEDULE_HI - cruise.SCHEDULE_LO))
    assert dv.max() <= slope * h * (1.0 + 1e-9)
    # piecewise linear, two kinks: the second difference over [v_k, v_k+2]
    # vanishes unless the stencil holds a kink, where it is up to slope * h
    clear = np.ones(speeds.size - 2, dtype=bool)
    for v_kink in (cruise.SCHEDULE_LO, cruise.SCHEDULE_HI):
        clear &= ~((speeds[:-2] <= v_kink) & (v_kink <= speeds[2:]))
    assert np.abs(np.diff(dv))[clear].max() < 1e-6


def test_turn_coordination_zero_roll():
    assert turn_coordination(0.0, 15.0, 9.81) == 0.0


def test_turn_coordination_hand_evaluated():
    # lateral force balance: g tan(30 deg) / 15 = 0.37755 rad/s
    rate = turn_coordination(math.radians(30.0), 15.0, 9.81)
    assert rate == pytest.approx(9.81 * math.tan(math.radians(30.0)) / 15.0,
                                 rel=1e-12)
    assert rate == pytest.approx(0.378, abs=5e-4)


def test_turn_coordination_vmin_clamp():
    # below the schedule the coordination is off; the clamp shows mid-ramp
    r = turn_coordination(math.radians(20.0), 13.5, 9.81)
    expected = 0.5 * 9.81 * math.tan(math.radians(20.0)) / 13.5
    assert r == pytest.approx(expected, rel=1e-12)
    assert turn_coordination(math.radians(20.0), 4.0, 9.81) == 0.0


def test_priority_vertical_over_horizontal(vp):
    # transition-like coupled derivatives, conflicting demands
    state = RigidBodyState(v=np.array([8.0, 0.0, 0.0]))
    act = actuation_from_commands(vp, delta_w=0.5, delta_plr=0.65)
    J = control_derivatives(state, act, vp)
    W = np.diag([0.01, 1.0])
    F = np.array([8.0, 8.0])
    u = wls_allocate(J, F, W, cruise.REGULARIZATION, cruise.THETA_C_MAX,
                     throttle_bounds=(-0.65, 0.35))
    err = J @ u - F
    assert abs(err[1]) <= abs(err[0]) + 1e-9


# ---------------------------------------------------------------------------
# full cruise step
# ---------------------------------------------------------------------------

def test_cruise_step_consistent_on_trim_node(vp, coarse_map):
    i = int(np.where(coarse_map.va_axis == 12.0)[0][0])
    j = int(np.argmin(np.abs(coarse_map.gamma_axis)))
    p = coarse_map.points[i][j]
    assert p.feasible

    state = RigidBodyState(v=np.array([12.0, 0.0, 0.0]),
                           R_IB=rot_y(p.theta))
    act = trim_actuation(vp, p.u)
    cc = CruiseController()
    out = cc.step(state, CruiseSetpoint(v_ax=12.0, v_az=0.0), coarse_map,
                  vp, act, 0.02)
    assert np.allclose(out.force_correction, 0.0, atol=1e-9)
    assert np.allclose(out.u_correction, 0.0, atol=1e-9)
    assert out.delta_w == pytest.approx(p.u[0], abs=1e-9)
    assert out.delta_plr == pytest.approx(p.u[1], abs=1e-9)
    assert out.setpoint.pitch == pytest.approx(p.theta, abs=1e-9)
    assert not out.lookup_clamped


def test_cruise_step_gamma_conversion(vp, coarse_map):
    state = RigidBodyState(v=np.array([12.0, 0.0, 0.0]))
    act = actuation_from_commands(vp, delta_w=0.1, delta_plr=0.5)
    cc = CruiseController()
    out = cc.step(state, CruiseSetpoint(v_ax=12.0, v_az=-1.0), coarse_map,
                  vp, act, 0.02)
    # climbing lookup: gamma > 0 selects a climb trim (more throttle than level)
    assert out.v_lookup[1] == pytest.approx(-1.0)
