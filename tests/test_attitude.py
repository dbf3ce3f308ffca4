import copy
import dataclasses
import math

import numpy as np
import pytest

from rotation_reference import rot_x, rot_y, rot_z
from tiltwing import aero, attitude
from tiltwing.aero import body_wrench, total_wrench
from tiltwing.attitude import (ATT_P, INTEGRATOR_LIMIT, PITCH_DOWN_FACTOR, RATE_D,
                               RATE_I, RATE_P, SCHEDULE_HI, SCHEDULE_LO,
                               AttitudeController, Pid,
                               AttitudeSetpoint, _prop_eta_derivatives,
                               _prop_moment_eta_gain, _surface_moment_gain,
                               daisy_chain_allocate, dynamic_inversion,
                               solve_block3)
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
    assert np.all(np.abs(ctl.pid.integral) <= INTEGRATOR_LIMIT + 1e-12)


def matrix_to_quat(R: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit quaternion [w, x, y, z] (w >= 0) of a rotation matrix, and which
    component its branch solved for first: 0 for w, 1-3 for x-z."""
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q, branch = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                              (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]), 0
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q, branch = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                              (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]), 1
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q, branch = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                              0.25 * s, (R[1, 2] + R[2, 1]) / s]), 2
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q, branch = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                              (R[1, 2] + R[2, 1]) / s, 0.25 * s]), 3
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q), branch


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a unit quaternion with w >= 0."""
    n = np.linalg.norm(q[1:])
    if n < 1e-12:
        return 2.0 * q[1:]
    return q[1:] / n * (2.0 * np.arctan2(n, np.clip(q[0], -1.0, 1.0)))


class NumpyPid:
    """Reference of `attitude.Pid` on numpy arrays: kp e + ki I + kd de/dt,
    with I clamped to +-limit and no derivative on the first call."""

    def __init__(self, kp, ki, kd, limit: float):
        self.kp, self.ki, self.kd, self.limit = kp, ki, kd, limit
        self.integral = 0.0      # broadcasts to the error's shape
        self._prev_err = None

    def __call__(self, err: np.ndarray, dt: float) -> np.ndarray:
        self.integral = np.clip(self.integral + err * dt, -self.limit, self.limit)
        deriv = 0.0 if self._prev_err is None else (err - self._prev_err) / dt
        self._prev_err = err.copy()
        return self.kp * err + self.ki * self.integral + self.kd * deriv


def test_float_pid_matches_numpy_reference_bit_for_bit():
    """The float PID gives the numpy PID's bits on every call of a seeded
    sequence of 3-vector errors: the first call without a derivative, and
    calls on which the integral sits at its clamp on some axis."""
    rng = np.random.default_rng(31)
    pid, ref = Pid(RATE_P, RATE_I, RATE_D, INTEGRATOR_LIMIT), \
        NumpyPid(RATE_P, RATE_I, RATE_D, INTEGRATOR_LIMIT)
    clamped = 0
    for _ in range(400):
        err = rng.normal(0.0, 40.0, 3)
        out, expected = pid(err.tolist(), 0.004), ref(err, 0.004)
        assert np.array(out).tobytes() == expected.tobytes()
        assert np.array(pid.integral).tobytes() == ref.integral.tobytes()
        assert all(type(c) is float for c in out)
        clamped += np.abs(ref.integral).max() == INTEGRATOR_LIMIT
    assert clamped > 50


def reference_attitude_law(pid: NumpyPid, state, sp: AttitudeSetpoint, zeta_w: float,
                           dt: float) -> tuple[np.ndarray, int]:
    """The attitude law on 3x3 numpy rotations, and its quaternion branch."""
    R = state.R_IB
    yaw = math.atan2(R[1, 0], R[0, 0])
    q, branch = matrix_to_quat(R.T @ (rot_z(yaw) @ rot_y(sp.pitch) @ rot_x(sp.roll)))
    err = quat_to_rotvec(q)
    kp = np.full(3, ATT_P)
    if err[1] < 0.0:
        fade = np.clip((zeta_w - SCHEDULE_LO) / (SCHEDULE_HI - SCHEDULE_LO), 0.0, 1.0)
        kp[1] *= 1.0 - (1.0 - PITCH_DOWN_FACTOR) * fade
    omega_des = kp * err + R.T @ np.array([0.0, 0.0, sp.yaw_rate])
    return pid(omega_des - state.omega, dt), branch


def test_float_attitude_law_matches_numpy_reference():
    """The float law agrees with the numpy rotation/quaternion law to 1e-12
    relative over two calls (PID state included), on random attitudes and
    setpoints and on errors within 3 deg of 180 deg about each body axis,
    which take the quaternion's x, y and z branches."""
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(200):
        cases.append((euler_zyx_to_matrix(*rng.uniform(-math.pi, math.pi, 3)),
                      *rng.uniform(-math.pi, math.pi, 2)))
    for delta in (1e-3, 0.05):
        for a in (math.pi - delta, delta - math.pi):
            yaw, roll, pitch = rng.uniform(-1.0, 1.0, 3)
            # x: a roll error; y: pitch and pitch setpoint near -+90 deg;
            # z: a pitch setpoint past 90 deg keeps the heading of R_des R_z(-a)
            cases.append((euler_zyx_to_matrix(roll - a, pitch, yaw), roll, pitch))
            half = 0.5 * abs(a)
            cases.append((euler_zyx_to_matrix(0.0, -half, yaw), 0.0, half))
            r_des = euler_zyx_to_matrix(roll, math.pi - 0.2, yaw)
            cases.append((r_des @ rot_z(a).T, roll, math.pi - 0.2))
    branches = set()
    worst = 0.0
    for R, roll, pitch in cases:
        state = RigidBodyState(R_IB=R, omega=rng.uniform(-2.0, 2.0, 3))
        sp = AttitudeSetpoint(roll=roll, pitch=pitch, yaw_rate=rng.uniform(-1.0, 1.0))
        zeta_w = rng.uniform(0.0, math.pi / 2)
        ctl, pid = AttitudeController(), NumpyPid(RATE_P, RATE_I, RATE_D, INTEGRATOR_LIMIT)
        for _ in range(2):
            out = ctl.attitude_error_control(state, sp, zeta_w, 0.004)
            ref, branch = reference_attitude_law(pid, state, sp, zeta_w, 0.004)
            branches.add(branch)
            worst = max(worst, np.abs(out - ref).max() / np.abs(ref).max())
    assert branches == {0, 1, 2, 3}
    assert worst <= 1e-12


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
    m_hat = total_wrench(cruise_state(), cruise_nominal(vp), vp, np.zeros(3)).moment
    assert abs(m_hat[0]) < 1e-9
    assert abs(m_hat[2]) < 1e-9


def test_m_act_reconstruction(vp):
    rng = np.random.default_rng(0)
    m_hat = np.array(total_wrench(cruise_state(), cruise_nominal(vp), vp,
                                  np.zeros(3)).moment)
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
    m_hat = total_wrench(hover_state(), u_n, vp2, np.zeros(3)).moment
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
    res = daisy_chain_allocate(np.zeros(3), cruise_state(), u_n, vp, np.zeros(3))
    for name in ("delta_al", "delta_ar", "delta_e", "delta_r", "delta_tt",
                 "delta_pt"):
        assert getattr(res.commanded, name) == pytest.approx(0.0, abs=1e-12)
    assert res.commanded.delta_pl == pytest.approx(u_n.delta_pl, abs=1e-12)
    assert np.allclose(res.residual, 0.0, atol=1e-12)


def test_small_pitch_demand_uses_elevator_only(vp):
    res = daisy_chain_allocate(np.array([0.0, -0.15, 0.0]), cruise_state(),
                               cruise_nominal(vp), vp, np.zeros(3))
    cmd = res.commanded
    assert abs(cmd.delta_e) > 1e-3
    assert abs(cmd.delta_e) < 0.9
    assert cmd.delta_pt == 0.0
    assert cmd.delta_tt == 0.0
    assert np.abs(res.residual).max() <= attitude.RESIDUAL_TOL


def test_large_pitch_demand_engages_tail(vp):
    slow = RigidBodyState(v=np.array([4.0, 0.0, 0.0]))
    u_n = actuation_from_commands(vp, delta_w=0.7, delta_plr=0.7)
    res = daisy_chain_allocate(np.array([0.0, -0.8, 0.0]), slow, u_n, vp, np.zeros(3))
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
        res = daisy_chain_allocate(M_act, state, u_n, vp, np.zeros(3))
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
        res = daisy_chain_allocate(rng.uniform(-0.6, 0.6, 3), state, u_n, vp2,
                                   np.zeros(3))
        applied = apply_actuator_rates(res.commanded, res.commanded, 0.004, vp2)
        v_a_body = state.R_IB.T @ state.v
        m_n, m_applied = (np.array(body_wrench(v_a_body, state.omega, a, vp2).moment)
                          for a in (u_n, applied))
        assert np.abs(m_applied - (m_n + res.allocated)).max() < 1e-9


def test_allocation_respects_ranges(vp):
    rng = np.random.default_rng(8)
    for _ in range(50):
        state = RigidBodyState(v=np.array([rng.uniform(0, 15), 0.0, 0.0]))
        u_n = actuation_from_commands(vp, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0.2, 0.9))
        M_act = rng.uniform(-3, 3, 3)  # often saturating
        cmd = daisy_chain_allocate(M_act, state, u_n, vp, np.zeros(3)).commanded
        for name in ("al", "ar", "e", "r", "tt"):
            assert -1.0 - 1e-12 <= getattr(cmd, f"delta_{name}") <= 1.0 + 1e-12
        for name in ("pl", "pr", "pt"):
            assert -1e-12 <= getattr(cmd, f"delta_{name}") <= 1.0 + 1e-12


def block3_objective(a, d, l_target, n_target, gain_ail, gain_thr):
    """Weighted squared roll/yaw moment error of the wing-group increments."""
    l_hat = gain_ail[0] * a + gain_thr[0] * d
    n_hat = gain_ail[2] * a + gain_thr[2] * d
    return attitude.W_ROLL * (l_hat - l_target) ** 2 \
        + attitude.W_YAW * (n_hat - n_target) ** 2


def _block3_cases():
    rng = np.random.default_rng(9)
    for _ in range(30):
        gain_ail = rng.uniform(-2, 2, 3)
        gain_thr = rng.uniform(-2, 2, 3)
        l_t, n_t = rng.uniform(-1, 1, 2)
        yield (l_t, n_t, gain_ail, gain_thr, tuple(sorted(rng.uniform(-1, 1, 2))),
               tuple(sorted(rng.uniform(-0.5, 0.5, 2))))
    # degenerate gains as Python floats, as the chain passes them
    for _ in range(10):
        l_t, n_t, s = rng.uniform(-1, 1, 3).tolist()
        g = rng.uniform(-2, 2, 3).tolist()
        a_box = tuple(sorted(rng.uniform(-1, 1, 2).tolist()))
        d_box = tuple(sorted(rng.uniform(-0.5, 0.5, 2).tolist()))
        yield l_t, n_t, [0.0, 0.0, 0.0], g, a_box, d_box           # no aileron authority
        yield l_t, n_t, g, [0.0, 0.0, 0.0], a_box, d_box           # no throttle authority
        yield l_t, n_t, g, [s * x for x in g], a_box, d_box        # collinear gains
        yield l_t, n_t, g, g[::-1], a_box, (d_box[0], d_box[0])    # zero-width boxes
        yield l_t, n_t, g, g[::-1], (a_box[1], a_box[1]), d_box
    yield 0.5, -0.3, [0.0] * 3, [0.0] * 3, (-1.0, 1.0), (-0.5, 0.5)


def test_block3_qp_matches_grid_search():
    for l_t, n_t, gain_ail, gain_thr, a_box, d_box in _block3_cases():
        a, d = solve_block3(l_t, n_t, gain_ail, gain_thr, a_box, d_box)
        assert a_box[0] <= a <= a_box[1] and d_box[0] <= d <= d_box[1]
        best = block3_objective(a, d, l_t, n_t, gain_ail, gain_thr)
        grid_a = np.linspace(a_box[0], a_box[1], 101)
        grid_d = np.linspace(d_box[0], d_box[1], 101)
        vals = np.array([[block3_objective(ga, gd, l_t, n_t, gain_ail, gain_thr)
                          for gd in grid_d] for ga in grid_a])
        # the exact QP solution is at least as good as any grid point
        assert best <= vals.min() + 1e-9


def test_block3_without_aileron_authority_leaves_the_ailerons():
    rng = np.random.default_rng(4)
    for _ in range(200):
        l_t, n_t = rng.uniform(-1, 1, 2).tolist()
        a_box = (-rng.uniform(0, 1), rng.uniform(0, 1))
        d_box = (-rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        a, _ = solve_block3(l_t, n_t, [0.0, 0.0, 0.0],
                            rng.uniform(-2, 2, 3).tolist(), a_box, d_box)
        assert a == 0.0


def test_chain_monotonicity_elevator_limit(vp):
    """Enlarging the elevator's travel never increases tail usage."""
    vp_big = dataclasses.replace(vp, surface_travel={**vp.surface_travel,
                                                     "e": 1.5 * vp.surface_travel["e"]})
    state = RigidBodyState(v=np.array([6.0, 0.0, 0.0]))
    for m_pitch in (-0.5, -0.9, -1.5):
        u_n = actuation_from_commands(vp, delta_w=0.5, delta_plr=0.7)
        u_n2 = actuation_from_commands(vp_big, delta_w=0.5, delta_plr=0.7)
        demand = np.array([0.0, m_pitch, 0.0])
        small = daisy_chain_allocate(demand, state, u_n, vp, np.zeros(3))
        big = daisy_chain_allocate(demand, state, u_n2, vp_big, np.zeros(3))
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
        m_hat = np.array(total_wrench(state, u_n, vp, np.zeros(3)).moment)
        res = daisy_chain_allocate(M_des - m_hat, state, u_n, vp, np.zeros(3))
        if np.abs(res.residual).max() > attitude.RESIDUAL_TOL:
            continue  # authority-limited case
        moment = np.array(total_wrench(state, res.commanded, vp, np.zeros(3)).moment)
        omega_dot = vp.inertia_inv @ (moment - np.cross(state.omega,
                                                        vp.inertia @ state.omega))
        err = np.linalg.norm(omega_dot - omega_dot_des) \
            / max(np.linalg.norm(omega_dot_des), 1e-9)
        assert err < 0.01
        checked += 1
    assert checked >= 30


def test_allocation_stops_below_resolution(vp, monkeypatch):
    """The chain starts no pass once the residual is within RESIDUAL_TOL on
    every axis, runs all PASSES on a saturating demand, and leaves a demand
    already within the tolerance to the nominal actuation."""
    u_n = hover_nominal(vp)
    M_act = np.array([0.05, -0.1, 0.02])
    res = daisy_chain_allocate(M_act, hover_state(), u_n, vp, np.zeros(3))
    k = res.passes
    assert 1 < k < attitude.PASSES
    assert np.abs(res.residual).max() <= attitude.RESIDUAL_TOL
    monkeypatch.setattr(attitude, "PASSES", k)
    capped = daisy_chain_allocate(M_act, hover_state(), u_n, vp, np.zeros(3))
    assert _bytes(capped.commanded) == _bytes(res.commanded)
    assert capped.residual.tobytes() == res.residual.tobytes()
    for name in res.blocks:
        assert capped.blocks[name].tobytes() == res.blocks[name].tobytes()
    # the k-th pass was needed
    monkeypatch.setattr(attitude, "PASSES", k - 1)
    short = daisy_chain_allocate(M_act, hover_state(), u_n, vp, np.zeros(3))
    assert np.abs(short.residual).max() > attitude.RESIDUAL_TOL
    monkeypatch.undo()

    saturating = daisy_chain_allocate(np.array([2.0, 0.0, 0.0]), hover_state(),
                                      u_n, vp, np.zeros(3))
    assert saturating.passes == attitude.PASSES
    assert np.abs(saturating.residual).max() > attitude.RESIDUAL_TOL

    nominal = total_wrench(hover_state(), u_n, vp, np.zeros(3))
    tiny = daisy_chain_allocate(np.array([1e-4, -2e-4, 5e-5]), hover_state(),
                                u_n, vp, np.zeros(3), nominal)
    assert tiny.passes == 0
    assert _bytes(tiny.commanded) == _bytes(u_n)
    assert tiny.evaluation is nominal
    assert not any(block.any() for block in tiny.blocks.values())


# ---------------------------------------------------------------------------
# evaluations the caller already made
# ---------------------------------------------------------------------------

def _bytes(act):
    return np.array([getattr(act, f.name) for f in dataclasses.fields(act)]).tobytes()


def test_allocate_given_nominal_matches_evaluating_it(vp):
    """Passing the nominal evaluation of the same state, u_n and wind changes no
    bit of the allocation."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        state, u_n = flight_consistent_sample(vp, rng)
        wind = rng.uniform(-2.0, 2.0, 3)
        M_act = rng.uniform(-0.6, 0.6, 3)
        nominal = total_wrench(state, u_n, vp, wind)
        given = daisy_chain_allocate(M_act, state, u_n, vp, wind, nominal)
        evaluated = daisy_chain_allocate(M_act, state, u_n, vp, wind)
        assert _bytes(given.commanded) == _bytes(evaluated.commanded)
        assert given.blocks.keys() == evaluated.blocks.keys()
        for name in given.blocks:
            assert given.blocks[name].tobytes() == evaluated.blocks[name].tobytes()
        assert given.residual.tobytes() == evaluated.residual.tobytes()


def test_allocation_carries_the_evaluation_at_its_commands(vp):
    """`AllocationResult.evaluation` is the model at the commanded actuation,
    state and wind, bit for bit: the last booked evaluation, or the nominal one
    when nothing was booked."""
    rng = np.random.default_rng(13)
    for k in range(20):
        state, u_n = flight_consistent_sample(vp, rng)
        wind = rng.uniform(-2.0, 2.0, 3)
        M_act = rng.uniform(-0.6, 0.6, 3) if k % 4 else np.zeros(3)
        nominal = total_wrench(state, u_n, vp, wind)
        res = daisy_chain_allocate(M_act, state, u_n, vp, wind, nominal)
        ev, ref = res.evaluation, total_wrench(state, res.commanded, vp, wind)
        assert np.array(ev.force).tobytes() == np.array(ref.force).tobytes()
        assert np.array(ev.moment).tobytes() == np.array(ref.moment).tobytes()
        # repr round-trips every float and tells -0.0 from 0.0
        assert repr(ev) == repr(ref)


def test_allocation_matches_full_evaluations(vp, monkeypatch):
    """Booking from the previous evaluation changes no bit of the allocation:
    the commands, the block moments, the residual and the evaluation equal
    those of a run in which every `body_wrench` call drops its prior."""
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(30):
        state, u_n = flight_consistent_sample(vp, rng)
        cases.append((rng.uniform(-0.6, 0.6, 3), state, u_n, rng.uniform(-2.0, 2.0, 3)))
    reused = [daisy_chain_allocate(m, s, u, vp, w) for m, s, u, w in cases]
    real = aero.body_wrench
    monkeypatch.setattr(aero, "body_wrench",
                        lambda v, omega, act, vp, prior=None: real(v, omega, act, vp))
    for (m, s, u, w), got in zip(cases, reused):
        want = daisy_chain_allocate(m, s, u, vp, w)
        assert _bytes(got.commanded) == _bytes(want.commanded)
        for name in want.blocks:
            assert got.blocks[name].tobytes() == want.blocks[name].tobytes()
        assert got.residual.tobytes() == want.residual.tobytes()
        assert (np.array(got.evaluation.moment).tobytes()
                == np.array(want.evaluation.moment).tobytes())
        assert repr(got.evaluation) == repr(want.evaluation)


def test_allocate_given_nominal_and_no_demand_evaluates_nothing(vp, monkeypatch):
    state, u_n = cruise_state(), cruise_nominal(vp)
    nominal = total_wrench(state, u_n, vp, np.zeros(3))
    calls = []
    real = aero.body_wrench

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(aero, "body_wrench", counting)
    res = daisy_chain_allocate(np.zeros(3), state, u_n, vp, np.zeros(3), nominal)
    assert len(calls) == 0
    assert _bytes(res.commanded) == _bytes(u_n)


# ---------------------------------------------------------------------------
# local actuator gains against the per-row numpy form
# ---------------------------------------------------------------------------

def _surface_moment_gain_reference(vp, tab, act, actuator):
    """Per-row numpy form of the surface gain: scans every segment."""
    travel = vp.travel[actuator]
    zeta_now = act.position(actuator, vp)
    g = np.zeros(3)
    for row, seg in enumerate(vp.segments):
        if seg.control == "none" or BINDING_TO_ACTUATOR[seg.control] != actuator:
            continue
        gain = seg.control_gain
        flow = tab.segs[row]
        lam = flow.lam
        if lam <= 0.0:
            continue
        V2 = flow.speed ** 2
        dz = gain * travel
        dcl = lam * seg.cl_delta * dz
        kd = seg.cl_delta / seg.cl_alpha if seg.cl_alpha != 0.0 else 0.0
        dcd = lam * seg.cd_alpha2 * 2.0 \
            * (flow.alpha + kd * gain * zeta_now) * kd * dz
        dcm = lam * seg.cm_delta * dz
        q_area = 0.5 * vp.rho * V2 * (seg.chord * seg.span)
        dF = q_area * (dcl * np.array(flow.e_lift) + dcd * np.array(flow.e_drag))
        moment_scale = 0.5 * (seg.chord * seg.chord) * seg.span
        g += (dcm * vp.rho * V2 * moment_scale) * np.array(flow.ey) \
            + np.cross(flow.r, dF)
    return g


def _prop_moment_eta_gain_reference(vp, tab, idx):
    """Numpy-array form of the propeller gain."""
    prop, flow = vp.propellers[idx], tab.props[idx]
    axis = np.array(flow.axis)
    dT, dQ = _prop_eta_derivatives(prop, flow.eta, flow.v_axial, vp.rho)
    dF = dT * axis - prop.normal_force_coeff * flow.v_radial \
        * np.array(flow.radial)
    return -dQ * prop.handedness * axis + np.cross(flow.r, dF)


def _step(act, name, h):
    stepped = act.copy()
    setattr(stepped, f"delta_{name}", getattr(act, f"delta_{name}") + h)
    return stepped


def test_gains_match_central_differences_of_the_model(vp):
    """The local gains are derivatives of the model itself. A propeller's
    gain is that of its own `PropFlow.moment`: the slipstream its thrust
    drives over the segments is left out on purpose. A surface's gain is
    that of the net moment. Propellers are checked where the advance ratio
    is clear of both clamps."""
    rng = np.random.default_rng(17)
    n_prop = n_surf = 0
    for _ in range(40):
        state, u_n = flight_consistent_sample(vp, rng)
        act = u_n.copy()
        for name in ("al", "ar", "e", "r", "tt"):
            setattr(act, f"delta_{name}", rng.uniform(-0.9, 0.9))
        act.delta_pt = rng.uniform(0.1, 0.9)
        v_a_body = state.R_IB.T @ state.v
        tab = body_wrench(v_a_body, state.omega, act, vp)
        for idx, prop in enumerate(vp.propellers):
            flow = tab.props[idx]
            J = flow.v_axial / (flow.eta * prop.diameter)
            if not 0.02 < J < prop.advance_ratio_max - 0.02:
                continue
            h = 1e-4 / vp.travel[prop.name]  # 1e-4 rev/s
            p, m = (body_wrench(v_a_body, state.omega, _step(act, prop.name, s), vp)
                    .props[idx] for s in (h, -h))
            fd = (np.array(p.moment) - np.array(m.moment)) / (p.eta - m.eta)
            g = np.array(_prop_moment_eta_gain(vp, tab, idx))
            assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g), prop.name
            n_prop += 1
        for name in ("al", "ar", "e", "r"):
            h = 1e-5
            p, m = (np.array(body_wrench(v_a_body, state.omega, _step(act, name, s), vp)
                             .moment) for s in (h, -h))
            g = np.array(_surface_moment_gain(vp, tab, act, name))
            # a surface whose segments are all in deep stall has no authority
            assert np.linalg.norm(g - (p - m) / (2.0 * h)) <= 1e-6 * np.linalg.norm(g), name
            n_surf += np.linalg.norm(g) > 0.0
    assert n_prop >= 60 and n_surf >= 60


def test_gains_match_per_row_numpy_reference(vp):
    rng = np.random.default_rng(5)
    for _ in range(60):
        state, u_n = flight_consistent_sample(vp, rng)
        act = u_n.copy()
        for name in ("al", "ar", "e", "r", "tt"):
            setattr(act, f"delta_{name}", rng.uniform(-1.0, 1.0))
        act.delta_pt = rng.uniform(0.0, 1.0)
        tab = total_wrench(state, act, vp, np.zeros(3))
        for name in ("al", "ar", "e", "r"):
            new = np.array(_surface_moment_gain(vp, tab, act, name))
            ref = _surface_moment_gain_reference(vp, tab, act, name)
            assert new.tobytes() == ref.tobytes(), name
        for idx in range(len(vp.propellers)):
            new = np.array(_prop_moment_eta_gain(vp, tab, idx))
            ref = _prop_moment_eta_gain_reference(vp, tab, idx)
            assert new.tobytes() == ref.tobytes(), idx
