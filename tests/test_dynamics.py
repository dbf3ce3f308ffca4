import copy
import math

import dynamics_reference
import numpy as np
import pytest

from tiltwing import dynamics
from tiltwing.aero import total_wrench
from tiltwing.dynamics import IntegrationFault, RigidBodyState, integrate_step
from tiltwing.rotations import euler_zyx_to_matrix
from tiltwing.vehicle import actuation_from_commands


def state_derivative(s, vp, force=(0.0, 0.0, 0.0), moment=(0.0, 0.0, 0.0)):
    """The model's derivative of the state ``s``'s floats under a body-frame
    force and moment, split into the reference's named arrays."""
    d = np.array(dynamics._derivative(s.y, force, moment,
                                      dynamics._constants(vp)))
    return dynamics_reference.StateDerivative(d[:3], d[3:6], d[6:15].reshape(3, 3), d[15:])


def _airless(vp, gravity=None):
    """Variant whose air forces underflow to exactly zero."""
    vp2 = copy.deepcopy(vp)
    vp2.rho = 1e-300
    if gravity is not None:
        vp2.gravity = np.asarray(gravity, dtype=float)
    vp2.__post_init__()
    return vp2


def test_free_fall(vp):
    d = state_derivative(RigidBodyState(), vp)
    assert np.allclose(d.v_dot, vp.gravity)
    assert np.allclose(d.omega_dot, 0.0)
    assert np.allclose(d.x_dot, 0.0)


def test_spherical_inertia_no_gyroscopic_term(vp):
    vp2 = copy.deepcopy(vp)
    vp2.inertia = 0.05 * np.eye(3)
    vp2.__post_init__()
    s = RigidBodyState(omega=np.array([3.0, -2.0, 1.0]))
    d = state_derivative(s, vp2)
    assert np.allclose(d.omega_dot, 0.0, atol=1e-14)


def test_euler_term_hand_evaluated(vp):
    # I = diag(1,2,3), w = (1,1,0): I^-1 (-w x Iw) = (0, 0, -1/3)
    vp2 = copy.deepcopy(vp)
    vp2.inertia = np.diag([1.0, 2.0, 3.0])
    vp2.__post_init__()
    s = RigidBodyState(omega=np.array([1.0, 1.0, 0.0]))
    d = state_derivative(s, vp2)
    assert np.allclose(d.omega_dot, [0.0, 0.0, -1.0 / 3.0], atol=1e-14)


def test_rotation_kinematics(vp):
    s = RigidBodyState(omega=np.array([0.0, 0.0, 1.0]))
    d = state_derivative(s, vp)
    assert np.allclose(d.R_dot, s.R_IB @ np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))


def test_zero_wrench_drift_exact(vp):
    vp2 = _airless(vp, gravity=[0.0, 0.0, 0.0])
    act = actuation_from_commands(vp2)
    v = np.array([3.0, -1.0, 0.5])
    s = RigidBodyState(v=v.copy())
    out = integrate_step(s, act, vp2, np.zeros(3), dt=0.01)
    assert np.allclose(out.x, v * 0.01, rtol=1e-15)
    assert np.array_equal(out.v, v)


def test_conservation_torque_free(vp):
    vp2 = _airless(vp, gravity=[0.0, 0.0, 0.0])
    act = actuation_from_commands(vp2)
    s = RigidBodyState(v=np.array([1.0, 2.0, 3.0]),
                       omega=np.array([2.0, -1.0, 3.0]))
    h0 = s.R_IB @ (vp2.inertia @ s.omega)
    v0 = np.linalg.norm(s.v)
    for _ in range(1000):
        s = integrate_step(s, act, vp2, np.zeros(3), dt=0.004)
    assert np.linalg.norm(s.v) == pytest.approx(v0, rel=1e-12)
    h1 = s.R_IB @ (vp2.inertia @ s.omega)
    assert np.allclose(h1, h0, rtol=1e-7)


def test_orthonormality_maintained(vp):
    vp2 = _airless(vp, gravity=[0.0, 0.0, 0.0])
    act = actuation_from_commands(vp2)
    s = RigidBodyState(omega=np.array([3.0, -2.0, 1.5]))
    for _ in range(10_000):
        s = integrate_step(s, act, vp2, np.zeros(3), dt=0.004)
    assert np.abs(s.R_IB.T @ s.R_IB - np.eye(3)).max() < 1e-8
    assert np.linalg.det(s.R_IB) == pytest.approx(1.0, abs=1e-9)


def test_rk4_convergence_order(vp):
    """Step halving on a torque-free asymmetric spin: observed order >= 3.9."""
    vp2 = _airless(vp, gravity=[0.0, 0.0, 0.0])
    vp2.inertia = np.diag([0.04, 0.06, 0.09])
    vp2.__post_init__()
    act = actuation_from_commands(vp2)

    def run(dt, steps):
        s = RigidBodyState(omega=np.array([4.0, 1.0, -2.5]))
        for _ in range(steps):
            s = integrate_step(s, act, vp2, np.zeros(3), dt=dt)
        return np.concatenate([s.omega, s.R_IB.ravel()])

    base, n = 0.016, 50
    y1 = run(base, n)
    y2 = run(base / 2.0, 2 * n)
    y4 = run(base / 4.0, 4 * n)
    e1 = np.linalg.norm(y1 - y4)
    e2 = np.linalg.norm(y2 - y4)
    order = math.log2(e1 / e2)
    assert order >= 3.9


def test_determinism(vp):
    act = actuation_from_commands(vp, delta_w=0.6, delta_plr=0.7, delta_pt=0.2)

    def run():
        s = RigidBodyState(v=np.array([5.0, 0.2, -0.5]),
                           omega=np.array([0.3, -0.2, 0.1]))
        for _ in range(200):
            s = integrate_step(s, act, vp, np.zeros(3), dt=0.004)
        return s

    a, b = run(), run()
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.R_IB, b.R_IB)
    assert np.array_equal(a.omega, b.omega)


def test_dt_bounds(vp):
    act = actuation_from_commands(vp)
    with pytest.raises(ValueError):
        integrate_step(RigidBodyState(), act, vp, np.zeros(3), dt=0.0)
    with pytest.raises(ValueError):
        integrate_step(RigidBodyState(), act, vp, np.zeros(3), dt=0.05)


def test_nonfinite_state_faults(vp):
    act = actuation_from_commands(vp)
    s = RigidBodyState(v=np.array([1e200, 0.0, 0.0]))
    with pytest.raises(IntegrationFault):
        integrate_step(s, act, vp, np.zeros(3), dt=0.004)


def test_step_given_start_wrench_matches_evaluating_it(vp):
    """The wrench a caller already evaluated at the start state, actuation
    and wind, passed in as RK4's first stage, gives the same step bit for
    bit."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = RigidBodyState(
            x=rng.uniform(-5.0, 5.0, 3),
            v=np.array([rng.uniform(0.0, 18.0), rng.uniform(-1, 1), rng.uniform(-2, 2)]),
            R_IB=euler_zyx_to_matrix(*rng.uniform(-0.3, 0.3, 3)),
            omega=rng.uniform(-0.5, 0.5, 3))
        act = actuation_from_commands(vp, delta_w=rng.uniform(0, 1),
                                      delta_plr=rng.uniform(0.2, 0.9),
                                      delta_pt=rng.uniform(0.0, 0.3),
                                      delta_e=rng.uniform(-0.3, 0.3))
        wind = rng.uniform(-3.0, 3.0, 3)
        given = integrate_step(s, act, vp, wind, 0.004, total_wrench(s, act, vp, wind))
        evaluated = integrate_step(s, act, vp, wind, 0.004)
        for name in ("x", "v", "R_IB", "omega"):
            assert getattr(given, name).tobytes() == getattr(evaluated, name).tobytes()


def test_float_step_matches_numpy_reference(vp):
    """The float step agrees with the numpy step to 1e-12 relative on every
    field, with RK4's first stage evaluated and given, and so does the
    derivative at the start state."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        s = RigidBodyState(
            x=rng.uniform(-50.0, 50.0, 3),
            v=np.array([rng.uniform(-2.0, 20.0), rng.uniform(-3, 3), rng.uniform(-4, 4)]),
            R_IB=euler_zyx_to_matrix(*rng.uniform(-math.pi, math.pi, 3)),
            omega=rng.uniform(-1.5, 1.5, 3))
        act = actuation_from_commands(
            vp, delta_w=rng.uniform(0, 1), delta_pl=rng.uniform(0, 1),
            delta_pr=rng.uniform(0, 1), delta_pt=rng.uniform(0, 1),
            delta_al=rng.uniform(-1, 1), delta_ar=rng.uniform(-1, 1),
            delta_e=rng.uniform(-1, 1), delta_r=rng.uniform(-1, 1),
            delta_tt=rng.uniform(-1, 1))
        wind = rng.uniform(-5.0, 5.0, 3)
        ev = total_wrench(s, act, vp, wind)
        pairs = [(a, b) for a, b in zip(state_derivative(s, vp, ev.force, ev.moment),
                                        dynamics_reference.state_derivative(s, ev, vp))]
        ref = dynamics_reference.integrate_step(s, act, vp, wind, 0.004)
        for given in (None, ev):
            out = integrate_step(s, act, vp, wind, 0.004, given)
            pairs += [(getattr(out, n), getattr(ref, n)) for n in ("x", "v", "R_IB", "omega")]
        for a, b in pairs:
            worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
    assert worst <= 1e-12


def test_state_built_from_arrays_reads_back_their_bytes():
    """A state built from arrays holds 18 Python floats in ``y``, and each
    field reads back the bytes and shape it was given, signed zeros too."""
    rng = np.random.default_rng(11)
    cases = [{"x": rng.uniform(-50.0, 50.0, 3), "v": rng.normal(0.0, 10.0, 3),
              "R_IB": euler_zyx_to_matrix(*rng.uniform(-math.pi, math.pi, 3)),
              "omega": rng.normal(0.0, 1.0, 3)} for _ in range(20)]
    cases.append({"x": np.array([-0.0, 0.0, -0.0]), "v": np.array([0.0, -0.0, 1e-300]),
                   "R_IB": np.eye(3), "omega": np.array([-0.0, -0.0, 0.0])})
    for fields in cases:
        s = RigidBodyState(**fields)
        assert len(s.y) == 18 and {type(c) for c in s.y} == {float}
        for name, a in fields.items():
            got = getattr(s, name)
            assert got.shape == a.shape and got.tobytes() == a.tobytes()


def test_step_holds_python_floats(vp):
    """The stepped state's ``y`` holds 18 Python floats, not numpy scalars,
    after steps from a state built from arrays and from a stepped one, with
    RK4's first stage evaluated and given, in a numpy wind."""
    s = RigidBodyState(v=np.array([8.0, 0.3, -0.5]), R_IB=euler_zyx_to_matrix(0.1, 0.05, 1.0),
                       omega=np.array([0.1, -0.2, 0.05]))
    act = actuation_from_commands(vp, delta_w=0.5, delta_plr=0.6, delta_pt=0.1)
    wind = np.array([1.0, -0.5, 0.2])
    for given in (None, total_wrench(s, act, vp, wind)):
        once = integrate_step(s, act, vp, wind, 0.004, given)
        twice = integrate_step(once, act, vp, wind, 0.004, total_wrench(once, act, vp, wind))
        for out in (once, twice):
            assert len(out.y) == 18 and {type(c) for c in out.y} == {float}
