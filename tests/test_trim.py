import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import fsolve

from tiltwing.aero import body_wrench
from tiltwing.trim import (WEIGHTS, TrimError, TrimMap, TrimPoint, TrimWeights,
                           build_trim_map, hover_initial_guess, load_trim_map, lookup_trim,
                           save_trim_map, shaft_power, solve_trim_point,
                           theta_star, trim_accelerations, trim_actuation,
                           trim_cost, trim_residual)


def exact_hover_trim(vp):
    """Independent root solve of the hover balance at zeta_w = 90 deg:
    unknowns (theta, delta_plr, delta_pt) zeroing (vdot_x, vdot_z, thdd)."""
    def balance(z):
        theta, d_plr, d_pt = z
        u = np.array([1.0, d_plr, 0.0, 0.0, d_pt])
        v_dot, th_dd = trim_accelerations(u, theta, 0.0, 0.0, vp)
        return [v_dot[0], v_dot[2], th_dd]

    ig = hover_initial_guess(vp)
    z = fsolve(balance, [0.0, ig[1], 0.1], full_output=False, xtol=1e-14)
    u = np.array([1.0, z[1], 0.0, 0.0, z[2]])
    return u, float(z[0])


def test_exact_hover_trim_residual_small(vp):
    u, theta = exact_hover_trim(vp)
    v_dot, th_dd = trim_accelerations(u, theta, 0.0, 0.0, vp)
    assert np.linalg.norm(v_dot) < 1e-6
    assert abs(th_dd) < 1e-6


def test_zero_actuation_free_fall(vp):
    u = np.zeros(5)
    v_dot, _ = trim_accelerations(u, 0.0, 0.0, 0.0, vp)
    assert np.linalg.norm(v_dot) == pytest.approx(9.81, abs=1e-9)


def test_qv_scaling_doubles_residual_block(vp):
    u, theta = np.array([0.3, 0.5, 0.0, 0.1, 0.2]), 0.05
    v_dot, _ = trim_accelerations(u, theta, 8.0, 0.0, vp)
    r = trim_residual(u, theta, 8.0, 0.0, vp)
    assert np.allclose(r[:2], math.sqrt(WEIGHTS.q_v) * v_dot[[0, 2]],
                       rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_zero_at_ideal(vp):
    u = np.zeros(5)
    assert trim_cost(u, 0.0, [], 0.0, vp) == pytest.approx(0.0, abs=1e-12)


def test_cost_power_cubic(vp):
    u1 = np.array([0.0, 0.3, 0.0, 0.0, 0.2])
    u2 = np.array([0.0, 0.6, 0.0, 0.0, 0.4])
    q1 = trim_cost(u1, 0.0, [], 0.0, vp)
    q2 = trim_cost(u2, 0.0, [], 0.0, vp)
    assert q2 == pytest.approx(8.0 * q1, rel=1e-9)


def test_saturation_barrier_zero_below_threshold(vp):
    """The barrier on the aileron pair (u[2]) and the elevator (u[3]) is
    exactly zero up to sat_threshold and turns on smoothly beyond it."""
    thr = WEIGHTS.sat_threshold

    def surface_u(k, delta):
        u = np.zeros(5)  # zero throttles: no power term
        u[k] = delta
        return u

    for k in (2, 3):
        def sat(delta):
            return trim_cost(surface_u(k, delta), 0.0, [], 0.0, vp)

        def sat_residual(delta):
            return trim_residual(surface_u(k, delta), 0.0, 0.0, 0.0, vp)[k + 2]

        for delta in (0.0, 0.5, thr):
            assert sat(delta) == 0.0
            assert sat(-delta) == 0.0
        assert sat(thr + 0.01) > 0.0
        assert sat(-1.0) > 0.0
        assert sat_residual(-1.0) ** 2 == pytest.approx(sat(-1.0), rel=1e-12)

        h = 1e-6
        left = (sat(thr) - sat(thr - h)) / h
        right = (sat(thr + h) - sat(thr)) / h
        assert right == pytest.approx(left, abs=1e-9)
        # the residual entry sqrt(s) has no slope jump at the threshold either
        h = 1e-10
        assert sat_residual(thr - h) == 0.0
        assert (sat_residual(thr + h) - sat_residual(thr)) / h < 1e-3


def test_cost_neighbor_zero_at_average(vp):
    z = np.array([0.2, 0.5, 0.0, 0.1, 0.2, 0.05])
    neighbors = [z + np.array([0.1, 0, 0, 0, 0, 0]),
                 z - np.array([0.1, 0, 0, 0, 0, 0])]
    q_with = trim_cost(z[:5], z[5], neighbors, 0.05, vp)
    q_without = trim_cost(z[:5], z[5], [], 0.05, vp)
    assert q_with == pytest.approx(q_without, abs=1e-12)


def test_theta_star_profile():
    g = math.radians(20.0)
    assert theta_star(0.0, g) == 0.0
    assert theta_star(6.0, g) == pytest.approx(0.5 * g)
    assert theta_star(12.0, g) == pytest.approx(g)
    assert theta_star(20.0, g) == pytest.approx(g)


# ---------------------------------------------------------------------------
# point solutions
# ---------------------------------------------------------------------------

def test_hover_trim_identity(vp):
    tp = solve_trim_point(0.0, 0.0, hover_initial_guess(vp), vp)
    assert tp.feasible
    act = trim_actuation(vp, tp.u)
    _, tab = body_wrench(np.zeros(3), np.zeros(3), act, vp)
    assert tab.prop_thrust.sum() == pytest.approx(vp.weight, rel=0.01)
    zeta_w_deg = math.degrees(tp.u[0] * math.pi / 2.0)
    assert zeta_w_deg + math.degrees(tp.theta) == pytest.approx(90.0, abs=2.0)


def test_cruise_trim_pitch_aligned(vp):
    ig = np.array([0.05, 0.55, 0.0, 0.0, 0.0, 0.02])
    tp = solve_trim_point(20.0, 0.0, ig, vp)
    assert tp.feasible
    assert abs(tp.theta) < math.radians(4.0)      # pitch near gamma = 0
    assert tp.u[0] * 90.0 < 15.0                  # low wing tilt


def test_steep_climb_saturates_throttle(vp):
    ig = np.array([0.05, 0.9, 0.0, 0.0, 0.0, 0.2])
    tp = solve_trim_point(20.0, math.radians(60.0), ig, vp)
    assert not tp.feasible
    assert tp.u[1] > 0.995


def test_local_optimality(vp):
    tp = solve_trim_point(16.0, 0.0, np.array([0.1, 0.5, 0.0, 0.0, 0.0, 0.03]), vp)
    assert tp.feasible

    def objective(z):
        r = trim_residual(z[:5], z[5], 16.0, 0.0, vp)
        return float(r @ r)

    base = objective(tp.z)
    for k in range(6):
        for sign in (-1.0, 1.0):
            z = tp.z.copy()
            z[k] += sign * 0.01 * max(abs(z[k]), 0.1)
            assert objective(z) > base - 1e-6


# ---------------------------------------------------------------------------
# map build
# ---------------------------------------------------------------------------

def test_single_cell_map_equals_point_solve(vp):
    ig = hover_initial_guess(vp)
    tmap = build_trim_map(vp, va_axis=np.array([0.0]), gamma_axis=np.array([0.0]),
                          seed=(0.0, 0.0, ig))
    tp = solve_trim_point(0.0, 0.0, ig, vp)
    p = tmap.points[0][0]
    assert p.cost == pytest.approx(tp.cost, rel=1e-9)
    assert np.allclose(p.u, tp.u, atol=1e-8)


def test_mini_map_complete_and_self_consistent(coarse_map, vp):
    w = coarse_map.weights
    for row in coarse_map.points:
        for p in row:
            assert p is not None
            if p.feasible:
                v_dot, th_dd = trim_accelerations(p.u, p.theta, p.v_a, p.gamma, vp)
                assert np.linalg.norm(v_dot) < w.eps_v
                assert abs(th_dd) < w.eps_theta


def test_hover_column_replicated(coarse_map):
    col = [coarse_map.points[0][j] for j in range(coarse_map.gamma_axis.size)]
    for p in col[1:]:
        assert np.array_equal(p.u, col[0].u)
        assert p.theta == col[0].theta


def test_map_determinism(vp):
    va = np.array([0.0, 5.0])
    ga = np.radians(np.array([-5.0, 0.0, 5.0]))
    m1 = build_trim_map(vp, va_axis=va, gamma_axis=ga)
    m2 = build_trim_map(vp, va_axis=va, gamma_axis=ga)
    for i in range(va.size):
        for j in range(ga.size):
            assert np.array_equal(m1.points[i][j].u, m2.points[i][j].u)
            assert m1.points[i][j].theta == m2.points[i][j].theta


def test_infeasible_seed_aborts(vp):
    bad_ig = np.zeros(6)  # zero throttle cannot hover
    with pytest.raises(TrimError, match="seed"):
        build_trim_map(vp, va_axis=np.array([0.0]),
                       gamma_axis=np.array([0.0]),
                       seed=(0.0, 0.0, bad_ig))


def test_grid_axes_must_increase(vp):
    with pytest.raises(TrimError, match="increasing"):
        build_trim_map(vp, va_axis=np.array([1.0, 1.0]),
                       gamma_axis=np.array([0.0]))


@pytest.mark.parametrize("va, gamma", [([], [0.0]), ([0.0], [])])
def test_grid_axes_must_not_be_empty(vp, va, gamma):
    with pytest.raises(TrimError, match="empty"):
        build_trim_map(vp, va_axis=np.array(va), gamma_axis=np.array(gamma))


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------

def test_lookup_on_node(coarse_map):
    p = coarse_map.points[1][2]
    lut = lookup_trim(coarse_map, float(coarse_map.va_axis[1]),
                      float(coarse_map.gamma_axis[2]))
    assert not lut.clamped
    assert np.allclose(lut.u, p.u, atol=1e-12)
    assert lut.theta == pytest.approx(p.theta, abs=1e-12)


def test_lookup_midpoint_mean(coarse_map):
    i, j = 2, 1
    corners = [coarse_map.points[i][j], coarse_map.points[i + 1][j],
               coarse_map.points[i][j + 1], coarse_map.points[i + 1][j + 1]]
    if not all(p.feasible for p in corners):
        pytest.skip("needs four feasible corners")
    va = 0.5 * (coarse_map.va_axis[i] + coarse_map.va_axis[i + 1])
    ga = 0.5 * (coarse_map.gamma_axis[j] + coarse_map.gamma_axis[j + 1])
    lut = lookup_trim(coarse_map, float(va), float(ga))
    mean_u = np.mean([p.u for p in corners], axis=0)
    assert np.allclose(lut.u, mean_u, atol=1e-12)


def test_lookup_hover_node_identity(coarse_map):
    lut = lookup_trim(coarse_map, 0.0, 0.0)
    assert lut.u[0] * 90.0 + math.degrees(lut.theta) == pytest.approx(90.0, abs=2.0)


def test_lookup_outside_hull_clamps(coarse_map):
    lut = lookup_trim(coarse_map, 1000.0, 0.0)
    assert lut.clamped
    edge = lookup_trim(coarse_map, float(coarse_map.va_axis[-1]), 0.0)
    assert np.allclose(lut.u, edge.u)


def _node(va: float, ga: float, scale: float, feasible: bool = True) -> TrimPoint:
    return TrimPoint(v_a=va, gamma=ga,
                     u=scale * np.array([1.0, 0.7, 0.01, -0.02, 0.1]),
                     theta=0.03 * scale, res_v=1e-3, res_theta=1e-4, cost=0.3,
                     feasible=feasible)


def test_lookup_one_node_map_returns_the_node():
    p = _node(0.0, 0.0, 1.0)
    tmap = TrimMap(va_axis=np.array([0.0]), gamma_axis=np.array([0.0]),
                   points=[[p]])
    lut = lookup_trim(tmap, 0.0, 0.0)
    assert not lut.clamped
    assert np.array_equal(lut.u, p.u)
    assert lut.theta == p.theta


def test_lookup_two_node_axis_with_one_node_axis():
    a, b = _node(0.0, 0.0, 1.0), _node(4.0, 0.0, 0.5)
    tmap = TrimMap(va_axis=np.array([0.0, 4.0]), gamma_axis=np.array([0.0]),
                   points=[[a], [b]])
    lut = lookup_trim(tmap, 2.0, 0.0)
    assert not lut.clamped
    assert np.allclose(lut.u, 0.5 * (a.u + b.u), rtol=1e-15, atol=0.0)
    assert lut.theta == pytest.approx(0.5 * (a.theta + b.theta), rel=1e-15)
    # an infeasible node falls back to the nearest feasible one
    b.feasible = False
    lut = lookup_trim(tmap, 3.0, 0.0)
    assert np.array_equal(lut.u, a.u)


def test_lookup_infeasible_corner_falls_back(coarse_map):
    import copy
    m = copy.deepcopy(coarse_map)
    m.points[1][1].feasible = False
    va = 0.5 * (m.va_axis[1] + m.va_axis[2])
    ga = 0.5 * (m.gamma_axis[1] + m.gamma_axis[2])
    lut = lookup_trim(m, float(va), float(ga))
    feasible_points = [p for row in m.points for p in row if p.feasible]
    assert any(np.allclose(lut.u, p.u) for p in feasible_points)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_csv_roundtrip_bit_exact(coarse_map, tmp_path):
    path = tmp_path / "map.csv"
    save_trim_map(coarse_map, path)
    m2 = load_trim_map(path)
    assert np.array_equal(m2.va_axis, coarse_map.va_axis)
    assert np.array_equal(m2.gamma_axis, coarse_map.gamma_axis)
    for i in range(coarse_map.va_axis.size):
        for j in range(coarse_map.gamma_axis.size):
            a, b = coarse_map.points[i][j], m2.points[i][j]
            assert np.array_equal(a.u, b.u)
            assert a.theta == b.theta
            assert a.cost == b.cost
            assert a.res_v == b.res_v
            assert a.feasible == b.feasible
    assert m2.weights.eps_v == coarse_map.weights.eps_v


def _same_points(a: TrimMap, b: TrimMap) -> bool:
    pa = [p for row in a.points for p in row]
    pb = [p for row in b.points for p in row]
    return (np.array_equal(a.va_axis, b.va_axis)
            and np.array_equal(a.gamma_axis, b.gamma_axis)
            and all(np.array_equal(p.u, q.u) and p.theta == q.theta
                    and p.cost == q.cost and p.res_v == q.res_v
                    and p.res_theta == q.res_theta and p.feasible == q.feasible
                    for p, q in zip(pa, pb)))


def test_csv_roundtrip_keeps_every_weight(tmp_path):
    defaults = TrimWeights()
    w = TrimWeights(**{f.name: 1.5 * getattr(defaults, f.name) + 0.01
                       for f in dataclasses.fields(TrimWeights)})
    w.sat_threshold, w.sat_scale = 0.8, 0.1
    pts = [[TrimPoint(v_a=va, gamma=ga, u=np.array([1.0, 0.7, 0.01, 0.0, 0.1]),
                      theta=0.02 * va, res_v=1e-3, res_theta=1e-4, cost=0.3,
                      feasible=True) for ga in (-0.1, 0.1)] for va in (0.0, 4.0)]
    tmap = TrimMap(va_axis=np.array([0.0, 4.0]), gamma_axis=np.array([-0.1, 0.1]),
                   points=pts, weights=w)
    path = tmp_path / "map.csv"
    save_trim_map(tmap, path)
    m2 = load_trim_map(path)
    assert m2.weights == w
    assert _same_points(m2, tmap)


def test_committed_map_with_old_header_loads(tmp_path, committed_map_path):
    m = load_trim_map(committed_map_path)
    assert (m.va_axis.size, m.gamma_axis.size) == (6, 5)
    assert m.weights == TrimWeights()
    assert m.points[0][2].u[0] == 1.0
    save_trim_map(m, tmp_path / "map.csv")
    m2 = load_trim_map(tmp_path / "map.csv")
    assert m2.weights == m.weights
    assert _same_points(m2, m)


def test_trim_positions_use_each_main_travel(vp_uneven_mains):
    """Both mains take the same throttle command; each turns at that
    fraction of its own top speed, and the power proxy sees those speeds."""
    vp2 = vp_uneven_mains
    u = np.array([1.0, 0.6, 0.0, 0.0, 0.1])
    act = trim_actuation(vp2, u)
    speeds = {"pl": 0.6 * 220.0, "pr": 0.6 * 200.0, "pt": 0.1 * 200.0}
    for name, eta in speeds.items():
        assert act.position(name, vp2) == pytest.approx(eta, rel=1e-15)
    power = sum(vp2.rho * speeds[p.name] ** 3 * p.diameter ** 5 * p.cq0
                for p in vp2.propellers)
    assert shaft_power(vp2, u) == pytest.approx(power, rel=1e-12)
