import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from scipy.optimize import fsolve

from tiltwing import trim
from tiltwing.aero import body_wrench
from tiltwing.leastsq import REL_STEP
from tiltwing.trim import (CSV_HEADER, WEIGHTS, TrimError, TrimMap, TrimPoint,
                           TrimWeights, build_trim_map, hover_initial_guess,
                           load_trim_map, lookup_trim,
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
    z = fsolve(balance, [0.0, ig[1], 0.1], full_output=False, xtol=1e-12)
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
    r, _ = trim_residual(u, theta, 8.0, 0.0, vp, None, theta_star(8.0, 0.0), None)
    assert np.allclose(r[:2], math.sqrt(WEIGHTS.q_v) * v_dot[[0, 2]],
                       rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_zero_at_ideal(vp):
    u = np.zeros(5)
    assert trim_cost(u, 0.0, 0.0, vp) == pytest.approx(0.0, abs=1e-12)


def test_cost_power_cubic(vp):
    u1 = np.array([0.0, 0.3, 0.0, 0.0, 0.2])
    u2 = np.array([0.0, 0.6, 0.0, 0.0, 0.4])
    q1 = trim_cost(u1, 0.0, 0.0, vp)
    q2 = trim_cost(u2, 0.0, 0.0, vp)
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
            return trim_cost(surface_u(k, delta), 0.0, 0.0, vp)

        def sat_residual(delta):
            return trim_residual(surface_u(k, delta), 0.0, 0.0, 0.0, vp, None,
                                 theta_star(0.0, 0.0), None)[0][k + 2]

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


def test_residual_neighbor_zero_at_average(vp):
    """At the neighbors' mean the neighbor entries of the residual are 0
    and the other entries are the residual without neighbors."""
    z = np.array([0.2, 0.5, 0.0, 0.1, 0.2, 0.05])
    neighbors = [z + np.array([0.1, 0, 0, 0, 0, 0]),
                 z - np.array([0.1, 0, 0, 0, 0, 0])]
    r_with, _ = trim_residual(z[:5], z[5], 0.0, 0.0, vp,
                              np.mean(neighbors, axis=0), 0.05, None)
    r_without, _ = trim_residual(z[:5], z[5], 0.0, 0.0, vp, None, 0.05, None)
    n = r_without.size
    assert r_with.size == n + z.size
    assert r_with[:n].tobytes() == r_without.tobytes()
    assert np.abs(r_with[n:]).max() == pytest.approx(0.0, abs=1e-12)


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
    tab = body_wrench(np.zeros(3), np.zeros(3), act, vp)
    assert sum(p.thrust for p in tab.props) == pytest.approx(vp.weight, rel=0.01)
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
        r, _ = trim_residual(z[:5], z[5], 16.0, 0.0, vp, None, theta_star(16.0, 0.0), None)
        return float(r @ r)

    base = objective(tp.z)
    for k in range(6):
        for sign in (-1.0, 1.0):
            z = tp.z.copy()
            z[k] += sign * 0.01 * max(abs(z[k]), 0.1)
            assert objective(z) > base - 1e-6


# ---------------------------------------------------------------------------
# evaluation reuse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v_a", [0.0, 8.0, 16.0])
def test_probe_from_the_iterates_pair_matches_full_evaluation(vp, v_a):
    """A Jacobian probe, z offset by +-h in one coordinate, evaluated with the
    iterate's evaluation as prior gives the full evaluation's residual, wrench and
    records bit for bit, for each of the 6 coordinates."""
    rng = np.random.default_rng(15)
    lo = np.concatenate([trim.U_LO, [-0.3]])
    hi = np.concatenate([trim.U_HI, [0.3]])
    gamma, th_star = 0.05, theta_star(v_a, 0.05)
    for _ in range(3):
        z = rng.uniform(lo, hi)
        _, prior = trim_residual(z[:5], z[5], v_a, gamma, vp, z, th_star, None)
        for k in range(z.size):
            for sign in (1.0, -1.0):
                zp = z.copy()
                zp[k] += sign * REL_STEP * max(abs(z[k]), 1.0)
                r, ev = trim_residual(zp[:5], zp[5], v_a, gamma, vp, z, th_star, prior)
                r_ref, ref = trim_residual(zp[:5], zp[5], v_a, gamma, vp, z, th_star, None)
                assert r.tobytes() == r_ref.tobytes()
                assert np.array(ev.force).tobytes() == np.array(ref.force).tobytes()
                assert np.array(ev.moment).tobytes() == np.array(ref.moment).tobytes()
                # repr round-trips every float and tells -0.0 from 0.0
                assert repr(ev) == repr(ref)


def _map_bytes(tmap: TrimMap) -> bytes:
    return np.array([[p.v_a, p.gamma, float(p.feasible), p.theta, *p.u,
                      p.cost, p.res_v, p.res_theta]
                     for row in tmap.points for p in row]).tobytes()


def test_map_build_matches_full_evaluations(vp, monkeypatch):
    """The benchmark's 3x3 grid built as usual and with every trim model
    evaluation a full one: the same map bytes, and every LM solve stops
    after the same evaluations and iterations with the same message."""
    va, ga = np.array([0.0, 4.0, 8.0]), np.radians([-5.0, 0.0, 5.0])
    real_lm, real_wrench = trim.least_squares_lm, trim.body_wrench

    def build():
        records = []

        def recording(*args, **kwargs):
            res = real_lm(*args, **kwargs)
            records.append((res.n_fev, res.n_iter, res.message))
            return res

        monkeypatch.setattr(trim, "least_squares_lm", recording)
        return _map_bytes(build_trim_map(vp, va_axis=va, gamma_axis=ga)), records

    reused = build()
    monkeypatch.setattr(trim, "body_wrench",
                        lambda v, omega, act, vp, prior=None: real_wrench(v, omega, act, vp))
    full = build()
    assert len(reused[1]) == 15
    assert reused == full


def test_solve_hands_body_wrench_python_floats(vp, monkeypatch):
    """Every model evaluation of a solve gets its commands and wing tilt as
    Python floats, not numpy scalars, and returns a float wrench: numpy
    scalars would run `body_wrench`'s loops about 1.4x slower."""
    real_wrench = trim.body_wrench
    seen = []

    def checking(v, omega, act, vp, prior=None):
        ev = real_wrench(v, omega, act, vp, prior)
        seen.append([*dataclasses.astuple(act), *ev.force, *ev.moment])
        return ev

    monkeypatch.setattr(trim, "body_wrench", checking)
    solve_trim_point(8.0, 0.0, hover_initial_guess(vp), vp)
    assert len(seen) > 100
    assert {type(x) for values in seen for x in values} == {float}


def test_float_conversion_is_exact(vp):
    """trim_residual and trim_accelerations give the same bytes whether z
    comes as a numpy array or a list of floats and the airspeed as a float
    or a numpy scalar; v_dot is the numpy formula's, bit for bit."""
    z = np.array([0.62, 0.71, -0.04, 0.03, 0.12, 0.037])
    mean = z + np.array([0.01, -0.02, 0.005, 0.0, -0.01, 0.002])
    v_a, gamma = 8.0, 0.05
    th_star = theta_star(v_a, gamma)

    def outputs(u, theta, v_a, gamma, neighbor_mean):
        r, ev = trim_residual(u, theta, v_a, gamma, vp, neighbor_mean, th_star, None)
        v_dot, th_dd = trim_accelerations(u, theta, v_a, gamma, vp)
        return r.tobytes(), repr(ev), v_dot.tobytes(), np.float64(th_dd).tobytes()

    ref = outputs(z[:5], z[5], v_a, gamma, mean)
    zl = z.tolist()
    assert outputs(zl[:5], zl[5], v_a, gamma, mean.tolist()) == ref
    assert outputs(z[:5], z[5], np.float64(v_a), np.float64(gamma), mean) == ref
    ev = trim_residual(z[:5], z[5], v_a, gamma, vp, None, th_star, None)[1]
    fx, fy, fz = ev.force
    ct, st = math.cos(z[5]), math.sin(z[5])
    v_dot = vp.gravity + np.array([ct * fx + st * fz, fy, -st * fx + ct * fz]) / vp.mass
    assert ref[2] == v_dot.tobytes()


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


def _cell_array(tmap, value):
    return np.array([[value(p) for p in row] for row in tmap.points])


def test_coarse_map_all_feasible(coarse_map):
    assert coarse_map.n_feasible == 30


def test_coarse_map_cost_near_committed(coarse_map, committed_map_path):
    """Per cell at most 10% (+0.002) and on average at most 2% above the
    committed map's cost."""
    ref = load_trim_map(committed_map_path)
    cost = _cell_array(coarse_map, lambda p: p.cost)
    ref_cost = _cell_array(ref, lambda p: p.cost)
    assert np.all(cost <= 1.10 * ref_cost + 0.002)
    assert cost.mean() <= 1.02 * ref_cost.mean()


CRUISE_READS = {"delta_w": lambda p: p.u[0], "delta_plr": lambda p: p.u[1],
                "theta": lambda p: p.theta}


@pytest.mark.parametrize("name", CRUISE_READS)
def test_coarse_map_jumps_no_larger_than_committed(coarse_map, committed_map_path,
                                                   name):
    """The largest change between adjacent cells of what cruise reads from
    the map stays within the committed map's."""
    def jump(tmap):
        x = _cell_array(tmap, CRUISE_READS[name])
        return max(np.abs(np.diff(x, axis=0)).max(), np.abs(np.diff(x, axis=1)).max())

    assert jump(coarse_map) <= jump(load_trim_map(committed_map_path))


def test_map_determinism(vp):
    va = np.array([0.0, 5.0])
    ga = np.radians(np.array([-5.0, 0.0, 5.0]))
    m1 = build_trim_map(vp, va_axis=va, gamma_axis=ga)
    m2 = build_trim_map(vp, va_axis=va, gamma_axis=ga)
    for i in range(va.size):
        for j in range(ga.size):
            assert np.array_equal(m1.points[i][j].u, m2.points[i][j].u)
            assert m1.points[i][j].theta == m2.points[i][j].theta


def _sweep_records(caplog):
    return [tuple(int(g) for g in m.groups()) for m in
            (re.search(r"trim map sweep (\d+): (\d+) solves, (\d+) cells improved",
                       r.getMessage()) for r in caplog.records) if m]


def test_ring_records_count_every_solve(vp, monkeypatch, caplog):
    """The benchmark's 3x3 grid: one INFO record per ring whose solve counts
    add up to the point solves made, and one DEBUG record per solved cell
    (the mirrored hover column excepted) naming the start that won."""
    calls = []
    solve = trim.solve_trim_point
    monkeypatch.setattr(trim, "solve_trim_point",
                        lambda *a, **k: calls.append(a[:2]) or solve(*a, **k))
    caplog.set_level(logging.DEBUG, logger="tiltwing.trim")
    tmap = build_trim_map(vp, va_axis=np.array([0.0, 4.0, 8.0]),
                          gamma_axis=np.radians([-5.0, 0.0, 5.0]))
    rings = _sweep_records(caplog)
    assert [r[0] for r in rings] == [0, 1, 2]
    assert sum(r[1] for r in rings) == len(calls) <= 20
    won = [r.getMessage() for r in caplog.records
           if r.levelno == logging.DEBUG and "won" in r.getMessage()]
    assert len(won) == 7
    assert won[0] == "trim map cell (0, 1): start from the seed guess won"
    assert tmap.n_feasible == 9


def _fake_solver(bad: set, calls: list):
    """Stand-in for the point solve: cells in ``bad`` never turn feasible;
    the others return their guess shifted by the operating point."""
    def solve(v_a, gamma, ig, vp, neighbors=None):
        cell = (int(v_a) - 1, int(gamma))  # grid index on the test's axes
        calls.append(cell)
        z = np.asarray(ig, dtype=float) + 0.01 * v_a + 0.001 * gamma
        ok = cell not in bad
        return TrimPoint(v_a=v_a, gamma=gamma, u=z[:5], theta=float(z[5]),
                         res_v=0.0 if ok else 1.0, res_theta=0.0,
                         cost=float(np.sum(z ** 2)), feasible=ok)
    return solve


def test_front_order_and_cells_without_a_start(vp, monkeypatch, caplog):
    """Cells go ring by ring, then by Manhattan distance, then by index. A
    cell with no feasible neighbor at its turn is retried after the pass
    from a neighbor that turned feasible later in it; one that still has
    none is solved from the seed guess."""
    calls = []
    monkeypatch.setattr(trim, "solve_trim_point",
                        _fake_solver({(1, 0), (1, 1)}, calls))
    caplog.set_level(logging.DEBUG, logger="tiltwing.trim")
    seed_ig = np.zeros(6)
    # seed cell (0, 0); at its turn (2, 0) touches only bad or unsolved cells
    tmap = build_trim_map(vp, va_axis=np.array([1.0, 2.0, 3.0]),
                          gamma_axis=np.array([0.0, 1.0, 2.0]),
                          seed=(1.0, 0.0, seed_ig))
    order = [c for k, c in enumerate(calls) if k == 0 or calls[k - 1] != c]
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1),
                     (2, 2), (2, 0)]
    assert all(p is not None for row in tmap.points for p in row)
    won = {r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG}
    assert "trim map cell (2, 0): start from cell (2, 1) won" in won
    assert "trim map cell (2, 1): start from cell (1, 2) won" in won
    rings = _sweep_records(caplog)
    assert [r[0] for r in rings] == [0, 1, 2, 3]
    assert sum(r[1] for r in rings) == len(calls)

    calls.clear()
    caplog.clear()
    monkeypatch.setattr(trim, "solve_trim_point", _fake_solver({(1, 0)}, calls))
    tmap = build_trim_map(vp, va_axis=np.array([1.0, 2.0, 3.0]),
                          gamma_axis=np.array([0.0]), seed=(1.0, 0.0, seed_ig))
    assert calls == [(0, 0), (1, 0), (2, 0)]
    assert np.array_equal(tmap.points[2][0].z, seed_ig + 0.03)
    assert "trim map cell (2, 0): start from the seed guess won" in caplog.messages
    assert _sweep_records(caplog) == [(0, 1, 1), (1, 1, 1), (2, 0, 0), (3, 1, 1)]


def test_infeasible_seed_aborts(vp):
    bad_ig = np.zeros(6)  # zero throttle cannot hover
    with pytest.raises(TrimError, match="seed"):
        build_trim_map(vp, va_axis=np.array([0.0]),
                       gamma_axis=np.array([0.0]),
                       seed=(0.0, 0.0, bad_ig))


def test_infeasible_seed_stops_the_build_after_one_solve(vp, monkeypatch):
    """An infeasible seed cell ends the build before any other cell is
    solved."""
    calls = []
    monkeypatch.setattr(trim, "solve_trim_point", _fake_solver({(0, 0)}, calls))
    with pytest.raises(TrimError, match="seed"):
        build_trim_map(vp, va_axis=np.array([1.0, 2.0, 3.0]),
                       gamma_axis=np.array([0.0, 1.0, 2.0]),
                       seed=(1.0, 0.0, np.zeros(6)))
    assert calls == [(0, 0)]


def test_one_neighbor_scan_gives_distinct_starts_and_every_neighbor_as_context(
        vp, monkeypatch):
    """A cell is solved once from each distinct feasible neighboring
    solution, and each of those solves has every feasible neighbor in its
    cost: the mirrored hover cells share one z, so they give one start, and
    each of them counts in the context."""
    seen, fake = {}, _fake_solver(set(), [])

    def solve(v_a, gamma, ig, vp, neighbors=None):
        seen.setdefault((v_a, gamma), []).append((ig, neighbors))
        return fake(v_a, gamma, ig, vp, neighbors)

    monkeypatch.setattr(trim, "solve_trim_point", solve)
    gamma_axis = np.radians([-5.0, 0.0, 5.0])
    tmap = build_trim_map(vp, va_axis=np.array([0.0, 4.0]), gamma_axis=gamma_axis)
    hover, level = tmap.points[0][1].z, tmap.points[1][1].z
    assert not np.array_equal(hover, level)
    # cell (1, 0) at its turn: the mirrored (0, 0), the hover cell (0, 1)
    # and (1, 1), solved before it in ring 1
    calls = seen[(4.0, float(gamma_axis[0]))]
    assert [ig.tolist() for ig, _ in calls] == [hover.tolist(), level.tolist()]
    for _, neighbors in calls:
        assert [z.tolist() for z in neighbors] == \
            [hover.tolist(), hover.tolist(), level.tolist()]


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


@pytest.mark.parametrize("old, new, message", [
    ("w_power=0.01", "w_powr=0.01", "unknown {path} weights keys ['w_powr']"),
    ("w_power=0.01", "w_power=nan", "{path} weights.w_power must be finite, got nan"),
], ids=["unknown_key", "non_finite"])
def test_load_refuses_bad_weights(tmp_path, committed_map_path, old, new, message):
    """The weights lines are read like any other input: a misspelt weight
    would leave its default in place, and a nan one would load."""
    text = committed_map_path.read_text()
    assert text.count(old) == 1
    path = tmp_path / "map.csv"
    path.write_text(text.replace(old, new))
    with pytest.raises(TrimError, match=f"^{re.escape(message.format(path=path))}$"):
        load_trim_map(path)


@pytest.mark.parametrize("column, value", [
    ("theta_t", "nan"), ("va", "inf"), ("cost", "-inf"),
    ("feasible", "0.5"), ("feasible", "nan"), ("feasible", "2")])
def test_load_rejects_non_finite_values_and_other_feasible_flags(
        tmp_path, committed_map_path, column, value):
    lines = committed_map_path.read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("4.0,0.0,"))
    row = lines[k].split(",")
    row[CSV_HEADER.split(",").index(column)] = value
    lines[k] = ",".join(row)
    path = tmp_path / "map.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrimError, match=re.escape(f"{path} line {k + 1}: ")):
        load_trim_map(path)


def test_load_rejects_a_second_row_for_a_cell(tmp_path, committed_map_path):
    lines = committed_map_path.read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("4.0,0.0,"))
    path = tmp_path / "map.csv"
    path.write_text("\n".join([*lines, lines[k]]) + "\n")
    with pytest.raises(TrimError, match=re.escape(
            f"{path} line {len(lines) + 1}: second row for the cell va=4.0, gamma=0.0")):
        load_trim_map(path)


@pytest.mark.parametrize("dropped, cell", [
    (("20.0,0.17453292519943295,",), "va=20.0, gamma=0.17453292519943295"),
    (("8.0,0.0,", "4.0,0.08726646259971647,"), "va=4.0, gamma=0.08726646259971647"),
], ids=["last_row", "two_rows"])
def test_load_names_the_first_cell_without_a_row(tmp_path, committed_map_path,
                                                 dropped, cell):
    lines = [line for line in committed_map_path.read_text().splitlines()
             if not line.startswith(dropped)]
    path = tmp_path / "map.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrimError, match=re.escape(
            f"{path}: trim map grid is incomplete, no row for the cell {cell}")):
        load_trim_map(path)


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
    assert shaft_power(vp2, act) == pytest.approx(power, rel=1e-12)
