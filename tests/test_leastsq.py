import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from tiltwing.leastsq import (least_squares_lm, numerical_jacobian,
                              projected_gradient)


def test_linear_problem_exact():
    A = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    b = np.array([1.0, 2.0, 0.3])

    res = least_squares_lm(lambda x: A @ x - b, np.zeros(2), np.full(2, -np.inf),
                           np.full(2, np.inf), max_iter=100)
    expected = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(res.x, expected, atol=1e-8)
    assert res.converged


def test_rosenbrock():
    def f(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    res = least_squares_lm(f, np.array([-1.2, 1.0]), np.full(2, -np.inf), np.full(2, np.inf),
                           max_iter=300)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_bounds_respected_and_match_scipy():
    def f(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.3 * x[2]])

    lb = np.array([-2.0, -2.0, 0.5])
    ub = np.array([0.6, 2.0, 3.0])
    x0 = np.array([-1.0, 1.5, 2.0])
    res = least_squares_lm(f, x0, lb, ub, max_iter=500)
    ref = scipy_least_squares(f, x0, bounds=(lb, ub), method="trf",
                              xtol=1e-14, ftol=1e-14, gtol=1e-14)
    assert np.all(res.x >= lb - 1e-12)
    assert np.all(res.x <= ub + 1e-12)
    assert res.cost == pytest.approx(0.5 * float(ref.fun @ ref.fun), rel=1e-4, abs=1e-10)


def test_start_outside_bounds_is_projected():
    res = least_squares_lm(lambda x: x - 3.0, np.array([10.0]),
                           lb=np.array([0.0]), ub=np.array([2.0]), max_iter=100)
    assert res.x[0] == pytest.approx(2.0)


def test_numerical_jacobian_accuracy():
    def f(x):
        return np.array([x[0] ** 2 + np.sin(x[1]), x[0] * x[1]])

    x = np.array([1.3, 0.7])
    J = numerical_jacobian(f, x, f(x))
    J_true = np.array([[2.0 * x[0], np.cos(x[1])], [x[1], x[0]]])
    assert np.allclose(J, J_true, atol=1e-7)


def test_projected_gradient_zeroes_bound_components():
    g = np.array([1.0, -1.0, 1.0, -1.0])
    x = np.array([0.0, 0.0, 1.0, 1.0])
    lb = np.zeros(4)
    ub = np.ones(4)
    pg = projected_gradient(g, x, lb, ub)
    # pushing further out of an active bound is ignored
    assert pg[0] == 0.0      # at lower bound, gradient positive
    assert pg[1] == -1.0     # at lower bound, gradient points inward
    assert pg[2] == 1.0      # at upper bound, gradient points inward
    assert pg[3] == 0.0


def test_invalid_bounds():
    with pytest.raises(ValueError):
        least_squares_lm(lambda x: x, np.zeros(2),
                         lb=np.array([1.0, 0.0]), ub=np.array([0.0, 1.0]), max_iter=100)


def test_random_bounded_problems_match_scipy():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = 4, 7
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(m, n)) * 0.3
        b = rng.normal(size=m)

        def f(x):
            return A @ x + B @ x ** 2 - b

        lb = np.full(n, -0.8)
        ub = np.full(n, 0.8)
        x0 = rng.uniform(-0.5, 0.5, n)
        res = least_squares_lm(f, x0, lb, ub, max_iter=400)
        ref = scipy_least_squares(f, x0, bounds=(lb, ub), method="trf",
                                  xtol=1e-14, ftol=1e-14, gtol=1e-14)
        ref_cost = 0.5 * float(ref.fun @ ref.fun)
        assert res.cost <= ref_cost * (1.0 + 1e-3) + 1e-12
