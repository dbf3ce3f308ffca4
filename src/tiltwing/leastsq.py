"""Bound-constrained Levenberg-Marquardt for small dense problems.

Minimizes 0.5 * ||r(x)||^2 subject to box bounds. Jacobians are numerical
(central differences with relative step ``REL_STEP``). Steps are damped
Gauss-Newton solves projected onto the box; the damping parameter adapts on
the gain ratio between actual and predicted reduction. The solve stops as
converged when the projected gradient's inf-norm falls below ``GRAD_TOL``
or the step norm below ``STEP_TOL``, and unconverged after ``max_iter``
iterations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REL_STEP = 1e-6      # relative central-difference step
STEP_TOL = 1e-10     # convergence on the step norm
GRAD_TOL = 1e-8      # convergence on the projected gradient's inf-norm


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    residual: np.ndarray
    cost: float                  # 0.5 * ||r||^2
    grad_norm: float
    n_iter: int
    n_fev: int
    converged: bool
    message: str


def numerical_jacobian(fun, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at ``x``, where it is ``r0``."""
    x = np.asarray(x, dtype=float)
    m, n = r0.size, x.size
    J = np.empty((m, n))
    for j in range(n):
        h = REL_STEP * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return J


def projected_gradient(g: np.ndarray, x: np.ndarray, lb: np.ndarray,
                       ub: np.ndarray) -> np.ndarray:
    """Gradient with components pointing out of active bounds zeroed."""
    pg = g.copy()
    at_lo = x <= lb + 1e-12
    at_hi = x >= ub - 1e-12
    pg[at_lo & (g > 0.0)] = 0.0
    pg[at_hi & (g < 0.0)] = 0.0
    return pg


def least_squares_lm(fun, x0, lb, ub, max_iter: int) -> LeastSquaresResult:
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        raise ValueError("lower bound exceeds upper bound")
    x = np.clip(x, lb, ub)

    n_fev = 0

    def evaluate(xv):
        nonlocal n_fev
        n_fev += 1
        return np.asarray(fun(xv), dtype=float)

    r = evaluate(x)
    cost = 0.5 * float(r @ r)
    J = numerical_jacobian(fun, x, r)
    n_fev += 2 * n
    g = J.T @ r
    mu = 1e-3 * max(float(np.max(np.sum(J * J, axis=0))), 1e-12)

    message = "max iterations reached"
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        pg = projected_gradient(g, x, lb, ub)
        if np.max(np.abs(pg)) < GRAD_TOL:
            converged, message = True, "projected gradient below tolerance"
            break

        A = J.T @ J
        diag = np.maximum(np.diag(A), 1e-12)
        step = None
        while True:
            try:
                step = np.linalg.solve(A + mu * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                break
            mu *= 4.0
            if mu > 1e16:
                message = "singular normal equations"
                break
        if step is None or not np.all(np.isfinite(step)):
            break

        x_new = np.clip(x + step, lb, ub)
        actual_step = x_new - x
        if np.linalg.norm(actual_step) < STEP_TOL:
            converged, message = True, "step below tolerance"
            break

        r_new = evaluate(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        predicted = -float(g @ actual_step) \
            - 0.5 * float(actual_step @ (A @ actual_step))
        rho = (cost - cost_new) / predicted if predicted > 0.0 else -1.0

        if cost_new < cost:
            x, r, cost = x_new, r_new, cost_new
            J = numerical_jacobian(fun, x, r)
            n_fev += 2 * n
            g = J.T @ r
            mu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3) if rho > 0 \
                else mu * 2.0
            mu = max(mu, 1e-14)
        else:
            mu *= 4.0
            if mu > 1e16:
                message = "damping exhausted"
                break

    pg = projected_gradient(g, x, lb, ub)
    return LeastSquaresResult(x=x, residual=r, cost=cost,
                              grad_norm=float(np.max(np.abs(pg))),
                              n_iter=n_iter, n_fev=n_fev,
                              converged=converged, message=message)
