"""Numpy reference of the rigid-body step.

The equations of motion and the RK4 step as 3-vector and 3x3 numpy
operations, with the body airspeed as ``R_IB.T @ (v - wind)`` and the
rotation projected onto SO(3) by its polar factor (SVD). The model
(`tiltwing.dynamics`) runs the same step in Python floats and projects with
one Bar-Itzhack step; `test_dynamics` checks it against this reference. The wrench is the model's own
`body_wrench`, shared by both.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tiltwing.aero import body_wrench
from tiltwing.dynamics import RigidBodyState
from tiltwing.vehicle import ActuatorSet, VehicleParams


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ u == cross(v, u)."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(R)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out


class StateDerivative(NamedTuple):
    x_dot: np.ndarray
    v_dot: np.ndarray
    R_dot: np.ndarray
    omega_dot: np.ndarray


def state_derivative(s: RigidBodyState, wrench, vp: VehicleParams) -> StateDerivative:
    """Equations of motion under the body-frame ``wrench.force`` and
    ``wrench.moment`` about the CG."""
    force, moment = np.array(wrench.force), np.array(wrench.moment)
    v_dot = vp.gravity + s.R_IB @ force / vp.mass
    omega_dot = vp.inertia_inv @ (moment - np.cross(s.omega, vp.inertia @ s.omega))
    return StateDerivative(x_dot=s.v.copy(), v_dot=v_dot,
                           R_dot=s.R_IB @ skew(s.omega), omega_dot=omega_dot)


def _deriv(x, v, R, omega, act, vp, wind):
    ev = body_wrench(R.T @ (v - wind), omega, act, vp)
    return state_derivative(RigidBodyState(x, v, R, omega), ev, vp)


def integrate_step(s: RigidBodyState, act: ActuatorSet, vp: VehicleParams,
                   wind: np.ndarray, dt: float) -> RigidBodyState:
    """One RK4 step of ``dt`` in ``wind``, actuation held, R re-orthonormalized."""
    x0, v0, R0, om0 = s.x, s.v, s.R_IB, s.omega
    k1 = _deriv(x0, v0, R0, om0, act, vp, wind)
    k2 = _deriv(x0 + 0.5 * dt * k1[0], v0 + 0.5 * dt * k1[1],
                R0 + 0.5 * dt * k1[2], om0 + 0.5 * dt * k1[3], act, vp, wind)
    k3 = _deriv(x0 + 0.5 * dt * k2[0], v0 + 0.5 * dt * k2[1],
                R0 + 0.5 * dt * k2[2], om0 + 0.5 * dt * k2[3], act, vp, wind)
    k4 = _deriv(x0 + dt * k3[0], v0 + dt * k3[1],
                R0 + dt * k3[2], om0 + dt * k3[3], act, vp, wind)
    sixth = dt / 6.0
    return RigidBodyState(
        x=x0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        v=v0 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        R_IB=orthonormalize(R0 + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
        omega=om0 + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )
