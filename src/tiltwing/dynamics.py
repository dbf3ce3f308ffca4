"""Newton-Euler rigid-body dynamics and fixed-step integration.

State of record: inertial position and velocity, body-to-inertial rotation
matrix, body angular rate. Integration is classical RK4 with the rotation
matrix re-orthonormalized (polar projection) after every step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aero import ForceMoment, body_wrench
from .rotations import cross3, orthonormalize, skew
from .vehicle import ActuatorSet, VehicleParams

DT_MAX = 0.02


class IntegrationFault(RuntimeError):
    """Raised when the state leaves the finite domain during a step."""


@dataclass
class RigidBodyState:
    """x, v inertial; R_IB body-to-inertial; omega body frame."""

    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R_IB: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def copy(self) -> "RigidBodyState":
        return RigidBodyState(self.x.copy(), self.v.copy(),
                              self.R_IB.copy(), self.omega.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))
                    and np.all(np.isfinite(self.R_IB))
                    and np.all(np.isfinite(self.omega)))


class StateDerivative(NamedTuple):
    x_dot: np.ndarray
    v_dot: np.ndarray
    R_dot: np.ndarray
    omega_dot: np.ndarray


def state_derivative(s: RigidBodyState, fm: ForceMoment,
                     vp: VehicleParams) -> StateDerivative:
    """Equations of motion:

    x_dot = v
    m v_dot = m g + R_IB F
    R_dot = R_IB [omega]x
    I omega_dot = M - omega x I omega
    """
    v_dot = vp.gravity + s.R_IB @ fm.force / vp.mass
    omega_dot = vp.inertia_inv @ (fm.moment - cross3(s.omega, vp.inertia @ s.omega))
    return StateDerivative(x_dot=s.v.copy(), v_dot=v_dot,
                           R_dot=s.R_IB @ skew(s.omega), omega_dot=omega_dot)


def _deriv(x, v, R, omega, act, vp, wind):
    fm, _ = body_wrench(R.T @ (v - wind), omega, act, vp)
    return state_derivative(RigidBodyState(x, v, R, omega), fm, vp)


def integrate_step(s: RigidBodyState, act: ActuatorSet, vp: VehicleParams,
                   wind: np.ndarray, dt: float,
                   wrench: ForceMoment | None = None) -> RigidBodyState:
    """One RK4 step of ``dt`` in ``wind``, actuation held, R re-orthonormalized.
    A given ``wrench``, the first stage, must be the one at ``s``, ``act``, ``wind``."""
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt}")
    x0, v0, R0, om0 = s.x, s.v, s.R_IB, s.omega

    try:
        k1 = _deriv(x0, v0, R0, om0, act, vp, wind) if wrench is None \
            else state_derivative(s, wrench, vp)
        k2 = _deriv(x0 + 0.5 * dt * k1[0], v0 + 0.5 * dt * k1[1],
                    R0 + 0.5 * dt * k1[2], om0 + 0.5 * dt * k1[3], act, vp, wind)
        k3 = _deriv(x0 + 0.5 * dt * k2[0], v0 + 0.5 * dt * k2[1],
                    R0 + 0.5 * dt * k2[2], om0 + 0.5 * dt * k2[3], act, vp, wind)
        k4 = _deriv(x0 + dt * k3[0], v0 + dt * k3[1],
                    R0 + dt * k3[2], om0 + dt * k3[3], act, vp, wind)
    except FloatingPointError as exc:
        raise IntegrationFault(f"non-finite derivative: {exc}") from exc

    sixth = dt / 6.0
    out = RigidBodyState(
        x=x0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        v=v0 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        R_IB=R0 + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        omega=om0 + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )
    if not out.is_finite():
        raise IntegrationFault(
            f"non-finite state after step: x={out.x}, v={out.v}, omega={out.omega}")
    out.R_IB = orthonormalize(out.R_IB)
    return out
