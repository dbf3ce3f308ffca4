"""Newton-Euler rigid-body dynamics and fixed-step integration.

State of record: inertial position and velocity, body-to-inertial rotation
matrix, body angular rate. Integration is classical RK4 with the rotation
matrix re-orthonormalized (polar projection) after every step.

The step runs in Python floats over the flat state (x, v, R_IB row-major,
omega), as numpy's cost per call outweighs 3-vector arithmetic, and builds
`RigidBodyState` arrays once. Each stage reads the float force and moment of
one `aero.FlowTables` evaluation. Its stages take the airspeed from
`aero.body_airspeed`, as every wrench evaluation does, so a first stage
handed in by the caller is bit for bit the one the step would evaluate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aero import FlowTables, body_airspeed, body_wrench
from .rotations import orthonormalize
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


def _flat(s: RigidBodyState) -> list[float]:
    return [*s.x.tolist(), *s.v.tolist(), *s.R_IB.ravel().tolist(), *s.omega.tolist()]


def _constants(vp: VehicleParams) -> tuple:
    """Mass, gravity, inertia and its inverse (row-major) as floats."""
    return (vp.mass, vp.gravity.tolist(), vp.inertia.ravel().tolist(),
            vp.inertia_inv.ravel().tolist())


def _derivative(y, force, moment, c) -> tuple[float, ...]:
    """The flat state ``y``'s derivative under a body-frame force and moment
    about the CG, with ``c`` from `_constants`:

    x_dot = v
    m v_dot = m g + R_IB F
    R_dot = R_IB [omega]x
    I omega_dot = M - omega x I omega
    """
    _, _, _, vx, vy, vz, r00, r01, r02, r10, r11, r12, r20, r21, r22, wx, wy, wz = y
    (fx, fy, fz), (mx, my, mz) = force, moment
    mass, (gx, gy, gz), (i00, i01, i02, i10, i11, i12, i20, i21, i22), \
        (j00, j01, j02, j10, j11, j12, j20, j21, j22) = c
    hx = i00 * wx + i01 * wy + i02 * wz
    hy = i10 * wx + i11 * wy + i12 * wz
    hz = i20 * wx + i21 * wy + i22 * wz
    tx, ty, tz = mx - (wy * hz - wz * hy), my - (wz * hx - wx * hz), mz - (wx * hy - wy * hx)
    return (vx, vy, vz,
            gx + (r00 * fx + r01 * fy + r02 * fz) / mass,
            gy + (r10 * fx + r11 * fy + r12 * fz) / mass,
            gz + (r20 * fx + r21 * fy + r22 * fz) / mass,
            r01 * wz - r02 * wy, r02 * wx - r00 * wz, r00 * wy - r01 * wx,
            r11 * wz - r12 * wy, r12 * wx - r10 * wz, r10 * wy - r11 * wx,
            r21 * wz - r22 * wy, r22 * wx - r20 * wz, r20 * wy - r21 * wx,
            j00 * tx + j01 * ty + j02 * tz,
            j10 * tx + j11 * ty + j12 * tz,
            j20 * tx + j21 * ty + j22 * tz)


def integrate_step(s: RigidBodyState, act: ActuatorSet, vp: VehicleParams,
                   wind: np.ndarray, dt: float,
                   wrench: FlowTables | None = None) -> RigidBodyState:
    """One RK4 step of ``dt`` in ``wind``, actuation held, R re-orthonormalized.
    A given ``wrench``, the first stage's evaluation, must be the one at ``s``,
    ``act``, ``wind``."""
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt}")
    c = _constants(vp)
    y0 = _flat(s)
    h = 0.5 * dt

    def stage(y):
        ev = body_wrench(body_airspeed(y[6:15], y[3:6], wind), y[15:], act, vp)
        return _derivative(y, ev.force, ev.moment, c)

    try:
        k1 = stage(y0) if wrench is None \
            else _derivative(y0, wrench.force, wrench.moment, c)
        k2 = stage([a + h * b for a, b in zip(y0, k1)])
        k3 = stage([a + h * b for a, b in zip(y0, k2)])
        k4 = stage([a + dt * b for a, b in zip(y0, k3)])
    except FloatingPointError as exc:
        raise IntegrationFault(f"non-finite derivative: {exc}") from exc

    sixth = dt / 6.0
    y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise IntegrationFault(f"non-finite state after step: x={y[:3]}, "
                               f"v={y[3:6]}, omega={y[15:]}")
    y = np.array(y)
    return RigidBodyState(y[:3], y[3:6], orthonormalize(y[6:15].reshape(3, 3)), y[15:])
