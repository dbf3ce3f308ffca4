"""Newton-Euler rigid-body dynamics and fixed-step integration.

State of record: inertial position and velocity, body-to-inertial rotation
matrix and body angular rate, as the 18 Python floats of `RigidBodyState.y`
that the tick's readers slice. Integration is classical RK4 in those floats,
as numpy's cost per call outweighs 3-vector arithmetic, and one Bar-Itzhack
step pulls R_IB back to orthonormality after every step. Each stage reads the
float force and moment of one `aero.FlowTables` evaluation, at the airspeed
from `aero.body_airspeed` like every wrench evaluation, so a first stage
handed in by the caller is bit for bit the one the step would evaluate.
"""
from __future__ import annotations

import math

import numpy as np

from .aero import FlowTables, body_airspeed, body_wrench
from .vehicle import ActuatorSet, VehicleParams

DT_MAX = 0.02


class IntegrationFault(RuntimeError):
    """Raised when the state leaves the finite domain during a step."""


class RigidBodyState:
    """x, v inertial; R_IB body-to-inertial; omega body frame. The state is
    ``y``: 18 Python floats, x, v, R_IB row-major and omega. The constructor
    takes 3-vectors and R_IB's rows, and each reads back as an array."""

    def __init__(self, x=(0.0,) * 3, v=(0.0,) * 3, R_IB=np.eye(3), omega=(0.0,) * 3):
        self.y = [*map(float, x), *map(float, v),
                  *(float(c) for row in R_IB for c in row), *map(float, omega)]

    x = property(lambda s: np.array(s.y[:3]))
    v = property(lambda s: np.array(s.y[3:6]))
    R_IB = property(lambda s: np.array(s.y[6:15]).reshape(3, 3))
    omega = property(lambda s: np.array(s.y[15:]))


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


def _orthogonalized(r) -> list[list[float]]:
    """Rows of R (3I - R^T R) / 2 from R's 9 row-major entries: one Bar-Itzhack
    step (IEEE TAES 11(1), 1975), which about squares R's distance from SO(3)."""
    cols = r[0::3], r[1::3], r[2::3]
    # S = (3I - R^T R) / 2, symmetric: (R^T R)_ij is the dot product of columns i and j
    s = [[(1.5 if i == j else 0.0) - 0.5 * (a0 * b0 + a1 * b1 + a2 * b2)
          for j, (b0, b1, b2) in enumerate(cols)] for i, (a0, a1, a2) in enumerate(cols)]
    return [[a0 * s0 + a1 * s1 + a2 * s2 for s0, s1, s2 in s]
            for a0, a1, a2 in (r[0:3], r[3:6], r[6:9])]


def integrate_step(s: RigidBodyState, act: ActuatorSet, vp: VehicleParams,
                   wind: np.ndarray, dt: float,
                   wrench: FlowTables | None = None) -> RigidBodyState:
    """One RK4 step of ``dt`` in ``wind``, actuation held, R re-orthogonalized.
    A given ``wrench``, the first stage's evaluation, must be the one at ``s``,
    ``act``, ``wind``."""
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt}")
    c = _constants(vp)
    y0 = s.y
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
    return RigidBodyState(y[:3], y[3:6], _orthogonalized(y[6:15]), y[15:])
