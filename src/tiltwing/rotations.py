"""Euler-angle rotations shared by the controllers, the runner and the CLI.

Convention: body frame is forward-right-down, inertial frame is NED. R_IB
maps body vectors into the inertial frame; Euler angles are ZYX
(yaw-pitch-roll). `euler_zyx` is the one implementation of that rotation, in
Python floats as R_IB's 9 row-major entries, its layout in the state's `y`;
`euler_zyx_to_matrix` is its 3x3 array front, `euler_angles` its inverse.
"""
from __future__ import annotations

import math

import numpy as np


def euler_zyx(roll: float, pitch: float, yaw: float) -> tuple[float, ...]:
    """R_z(yaw) R_y(pitch) R_x(roll) as its 9 row-major entries."""
    cy, sy, cp, sp, cr, sr = (f(a) for a in (yaw, pitch, roll) for f in (math.cos, math.sin))
    return (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
            sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
            -sp, cp * sr, cp * cr)


def euler_zyx_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Body-to-inertial rotation from ZYX Euler angles, as a 3x3 array."""
    return np.array(euler_zyx(roll, pitch, yaw)).reshape(3, 3)


def euler_angles(r) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a body-to-inertial rotation given as its 9
    row-major entries."""
    r00, _, _, r10, _, _, r20, r21, r22 = r
    return (math.atan2(r21, r22), math.asin(min(max(-r20, -1.0), 1.0)),
            math.atan2(r10, r00))
