"""Single-element reference of the aerodynamic model.

One propeller, segment or fuselage at a time, in numpy vector math. The
model itself (`tiltwing.aero.body_wrench`) evaluates the whole vehicle in
one pass; `test_aero` checks it against these operations source by source.
The airfoil coefficients and the advance ratio are the model's own
functions, shared by both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from rotation_reference import rot_x, rot_y
from tiltwing.aero import ETA_MIN, advance_ratio, airfoil_coefficients
from tiltwing.vehicle import (ActuatorSet, AirfoilSegmentParams, BINDING_TO_ACTUATOR,
                              FuselageParams, PropellerParams, TAIL_PROPELLER,
                              VehicleParams)


class Wrench(NamedTuple):
    """Body-frame force [N] and moment [N m] about the CG of one source."""

    force: np.ndarray
    moment: np.ndarray


@dataclass
class LocalFlow:
    """Air-relative flow at one point, plus caller-context decomposition.

    At a propeller: (v_axial, v_radial, axis, radial) with v_radial >= 0.
    At a segment: angle of attack, lift-drag-plane speed and directions.
    """

    u_a: np.ndarray
    position: np.ndarray | None = None
    # propeller context
    v_axial: float = 0.0
    v_radial: float = 0.0
    axis: np.ndarray | None = None
    radial: np.ndarray | None = None
    # segment context
    alpha: float = 0.0
    speed: float = 0.0
    e_lift: np.ndarray | None = None
    e_drag: np.ndarray | None = None
    e_span: np.ndarray | None = None


def local_airspeed(r: np.ndarray, v_a_body: np.ndarray, omega: np.ndarray,
                   slipstream: np.ndarray | None = None) -> LocalFlow:
    """Local airspeed u_a = v_a + omega x r (+ slipstream) at a body point."""
    u = np.asarray(v_a_body, dtype=float) + np.cross(omega, r)
    if slipstream is not None:
        u = u + slipstream
    return LocalFlow(u_a=u, position=np.asarray(r, dtype=float))


def decompose_at_propeller(flow: LocalFlow, axis: np.ndarray) -> LocalFlow:
    """Split u_a into axial and radial components about a unit prop axis."""
    u = flow.u_a
    v_ax = float(u @ axis)
    u_rad = u - v_ax * axis
    v_rad = float(np.linalg.norm(u_rad))
    if v_rad > 1e-12:
        radial = u_rad / v_rad
    else:
        # any unit vector orthogonal to the axis; the normal force is zero
        seed = np.array([0.0, 1.0, 0.0]) if abs(axis[1]) < 0.9 else np.array([0.0, 0.0, 1.0])
        radial = np.cross(axis, seed)
        radial /= np.linalg.norm(radial)
    flow.axis = np.asarray(axis, dtype=float)
    flow.v_axial = v_ax
    flow.v_radial = v_rad
    flow.radial = radial
    return flow


def decompose_at_segment(flow: LocalFlow, e_x: np.ndarray, e_y: np.ndarray,
                         e_z: np.ndarray) -> LocalFlow:
    """Project u_a into the segment lift-drag plane and derive alpha, e_L, e_D."""
    u = flow.u_a
    u_ldp = u - (u @ e_y) * e_y
    V = float(np.linalg.norm(u_ldp))
    flow.speed = V
    flow.e_span = np.asarray(e_y, dtype=float)
    if V > 1e-12:
        e_drag = -u_ldp / V
    else:
        e_drag = np.zeros(3)
    flow.alpha = float(np.arctan2(u_ldp @ e_z, u_ldp @ e_x))
    flow.e_drag = e_drag
    flow.e_lift = np.cross(e_drag, e_y)
    return flow


# ---------------------------------------------------------------------------
# Geometry as a function of the actuator state
# ---------------------------------------------------------------------------

def wing_tilt_rotation(zeta_w: float) -> np.ndarray:
    """Body-frame rotation applied to wing-fixed vectors at tilt zeta_w."""
    return rot_y(zeta_w)


def propeller_geometry(vp: VehicleParams, prop: PropellerParams,
                       act: ActuatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Hub position and forward (thrust) unit axis in the body frame."""
    if prop.name != TAIL_PROPELLER:
        Rw = wing_tilt_rotation(act.zeta_w)
        return vp.wing.pivot + Rw @ prop.hub_offset, Rw @ np.array([1.0, 0.0, 0.0])
    # tail rotor: thrust up, tilting about body x by the tail tilt angle
    return (prop.hub_offset.astype(float),
            rot_x(act.position("tt", vp)) @ np.array([0.0, 0.0, -1.0]))


_SEG_FRAMES = {
    "wing": (np.eye(3)),
    "htail": (np.eye(3)),
    "vtail": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]).T,
}


def segment_frame(vp: VehicleParams, seg: AirfoilSegmentParams,
                  act: ActuatorSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(r_cp, e_x, e_y, e_z) of a segment at the current wing tilt."""
    base = _SEG_FRAMES[seg.kind]
    if seg.kind == "wing":
        Rw = wing_tilt_rotation(act.zeta_w)
        frame = Rw @ base
        r_cp = vp.wing.pivot + Rw @ seg.cp
    else:
        frame = base
        r_cp = seg.cp.astype(float)
    return r_cp, frame[:, 0], frame[:, 1], frame[:, 2]


def segment_deflection(vp: VehicleParams, seg: AirfoilSegmentParams,
                       act: ActuatorSet) -> float:
    """Local control-surface deflection seen by a segment [rad]."""
    if seg.control == "none":
        return 0.0
    return seg.control_gain * act.position(BINDING_TO_ACTUATOR[seg.control], vp)


# ---------------------------------------------------------------------------
# Propeller
# ---------------------------------------------------------------------------

def propeller_wrench(prop: PropellerParams, eta: float, flow: LocalFlow,
                     rho: float) -> Wrench:
    """Thrust + normal-force wrench of one propeller about the CG.

    F = rho eta^2 D^4 C_T(J) p_par - eta mu_N V_perp p_perp
    M = -rho eta^2 D^5 C_Q(J) eps p_par + r_p x F
    """
    if eta < 0.0:
        raise ValueError(f"propeller speed must be >= 0, got {eta}")
    axis = flow.axis
    J = advance_ratio(prop, eta, flow.v_axial)
    D = prop.diameter
    thrust = rho * eta ** 2 * D ** 4 * (prop.ct0 + prop.ct1 * J)
    normal = eta * prop.normal_force_coeff * flow.v_radial
    force = thrust * axis - normal * flow.radial
    torque = -rho * eta ** 2 * D ** 5 * (prop.cq0 + prop.cq1 * J) * prop.handedness * axis
    moment = torque + np.cross(flow.position, force)
    return Wrench(force, moment)


def induced_velocity(prop: PropellerParams, thrust: float, v_axial: float,
                     rho: float, axis: np.ndarray) -> np.ndarray:
    """Slipstream velocity at the disk from momentum theory.

    w = p_par * 1/2 * (-V_par + sqrt(V_par^2 + 2 T / (rho A))), radicand
    floored at zero; negative thrust returns zero.
    """
    if thrust < 0.0:
        return np.zeros(3)
    radicand = max(v_axial ** 2 + 2.0 * thrust / (rho * prop.disk_area), 0.0)
    w = 0.5 * (-v_axial + np.sqrt(radicand))
    return axis * w


def propeller_slipstream(prop: PropellerParams, eta: float, thrust: float,
                         v_axial: float, rho: float,
                         axis: np.ndarray) -> np.ndarray:
    """Slipstream immersing downstream segments: zero for a stopped prop
    (below ETA_MIN there is no disk actuator), otherwise momentum theory."""
    if eta < ETA_MIN:
        return np.zeros(3)
    return induced_velocity(prop, thrust, v_axial, rho, axis)


# ---------------------------------------------------------------------------
# Segment and fuselage
# ---------------------------------------------------------------------------

def segment_wrench(seg: AirfoilSegmentParams, flow: LocalFlow, zeta_cs: float,
                   rho: float) -> Wrench:
    """Lift/drag/quarter-chord-moment wrench of one segment about the CG."""
    V = flow.speed
    q_area = 0.5 * rho * V ** 2 * seg.chord * seg.span
    cl, cd, cm, _ = airfoil_coefficients(seg, flow.alpha, zeta_cs)
    force = q_area * (cl * flow.e_lift + cd * flow.e_drag)
    moment = (cm * 0.5 * rho * V ** 2 * seg.chord ** 2 * seg.span) * flow.e_span \
        + np.cross(flow.position, force)
    return Wrench(force, moment)


def fuselage_wrench(v_a_body: np.ndarray, fus: FuselageParams,
                    rho: float) -> Wrench:
    """Quadratic-form fuselage drag; no moment."""
    u, v, w = v_a_body
    force = -0.5 * rho * np.array([
        fus.cd_x * u * abs(u),
        fus.cd_y * v * abs(v),
        fus.cd_z * w * abs(w),
    ])
    return Wrench(force, np.zeros(3))
