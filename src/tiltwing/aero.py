"""Aerodynamic force and moment model.

Builds the net body-frame wrench from three propellers (thrust, normal
force, reactive torque, advance-ratio dependent coefficients), airfoil
segments over the full +-180 deg angle-of-attack range (pre-stall
linear/quadratic coefficients blended into flat-plate laws), propeller
slipstream from disk-actuator theory immersing downstream segments, and a
quadratic-form fuselage drag.

All public operations are pure functions. `body_wrench` (and
`total_wrench`, its rigid-body-state front end) runs one vectorized
evaluation over all segments and returns one result shape: the net wrench
and the `FlowTables` of the evaluation, which also hold the force and moment
of every propeller and segment and the fuselage force. The single-element
operations (`propeller_wrench`, `segment_wrench`, ...) implement the
identical math and are cross-checked against the vector path in the test
suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rotations import rot_x, rot_y
from .vehicle import (ActuatorSet, AirfoilSegmentParams, BINDING_TO_ACTUATOR,
                      FuselageParams, PropellerParams, VehicleParams)

if TYPE_CHECKING:
    from .dynamics import RigidBodyState

# Below this speed a propeller is treated as stopped and its advance ratio
# is defined as zero.
ETA_MIN = 1.0  # rev/s


@dataclass
class ForceMoment:
    """Body-frame force [N] and moment [N m] about the CG."""

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
    if prop.mount == "wing":
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

def advance_ratio(prop: PropellerParams, eta: float, v_axial: float) -> float:
    """Advance ratio, zero for a stopped prop, clamped so C_T stays >= 0."""
    if eta < ETA_MIN:
        return 0.0
    return float(np.clip(v_axial / (eta * prop.diameter), 0.0, prop.advance_ratio_max))


def propeller_wrench(prop: PropellerParams, eta: float, flow: LocalFlow,
                     rho: float) -> ForceMoment:
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
    return ForceMoment(force, moment)


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
# Airfoil coefficients
# ---------------------------------------------------------------------------

def flat_plate_coefficients(seg: AirfoilSegmentParams, alpha) -> tuple:
    """Post-stall flat-plate laws; periodic in alpha at +-pi."""
    cl = seg.fp_cl45 * np.sin(2.0 * alpha)
    cd = seg.fp_cd_min + (seg.fp_cd90 - seg.fp_cd_min) * np.sin(alpha) ** 2
    cm = -seg.fp_cm_max * np.sin(np.sign(alpha) * alpha ** 2 / np.pi)
    return cl, cd, cm


def prestall_weight(seg: AirfoilSegmentParams, alpha):
    """Weight of the pre-stall model: 1 inside the stall band, 0 in deep
    stall, linear over [alpha_s - blend, alpha_s + blend] at both edges."""
    hw = seg.blend_halfwidth
    t_pos = np.clip((alpha - (seg.alpha_stall_pos - hw)) / (2.0 * hw), 0.0, 1.0)
    t_neg = np.clip(((seg.alpha_stall_neg + hw) - alpha) / (2.0 * hw), 0.0, 1.0)
    return 1.0 - np.maximum(t_pos, t_neg)


def deflection_incidence(seg: AirfoilSegmentParams) -> float:
    """Equivalent-incidence factor of a surface deflection, C_Ldelta/C_Lalpha.

    A deflection shifts the lift curve; the quadratic drag term is evaluated
    at the shifted effective incidence so that deflection-generated lift
    carries its induced drag.
    """
    return seg.cl_delta / seg.cl_alpha if seg.cl_alpha != 0.0 else 0.0


def airfoil_coefficients(seg: AirfoilSegmentParams, alpha: float,
                         zeta_cs: float = 0.0) -> tuple[float, float, float]:
    """(C_L, C_D, C_M), continuous in alpha over [-pi, pi]."""
    lam = prestall_weight(seg, alpha)
    cl_pre = seg.cl0 + seg.cl_alpha * alpha + seg.cl_delta * zeta_cs
    cd_pre = seg.cd0 + seg.cd_alpha2 * (alpha + deflection_incidence(seg) * zeta_cs) ** 2
    cm_pre = seg.cm0 + seg.cm_alpha * alpha + seg.cm_delta * zeta_cs
    cl_fp, cd_fp, cm_fp = flat_plate_coefficients(seg, alpha)
    return (float(lam * cl_pre + (1.0 - lam) * cl_fp),
            float(lam * cd_pre + (1.0 - lam) * cd_fp),
            float(lam * cm_pre + (1.0 - lam) * cm_fp))


def segment_wrench(seg: AirfoilSegmentParams, flow: LocalFlow, zeta_cs: float,
                   rho: float) -> ForceMoment:
    """Lift/drag/quarter-chord-moment wrench of one segment about the CG."""
    V = flow.speed
    q_area = 0.5 * rho * V ** 2 * seg.chord * seg.span
    cl, cd, cm = airfoil_coefficients(seg, flow.alpha, zeta_cs)
    force = q_area * (cl * flow.e_lift + cd * flow.e_drag)
    moment = (cm * 0.5 * rho * V ** 2 * seg.chord ** 2 * seg.span) * flow.e_span \
        + np.cross(flow.position, force)
    return ForceMoment(force, moment)


def fuselage_wrench(v_a_body: np.ndarray, fus: FuselageParams,
                    rho: float) -> ForceMoment:
    """Quadratic-form fuselage drag; no moment."""
    u, v, w = v_a_body
    force = -0.5 * rho * np.array([
        fus.cd_x * u * abs(u),
        fus.cd_y * v * abs(v),
        fus.cd_z * w * abs(w),
    ])
    return ForceMoment(force, np.zeros(3))


# ---------------------------------------------------------------------------
# Vectorized full-vehicle evaluation
# ---------------------------------------------------------------------------

class _SegmentArrays:
    """Per-segment parameters stacked into arrays for one-shot evaluation."""

    def __init__(self, vp: VehicleParams):
        segs = vp.segments
        n = len(segs)
        self.is_wing = np.array([s.kind == "wing" for s in segs])
        self.wing_rows = np.flatnonzero(self.is_wing)
        self.cp = np.stack([s.cp for s in segs]).astype(float)
        frames = np.stack([_SEG_FRAMES[s.kind] for s in segs])
        self.base_ex = np.ascontiguousarray(frames[:, :, 0])
        self.base_ey = np.ascontiguousarray(frames[:, :, 1])
        self.base_ez = np.ascontiguousarray(frames[:, :, 2])
        self.chord = np.array([s.chord for s in segs])
        self.span = np.array([s.span for s in segs])
        self.area = self.chord * self.span
        for key in ("cl0", "cl_alpha", "cl_delta", "cd0", "cd_alpha2",
                    "cm0", "cm_alpha", "cm_delta",
                    "alpha_stall_neg", "alpha_stall_pos", "blend_halfwidth",
                    "fp_cl45", "fp_cd_min", "fp_cd90", "fp_cm_max"):
            setattr(self, key, np.array([getattr(s, key) for s in segs]))
        self.moment_scale = 0.5 * self.chord ** 2 * self.span  # * rho V^2 cm
        self.defl_incidence = np.where(self.cl_alpha != 0.0,
                                       self.cl_delta / np.where(self.cl_alpha != 0.0,
                                                                self.cl_alpha, 1.0),
                                       0.0)
        prop_index = {p.name: i for i, p in enumerate(vp.propellers)}
        self.slip = np.array([prop_index.get(s.slipstream, -1) for s in segs])
        self.bound_rows = np.flatnonzero(self.slip >= 0)
        self.bound_prop = self.slip[self.bound_rows]
        # per surface actuator, one tuple of floats per segment it deflects: (row,
        # gain, cl_delta, cd_alpha2, defl_incidence, cm_delta, area, moment_scale)
        cols = ([s.control_gain for s in segs], self.cl_delta, self.cd_alpha2,
                self.defl_incidence, self.cm_delta, self.area, self.moment_scale)
        self.surface_rows: dict[str, list[tuple]] = {}
        for i, s in enumerate(segs):
            if s.control != "none":
                self.surface_rows.setdefault(BINDING_TO_ACTUATOR[s.control], []) \
                    .append((i, *(float(c[i]) for c in cols)))
        self.n = n


def _segment_arrays(vp: VehicleParams) -> _SegmentArrays:
    if vp._aero_tables is None:
        vp._aero_tables = _SegmentArrays(vp)
    return vp._aero_tables


def _coefficients_arrays(t: _SegmentArrays, alpha: np.ndarray,
                         zeta_cs: np.ndarray):
    hw = t.blend_halfwidth
    t_pos = np.clip((alpha - (t.alpha_stall_pos - hw)) / (2.0 * hw), 0.0, 1.0)
    t_neg = np.clip(((t.alpha_stall_neg + hw) - alpha) / (2.0 * hw), 0.0, 1.0)
    lam = 1.0 - np.maximum(t_pos, t_neg)
    cl_pre = t.cl0 + t.cl_alpha * alpha + t.cl_delta * zeta_cs
    cd_pre = t.cd0 + t.cd_alpha2 * (alpha + t.defl_incidence * zeta_cs) ** 2
    cm_pre = t.cm0 + t.cm_alpha * alpha + t.cm_delta * zeta_cs
    s2 = np.sin(alpha) ** 2
    cl_fp = t.fp_cl45 * np.sin(2.0 * alpha)
    cd_fp = t.fp_cd_min + (t.fp_cd90 - t.fp_cd_min) * s2
    cm_fp = -t.fp_cm_max * np.sin(np.sign(alpha) * alpha ** 2 / np.pi)
    cl = lam * cl_pre + (1.0 - lam) * cl_fp
    cd = lam * cd_pre + (1.0 - lam) * cd_fp
    cm = lam * cm_pre + (1.0 - lam) * cm_fp
    return cl, cd, cm, lam


@dataclass
class FlowTables:
    """Intermediate flow state and per-source wrenches of a full-vehicle
    evaluation, body frame.

    The controllers read it to build local actuator models at the current
    operating point without re-deriving geometry; the run log and the
    cruise linearization read the per-source forces. The net wrench is the
    sum of the propeller and segment rows and the fuselage force (the
    fuselage has no moment).
    """

    # propellers, in vp.propellers order
    prop_r: np.ndarray        # (3,3) hub positions
    prop_axis: np.ndarray     # (3,3) forward axes
    prop_eta: np.ndarray
    prop_v_axial: np.ndarray
    prop_v_radial: np.ndarray
    prop_radial: np.ndarray   # (3,3), zero vector when no radial inflow
    prop_thrust: np.ndarray
    prop_force: np.ndarray    # (3,3)
    prop_moment: np.ndarray   # (3,3) about the CG, reactive torque included
    # segments, in vp.segments order
    seg_r: np.ndarray         # (n,3)
    seg_ey: np.ndarray
    seg_e_lift: np.ndarray
    seg_e_drag: np.ndarray
    seg_speed: np.ndarray
    seg_alpha: np.ndarray
    seg_lam: np.ndarray       # pre-stall weight
    seg_stalled: np.ndarray
    seg_force: np.ndarray     # (n,3)
    seg_moment: np.ndarray    # (n,3) about the CG
    fus_force: np.ndarray     # (3,)


def body_wrench(v_a_body: np.ndarray, omega: np.ndarray, act: ActuatorSet,
                vp: VehicleParams) -> tuple[ForceMoment, FlowTables]:
    """Net wrench in body axes from body-frame airspeed and angular rate,
    and the flow tables of the evaluation.

    Propellers are evaluated first; their thrusts drive the slipstream
    added to bound segments; segment and fuselage wrenches follow.
    Hot path for the trim solver and closed-loop simulation: propellers run
    in scalar math and segments in stacked array math.
    """
    # non-finite inputs surface as the explicit fault below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return _body_wrench(v_a_body, omega, act, vp)


def _body_wrench(v_a_body, omega, act, vp):
    t = _segment_arrays(vp)
    rho = vp.rho
    vbx, vby, vbz = float(v_a_body[0]), float(v_a_body[1]), float(v_a_body[2])
    ox, oy, oz = float(omega[0]), float(omega[1]), float(omega[2])
    px, py, pz = vp.wing.pivot
    cw, sw = math.cos(act.zeta_w), math.sin(act.zeta_w)

    # one row of scalars per propeller, stacked into an array after the loop
    prop_rows = []
    fx = fy = fz = mx = my = mz = 0.0

    for prop in vp.propellers:
        hx, hy, hz = prop.hub_offset
        if prop.mount == "wing":
            rx = px + cw * hx + sw * hz
            ry = py + hy
            rz = pz - sw * hx + cw * hz
            ax, ay, az = cw, 0.0, -sw
        else:
            rx, ry, rz = hx, hy, hz
            zeta_tt = act.position("tt", vp)
            ctt, stt = math.cos(zeta_tt), math.sin(zeta_tt)
            ax, ay, az = 0.0, stt, -ctt
        eta = act.position(prop.name, vp)
        ux = vbx + oy * rz - oz * ry
        uy = vby + oz * rx - ox * rz
        uz = vbz + ox * ry - oy * rx
        v_ax = ux * ax + uy * ay + uz * az
        urx, ury, urz = ux - v_ax * ax, uy - v_ax * ay, uz - v_ax * az
        v_rad = math.sqrt(urx * urx + ury * ury + urz * urz)
        D = prop.diameter
        if eta < ETA_MIN:
            J = 0.0
        else:
            J = v_ax / (eta * D)
            jmax = prop.advance_ratio_max
            J = 0.0 if J < 0.0 else (jmax if J > jmax else J)
        eta2 = eta * eta
        thrust = rho * eta2 * D ** 4 * (prop.ct0 + prop.ct1 * J)
        torque = -rho * eta2 * D ** 5 * (prop.cq0 + prop.cq1 * J) * prop.handedness
        nf = eta * prop.normal_force_coeff  # * v_rad, folded into u_r below
        pfx = thrust * ax - nf * urx
        pfy = thrust * ay - nf * ury
        pfz = thrust * az - nf * urz
        pmx = torque * ax + ry * pfz - rz * pfy
        pmy = torque * ay + rz * pfx - rx * pfz
        pmz = torque * az + rx * pfy - ry * pfx
        fx += pfx
        fy += pfy
        fz += pfz
        mx += pmx
        my += pmy
        mz += pmz
        wx = wy = wz = 0.0
        if eta >= ETA_MIN and (thrust > 0.0 or v_ax < 0.0):
            radicand = v_ax * v_ax + 2.0 * max(thrust, 0.0) / (rho * prop.disk_area)
            w_mag = 0.5 * (-v_ax + math.sqrt(radicand)) if radicand > 0.0 else 0.5 * -v_ax
            wx, wy, wz = ax * w_mag, ay * w_mag, az * w_mag
        if v_rad > 1e-12:
            nx, ny, nz = urx / v_rad, ury / v_rad, urz / v_rad
        else:
            nx = ny = nz = 0.0
        prop_rows.append((rx, ry, rz, ax, ay, az, nx, ny, nz,
                          pfx, pfy, pfz, pmx, pmy, pmz, wx, wy, wz,
                          eta, v_ax, v_rad, thrust))
    pt = np.array(prop_rows)
    slip_w = pt[:, 15:18]

    # segment frames at the current wing tilt; base wing frames are the
    # identity, so tilted wing rows take the rotation columns directly
    ex, ey, ez = t.base_ex.copy(), t.base_ey, t.base_ez.copy()
    wr = t.wing_rows
    ex[wr] = cw, 0.0, -sw
    ez[wr] = sw, 0.0, cw
    r_cp = t.cp.copy()
    cpw = t.cp[wr]
    r_cp[wr, 0] = px + cw * cpw[:, 0] + sw * cpw[:, 2]
    r_cp[wr, 1] = py + cpw[:, 1]
    r_cp[wr, 2] = pz - sw * cpw[:, 0] + cw * cpw[:, 2]

    rx_, ry_, rz_ = r_cp[:, 0], r_cp[:, 1], r_cp[:, 2]
    u = np.empty((t.n, 3))
    u[:, 0] = vbx + oy * rz_ - oz * ry_
    u[:, 1] = vby + oz * rx_ - ox * rz_
    u[:, 2] = vbz + ox * ry_ - oy * rx_
    u[t.bound_rows] += slip_w[t.bound_prop]

    u_ey = u[:, 0] * ey[:, 0] + u[:, 1] * ey[:, 1] + u[:, 2] * ey[:, 2]
    u_ldp = u - u_ey[:, None] * ey
    V2 = u_ldp[:, 0] ** 2 + u_ldp[:, 1] ** 2 + u_ldp[:, 2] ** 2
    V = np.sqrt(V2)
    e_drag = -u_ldp / np.where(V > 1e-12, V, 1.0)[:, None]
    e_lift = np.empty_like(e_drag)
    e_lift[:, 0] = e_drag[:, 1] * ey[:, 2] - e_drag[:, 2] * ey[:, 1]
    e_lift[:, 1] = e_drag[:, 2] * ey[:, 0] - e_drag[:, 0] * ey[:, 2]
    e_lift[:, 2] = e_drag[:, 0] * ey[:, 1] - e_drag[:, 1] * ey[:, 0]
    alpha = np.arctan2(
        u_ldp[:, 0] * ez[:, 0] + u_ldp[:, 1] * ez[:, 1] + u_ldp[:, 2] * ez[:, 2],
        u_ldp[:, 0] * ex[:, 0] + u_ldp[:, 1] * ex[:, 1] + u_ldp[:, 2] * ex[:, 2])

    zeta_cs = np.zeros(t.n)
    for name, rows in t.surface_rows.items():
        for row, gain, *_ in rows:
            zeta_cs[row] = gain * act.position(name, vp)

    cl, cd, cm, lam = _coefficients_arrays(t, alpha, zeta_cs)
    q_area = (0.5 * rho) * V2 * t.area
    forces = q_area[:, None] * (cl[:, None] * e_lift + cd[:, None] * e_drag)
    mom_span = (rho * V2 * cm) * t.moment_scale
    moments = mom_span[:, None] * ey
    moments[:, 0] += ry_ * forces[:, 2] - rz_ * forces[:, 1]
    moments[:, 1] += rz_ * forces[:, 0] - rx_ * forces[:, 2]
    moments[:, 2] += rx_ * forces[:, 1] - ry_ * forces[:, 0]
    stalled = ~((t.alpha_stall_neg < alpha) & (alpha < t.alpha_stall_pos))

    f_fus = np.array([
        -0.5 * rho * vp.fuselage.cd_x * vbx * abs(vbx),
        -0.5 * rho * vp.fuselage.cd_y * vby * abs(vby),
        -0.5 * rho * vp.fuselage.cd_z * vbz * abs(vbz),
    ])

    force = forces.sum(axis=0) + f_fus
    force[0] += fx
    force[1] += fy
    force[2] += fz
    moment = moments.sum(axis=0)
    moment[0] += mx
    moment[1] += my
    moment[2] += mz

    if not np.isfinite(force.sum()) or not np.isfinite(moment.sum()):
        raise FloatingPointError("non-finite aerodynamic wrench")

    tables = FlowTables(
        prop_r=pt[:, 0:3], prop_axis=pt[:, 3:6], prop_radial=pt[:, 6:9],
        prop_force=pt[:, 9:12], prop_moment=pt[:, 12:15], prop_eta=pt[:, 18],
        prop_v_axial=pt[:, 19], prop_v_radial=pt[:, 20], prop_thrust=pt[:, 21],
        seg_r=r_cp, seg_ey=ey, seg_e_lift=e_lift, seg_e_drag=e_drag,
        seg_speed=V, seg_alpha=alpha, seg_lam=lam, seg_stalled=stalled,
        seg_force=forces, seg_moment=moments, fus_force=f_fus,
    )
    return ForceMoment(force=force, moment=moment), tables


def total_wrench(state: "RigidBodyState", act: ActuatorSet, vp: VehicleParams,
                 wind: np.ndarray | None = None) -> tuple[ForceMoment, FlowTables]:
    """`body_wrench` for a rigid-body state and actuator state."""
    v_air = state.v if wind is None else state.v - np.asarray(wind, dtype=float)
    v_a_body = state.R_IB.T @ v_air
    return body_wrench(v_a_body, state.omega, act, vp)
