"""Aerodynamic force and moment model.

Builds the net body-frame wrench from three propellers (thrust, normal
force, reactive torque, advance-ratio dependent coefficients), airfoil
segments over the full +-180 deg angle-of-attack range (pre-stall
linear/quadratic coefficients blended into flat-plate laws), propeller
slipstream from disk-actuator theory immersing downstream segments, and a
quadratic-form fuselage drag.

All public operations are pure functions. `body_wrench` (and
`total_wrench`, its rigid-body-state front end) evaluates the whole vehicle
in one pass of Python float arithmetic, one propeller and one segment at a
time; on arrays of three propellers and a dozen segments, numpy's fixed
cost per call would outweigh the arithmetic. It returns one result shape:
the net wrench and the `FlowTables` of the evaluation. Those are the records
its loops build as they go, one `PropFlow` per propeller and one `SegFlow`
per segment, each holding that source's geometry, local flow, force and
moment as Python floats, plus the fuselage force. `advance_ratio` and
`airfoil_coefficients` are the per-element laws it calls.

Given ``prior``, the pair of an earlier call at the same airspeed, rate and
wing tilt, `body_wrench` rebuilds only the records that the changed commands
move (a throttle its propeller and the segments in its slipstream, ``tt``
the tail propeller and its slipstream, a surface the segments it deflects)
and sums all records again, so that a step of a few commands costs a
fraction of a full evaluation and gives its bits.
"""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .vehicle import (ActuatorSet, AirfoilSegmentParams, BINDING_TO_ACTUATOR,
                      PropellerParams, VehicleParams)

if TYPE_CHECKING:
    from .dynamics import RigidBodyState

# Below this speed a propeller is treated as stopped and its advance ratio
# is defined as zero.
ETA_MIN = 1.0  # rev/s

# the commands `body_wrench` reads, in the order `FlowTables.inputs` holds them
_COMMANDS = ("pl", "pr", "pt", "al", "ar", "e", "r", "tt")
_commands_of = operator.attrgetter(*(f"delta_{n}" for n in _COMMANDS))
_wrench_of = operator.attrgetter("force", "moment")


@dataclass
class ForceMoment:
    """Body-frame force [N] and moment [N m] about the CG."""

    force: np.ndarray
    moment: np.ndarray


def advance_ratio(prop: PropellerParams, eta: float, v_axial: float) -> float:
    """Advance ratio, zero for a stopped prop, clamped so C_T stays >= 0."""
    if eta < ETA_MIN:
        return 0.0
    J = v_axial / (eta * prop.diameter)
    jmax = prop.advance_ratio_max
    return 0.0 if J < 0.0 else (jmax if J > jmax else J)


def deflection_incidence(seg: AirfoilSegmentParams) -> float:
    """Equivalent-incidence factor of a surface deflection, C_Ldelta/C_Lalpha.

    A deflection shifts the lift curve; the quadratic drag term is evaluated
    at the shifted effective incidence so that deflection-generated lift
    carries its induced drag.
    """
    return seg.cl_delta / seg.cl_alpha if seg.cl_alpha != 0.0 else 0.0


def airfoil_coefficients(seg: AirfoilSegmentParams, alpha: float,
                         zeta_cs: float) -> tuple[float, float, float, float]:
    """(C_L, C_D, C_M, lam), continuous in alpha over [-pi, pi].

    lam is the weight of the pre-stall model: 1 inside the stall band, 0 in
    deep stall, linear over [alpha_s - blend, alpha_s + blend] at both
    edges. The rest goes to the flat-plate laws, periodic in alpha at +-pi.
    """
    hw = seg.blend_halfwidth
    t_pos = (alpha - (seg.alpha_stall_pos - hw)) / (2.0 * hw)
    t_neg = ((seg.alpha_stall_neg + hw) - alpha) / (2.0 * hw)
    t = t_pos if t_pos > t_neg else t_neg
    lam = 1.0 - (0.0 if t < 0.0 else (1.0 if t > 1.0 else t))
    cl_pre = seg.cl0 + seg.cl_alpha * alpha + seg.cl_delta * zeta_cs
    incidence = alpha + deflection_incidence(seg) * zeta_cs
    cd_pre = seg.cd0 + seg.cd_alpha2 * (incidence * incidence)
    cm_pre = seg.cm0 + seg.cm_alpha * alpha + seg.cm_delta * zeta_cs
    s = math.sin(alpha)
    cl_fp = seg.fp_cl45 * math.sin(2.0 * alpha)
    cd_fp = seg.fp_cd_min + (seg.fp_cd90 - seg.fp_cd_min) * (s * s)
    sign = 1.0 if alpha > 0.0 else (-1.0 if alpha < 0.0 else 0.0)
    cm_fp = -seg.fp_cm_max * math.sin(sign * (alpha * alpha) / math.pi)
    return (lam * cl_pre + (1.0 - lam) * cl_fp,
            lam * cd_pre + (1.0 - lam) * cd_fp,
            lam * cm_pre + (1.0 - lam) * cm_fp,
            lam)


# ---------------------------------------------------------------------------
# Full-vehicle evaluation
# ---------------------------------------------------------------------------

# segment axes (e_x, e_y, e_z) before the wing tilt: wing and horizontal
# tail in the body axes, the vertical tail with its span along -z
_SEG_AXES = {
    "wing": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "htail": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "vtail": ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)),
}


class _Segment(NamedTuple):
    """Constants of one segment; ``cp`` and the axes are pre-tilt."""

    params: AirfoilSegmentParams
    is_wing: bool
    cp: tuple[float, float, float]
    e_x: tuple[float, float, float]
    e_y: tuple[float, float, float]
    e_z: tuple[float, float, float]
    slip: int                 # row of the propeller it sits behind, or -1
    actuator: str | None      # the actuator deflecting it
    gain: float               # local deflection per actuator deflection
    area: float
    moment_scale: float       # pitching moment per rho V^2 C_M


class _VehicleTables:
    """Per-vehicle constants of `body_wrench` as Python floats, built once."""

    def __init__(self, vp: VehicleParams):
        self.pivot = tuple(float(x) for x in vp.wing.pivot)
        self.props = [(p, *(float(x) for x in p.hub_offset)) for p in vp.propellers]
        prop_index = {p.name: i for i, p in enumerate(vp.propellers)}
        self.segs: list[_Segment] = []
        # per surface actuator, one tuple of floats per segment it deflects: (row,
        # gain, cl_delta, cd_alpha2, defl_incidence, cm_delta, area, moment_scale)
        self.surface_rows: dict[str, list[tuple]] = {}
        for i, s in enumerate(vp.segments):
            seg = _Segment(s, s.kind == "wing", tuple(float(x) for x in s.cp),
                           *_SEG_AXES[s.kind], prop_index.get(s.slipstream, -1),
                           BINDING_TO_ACTUATOR.get(s.control), float(s.control_gain),
                           s.chord * s.span, 0.5 * (s.chord * s.chord) * s.span)
            self.segs.append(seg)
            if seg.actuator is not None:
                self.surface_rows.setdefault(seg.actuator, []).append(
                    (i, seg.gain, s.cl_delta, s.cd_alpha2, deflection_incidence(s),
                     s.cm_delta, seg.area, seg.moment_scale))
        # per command of _COMMANDS, the propeller and segment rows it moves: a throttle
        # its propeller (tt the tail one) and that slipstream, a surface what it deflects
        self.moves = []
        for name in _COMMANDS:
            p_rows = {i for i, p in enumerate(vp.propellers)
                      if p.name == name or (name == "tt" and p.mount != "wing")}
            self.moves.append((p_rows, {i for i, seg in enumerate(self.segs)
                                        if seg.slip in p_rows or seg.actuator == name}))


def _vehicle_tables(vp: VehicleParams) -> _VehicleTables:
    if vp._aero_tables is None:
        vp._aero_tables = _VehicleTables(vp)
    return vp._aero_tables


Vec3 = tuple[float, float, float]


class PropFlow(NamedTuple):
    """One propeller of an evaluation: geometry, inflow and wrench."""

    r: Vec3          # hub position
    axis: Vec3       # forward axis
    radial: Vec3     # unit radial inflow, zero vector when there is none
    force: Vec3
    moment: Vec3     # about the CG, reactive torque included
    eta: float
    v_axial: float
    v_radial: float
    thrust: float
    wake: Vec3       # slipstream velocity added behind the disk


class SegFlow(NamedTuple):
    """One airfoil segment of an evaluation: frame, local flow and wrench.

    Re-evaluating from a ``prior`` pair keeps this record unless a changed
    command deflects the segment or drives the propeller it sits behind.
    """

    r: Vec3          # centre of pressure
    ey: Vec3         # span axis
    e_lift: Vec3
    e_drag: Vec3
    force: Vec3
    moment: Vec3     # about the CG
    speed: float
    alpha: float
    lam: float       # pre-stall weight
    stalled: bool


class FlowTables(NamedTuple):
    """Per-source records of a full-vehicle evaluation, body frame.

    ``props`` follow vp.propellers and ``segs`` vp.segments. The controllers
    read them to build local actuator models at the current operating point
    without re-deriving geometry; the run log and the cruise linearization
    read the per-source forces. The net wrench is the sum of the propeller
    and segment wrenches and ``fus_force`` (the fuselage has no moment).
    ``inputs`` records the operating point and commands of the evaluation,
    so that `body_wrench` given this pair as ``prior`` finds what moved.
    """

    props: list[PropFlow]
    segs: list[SegFlow]
    fus_force: Vec3
    inputs: bytes    # airspeed, rate, zeta_w and _COMMANDS as 15 packed doubles


def _sum_wrenches(records) -> tuple[float, ...]:
    """Force and moment sums of the records, added in order from +0.0."""
    fx = fy = fz = mx = my = mz = 0.0
    for (f0, f1, f2), (m0, m1, m2) in map(_wrench_of, records):
        fx, fy, fz, mx, my, mz = fx + f0, fy + f1, fz + f2, mx + m0, my + m1, mz + m2
    return fx, fy, fz, mx, my, mz


def body_wrench(v_a_body: np.ndarray, omega: np.ndarray, act: ActuatorSet,
                vp: VehicleParams, prior: tuple | None = None
                ) -> tuple[ForceMoment, FlowTables]:
    """Net wrench in body axes from body-frame airspeed and angular rate,
    and the per-source records of the evaluation.

    Propellers are evaluated first; their thrusts drive the slipstream
    added to bound segments; segment and fuselage wrenches follow.
    Hot path for the trim solver and closed-loop simulation: every
    propeller and segment runs in Python float arithmetic, with one
    `np.arctan2` over the segments' angles of attack. A non-finite wrench
    raises `FloatingPointError`.

    ``prior`` is a pair this function returned for the same vehicle. If it
    holds this call's airspeed, rate and ``zeta_w`` bit for bit, the loops
    rebuild only the records of the sources that the commands whose bits
    differ move, and reuse the others; if no command differs, ``prior`` is
    the result. Either way the result is the full evaluation's, bit for bit.
    """
    t = _vehicle_tables(vp)
    rho = vp.rho
    vbx, vby, vbz = float(v_a_body[0]), float(v_a_body[1]), float(v_a_body[2])
    ox, oy, oz = float(omega[0]), float(omega[1]), float(omega[2])
    px, py, pz = t.pivot
    cw, sw = math.cos(act.zeta_w), math.sin(act.zeta_w)
    inputs = struct.pack("15d", vbx, vby, vbz, ox, oy, oz, act.zeta_w, *_commands_of(act))
    prop_rows, seg_rows = range(len(t.props)), range(len(t.segs))
    props, segs = [None] * len(t.props), [None] * len(t.segs)
    if prior is not None and inputs[:56] == prior[1].inputs[:56]:
        prop_rows, seg_rows = set(), set()
        for k, (p, s) in enumerate(t.moves, 7):
            if inputs[8 * k:8 * k + 8] != prior[1].inputs[8 * k:8 * k + 8]:
                prop_rows |= p
                seg_rows |= s
        if not prop_rows and not seg_rows:
            return prior
        props, segs = list(prior[1].props), list(prior[1].segs)

    for i in prop_rows:
        prop, hx, hy, hz = t.props[i]
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
        J = advance_ratio(prop, eta, v_ax)
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
        wx = wy = wz = 0.0
        if eta >= ETA_MIN and (thrust > 0.0 or v_ax < 0.0):
            radicand = v_ax * v_ax + 2.0 * max(thrust, 0.0) / (rho * prop.disk_area)
            w_mag = 0.5 * (-v_ax + math.sqrt(radicand)) if radicand > 0.0 else 0.5 * -v_ax
            wx, wy, wz = ax * w_mag, ay * w_mag, az * w_mag
        if v_rad > 1e-12:
            nx, ny, nz = urx / v_rad, ury / v_rad, urz / v_rad
        else:
            nx = ny = nz = 0.0
        props[i] = PropFlow((rx, ry, rz), (ax, ay, az), (nx, ny, nz),
                            (pfx, pfy, pfz), (pmx, pmy, pmz),
                            eta, v_ax, v_rad, thrust, (wx, wy, wz))

    # segment flow at the current wing tilt: wing axes take the tilt
    # rotation's columns, since their pre-tilt axes are the body axes
    flows = []
    tan_alpha = ([], [])
    for i in seg_rows:
        _, is_wing, (cx, cy, cz), e_x, (ey0, ey1, ey2), e_z, slip, _, _, _, _ = t.segs[i]
        if is_wing:
            rx = px + cw * cx + sw * cz
            ry = py + cy
            rz = pz - sw * cx + cw * cz
            ex0, ex1, ex2 = cw, 0.0, -sw
            ez0, ez1, ez2 = sw, 0.0, cw
        else:
            rx, ry, rz = cx, cy, cz
            ex0, ex1, ex2 = e_x
            ez0, ez1, ez2 = e_z
        u0 = vbx + oy * rz - oz * ry
        u1 = vby + oz * rx - ox * rz
        u2 = vbz + ox * ry - oy * rx
        if slip >= 0:
            wx, wy, wz = props[slip].wake
            u0, u1, u2 = u0 + wx, u1 + wy, u2 + wz
        u_ey = u0 * ey0 + u1 * ey1 + u2 * ey2
        l0, l1, l2 = u0 - u_ey * ey0, u1 - u_ey * ey1, u2 - u_ey * ey2
        V2 = l0 * l0 + l1 * l1 + l2 * l2
        V = math.sqrt(V2)
        d = V if V > 1e-12 else 1.0
        ed0, ed1, ed2 = -l0 / d, -l1 / d, -l2 / d
        tan_alpha[0].append(l0 * ez0 + l1 * ez1 + l2 * ez2)
        tan_alpha[1].append(l0 * ex0 + l1 * ex1 + l2 * ex2)
        flows.append((i, rx, ry, rz, ey0, ey1, ey2,
                      ed1 * ey2 - ed2 * ey1, ed2 * ey0 - ed0 * ey2, ed0 * ey1 - ed1 * ey0,
                      ed0, ed1, ed2, V, V2))
    alpha = np.arctan2(*tan_alpha)

    for (i, rx, ry, rz, ey0, ey1, ey2, el0, el1, el2, ed0, ed1, ed2, V, V2), a \
            in zip(flows, alpha.tolist()):
        seg, _, _, _, _, _, _, actuator, gain, area, moment_scale = t.segs[i]
        zeta = gain * act.position(actuator, vp) if actuator is not None else 0.0
        cl, cd, cm, lam = airfoil_coefficients(seg, a, zeta)
        q_area = 0.5 * rho * V2 * area
        f0 = q_area * (cl * el0 + cd * ed0)
        f1 = q_area * (cl * el1 + cd * ed1)
        f2 = q_area * (cl * el2 + cd * ed2)
        mom_span = rho * V2 * cm * moment_scale
        m0 = mom_span * ey0 + (ry * f2 - rz * f1)
        m1 = mom_span * ey1 + (rz * f0 - rx * f2)
        m2 = mom_span * ey2 + (rx * f1 - ry * f0)
        stalled = not (seg.alpha_stall_neg < a < seg.alpha_stall_pos)
        segs[i] = SegFlow((rx, ry, rz), (ey0, ey1, ey2), (el0, el1, el2),
                          (ed0, ed1, ed2), (f0, f1, f2), (m0, m1, m2),
                          V, a, lam, stalled)

    ffx = -0.5 * rho * vp.fuselage.cd_x * vbx * abs(vbx)
    ffy = -0.5 * rho * vp.fuselage.cd_y * vby * abs(vby)
    ffz = -0.5 * rho * vp.fuselage.cd_z * vbz * abs(vbz)

    # the net wrench adds the segments in row order, then the fuselage
    # force, then the propeller sums: that order fixes its last bits
    sfx, sfy, sfz, smx, smy, smz = _sum_wrenches(segs)
    fx, fy, fz, mx, my, mz = _sum_wrenches(props)
    f0, f1, f2 = sfx + ffx + fx, sfy + ffy + fy, sfz + ffz + fz
    m0, m1, m2 = smx + mx, smy + my, smz + mz
    if not math.isfinite(f0 + f1 + f2) or not math.isfinite(m0 + m1 + m2):
        raise FloatingPointError("non-finite aerodynamic wrench")

    return (ForceMoment(force=np.array((f0, f1, f2)), moment=np.array((m0, m1, m2))),
            FlowTables(props, segs, (ffx, ffy, ffz), inputs))


def total_wrench(state: "RigidBodyState", act: ActuatorSet, vp: VehicleParams,
                 wind: np.ndarray, prior: tuple | None = None
                 ) -> tuple[ForceMoment, FlowTables]:
    """`body_wrench` for a rigid-body state, actuator state and inertial wind."""
    return body_wrench(state.R_IB.T @ (state.v - wind), state.omega, act, vp, prior)
