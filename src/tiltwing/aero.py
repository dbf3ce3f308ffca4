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
time, on per-vehicle constants kept as flat float tuples; on arrays of
three propellers and a dozen segments, numpy's fixed cost per call would
outweigh the arithmetic. Every caller that evaluates a state takes its body
airspeed from `body_airspeed`, one float function, so that evaluations of
one state agree bit for bit. `body_wrench` returns one record per
evaluation, a `FlowTables`: the net force and moment as float 3-tuples, and
the records its loops build as they go, one `PropFlow` per propeller and one
`SegFlow` per segment, each holding that source's geometry, local flow,
force and moment as Python floats, plus the fuselage force. `advance_ratio`
and `airfoil_coefficients` are the per-element laws it calls.

Given ``prior``, the record of an earlier call at the same airspeed, rate and
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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .vehicle import (ACTUATOR_ORDER, ActuatorSet, AirfoilSegmentParams,
                      BINDING_TO_ACTUATOR, TAIL_PROPELLER, PropellerParams,
                      VehicleParams)

if TYPE_CHECKING:
    from .dynamics import RigidBodyState

# Below this speed a propeller is treated as stopped and its advance ratio
# is defined as zero.
ETA_MIN = 1.0  # rev/s

# the commands `body_wrench` reads, in the order `FlowTables.inputs` holds them
_COMMANDS = ACTUATOR_ORDER[1:]
_commands_of = operator.attrgetter(*(f"delta_{n}" for n in _COMMANDS))
_wrench_of = operator.attrgetter("force", "moment")


def advance_ratio(prop: PropellerParams, eta: float, v_axial: float) -> float:
    """Advance ratio, zero for a stopped prop, clamped so C_T stays >= 0."""
    if eta < ETA_MIN:
        return 0.0
    J = v_axial / (eta * prop.diameter)
    jmax = prop.advance_ratio_max
    return 0.0 if J < 0.0 else (jmax if J > jmax else J)


def airfoil_coefficients(seg: AirfoilSegmentParams, alpha: float,
                         zeta_cs: float) -> tuple[float, float, float, float]:
    """(C_L, C_D, C_M, lam), continuous in alpha over [-pi, pi].

    lam is the weight of the pre-stall model: 1 inside the stall band, 0 in
    deep stall, linear over [alpha_s - blend, alpha_s + blend] at both
    edges. The rest goes to the flat-plate laws, periodic in alpha at +-pi.
    """
    return _airfoil_law(alpha, zeta_cs, _airfoil_constants(seg))


def _airfoil_constants(seg: AirfoilSegmentParams) -> tuple[float, ...]:
    """The law's blend edges and coefficients. A deflection shifts the lift
    curve by kd = C_Ldelta/C_Lalpha per unit; the quadratic drag term takes
    the shifted incidence, so deflection-generated lift carries its drag."""
    hw = seg.blend_halfwidth
    kd = seg.cl_delta / seg.cl_alpha if seg.cl_alpha != 0.0 else 0.0
    return (seg.alpha_stall_pos - hw, seg.alpha_stall_neg + hw, 2.0 * hw,
            seg.cl0, seg.cl_alpha, seg.cl_delta, kd, seg.cd0,
            seg.cd_alpha2, seg.cm0, seg.cm_alpha, seg.cm_delta, seg.fp_cl45,
            seg.fp_cd_min, seg.fp_cd90 - seg.fp_cd_min, seg.fp_cm_max)


def _airfoil_law(alpha: float, zeta_cs: float, c: tuple[float, ...]
                 ) -> tuple[float, float, float, float]:
    """`airfoil_coefficients` on the flat constants of `_airfoil_constants`."""
    (edge_pos, edge_neg, width, cl0, cl_alpha, cl_delta, kd, cd0, cd_alpha2,
     cm0, cm_alpha, cm_delta, fp_cl45, fp_cd_min, fp_dcd, fp_cm_max) = c
    t_pos = (alpha - edge_pos) / width
    t_neg = (edge_neg - alpha) / width
    t = t_pos if t_pos > t_neg else t_neg
    lam = 1.0 - (0.0 if t < 0.0 else (1.0 if t > 1.0 else t))
    cl_pre = cl0 + cl_alpha * alpha + cl_delta * zeta_cs
    incidence = alpha + kd * zeta_cs
    cd_pre = cd0 + cd_alpha2 * (incidence * incidence)
    cm_pre = cm0 + cm_alpha * alpha + cm_delta * zeta_cs
    s = math.sin(alpha)
    cl_fp = fp_cl45 * math.sin(2.0 * alpha)
    cd_fp = fp_cd_min + fp_dcd * (s * s)
    sign = 1.0 if alpha > 0.0 else (-1.0 if alpha < 0.0 else 0.0)
    cm_fp = -fp_cm_max * math.sin(sign * (alpha * alpha) / math.pi)
    return (lam * cl_pre + (1.0 - lam) * cl_fp,
            lam * cd_pre + (1.0 - lam) * cd_fp,
            lam * cm_pre + (1.0 - lam) * cm_fp,
            lam)


# ---------------------------------------------------------------------------
# Full-vehicle evaluation
# ---------------------------------------------------------------------------

# segment axes (e_x, e_y, e_z), 9 floats, before the wing tilt: wing and
# horizontal tail in the body axes, the vertical tail with its span along -z
_SEG_AXES = {
    "wing": (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    "htail": (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    "vtail": (1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0),
}


class _VehicleTables:
    """Per-vehicle constants of `body_wrench` as flat tuples of Python
    floats, built once. A command's row is its index in ``_COMMANDS``, and
    its position is command x ``travel[row]``."""

    def __init__(self, vp: VehicleParams):
        self.pivot = tuple(float(x) for x in vp.wing.pivot)
        self.travel = tuple(vp.travel[n] for n in _COMMANDS)
        # per propeller, the fields `body_wrench` unpacks by name
        self.props = [(p, p.name != TAIL_PROPELLER, *(float(x) for x in p.hub_offset),
                       _COMMANDS.index(p.name), p.diameter ** 4, p.diameter ** 5,
                       p.ct0, p.ct1, p.cq0, p.cq1, p.handedness,
                       p.normal_force_coeff, p.disk_area) for p in vp.propellers]
        prop_index = {p.name: i for i, p in enumerate(vp.propellers)}
        # per segment, its frame (cp and axes pre-tilt) and its coefficients, the
        # fields `body_wrench` unpacks by name; a row of -1 is none
        self.seg_frames, self.seg_coeffs = [], []
        # per surface actuator, one tuple of floats per segment it deflects: (row,
        # gain, cl_delta, cd_alpha2, defl_incidence, cm_delta, area, moment_scale)
        self.surface_rows: dict[str, list[tuple]] = {}
        for i, s in enumerate(vp.segments):
            actuator = BINDING_TO_ACTUATOR.get(s.control)
            gain, area = float(s.control_gain), s.chord * s.span
            moment_scale = 0.5 * (s.chord * s.chord) * s.span
            self.seg_frames.append((s.kind == "wing", *(float(x) for x in s.cp),
                                    *_SEG_AXES[s.kind], prop_index.get(s.slipstream, -1)))
            law = _airfoil_constants(s)
            self.seg_coeffs.append((_COMMANDS.index(actuator) if actuator else -1, gain,
                                    area, moment_scale, s.alpha_stall_neg,
                                    s.alpha_stall_pos, law))
            if actuator is not None:
                self.surface_rows.setdefault(actuator, []).append(
                    (i, gain, s.cl_delta, s.cd_alpha2, law[6], s.cm_delta, area,
                     moment_scale))
        # per command, the propeller and segment rows it moves: a throttle its
        # propeller (tt the tail one) and that slipstream, a surface what it deflects
        self.moves = []
        for k, name in enumerate(_COMMANDS):
            p_rows = {i for i, p in enumerate(vp.propellers)
                      if p.name == name or (name == "tt" and p.name == TAIL_PROPELLER)}
            self.moves.append((p_rows, {i for i, (f, c) in enumerate(
                zip(self.seg_frames, self.seg_coeffs)) if f[-1] in p_rows or c[0] == k}))


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

    Re-evaluating from a ``prior`` keeps this record unless a changed
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
    """One full-vehicle evaluation, body frame: the net wrench and the
    per-source records it sums.

    ``force`` [N] and ``moment`` [N m, about the CG] add the segments in row
    order, then ``fus_force`` (the fuselage has no moment), then the
    propellers. ``props`` follow vp.propellers and ``segs`` vp.segments. The
    controllers read them to build local actuator models at the current
    operating point without re-deriving geometry; the run log and the cruise
    linearization read the per-source forces. ``inputs`` records the
    operating point and commands of the evaluation, so that `body_wrench`
    given this record as ``prior`` finds what moved.
    """

    force: Vec3
    moment: Vec3
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
                vp: VehicleParams, prior: FlowTables | None = None) -> FlowTables:
    """Net wrench in body axes from body-frame airspeed and angular rate,
    with the per-source records of the evaluation.

    Propellers are evaluated first; their thrusts drive the slipstream
    added to bound segments; segment and fuselage wrenches follow.
    Hot path for the trim solver and closed-loop simulation: every
    propeller and segment runs in Python float arithmetic, with one
    `np.arctan2` over the segments' angles of attack. A non-finite wrench
    raises `FloatingPointError`. Commands are read as given: numpy scalars
    in ``act`` run the loops 1.4 to 1.6 times slower than Python floats.

    ``prior`` is a record this function returned for the same vehicle. If it
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
    commands = _commands_of(act)
    pos = [c * travel for c, travel in zip(commands, t.travel)]
    inputs = struct.pack("15d", vbx, vby, vbz, ox, oy, oz, act.zeta_w, *commands)
    prop_rows, seg_rows = range(len(t.props)), range(len(t.seg_frames))
    props, segs = [None] * len(t.props), [None] * len(t.seg_frames)
    if prior is not None and inputs[:56] == prior.inputs[:56]:
        prop_rows, seg_rows = set(), set()
        for k, (p, s) in enumerate(t.moves, 7):
            if inputs[8 * k:8 * k + 8] != prior.inputs[8 * k:8 * k + 8]:
                prop_rows |= p
                seg_rows |= s
        if not prop_rows and not seg_rows:
            return prior
        props, segs = list(prior.props), list(prior.segs)

    for i in prop_rows:
        (prop, on_wing, hx, hy, hz, k, D4, D5, ct0, ct1, cq0, cq1, handedness,
         mu_n, disk_area) = t.props[i]
        if on_wing:
            rx = px + cw * hx + sw * hz
            ry = py + hy
            rz = pz - sw * hx + cw * hz
            ax, ay, az = cw, 0.0, -sw
        else:
            rx, ry, rz = hx, hy, hz
            ax, ay, az = 0.0, math.sin(pos[7]), -math.cos(pos[7])
        eta = pos[k]
        ux = vbx + oy * rz - oz * ry
        uy = vby + oz * rx - ox * rz
        uz = vbz + ox * ry - oy * rx
        v_ax = ux * ax + uy * ay + uz * az
        urx, ury, urz = ux - v_ax * ax, uy - v_ax * ay, uz - v_ax * az
        v_rad = math.sqrt(urx * urx + ury * ury + urz * urz)
        J = advance_ratio(prop, eta, v_ax)
        eta2 = eta * eta
        thrust = rho * eta2 * D4 * (ct0 + ct1 * J)
        torque = -rho * eta2 * D5 * (cq0 + cq1 * J) * handedness
        nf = eta * mu_n  # * v_rad, folded into u_r below
        pfx = thrust * ax - nf * urx
        pfy = thrust * ay - nf * ury
        pfz = thrust * az - nf * urz
        pmx = torque * ax + ry * pfz - rz * pfy
        pmy = torque * ay + rz * pfx - rx * pfz
        pmz = torque * az + rx * pfy - ry * pfx
        wx = wy = wz = 0.0
        if eta >= ETA_MIN and (thrust > 0.0 or v_ax < 0.0):
            radicand = v_ax * v_ax + 2.0 * max(thrust, 0.0) / (rho * disk_area)
            w_mag = 0.5 * (-v_ax + math.sqrt(radicand)) if radicand > 0.0 else 0.5 * -v_ax
            wx, wy, wz = ax * w_mag, ay * w_mag, az * w_mag
        if v_rad > 1e-12:
            nx, ny, nz = urx / v_rad, ury / v_rad, urz / v_rad
        else:
            nx = ny = nz = 0.0
        props[i] = tuple.__new__(PropFlow, ((rx, ry, rz), (ax, ay, az), (nx, ny, nz),
                                            (pfx, pfy, pfz), (pmx, pmy, pmz),
                                            eta, v_ax, v_rad, thrust, (wx, wy, wz)))

    # segment flow at the current wing tilt: wing axes take the tilt
    # rotation's columns, since their pre-tilt axes are the body axes
    flows = []
    tan_alpha = ([], [])
    for i in seg_rows:
        is_wing, cx, cy, cz, ex0, ex1, ex2, ey0, ey1, ey2, ez0, ez1, ez2, slip \
            = t.seg_frames[i]
        if is_wing:
            rx = px + cw * cx + sw * cz
            ry = py + cy
            rz = pz - sw * cx + cw * cz
            ex0, ex1, ex2 = cw, 0.0, -sw
            ez0, ez1, ez2 = sw, 0.0, cw
        else:
            rx, ry, rz = cx, cy, cz
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
        k, gain, area, moment_scale, stall_neg, stall_pos, law = t.seg_coeffs[i]
        cl, cd, cm, lam = _airfoil_law(a, gain * pos[k] if k >= 0 else 0.0, law)
        q_area = 0.5 * rho * V2 * area
        f0 = q_area * (cl * el0 + cd * ed0)
        f1 = q_area * (cl * el1 + cd * ed1)
        f2 = q_area * (cl * el2 + cd * ed2)
        mom_span = rho * V2 * cm * moment_scale
        m0 = mom_span * ey0 + (ry * f2 - rz * f1)
        m1 = mom_span * ey1 + (rz * f0 - rx * f2)
        m2 = mom_span * ey2 + (rx * f1 - ry * f0)
        segs[i] = tuple.__new__(SegFlow, ((rx, ry, rz), (ey0, ey1, ey2), (el0, el1, el2),
                                          (ed0, ed1, ed2), (f0, f1, f2), (m0, m1, m2),
                                          V, a, lam, not stall_neg < a < stall_pos))

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

    return tuple.__new__(FlowTables, ((f0, f1, f2), (m0, m1, m2), props, segs,
                                      (ffx, ffy, ffz), inputs))


def body_airspeed(R_IB, v, wind) -> Vec3:
    """Body-frame airspeed R_IB^T (v - wind) in floats, from the 9 row-major
    entries of R_IB and inertial 3-vectors. Every caller that evaluates a
    state's wrench takes the airspeed from here, so that evaluations of one
    state agree bit for bit and match as a ``prior``."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R_IB
    (vx, vy, vz), (wx, wy, wz) = v, wind
    ux, uy, uz = vx - wx, vy - wy, vz - wz
    return (r00 * ux + r10 * uy + r20 * uz, r01 * ux + r11 * uy + r21 * uz,
            r02 * ux + r12 * uy + r22 * uz)


def total_wrench(state: "RigidBodyState", act: ActuatorSet, vp: VehicleParams,
                 wind: np.ndarray, prior: FlowTables | None = None) -> FlowTables:
    """`body_wrench` for a rigid-body state, actuator state and inertial wind."""
    return body_wrench(body_airspeed(state.y[6:15], state.y[3:6], wind), state.y[15:],
                       act, vp, prior)
