"""Attitude control: quaternion error law, dynamic inversion, daisy chaining.

The controller tracks (roll, pitch, yaw-rate) references in three stages:

1. a cascaded P-PID law maps attitude errors to a desired body angular
   acceleration (outer quaternion-error P loop, inner rate PID), with
   weaker pitch gains when pitching down near hover;
2. dynamic inversion turns that into a required total moment
   M_des = I w_dot_des + w x I w;
3. the aerodynamic moment to be actuated, M_act = M_des - M_hat(u_nominal),
   is distributed over the redundant effectors by daisy chaining: elevator
   then tail group for pitch, rudder then wing group then tail group for
   yaw, wing group only for roll. Ailerons + differential main throttle
   (wing group) and tail throttle + tail tilt (tail group) are allocated
   jointly; the wing group solves a small box-constrained QP trading roll
   against yaw, the tail group attains pitch strictly before yaw. The
   chain re-runs on the remaining full-model residual, at most ``PASSES``
   times, until no axis misses by more than ``RESIDUAL_TOL``, which is
   finer than one 0.1 % command step of the effectors in forward flight.

Per-actuator demands come from the local aero model (linear in surface
deflection, quadratic in propeller speed); every block's achieved moment is
booked as the full-model wrench delta, so allocated + residual = M_act
holds exactly against the model. The attitude error, the rate PID, the
inversion, the chain and the QP compute in Python floats on slices of the
state's `y`, the chain at the airspeed of `aero.body_airspeed`; only the
allocation result holds numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import aero
from .rotations import euler_angles, euler_zyx
from .vehicle import COMMAND_HI, COMMAND_LO, ActuatorSet, VehicleParams, clamp_command

_EPS_GAIN = 1e-9        # minimum actuator authority worth engaging [N m / unit]
_EPS_DEMAND = 1e-9      # moment demand treated as already met [N m]
_EPS_TAIL_THRUST = 1e-7  # minimum tail thrust demand worth engaging [N]
PASSES = 6              # cap on chain passes over the remaining full-model residual
# residual below which no further pass starts [N m]: under the moment of one
# 0.1 % command step (a 10-bit servo or ESC) at 8 m/s, where that step moves
# yaw by 0.39e-3 (rudder), pitch by 0.83e-3 (elevator) and roll by 2.3e-3
# (differential main throttle)
RESIDUAL_TOL = 3e-4
W_ROLL, W_YAW = 2.0, 1.0  # wing-group QP weights on roll and yaw error
ATT_P = 6.0             # outer attitude loop [1/s]
RATE_P, RATE_I, RATE_D = 8.0, 2.0, 0.1  # inner rate PID, all three body axes
INTEGRATOR_LIMIT = 0.5  # |integral state| clamp [rad]
PITCH_DOWN_FACTOR = 0.5  # outer pitch gain multiplier
SCHEDULE_LO = math.radians(70.0)  # wing tilt where the schedule fades in
SCHEDULE_HI = math.radians(90.0)


@dataclass
class AttitudeSetpoint:
    roll: float = 0.0       # rad
    pitch: float = 0.0      # rad
    yaw_rate: float = 0.0   # rad/s


class Pid:
    """Discrete PID on a vector error in Python floats: kp e + ki I + kd de/dt,
    each component of I clamped to +-``limit``, no derivative on the first call."""

    def __init__(self, kp, ki, kd, limit: float):
        self.kp, self.ki, self.kd, self.limit = kp, ki, kd, limit
        self.integral = self._prev_err = None

    def __call__(self, err, dt: float) -> tuple[float, ...]:
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        err, lim, prev = tuple(err), self.limit, self._prev_err
        self._prev_err = err
        self.integral = tuple(min(max(i + e * dt, -lim), lim)
                              for i, e in zip(self.integral or (0.0,) * len(err), err))
        return tuple(self.kp * e + self.ki * i + self.kd * ((e - p) / dt if prev else 0.0)
                     for e, i, p in zip(err, self.integral, prev or err))


class AttitudeController:
    """Holds the rate-loop PID; one instance per simulated vehicle."""

    def __init__(self):
        self.pid = Pid(RATE_P, RATE_I, RATE_D, INTEGRATOR_LIMIT)

    def attitude_error_control(self, state, sp: AttitudeSetpoint, zeta_w: float,
                               dt: float) -> tuple[float, float, float]:
        """Desired body angular acceleration from attitude/yaw-rate errors.

        The desired attitude is built at the current yaw (reduced attitude:
        only roll/pitch alignment is commanded; yaw is rate-driven).
        """
        r = state.y[6:15]
        d = euler_zyx(sp.roll, sp.pitch, euler_angles(r)[2])
        # E = R^T R_des, entry (i, j) the dot product of columns i of R and j of R_des
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = (
            [a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in (d[0::3], d[1::3], d[2::3])]
            for a0, a1, a2 in (r[0::3], r[1::3], r[2::3]))

        # quaternion (w, x, y, z) of E with w >= 0, from its largest component
        t = e00 + e11 + e22
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            q = (0.25 * s, (e21 - e12) / s, (e02 - e20) / s, (e10 - e01) / s)
        elif e00 > e11 and e00 > e22:
            s = math.sqrt(1.0 + e00 - e11 - e22) * 2.0
            q = ((e21 - e12) / s, 0.25 * s, (e01 + e10) / s, (e02 + e20) / s)
        elif e11 > e22:
            s = math.sqrt(1.0 + e11 - e00 - e22) * 2.0
            q = ((e02 - e20) / s, (e01 + e10) / s, 0.25 * s, (e12 + e21) / s)
        else:
            s = math.sqrt(1.0 + e22 - e00 - e11) * 2.0
            q = ((e10 - e01) / s, (e02 + e20) / s, (e12 + e21) / s, 0.25 * s)
        w, x, y, z = q if q[0] >= 0.0 else [-c for c in q]
        # rotation vector: axis * angle, independent of the quaternion's scale
        n = math.sqrt(x * x + y * y + z * z)
        k = 2.0 if n < 1e-12 else 2.0 * math.atan2(n, w) / n
        err_x, err_y, err_z = k * x, k * y, k * z

        kp_pitch = ATT_P
        if err_y < 0.0:
            fade = min(max((zeta_w - SCHEDULE_LO) / (SCHEDULE_HI - SCHEDULE_LO), 0.0), 1.0)
            kp_pitch *= 1.0 - (1.0 - PITCH_DOWN_FACTOR) * fade

        # the rate error omega_des - omega, omega_des = kp err + R^T (0, 0, yaw_rate)
        wx, wy, wz = state.y[15:]
        return self.pid((ATT_P * err_x + r[6] * sp.yaw_rate - wx,
                         kp_pitch * err_y + r[7] * sp.yaw_rate - wy,
                         ATT_P * err_z + r[8] * sp.yaw_rate - wz), dt)


def dynamic_inversion(omega_dot_des, omega, inertia: np.ndarray) -> tuple[float, float, float]:
    """Total moment that realizes a desired angular acceleration, in floats."""
    rows = inertia.tolist()
    w0, w1, w2 = omega
    (a0, a1, a2), (h0, h1, h2) = ([r0 * x0 + r1 * x1 + r2 * x2 for r0, r1, r2 in rows]
                                  for x0, x1, x2 in (omega_dot_des, omega))
    return (a0 + (w1 * h2 - w2 * h1), a1 + (w2 * h0 - w0 * h2),
            a2 + (w0 * h1 - w1 * h0))


# ---------------------------------------------------------------------------
# Local actuator models (gains at the current operating point)
# ---------------------------------------------------------------------------

def _surface_moment_gain(vp: VehicleParams, ev: aero.FlowTables,
                         act: ActuatorSet, actuator: str) -> aero.Vec3:
    """d(moment)/d(command) of one aerodynamic surface [N m per unit]."""
    travel = vp.travel[actuator]
    zeta_now = act.position(actuator, vp)
    g0 = g1 = g2 = 0.0
    for row, gain, cl_delta, cd_alpha2, kd, cm_delta, area, moment_scale \
            in aero._vehicle_tables(vp).surface_rows.get(actuator, ()):
        seg = ev.segs[row]
        lam = seg.lam
        if lam <= 0.0:
            continue
        V2 = seg.speed ** 2
        dz = gain * travel
        dcl = lam * cl_delta * dz
        dcd = lam * cd_alpha2 * 2.0 * (seg.alpha + kd * gain * zeta_now) * kd * dz
        dcm = lam * cm_delta * dz
        q_area = 0.5 * vp.rho * V2 * area
        f0, f1, f2 = (q_area * (dcl * lift + dcd * drag)
                      for lift, drag in zip(seg.e_lift, seg.e_drag))
        m = dcm * vp.rho * V2 * moment_scale
        (rx, ry, rz), (ey0, ey1, ey2) = seg.r, seg.ey
        g0 += m * ey0 + (ry * f2 - rz * f1)
        g1 += m * ey1 + (rz * f0 - rx * f2)
        g2 += m * ey2 + (rx * f1 - ry * f0)
    return g0, g1, g2


def _prop_eta_derivatives(prop, eta: float, v_ax: float,
                          rho: float) -> tuple[float, float]:
    """(dT/d(eta), d(reactive torque magnitude)/d(eta)) of the
    clamped-advance-ratio thrust and torque laws."""
    D = prop.diameter
    J = aero.advance_ratio(prop, eta, v_ax)
    if J <= 0.0:
        return 2.0 * rho * D ** 4 * prop.ct0 * eta, 2.0 * rho * D ** 5 * prop.cq0 * eta
    if J >= prop.advance_ratio_max:
        return 0.0, 2.0 * rho * D ** 5 * eta * (prop.cq0 + prop.cq1 * prop.advance_ratio_max)
    return (2.0 * rho * D ** 4 * prop.ct0 * eta + rho * D ** 3 * prop.ct1 * v_ax,
            2.0 * rho * D ** 5 * prop.cq0 * eta + rho * D ** 4 * prop.cq1 * v_ax)


def _prop_moment_eta_gain(vp: VehicleParams, ev: aero.FlowTables,
                          idx: int) -> aero.Vec3:
    """d(moment)/d(eta) of one propeller at its current inflow."""
    prop, flow = vp.propellers[idx], ev.props[idx]
    dT, dQ = _prop_eta_derivatives(prop, flow.eta, flow.v_axial, vp.rho)
    nf = prop.normal_force_coeff * flow.v_radial
    f0, f1, f2 = (dT * a - nf * r for a, r in zip(flow.axis, flow.radial))
    (rx, ry, rz), (a0, a1, a2) = flow.r, flow.axis
    q = -dQ * prop.handedness
    return (q * a0 + (ry * f2 - rz * f1), q * a1 + (rz * f0 - rx * f2),
            q * a2 + (rx * f1 - ry * f0))


def _solve_prop_speed(prop, thrust: float, v_ax: float, rho: float) -> float:
    """Speed achieving a thrust: the nonnegative root of the quadratic
    rho D^4 ct0 eta^2 + rho D^3 ct1 v_ax eta = T, capped at the speed limit.
    With ct0 > 0 and T > 0 the other root is negative."""
    if thrust <= 0.0:
        return 0.0
    a = rho * prop.diameter ** 4 * prop.ct0
    b = rho * prop.diameter ** 3 * prop.ct1 * max(v_ax, 0.0)
    return min((-b + math.sqrt(b * b + 4.0 * a * thrust)) / (2.0 * a), prop.max_speed)


# ---------------------------------------------------------------------------
# Block 3: wing group (ailerons + differential main throttle)
# ---------------------------------------------------------------------------

def solve_block3(l_target: float, n_target: float, gain_ail: aero.Vec3,
                 gain_thr: aero.Vec3, a_box: tuple[float, float],
                 d_box: tuple[float, float]) -> tuple[float, float]:
    """Exact minimizer (a, d) over the box of the wing-group QP
    W_ROLL (l_hat - l_target)^2 + W_YAW (n_hat - n_target)^2 in floats, the
    2-variable case of Härkegård's active-set WLS (CDC 2002).

    The objective is convex, so the best of these candidates, each clamped
    to the box, is the global minimum (the earlier wins within 1e-15): the
    solution of (H + 1e-15 I) x = rhs by Cramer's rule if its determinant is
    > 0 (the 1e-15 keeps a = 0 without aileron authority), the 1-D
    minimizers on the two a-edges and the two d-edges, and the four corners.
    """
    ga_l, _, ga_n = gain_ail
    gt_l, _, gt_n = gain_thr
    h_aa = W_ROLL * ga_l * ga_l + W_YAW * ga_n * ga_n
    h_ad = W_ROLL * ga_l * gt_l + W_YAW * ga_n * gt_n
    h_dd = W_ROLL * gt_l * gt_l + W_YAW * gt_n * gt_n
    r_a = W_ROLL * ga_l * l_target + W_YAW * ga_n * n_target
    r_d = W_ROLL * gt_l * l_target + W_YAW * gt_n * n_target
    (a_lo, a_hi), (d_lo, d_hi) = a_box, d_box
    candidates = []
    det = (h_aa + 1e-15) * (h_dd + 1e-15) - h_ad * h_ad
    if det > 0.0:  # Python floats raise on a zero divisor
        candidates.append(((r_a * (h_dd + 1e-15) - h_ad * r_d) / det,
                           ((h_aa + 1e-15) * r_d - h_ad * r_a) / det))
    # on an edge, min_x h x^2 - 2 r x is at x = r / h
    for a in (a_lo, a_hi):
        candidates.append((a, (r_d - h_ad * a) / h_dd if h_dd > 1e-18 else 0.0))
    for d in (d_lo, d_hi):
        candidates.append(((r_a - h_ad * d) / h_aa if h_aa > 1e-18 else 0.0, d))
    candidates += [(a_lo, d_lo), (a_lo, d_hi), (a_hi, d_lo), (a_hi, d_hi)]

    best, best_val = (0.0, 0.0), math.inf
    for a, d in candidates:
        a, d = min(max(a, a_lo), a_hi), min(max(d, d_lo), d_hi)
        val = W_ROLL * (ga_l * a + gt_l * d - l_target) ** 2 \
            + W_YAW * (ga_n * a + gt_n * d - n_target) ** 2
        if val < best_val - 1e-15:
            best, best_val = (a, d), val
    return best


# ---------------------------------------------------------------------------
# Daisy-chain allocation
# ---------------------------------------------------------------------------

@dataclass
class AllocationResult:
    """Allocated commands, the moment each block booked, the residual,
    ``evaluation``: the `body_wrench` record at ``commanded`` (the last
    booked one, or the nominal one if no block booked), and the number of
    chain ``passes`` run."""

    commanded: ActuatorSet
    blocks: dict[str, np.ndarray] = field(default_factory=dict)
    residual: np.ndarray = field(default_factory=lambda: np.zeros(3))
    evaluation: aero.FlowTables | None = None
    passes: int = 0

    @property
    def allocated(self) -> np.ndarray:
        return sum(self.blocks.values(), np.zeros(3))


def _apply_surface(act: ActuatorSet, name: str, increment: float) -> None:
    """Step one command by ``increment``, clamped to its range."""
    key = f"delta_{name}"
    setattr(act, key, clamp_command(name, getattr(act, key) + increment))


def daisy_chain_allocate(M_act: np.ndarray, state, u_n: ActuatorSet,
                         vp: VehicleParams, wind: np.ndarray,
                         nominal: aero.FlowTables | None = None) -> AllocationResult:
    """Distribute M_act over the redundant effectors.

    Chain order: pitch via elevator, yaw via rudder, then the wing group
    (roll/yaw QP), then the tail group (pitch strictly before yaw). A pass
    starts only while the full-model residual exceeds ``RESIDUAL_TOL`` on
    some axis, and at most ``PASSES`` run, so a saturated demand runs all
    of them. ``nominal``, if given, is `aero.total_wrench` of the same
    state, ``u_n`` and wind, read in place of evaluating ``u_n`` again.
    """
    v_a_body = aero.body_airspeed(state.y[6:15], state.y[3:6], wind)
    omega = state.y[15:]

    act = u_n.copy()
    ev = nominal or aero.body_wrench(v_a_body, omega, act, vp)
    target = [m + float(d) for m, d in zip(ev.moment, M_act)]
    blocks = {name: [0.0] * 3 for name in ("elevator", "rudder", "wing_group", "tail_group")}

    def book(name: str) -> None:
        nonlocal ev
        m_old, ev = ev.moment, aero.body_wrench(v_a_body, omega, act, vp, ev)
        blocks[name] = [b + (m - c) for b, m, c in zip(blocks[name], ev.moment, m_old)]

    def resid(axis: int) -> float:
        return target[axis] - ev.moment[axis]

    # propeller records of the evaluation, by the name of the command driving each
    names = [p.name for p in vp.propellers]
    i_pl, i_pr, i_pt = (names.index(n) for n in ("pl", "pr", "pt"))
    pt = vp.propellers[i_pt]

    passes = 0
    while passes < PASSES and max(abs(resid(i)) for i in range(3)) > RESIDUAL_TOL:
        passes += 1
        # blocks 1 and 2: the elevator takes the pitch demand, then the
        # rudder the yaw demand
        for name, axis, block in (("e", 1, "elevator"), ("r", 2, "rudder")):
            if abs(resid(axis)) > _EPS_DEMAND:
                gain = _surface_moment_gain(vp, ev, act, name)[axis]
                if abs(gain) > _EPS_GAIN:
                    _apply_surface(act, name, resid(axis) / gain)
                    book(block)

        # block 3: ailerons + differential main throttle trade roll vs yaw
        if abs(resid(0)) > _EPS_DEMAND or abs(resid(2)) > _EPS_DEMAND:
            gain_ail = [l + r for l, r in zip(_surface_moment_gain(vp, ev, act, "al"),
                                              _surface_moment_gain(vp, ev, act, "ar"))]
            # d steps the left main's command by +d and the right one's by
            # -d, each scaled by its own travel; with alike mains the ratio
            # is 1 and this is (gain_pl - gain_pr) * travel
            travel = vp.travel["pl"]
            ratio = vp.travel["pr"] / travel
            gain_thr = [(l - r * ratio) * travel
                        for l, r in zip(_prop_moment_eta_gain(vp, ev, i_pl),
                                        _prop_moment_eta_gain(vp, ev, i_pr))]
            a_box = (max(COMMAND_LO["al"] - act.delta_al, COMMAND_LO["ar"] - act.delta_ar),
                     min(COMMAND_HI - act.delta_al, COMMAND_HI - act.delta_ar))
            d_box = (max(COMMAND_LO["pl"] - act.delta_pl, act.delta_pr - COMMAND_HI),
                     min(COMMAND_HI - act.delta_pl, act.delta_pr - COMMAND_LO["pr"]))
            if math.hypot(*gain_ail) > _EPS_GAIN or math.hypot(*gain_thr) > _EPS_GAIN:
                a, d = solve_block3(resid(0), resid(2), gain_ail, gain_thr,
                                    a_box, d_box)
                if abs(a) > 0.0 or abs(d) > 0.0:
                    for name, step in (("al", a), ("ar", a), ("pl", d), ("pr", -d)):
                        _apply_surface(act, name, step)
                    book("wing_group")

        # block 4: tail throttle + tail tilt, pitch strictly before yaw
        if abs(resid(1)) > _EPS_DEMAND or abs(resid(2)) > _EPS_DEMAND:
            tail = ev.props[i_pt]
            x_t = tail.r[0]
            m_now = x_t * (tail.thrust * -tail.axis[2])  # pitch part of r x T axis, y_t = 0
            n_now = x_t * (tail.thrust * tail.axis[1])
            # (cos, sin) of the tilt proportional to the absolute targets;
            # a meaningful pitch budget is required before the tail engages
            # (zero thrust cannot yaw, and the tilt must not flail on noise)
            cos_part = (m_now + resid(1)) / x_t
            sin_part = (n_now + resid(2)) / x_t
            if cos_part > _EPS_TAIL_THRUST:
                travel = vp.travel["tt"]
                zeta = min(max(math.atan2(sin_part, cos_part), COMMAND_LO["tt"] * travel),
                           COMMAND_HI * travel)
                thrust = cos_part / math.cos(zeta)
                eta = _solve_prop_speed(pt, thrust, tail.v_axial, vp.rho)
                act.delta_tt = zeta / travel
                act.delta_pt = clamp_command("pt", eta / vp.travel["pt"])
                book("tail_group")
            elif act.delta_pt > 0.0:
                # demand reversed past zero tail thrust: disengage
                act.delta_pt = 0.0
                act.delta_tt = 0.0
                book("tail_group")

    return AllocationResult(
        commanded=act, blocks={name: np.array(b) for name, b in blocks.items()},
        residual=np.array([resid(i) for i in range(3)]), evaluation=ev,
        passes=passes)
