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
   against yaw, the tail group attains pitch strictly before yaw.

Per-actuator demands come from the local aero model (linear in surface
deflection, quadratic in propeller speed); every block's achieved moment is
booked as the full-model wrench delta, so allocated + residual = M_act
holds exactly against the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import aero
from .rotations import cross3, matrix_to_quat, quat_to_rotvec, rot_x, rot_y, rot_z
from .vehicle import ActuatorSet, VehicleParams

_EPS_GAIN = 1e-9        # minimum actuator authority worth engaging [N m / unit]
_EPS_DEMAND = 1e-9      # moment demand treated as already met [N m]
_EPS_TAIL_THRUST = 1e-7  # minimum tail thrust demand worth engaging [N]
PASSES = 6              # chain passes over the remaining full-model residual
W_ROLL, W_YAW = 2.0, 1.0  # wing-group QP weights on roll and yaw error
ATT_P = 6.0             # outer attitude loop [1/s]
RATE_P = np.array([8.0, 8.0, 8.0])  # inner rate PID, per body axis
RATE_I = np.array([2.0, 2.0, 2.0])
RATE_D = np.array([0.1, 0.1, 0.1])
INTEGRATOR_LIMIT = 0.5  # |integral state| clamp [rad]
PITCH_DOWN_FACTOR = 0.5  # outer pitch gain multiplier
SCHEDULE_LO = math.radians(70.0)  # wing tilt where the schedule fades in
SCHEDULE_HI = math.radians(90.0)


@dataclass
class AttitudeSetpoint:
    roll: float = 0.0       # rad
    pitch: float = 0.0      # rad
    yaw_rate: float = 0.0   # rad/s


class AttitudeController:
    """Holds the rate-loop integrator; one instance per simulated vehicle."""

    def __init__(self):
        self._integral = np.zeros(3)
        self._prev_rate_err = None

    def attitude_error_control(self, state, sp: AttitudeSetpoint, zeta_w: float,
                               dt: float) -> np.ndarray:
        """Desired body angular acceleration from attitude/yaw-rate errors.

        The desired attitude is built at the current yaw (reduced attitude:
        only roll/pitch alignment is commanded; yaw is rate-driven).
        """
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        R = state.R_IB
        yaw = math.atan2(R[1, 0], R[0, 0])
        R_des = rot_z(yaw) @ rot_y(sp.pitch) @ rot_x(sp.roll)
        err = quat_to_rotvec(matrix_to_quat(R.T @ R_des))

        kp = np.full(3, ATT_P)
        if err[1] < 0.0:
            fade = np.clip((zeta_w - SCHEDULE_LO)
                           / (SCHEDULE_HI - SCHEDULE_LO), 0.0, 1.0)
            kp[1] *= 1.0 - (1.0 - PITCH_DOWN_FACTOR) * fade

        omega_des = kp * err + R.T @ np.array([0.0, 0.0, sp.yaw_rate])
        rate_err = omega_des - state.omega
        self._integral = np.clip(self._integral + rate_err * dt,
                                 -INTEGRATOR_LIMIT, INTEGRATOR_LIMIT)
        if self._prev_rate_err is None:
            deriv = np.zeros(3)
        else:
            deriv = (rate_err - self._prev_rate_err) / dt
        self._prev_rate_err = rate_err.copy()
        return RATE_P * rate_err + RATE_I * self._integral + RATE_D * deriv


def dynamic_inversion(omega_dot_des: np.ndarray, omega: np.ndarray,
                      inertia: np.ndarray) -> np.ndarray:
    """Total moment that realizes a desired angular acceleration."""
    return inertia @ omega_dot_des + cross3(omega, inertia @ omega)


def nominal_moment_estimate(state, u_n: ActuatorSet, vp: VehicleParams,
                            wind: np.ndarray | None = None) -> tuple:
    """Wrench and flow tables with nominal actuation (attitude effectors
    zero); the moment is M_hat(u_n). `daisy_chain_allocate` starts from this
    pair when given it with the same state, ``u_n`` and wind."""
    return aero.total_wrench(state, u_n, vp, wind)


# ---------------------------------------------------------------------------
# Local actuator models (gains at the current operating point)
# ---------------------------------------------------------------------------

def _surface_moment_gain(vp: VehicleParams, tab: aero.FlowTables,
                         act: ActuatorSet, actuator: str) -> np.ndarray:
    """d(moment)/d(command) of one aerodynamic surface [N m per unit]."""
    travel = vp.actuators[actuator].travel
    zeta_now = act.position(actuator, vp)
    g = [0.0, 0.0, 0.0]
    for row, gain, cl_delta, cd_alpha2, kd, cm_delta, area, moment_scale \
            in aero._vehicle_tables(vp).surface_rows.get(actuator, ()):
        lam = tab.seg_lam.item(row)
        if lam <= 0.0:
            continue
        V2 = tab.seg_speed.item(row) ** 2
        dz = gain * travel
        dcl = lam * cl_delta * dz
        dcd = lam * cd_alpha2 * 2.0 \
            * (tab.seg_alpha.item(row) + kd * gain * zeta_now) * kd * dz
        dcm = lam * cm_delta * dz
        q_area = 0.5 * vp.rho * V2 * area
        dF = [q_area * (dcl * lift + dcd * drag) for lift, drag
              in zip(tab.seg_e_lift[row].tolist(), tab.seg_e_drag[row].tolist())]
        m = dcm * vp.rho * V2 * moment_scale
        c = cross3(tab.seg_r[row].tolist(), dF).tolist()
        g = [gi + (m * ey + ci) for gi, ey, ci in zip(g, tab.seg_ey[row].tolist(), c)]
    return np.array(g)


def _thrust_eta_derivative(prop, eta: float, v_ax: float, rho: float) -> float:
    """dT/d(eta) of the clamped-advance-ratio thrust law."""
    D = prop.diameter
    if eta < aero.ETA_MIN:
        return 2.0 * rho * D ** 4 * prop.ct0 * eta
    J = v_ax / (eta * D)
    if J <= 0.0:
        return 2.0 * rho * D ** 4 * prop.ct0 * eta
    if J >= prop.advance_ratio_max:
        return 0.0
    return 2.0 * rho * D ** 4 * prop.ct0 * eta + rho * D ** 3 * prop.ct1 * v_ax


def _torque_eta_derivative(prop, eta: float, v_ax: float, rho: float) -> float:
    """d(reactive torque magnitude)/d(eta), same clamping as the thrust."""
    D = prop.diameter
    if eta < aero.ETA_MIN:
        return 2.0 * rho * D ** 5 * prop.cq0 * eta
    J = v_ax / (eta * D)
    if J <= 0.0:
        return 2.0 * rho * D ** 5 * prop.cq0 * eta
    if J >= prop.advance_ratio_max:
        return 2.0 * rho * D ** 5 * eta * (prop.cq0 + prop.cq1 * prop.advance_ratio_max)
    return 2.0 * rho * D ** 5 * prop.cq0 * eta + rho * D ** 4 * prop.cq1 * v_ax


def _prop_moment_eta_gain(vp: VehicleParams, tab: aero.FlowTables,
                          idx: int) -> np.ndarray:
    """d(moment)/d(eta) of one propeller at its current inflow."""
    prop = vp.propellers[idx]
    eta = tab.prop_eta.item(idx)
    v_ax = tab.prop_v_axial.item(idx)
    dT = _thrust_eta_derivative(prop, eta, v_ax, vp.rho)
    dQ = _torque_eta_derivative(prop, eta, v_ax, vp.rho)
    nf = prop.normal_force_coeff * tab.prop_v_radial.item(idx)
    axis = tab.prop_axis[idx].tolist()
    dF = [dT * a - nf * r for a, r in zip(axis, tab.prop_radial[idx].tolist())]
    c = cross3(tab.prop_r[idx].tolist(), dF).tolist()
    q = -dQ * prop.handedness
    return np.array([q * a + ci for a, ci in zip(axis, c)])


def _solve_prop_speed(prop, thrust: float, v_ax: float, rho: float) -> float:
    """Speed achieving a thrust: smaller-magnitude valid root of the
    quadratic rho D^4 ct0 eta^2 + rho D^3 ct1 v_ax eta = T; no valid real
    root saturates at the speed limit."""
    if thrust <= 0.0:
        return 0.0
    a = rho * prop.diameter ** 4 * prop.ct0
    b = rho * prop.diameter ** 3 * prop.ct1 * max(v_ax, 0.0)
    disc = b * b + 4.0 * a * thrust
    if disc < 0.0:
        return prop.max_speed
    sq = math.sqrt(disc)
    roots = [(-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)]
    valid = sorted((r for r in roots if 0.0 <= r <= prop.max_speed),
                   key=abs)
    if valid:
        return valid[0]
    return prop.max_speed


# ---------------------------------------------------------------------------
# Block 3: wing group (ailerons + differential main throttle)
# ---------------------------------------------------------------------------

def block3_objective(a: float, d: float, l_target: float, n_target: float,
                     gain_ail: np.ndarray, gain_thr: np.ndarray,
                     w_roll: float, w_yaw: float) -> float:
    """Weighted squared roll/yaw moment error of the wing-group increments."""
    l_hat = gain_ail[0] * a + gain_thr[0] * d
    n_hat = gain_ail[2] * a + gain_thr[2] * d
    return w_roll * (l_hat - l_target) ** 2 + w_yaw * (n_hat - n_target) ** 2


def solve_block3(l_target: float, n_target: float, gain_ail: np.ndarray,
                 gain_thr: np.ndarray, a_box: tuple[float, float],
                 d_box: tuple[float, float]) -> tuple[float, float]:
    """Exact minimizer of the wing-group QP over its box constraints.

    Enumerates the unconstrained stationary point, the four edges (1-D
    minimization with the other variable fixed at a bound), and the four
    corners; the objective is convex so the best feasible candidate is the
    global box-constrained minimum.
    """
    G = np.array([[gain_ail[0], gain_thr[0]], [gain_ail[2], gain_thr[2]]])
    W = np.diag([W_ROLL, W_YAW])
    H = G.T @ W @ G
    rhs = G.T @ W @ np.array([l_target, n_target])
    (a_lo, a_hi), (d_lo, d_hi) = a_box, d_box
    candidates: list[tuple[float, float]] = []

    try:
        sol = np.linalg.solve(H + 1e-15 * np.eye(2), rhs)
        candidates.append((float(sol[0]), float(sol[1])))
    except np.linalg.LinAlgError:
        pass

    def minimize_1d(h: float, r: float) -> float:
        # min_x h x^2 - 2 r x  ->  x = r / h
        return r / h if h > 1e-18 else 0.0

    for a_fix in (a_lo, a_hi):
        r = rhs[1] - H[0, 1] * a_fix
        candidates.append((a_fix, minimize_1d(H[1, 1], r)))
    for d_fix in (d_lo, d_hi):
        r = rhs[0] - H[0, 1] * d_fix
        candidates.append((minimize_1d(H[0, 0], r), d_fix))
    candidates.extend([(a_lo, d_lo), (a_lo, d_hi), (a_hi, d_lo), (a_hi, d_hi)])

    best = (0.0, 0.0)
    best_val = math.inf
    for a, d in candidates:
        a = min(max(a, a_lo), a_hi)
        d = min(max(d, d_lo), d_hi)
        val = block3_objective(a, d, l_target, n_target, gain_ail, gain_thr,
                               W_ROLL, W_YAW)
        if val < best_val - 1e-15:
            best, best_val = (a, d), val
    return best


# ---------------------------------------------------------------------------
# Daisy-chain allocation
# ---------------------------------------------------------------------------

@dataclass
class AllocationResult:
    """Allocated commands, the moment each block booked, the residual, and
    ``evaluation``: the `body_wrench` pair at ``commanded`` (the last
    booked one, or the nominal one if no block booked)."""

    commanded: ActuatorSet
    blocks: dict[str, np.ndarray] = field(default_factory=dict)
    residual: np.ndarray = field(default_factory=lambda: np.zeros(3))
    evaluation: tuple | None = None

    @property
    def allocated(self) -> np.ndarray:
        return sum(self.blocks.values(), np.zeros(3))


def _apply_surface(act: ActuatorSet, vp: VehicleParams, name: str,
                   increment: float) -> None:
    """Step one command by ``increment``, clamped to its range."""
    lim = vp.actuators[name]
    key = f"delta_{name}"
    setattr(act, key, min(max(getattr(act, key) + increment, lim.lo), lim.hi))


def daisy_chain_allocate(M_act: np.ndarray, state, u_n: ActuatorSet,
                         vp: VehicleParams, wind: np.ndarray | None = None,
                         nominal: tuple | None = None) -> AllocationResult:
    """Distribute M_act over the redundant effectors.

    Chain order: pitch via elevator, yaw via rudder, then the wing group
    (roll/yaw QP), then the tail group (pitch strictly before yaw). The
    chain is re-run on the remaining full-model residual for up to
    ``PASSES`` passes so that unsaturated demands converge on the exact
    model. ``nominal``, if given, is `nominal_moment_estimate` of the same
    state, ``u_n`` and wind, read in place of evaluating ``u_n`` again.
    """
    v_air = state.v if wind is None else state.v - np.asarray(wind, dtype=float)
    v_a_body = state.R_IB.T @ v_air
    omega = state.omega

    act = u_n.copy()
    fm, tab = nominal or aero.body_wrench(v_a_body, omega, act, vp)
    M_cur = fm.moment
    target = M_cur + np.asarray(M_act, dtype=float)
    blocks = {"elevator": np.zeros(3), "rudder": np.zeros(3),
              "wing_group": np.zeros(3), "tail_group": np.zeros(3)}

    def book(name: str) -> None:
        nonlocal M_cur, fm, tab
        fm, tab = aero.body_wrench(v_a_body, omega, act, vp)
        blocks[name] += fm.moment - M_cur
        M_cur = fm.moment

    # propeller rows of the tables, by the name of the command driving each
    names = [p.name for p in vp.propellers]
    i_pl, i_pr, i_pt = (names.index(n) for n in ("pl", "pr", "pt"))
    pt = vp.propellers[i_pt]

    demand_scale = max(float(np.abs(M_act).max()), 1e-3)
    for _ in range(PASSES):
        if np.abs(target - M_cur).max() < 1e-9 * demand_scale:
            break
        # block 1: elevator takes the pitch demand
        resid = target - M_cur
        if abs(resid[1]) > _EPS_DEMAND:
            gain = _surface_moment_gain(vp, tab, act, "e")
            if abs(gain[1]) > _EPS_GAIN:
                _apply_surface(act, vp, "e", resid[1] / gain[1])
                book("elevator")

        # block 2: rudder takes the yaw demand
        resid = target - M_cur
        if abs(resid[2]) > _EPS_DEMAND:
            gain = _surface_moment_gain(vp, tab, act, "r")
            if abs(gain[2]) > _EPS_GAIN:
                _apply_surface(act, vp, "r", resid[2] / gain[2])
                book("rudder")

        # block 3: ailerons + differential main throttle trade roll vs yaw
        resid = target - M_cur
        if abs(resid[0]) > _EPS_DEMAND or abs(resid[2]) > _EPS_DEMAND:
            gain_ail = _surface_moment_gain(vp, tab, act, "al") \
                + _surface_moment_gain(vp, tab, act, "ar")
            # d steps the left main's command by +d and the right one's by
            # -d, each scaled by its own travel; with alike mains the ratio
            # is 1 and this is (gain_pl - gain_pr) * travel
            travel = vp.actuators["pl"].travel
            gain_thr = (_prop_moment_eta_gain(vp, tab, i_pl)
                        - _prop_moment_eta_gain(vp, tab, i_pr)
                        * (vp.actuators["pr"].travel / travel)) * travel
            lim_al, lim_ar = vp.actuators["al"], vp.actuators["ar"]
            a_box = (max(lim_al.lo - act.delta_al, lim_ar.lo - act.delta_ar),
                     min(lim_al.hi - act.delta_al, lim_ar.hi - act.delta_ar))
            d_box = (max(-act.delta_pl, act.delta_pr - 1.0),
                     min(1.0 - act.delta_pl, act.delta_pr))
            if np.linalg.norm(gain_ail) > _EPS_GAIN \
                    or np.linalg.norm(gain_thr) > _EPS_GAIN:
                a, d = solve_block3(resid[0], resid[2], gain_ail, gain_thr,
                                    a_box, d_box)
                if abs(a) > 0.0 or abs(d) > 0.0:
                    _apply_surface(act, vp, "al", a)
                    _apply_surface(act, vp, "ar", a)
                    _apply_surface(act, vp, "pl", d)
                    _apply_surface(act, vp, "pr", -d)
                    book("wing_group")

        # block 4: tail throttle + tail tilt, pitch strictly before yaw
        resid = target - M_cur
        if abs(resid[1]) > _EPS_DEMAND or abs(resid[2]) > _EPS_DEMAND:
            r_t = tab.prop_r[i_pt]
            x_t = r_t[0]
            axis = tab.prop_axis[i_pt]
            T_now = tab.prop_thrust[i_pt]
            m_now = x_t * (T_now * -axis[2])  # pitch part of r x T axis, y_t = 0
            n_now = x_t * (T_now * axis[1])
            m_abs = m_now + resid[1]
            n_abs = n_now + resid[2]
            # (cos, sin) of the tilt proportional to the absolute targets;
            # a meaningful pitch budget is required before the tail engages
            # (zero thrust cannot yaw, and the tilt must not flail on noise)
            cos_part = m_abs / x_t
            sin_part = n_abs / x_t
            if cos_part > _EPS_TAIL_THRUST:
                lim_tt = vp.actuators["tt"]
                zeta = math.atan2(sin_part, cos_part)
                zeta = min(max(zeta, lim_tt.lo * lim_tt.travel),
                           lim_tt.hi * lim_tt.travel)
                thrust = cos_part / math.cos(zeta)
                eta = _solve_prop_speed(pt, thrust, tab.prop_v_axial[i_pt], vp.rho)
                act.delta_tt = zeta / lim_tt.travel
                act.delta_pt = min(max(eta / pt.max_speed, 0.0), 1.0)
                book("tail_group")
            elif act.delta_pt > 0.0:
                # demand reversed past zero tail thrust: disengage
                act.delta_pt = 0.0
                act.delta_tt = 0.0
                book("tail_group")

    residual = target - M_cur
    return AllocationResult(commanded=act, blocks=blocks, residual=residual,
                            evaluation=(fm, tab))
