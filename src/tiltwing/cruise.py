"""Cruise control: trim-map feed-forward plus allocated velocity feedback.

Tracks a commanded airspeed vector (horizontal component along the current
heading, vertical component positive down). The feed-forward path looks up
wing tilt, main throttle, and pitch from the trim-map at a lookup velocity
constrained to a band around the actual airspeed, so that transitions pull
the trims along without leaving the feedback law's linearization region.
The feedback path maps velocity errors through a PID to corrective forces
and allocates corrective pitch and throttle by regularized weighted least
squares on local control derivatives, with the vertical axis prioritized
below the transition speed range and turn coordination mixing roll into a
yaw-rate command at speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import aero
from .attitude import AttitudeSetpoint, Pid
from .rotations import euler_angles, euler_zyx_to_matrix
from .trim import TrimMap, lookup_trim
from .vehicle import COMMAND_HI, COMMAND_LO, ActuatorSet, VehicleParams, nominal_actuation

LOOKUP_EDGE = 1e-9  # keeps the lookup strictly inside the open band
# lookup bounds around the actual airspeed [m/s]
V_X_MINUS = 3.0
V_X_PLUS = 3.0
V_Z_MINUS = 1.5
V_Z_PLUS = 1.5
# velocity PID (per axis, acting on air-relative velocity error)
KP = 0.8
KI = 0.15
KD = 0.05
INTEGRATOR_LIMIT = 8.0      # |integral| clamp [m]
# WLS weighting and regularization
W_ZZ = 1.0
W_XX_LO = 0.01              # w_xx below the schedule ramp
W_XX_HI = 1.0
SCHEDULE_LO = 12.0          # m/s
SCHEDULE_HI = 15.0
REGULARIZATION = np.diag([50.0, 1.0])
THETA_C_MAX = math.radians(15.0)
# control-derivative finite-difference steps
FD_THETA = math.radians(0.5)
FD_THROTTLE = 0.01
V_MIN_TURN = 5.0            # m/s floor in g tan(phi) / v
V_A_GAMMA_FLOOR = 0.5       # m/s; hover-column fallback for the polar conversion


@dataclass
class CruiseSetpoint:
    v_ax: float = 0.0    # desired horizontal airspeed [m/s]
    v_az: float = 0.0    # desired vertical airspeed [m/s], positive down
    roll: float = 0.0    # passed through for turns [rad]


def lookup_velocity(v_des: np.ndarray, v_actual: np.ndarray) -> np.ndarray:
    """Clamp the desired airspeed into the band around the actual one."""
    lo = np.array([v_actual[0] - V_X_MINUS, v_actual[1] - V_Z_MINUS])
    hi = np.array([v_actual[0] + V_X_PLUS, v_actual[1] + V_Z_PLUS])
    return np.clip(np.asarray(v_des, dtype=float),
                   lo + LOOKUP_EDGE, hi - LOOKUP_EDGE)


def weight_schedule(v_ax: float) -> np.ndarray:
    """Diagonal WLS weight; w_xx ramps up over the schedule speed range."""
    w_xx = W_XX_LO + (W_XX_HI - W_XX_LO) * schedule_ramp(v_ax)
    return np.diag([w_xx, W_ZZ])


def schedule_ramp(v_ax: float) -> float:
    return float(np.clip((v_ax - SCHEDULE_LO)
                         / (SCHEDULE_HI - SCHEDULE_LO), 0.0, 1.0))


def turn_coordination(roll_des: float, v_ax: float, gravity: float) -> float:
    """Coordinated yaw rate g tan(phi) / v, blended in with the schedule."""
    rate = gravity * math.tan(roll_des) / max(v_ax, V_MIN_TURN)
    return schedule_ramp(v_ax) * rate


def wls_allocate(J: np.ndarray, F_c: np.ndarray, W: np.ndarray, K: np.ndarray,
                 theta_c_max: float,
                 throttle_bounds: tuple[float, float]) -> np.ndarray:
    """Regularized weighted least squares u = (J'WJ + K)^-1 J'W F.

    The corrective pitch is clamped to +-theta_c_max and the corrective
    throttle so that the total command stays inside its range.
    """
    J = np.asarray(J, dtype=float)
    H = J.T @ W @ J + K
    u = np.linalg.solve(H, J.T @ W @ np.asarray(F_c, dtype=float))
    u[0] = min(max(u[0], -theta_c_max), theta_c_max)
    u[1] = min(max(u[1], throttle_bounds[0]), throttle_bounds[1])
    return u


def _projected_force(R: np.ndarray, heading: np.ndarray,
                     force_body: np.ndarray) -> np.ndarray:
    f_inertial = R @ force_body
    return np.array([f_inertial @ heading, f_inertial[2]])


def control_derivatives(state, act: ActuatorSet, vp: VehicleParams,
                        wind: np.ndarray) -> np.ndarray:
    """J = d(f_x, f_z)/d(theta, delta_plr) by central differences [N/unit].

    f_x is the aerodynamic force along the horizontal heading, f_z the
    vertical (down positive) component. Contributions of stalled airfoil
    segments to the pitch column are ignored: their post-stall coefficient
    slopes reverse sign and corrupt the local linearization.
    """
    roll, pitch, yaw = euler_angles(state.y[6:15])
    heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])

    def eval_at(theta: float, act_eval: ActuatorSet,
                prior: aero.FlowTables | None = None):
        R = euler_zyx_to_matrix(roll, theta, yaw)
        return R, aero.body_wrench(aero.body_airspeed(R.ravel().tolist(), state.y[3:6], wind),
                                   state.y[15:], act_eval, vp, prior)

    J = np.empty((2, 2))

    # pitch column, source by source so stalled segments can be excluded
    h = FD_THETA
    R_p, ev_p = eval_at(pitch + h, act)
    R_m, ev_m = eval_at(pitch - h, act)
    pairs = [(p.force, m.force) for p, m in zip(ev_p.props, ev_m.props)]
    pairs += [(p.force, m.force) for p, m in zip(ev_p.segs, ev_m.segs)
              if not (p.stalled or m.stalled)]
    pairs.append((ev_p.fus_force, ev_m.fus_force))
    col = np.zeros(2)
    for f_p, f_m in pairs:
        col += (_projected_force(R_p, heading, f_p)
                - _projected_force(R_m, heading, f_m))
    J[:, 0] = col / (2.0 * h)

    # throttle column (both mains together)
    s = FD_THROTTLE
    act_p = act.copy()
    act_m = act.copy()
    for a, sign in ((act_p, 1.0), (act_m, -1.0)):
        a.delta_pl += sign * s
        a.delta_pr += sign * s
    # the probes share R0 and the airspeed: the second rebuilds what the mains move
    R0, ev_tp = eval_at(pitch, act_p)
    _, ev_tm = eval_at(pitch, act_m, ev_tp)
    J[:, 1] = (_projected_force(R0, heading, ev_tp.force)
               - _projected_force(R0, heading, ev_tm.force)) / (2.0 * s)
    return J


@dataclass
class CruiseOutput:
    setpoint: AttitudeSetpoint
    delta_w: float               # wing-tilt command (feed-forward only)
    delta_plr: float             # nominal main throttle delta_plr_t + correction
    trim_u: np.ndarray           # looked-up trim actuation
    trim_theta: float
    v_lookup: np.ndarray
    force_correction: np.ndarray
    u_correction: np.ndarray     # (theta_c, delta_plr_c)
    lookup_clamped: bool


class CruiseController:
    """Holds the velocity PID; one instance per run."""

    def __init__(self):
        self.pid = Pid(KP, KI, KD, INTEGRATOR_LIMIT)

    def velocity_feedback(self, v_err: np.ndarray, mass: float,
                          dt: float) -> np.ndarray:
        """Corrective force from the velocity error PID."""
        return mass * np.array(self.pid(v_err, dt))

    def step(self, state, sp: CruiseSetpoint, tmap: TrimMap,
             vp: VehicleParams, current_act: ActuatorSet, dt: float,
             wind: np.ndarray) -> CruiseOutput:
        """One cruise update: feed-forward lookup plus feedback allocation."""
        v_air = state.v - wind
        _, _, yaw = euler_angles(state.y[6:15])
        heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        v_actual = np.array([v_air @ heading, v_air[2]])
        v_des = np.array([sp.v_ax, sp.v_az])

        v_lu = lookup_velocity(v_des, v_actual)
        v_a = float(np.hypot(v_lu[0], v_lu[1]))
        gamma = 0.0 if v_a < V_A_GAMMA_FLOOR \
            else math.atan2(-v_lu[1], v_lu[0])
        lut = lookup_trim(tmap, v_a, gamma)
        delta_w_t, delta_plr_t = float(lut.u[0]), float(lut.u[1])

        act_lin = nominal_actuation(vp, current_act, delta_plr=delta_plr_t,
                                    delta_w=delta_w_t)
        J = control_derivatives(state, act_lin, vp, wind)
        F_c = self.velocity_feedback(v_des - v_actual, vp.mass, dt)
        W = weight_schedule(v_actual[0])
        u_c = wls_allocate(J, F_c, W, REGULARIZATION, THETA_C_MAX, throttle_bounds=(
            COMMAND_LO["pl"] - delta_plr_t, COMMAND_HI - delta_plr_t))

        psi_dot = turn_coordination(sp.roll, v_actual[0],
                                    float(np.linalg.norm(vp.gravity)))
        setpoint = AttitudeSetpoint(roll=sp.roll,
                                    pitch=lut.theta + float(u_c[0]),
                                    yaw_rate=psi_dot)
        return CruiseOutput(
            setpoint=setpoint, delta_w=delta_w_t,
            delta_plr=delta_plr_t + float(u_c[1]),
            trim_u=lut.u, trim_theta=lut.theta, v_lookup=v_lu,
            force_correction=F_c, u_correction=u_c,
            lookup_clamped=lut.clamped)
