"""Steady-state trim optimization and the trim-map.

A trim point at operating point (airspeed v_a, flight-path angle gamma) is
a longitudinally symmetric actuation u = (delta_w, delta_plr, delta_alr,
delta_e, delta_pt) and pitch theta that zero the translational and pitch
accelerations. Over-actuation is resolved by a secondary cost (net power,
control-surface saturation, pitch-target deviation, neighbor deviation);
the whole problem is solved as bound-constrained nonlinear least squares.

The map over a (v_a, gamma) grid is built with neighbor-seeded initial
guesses: each cell is re-solved with every newly improved neighboring
solution as initial guess until no cell improves.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .aero import body_wrench
from .leastsq import least_squares_lm
from .vehicle import ActuatorSet, VehicleParams

log = logging.getLogger(__name__)

U_FIELDS = ("delta_w", "delta_plr", "delta_alr", "delta_e", "delta_pt")
U_LO = np.array([0.0, 0.0, -1.0, -1.0, 0.0])
U_HI = np.array([1.0, 1.0, 1.0, 1.0, 1.0])

# LM iteration cap shared by point solves and map builds, so that a map
# cell and the point solve from the same guess stop at the same iterate.
MAX_ITER = 60
COST_TOL = 1e-9      # cost drop that counts as a map-cell improvement
MAX_SWEEPS = 20      # map sweeps before the build stops
REVISIT_TOL = 1e-4   # neighbour move that triggers a re-solve from it

CSV_HEADER = "va,gamma,feasible,theta_t,delta_w,delta_plr,delta_al,delta_e,delta_pt,cost,res_v,res_th"


class TrimError(RuntimeError):
    pass


@dataclass
class TrimWeights:
    """Steadiness weighting, feasibility thresholds, and cost weights.

    Every solve uses ``WEIGHTS``; a map records the weights it was built
    with, and its CSV file keeps every field."""

    q_v: float = 10.0            # on v_dot (x and z, inertial)
    q_theta: float = 10.0        # on theta_ddot
    w_power: float = 0.01
    w_sat: float = 1.0
    w_pitch: float = 1.0
    w_neighbor: float = 0.1
    eps_v: float = 0.05          # m/s^2 feasibility threshold
    eps_theta: float = 0.05      # rad/s^2
    sat_threshold: float = 0.9   # |delta_cs| up to which the barrier is 0
    sat_scale: float = 0.05      # overshoot at which it reaches w_sat * sat_scale
    theta_star_ramp: float = 12.0  # m/s; theta* blends 0 -> gamma up to here


WEIGHTS = TrimWeights()


@dataclass
class TrimPoint:
    v_a: float
    gamma: float
    u: np.ndarray                # (5,) in U_FIELDS order
    theta: float
    res_v: float                 # ||v_dot|| at the solution
    res_theta: float             # |theta_ddot|
    cost: float                  # secondary cost q (power + saturation + pitch)
    feasible: bool

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([self.u, [self.theta]])


def trim_actuation(vp: VehicleParams, u: np.ndarray) -> ActuatorSet:
    """Longitudinally symmetric actuation: equal main throttles and the
    aileron pair deflected in flap mode (delta_al = -delta_ar), with the
    wing settled at its commanded tilt. The commands are not clamped, which
    keeps the model smooth for the solver's probes across the bounds."""
    return ActuatorSet(
        delta_w=u[0], delta_pl=u[1], delta_pr=u[1],
        delta_al=u[2], delta_ar=-u[2], delta_e=u[3], delta_pt=u[4],
        zeta_w=u[0] * vp.actuators["w"].travel)


_ZERO3 = np.zeros(3)


def trim_accelerations(u: np.ndarray, theta: float, v_a: float, gamma: float,
                       vp: VehicleParams) -> tuple[np.ndarray, float]:
    """(v_dot inertial, theta_ddot) of the steady candidate at omega = 0."""
    act = trim_actuation(vp, u)
    ct, st = math.cos(theta), math.sin(theta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    # body airspeed = R_y(theta)^T (v_a cos(g), 0, -v_a sin(g))
    v_a_body = np.array([v_a * (ct * cg + st * sg), 0.0,
                         v_a * (st * cg - ct * sg)])
    fm, _ = body_wrench(v_a_body, _ZERO3, act, vp)
    f = fm.force
    v_dot = vp.gravity + np.array([ct * f[0] + st * f[2], f[1],
                                   -st * f[0] + ct * f[2]]) / vp.mass
    theta_ddot = float(vp.inertia_inv[1] @ fm.moment)
    return v_dot, theta_ddot


def theta_star(v_a: float, gamma: float) -> float:
    """Pitch target: zero near hover, aligned with gamma at speed."""
    return gamma * min(max(v_a / WEIGHTS.theta_star_ramp, 0.0), 1.0)


def shaft_power(vp: VehicleParams, u: np.ndarray) -> float:
    """Static shaft-power proxy sum(rho eta^3 D^5 C_Q0) over all props.

    |eta| keeps the proxy nonnegative when a finite-difference probe steps
    a throttle command marginally below zero."""
    act = trim_actuation(vp, u)
    total = 0.0
    for prop in vp.propellers:
        eta = act.position(prop.name, vp)
        total += vp.rho * abs(eta) ** 3 * prop.diameter ** 5 * prop.cq0
    return total


def _cost_terms(u: np.ndarray, theta: float, th_star: float,
                vp: VehicleParams) -> tuple[float, list[float], float]:
    w = WEIGHTS
    power = w.w_power * shaft_power(vp, u)
    sat = [w.w_sat * w.sat_scale
           * (max(abs(u[k]) - w.sat_threshold, 0.0) / w.sat_scale) ** 3
           for k in (2, 3)]
    pitch = w.w_pitch * (theta - th_star) ** 2
    return power, sat, pitch


def trim_cost(u: np.ndarray, theta: float,
              neighbors: list[np.ndarray] | None, th_star: float,
              vp: VehicleParams) -> float:
    """Secondary cost q >= 0: net power, control-surface saturation
    barriers, pitch-target deviation, and deviation from the mean of the
    neighboring solutions. Without neighbors (None or empty) the cost is
    comparable across map sweeps; `TrimPoint.cost` stores that form.

    The saturation barrier on the aileron pair and the elevator is
    w_sat * s * (max(0, |delta| - thr) / s)^3 with thr = sat_threshold and
    s = sat_scale: exactly zero up to the threshold, and cubic beyond it, so
    that its square root in ``trim_residual`` has a continuous first
    derivative."""
    power, sat, pitch = _cost_terms(u, theta, th_star, vp)
    q = power + sum(sat) + pitch
    if neighbors:
        z = np.concatenate([u, [theta]])
        q += WEIGHTS.w_neighbor * float(np.sum((z - np.mean(neighbors, axis=0)) ** 2))
    return q


def trim_residual(u: np.ndarray, theta: float, v_a: float, gamma: float,
                  vp: VehicleParams,
                  neighbors: list[np.ndarray] | None = None,
                  th_star: float | None = None) -> np.ndarray:
    """Weighted residual vector [sqrt(Q_v) v_dot_xz, sqrt(Q_theta)
    theta_ddot, sqrt(cost terms)] whose squared norm is the trim objective."""
    w = WEIGHTS
    if th_star is None:
        th_star = theta_star(v_a, gamma)
    v_dot, th_dd = trim_accelerations(u, theta, v_a, gamma, vp)
    sq_v = math.sqrt(w.q_v)
    parts = [sq_v * v_dot[0], sq_v * v_dot[2], math.sqrt(w.q_theta) * th_dd]
    power, sat, pitch = _cost_terms(u, theta, th_star, vp)
    parts.append(math.sqrt(power))
    parts.extend(math.sqrt(s) for s in sat)
    parts.append(math.sqrt(w.w_pitch) * (theta - th_star))
    if neighbors:
        z = np.concatenate([u, [theta]])
        dev = z - np.mean(neighbors, axis=0)
        parts.extend(math.sqrt(w.w_neighbor) * dev)
    return np.array(parts)


def solve_trim_point(v_a: float, gamma: float, ig: np.ndarray,
                     vp: VehicleParams,
                     neighbors: list[np.ndarray] | None = None) -> TrimPoint:
    """Solve one operating point from an initial guess z = (u, theta)."""
    th_star = theta_star(v_a, gamma)
    lb = np.concatenate([U_LO, [-math.pi / 2]])
    ub = np.concatenate([U_HI, [math.pi / 2]])

    def residual(z):
        return trim_residual(z[:5], z[5], v_a, gamma, vp,
                             neighbors=neighbors, th_star=th_star)

    res = least_squares_lm(residual, np.asarray(ig, dtype=float), lb, ub,
                           max_iter=MAX_ITER)
    u, theta = res.x[:5], float(res.x[5])
    v_dot, th_dd = trim_accelerations(u, theta, v_a, gamma, vp)
    res_v = float(np.linalg.norm(v_dot))
    res_th = abs(th_dd)
    feasible = res_v < WEIGHTS.eps_v and res_th < WEIGHTS.eps_theta
    return TrimPoint(v_a=v_a, gamma=gamma, u=u, theta=theta,
                     res_v=res_v, res_theta=res_th,
                     cost=trim_cost(u, theta, None, th_star, vp),
                     feasible=feasible)


def hover_initial_guess(vp: VehicleParams) -> np.ndarray:
    """Static-thrust-balance guess for the hover cell."""
    main = vp.prop["pl"]
    eta = math.sqrt(0.95 * vp.weight
                    / (2.0 * vp.rho * main.diameter ** 4 * main.ct0))
    d_plr = min(eta / main.max_speed, 1.0)
    return np.array([1.0, d_plr, 0.0, 0.0, 0.05, 0.0])


# ---------------------------------------------------------------------------
# Trim map
# ---------------------------------------------------------------------------

@dataclass
class TrimMap:
    va_axis: np.ndarray
    gamma_axis: np.ndarray
    points: list[list[TrimPoint]]        # indexed [i_va][j_gamma]
    weights: TrimWeights = field(default_factory=TrimWeights)

    @property
    def n_feasible(self) -> int:
        return sum(p.feasible for row in self.points for p in row)


@dataclass
class TrimLookup:
    u: np.ndarray
    theta: float
    clamped: bool = False        # query was outside the grid hull


def _neighbor_cells(i: int, j: int, nv: int, ng: int):
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            ni, nj = i + di, j + dj
            if 0 <= ni < nv and 0 <= nj < ng:
                yield ni, nj


def _better(new: TrimPoint, old: TrimPoint | None) -> bool:
    if old is None:
        return True
    if new.feasible != old.feasible:
        return new.feasible
    if new.feasible:
        return new.cost < old.cost - COST_TOL
    return math.hypot(new.res_v, new.res_theta) \
        < math.hypot(old.res_v, old.res_theta) - COST_TOL


def build_trim_map(vp: VehicleParams, *,
                   va_axis: np.ndarray, gamma_axis: np.ndarray,
                   seed: tuple[float, float, np.ndarray] | None = None) -> TrimMap:
    """Sweep the grid until a fixed point of the neighbor-seeded solves.

    Every cell is solved once per available feasible neighbor solution used
    as initial guess (each solve capped at ``MAX_ITER`` LM iterations); the
    lowest-cost feasible solution is kept, a cell counts as improved when
    it turns feasible or its cost (its residual norm, while infeasible)
    drops by more than ``COST_TOL``, and improvements trigger revisits of
    the neighbors. A neighbor triggers a revisit only when its
    solution has moved by more than ``REVISIT_TOL`` in some actuation
    component since it was last tried; the weak neighbor coupling in the
    cost otherwise keeps circulating improvements far below any useful
    resolution. The build stops after a sweep that improves no cell, or
    after ``MAX_SWEEPS`` sweeps.
    """
    va_axis = np.asarray(va_axis, dtype=float)
    gamma_axis = np.asarray(gamma_axis, dtype=float)
    if va_axis.size == 0 or gamma_axis.size == 0:
        raise TrimError("grid axes must not be empty")
    if np.any(np.diff(va_axis) <= 0.0) or np.any(np.diff(gamma_axis) <= 0.0):
        raise TrimError("grid axes must be strictly increasing")
    nv, ng = va_axis.size, gamma_axis.size

    if seed is None:
        if va_axis[0] != 0.0:
            raise TrimError("default seed needs a hover column (v_a = 0) in the grid")
        j0 = int(np.argmin(np.abs(gamma_axis)))
        seed = (0.0, float(gamma_axis[j0]), hover_initial_guess(vp))
    seed_va, seed_gamma, seed_ig = seed
    si = int(np.argmin(np.abs(va_axis - seed_va)))
    sj = int(np.argmin(np.abs(gamma_axis - seed_gamma)))
    if abs(va_axis[si] - seed_va) > 1e-9 or abs(gamma_axis[sj] - seed_gamma) > 1e-9:
        raise TrimError("seed operating point must be a grid node")

    # the hover column stores the gamma = 0 solution in every gamma cell
    hover_col = 0 if va_axis[0] == 0.0 else None
    hover_j = int(np.argmin(np.abs(gamma_axis))) if hover_col is not None else None

    points: list[list[TrimPoint | None]] = [[None] * ng for _ in range(nv)]
    tried: dict[tuple[int, int, int, int], np.ndarray] = {}

    def pinned(i: int, j: int) -> bool:
        return hover_col is not None and i == hover_col and j != hover_j

    def mirror_hover() -> None:
        if hover_col is None or points[hover_col][hover_j] is None:
            return
        src = points[hover_col][hover_j]
        for j in range(ng):
            if j != hover_j:
                points[hover_col][j] = replace(
                    src, gamma=float(gamma_axis[j]), u=src.u.copy())

    def solve_cell(i: int, j: int, ig: np.ndarray) -> TrimPoint:
        ctx = [points[ni][nj].z for ni, nj in _neighbor_cells(i, j, nv, ng)
               if points[ni][nj] is not None and points[ni][nj].feasible]
        return solve_trim_point(float(va_axis[i]), float(gamma_axis[j]), ig,
                                vp, neighbors=ctx or None)

    first = solve_cell(si, sj, np.asarray(seed_ig, dtype=float))
    if not first.feasible:
        raise TrimError(
            f"seed cell (v_a={seed_va}, gamma={seed_gamma}) did not solve "
            f"feasibly: |v_dot|={first.res_v:.3g}, |th_dd|={first.res_theta:.3g}")
    points[si][sj] = first
    mirror_hover()

    for sweep in range(1, MAX_SWEEPS + 1):
        changed = 0
        solves = 0
        for i in range(nv):
            for j in range(ng):
                if pinned(i, j):
                    continue
                for ni, nj in _neighbor_cells(i, j, nv, ng):
                    src = points[ni][nj]
                    if src is None or not src.feasible:
                        continue
                    key = (i, j, ni, nj)
                    last = tried.get(key)
                    if last is not None \
                            and np.abs(src.z - last).max() <= REVISIT_TOL:
                        continue
                    tried[key] = src.z
                    cand = solve_cell(i, j, src.z)
                    solves += 1
                    if _better(cand, points[i][j]):
                        points[i][j] = cand
                        changed += 1
                        if i == hover_col and j == hover_j:
                            mirror_hover()
        log.info("trim map sweep %d: %d solves, %d cells improved",
                 sweep, solves, changed)
        if changed == 0 or solves == 0:
            break

    missing = [(i, j) for i in range(nv) for j in range(ng) if points[i][j] is None]
    for i, j in missing:
        # unreachable cells (no feasible neighbor ever appeared): record a
        # direct attempt from the seed guess so every cell is present
        points[i][j] = solve_cell(i, j, np.asarray(seed_ig, dtype=float))

    return TrimMap(va_axis=va_axis, gamma_axis=gamma_axis,
                   points=points, weights=replace(WEIGHTS))


def _bracket(ax: np.ndarray, q: float) -> tuple[int, int, float]:
    """Lower and upper node of the interval holding q, and the weight of
    the upper one; a one-node axis gives its missing neighbour weight 0."""
    if ax.size == 1:
        return 0, 0, 0.0
    i = int(np.clip(np.searchsorted(ax, q) - 1, 0, ax.size - 2))
    return i, i + 1, (q - ax[i]) / (ax[i + 1] - ax[i])


def lookup_trim(tmap: TrimMap, v_a: float, gamma: float) -> TrimLookup:
    """Bilinear interpolation over the four enclosing cells.

    Infeasible corners disqualify interpolation; the nearest feasible cell
    value is used instead. Queries outside the hull are clamped and flagged.
    """
    va_ax, ga_ax = tmap.va_axis, tmap.gamma_axis
    clamped = not (va_ax[0] <= v_a <= va_ax[-1] and ga_ax[0] <= gamma <= ga_ax[-1])
    vq = float(np.clip(v_a, va_ax[0], va_ax[-1]))
    gq = float(np.clip(gamma, ga_ax[0], ga_ax[-1]))

    i, i1, tx = _bracket(va_ax, vq)
    j, j1, ty = _bracket(ga_ax, gq)
    corners = [tmap.points[i][j], tmap.points[i1][j],
               tmap.points[i][j1], tmap.points[i1][j1]]
    if all(p.feasible for p in corners):
        wgt = np.array([(1 - tx) * (1 - ty), tx * (1 - ty),
                        (1 - tx) * ty, tx * ty])
        u = sum(wk * p.u for wk, p in zip(wgt, corners))
        theta = sum(wk * p.theta for wk, p in zip(wgt, corners))
        return TrimLookup(u=u, theta=float(theta), clamped=clamped)

    # nearest feasible cell in grid-scaled distance, lexicographic tie-break
    dva = float(np.mean(np.diff(va_ax))) if va_ax.size > 1 else 1.0
    dga = float(np.mean(np.diff(ga_ax))) if ga_ax.size > 1 else 1.0
    best = None
    best_d = math.inf
    for ii in range(va_ax.size):
        for jj in range(ga_ax.size):
            p = tmap.points[ii][jj]
            if not p.feasible:
                continue
            d = ((va_ax[ii] - vq) / dva) ** 2 + ((ga_ax[jj] - gq) / dga) ** 2
            if d < best_d - 1e-15:
                best, best_d = p, d
    if best is None:
        raise TrimError("trim map has no feasible cells")
    return TrimLookup(u=best.u.copy(), theta=best.theta, clamped=clamped)


# ---------------------------------------------------------------------------
# CSV persistence (full double precision, diff-friendly)
# ---------------------------------------------------------------------------

def save_trim_map(tmap: TrimMap, path: str | Path) -> None:
    w = tmap.weights
    lines = [
        "# tiltwing trim map",
        "# " + " ".join(f"{f.name}={getattr(w, f.name)!r}" for f in fields(w)),
        CSV_HEADER,
    ]
    for i, va in enumerate(tmap.va_axis):
        for j, ga in enumerate(tmap.gamma_axis):
            p = tmap.points[i][j]
            vals = [va, ga, int(p.feasible), p.theta, *p.u,
                    p.cost, p.res_v, p.res_theta]
            lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                                  else str(v) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trim_map(path: str | Path) -> TrimMap:
    meta: dict[str, float] = {}
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    try:
                        meta[k] = float(v)
                    except ValueError:
                        pass
            continue
        if line.startswith("va,"):
            if line != CSV_HEADER:
                raise TrimError(f"unexpected trim map header: {line}")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise TrimError(f"no rows in trim map {path}")

    arr = np.array(rows)
    va_axis = np.unique(arr[:, 0])
    gamma_axis = np.unique(arr[:, 1])
    points: list[list[TrimPoint | None]] = \
        [[None] * gamma_axis.size for _ in range(va_axis.size)]
    for row in arr:
        i = int(np.argmin(np.abs(va_axis - row[0])))
        j = int(np.argmin(np.abs(gamma_axis - row[1])))
        points[i][j] = TrimPoint(
            v_a=row[0], gamma=row[1], u=row[4:9].copy(), theta=row[3],
            res_v=row[10], res_theta=row[11], cost=row[9],
            feasible=bool(row[2]))
    for i in range(va_axis.size):
        for j in range(gamma_axis.size):
            if points[i][j] is None:
                raise TrimError("trim map grid is incomplete")

    weights = TrimWeights(**{f.name: meta[f.name] for f in fields(TrimWeights)
                             if f.name in meta})
    return TrimMap(va_axis=va_axis, gamma_axis=gamma_axis, points=points,
                   weights=weights)
