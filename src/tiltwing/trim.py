"""Steady-state trim optimization and the trim-map.

A trim point at operating point (airspeed v_a, flight-path angle gamma) is
a longitudinally symmetric actuation u = (delta_w, delta_plr, delta_al,
delta_e, delta_pt) and pitch theta that zero the translational and pitch
accelerations. Over-actuation is resolved by a secondary cost (net power,
control-surface saturation, pitch-target deviation, neighbor deviation);
the whole problem is solved as bound-constrained nonlinear least squares.
A solve hands the model evaluation of its current iterate to the next
ones, so that a Jacobian probe of one throttle or surface command rebuilds
only the propellers and segments that command moves (`solve_trim_point`).
`trim_actuation` makes every command a Python float: `body_wrench` reads
commands as given, and numpy scalars run its loops 1.4 to 1.6 times slower.

The map over a (v_a, gamma) grid is built as one continuation front, ring
by ring outward from a seed cell, which is ring 0. One scan of a cell's
neighbors gives its starts, each distinct feasible neighboring solution
found before it, and its cost context, every such solution; the cell is
solved once from each start and keeps the best result.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .aero import FlowTables, body_wrench
from .leastsq import least_squares_lm
from .vehicle import (COMMAND_HI, COMMAND_LO, ActuatorSet, VehicleParams, number,
                      read_csv_table, read_keys)

log = logging.getLogger(__name__)

# u's commands; delta_al drives the aileron pair in flap mode (`trim_actuation`)
U_FIELDS = ("delta_w", "delta_plr", "delta_al", "delta_e", "delta_pt")
U_LO = np.array([COMMAND_LO[n] for n in ("w", "pl", "al", "e", "pt")])
U_HI = np.full(len(U_FIELDS), COMMAND_HI)

# LM iteration cap shared by point solves and map builds, so that a map
# cell and the point solve from the same guess stop at the same iterate.
MAX_ITER = 60
COST_TOL = 1e-9      # cost drop that counts as a map-cell improvement

CSV_HEADER = ",".join(("va", "gamma", "feasible", "theta_t", *U_FIELDS,
                       "cost", "res_v", "res_th"))


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
# a map file's title comment; its other comment lines hold the weights it was
# built with, as name=value tokens
TITLE = "tiltwing trim map"
WEIGHT_KEYS = {f.name: (number, f.default) for f in fields(TrimWeights)}


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
    w, plr, al, e, pt = map(float, u)
    return ActuatorSet(
        delta_w=w, delta_pl=plr, delta_pr=plr, delta_al=al, delta_ar=-al,
        delta_e=e, delta_pt=pt, zeta_w=w * vp.travel["w"])


_ZERO3 = (0.0, 0.0, 0.0)


def trim_accelerations(u: np.ndarray, theta: float, v_a: float, gamma: float,
                       vp: VehicleParams, prior: FlowTables | None = None
                       ) -> tuple[np.ndarray, float]:
    """(v_dot inertial, theta_ddot) of the steady candidate at omega = 0;
    ``prior`` goes to `body_wrench` and does not change the result."""
    v_dot, theta_ddot, _ = _steady_state(trim_actuation(vp, u), theta, v_a,
                                         gamma, vp, prior)
    return np.array(v_dot), theta_ddot


def _steady_state(act: ActuatorSet, theta: float, v_a: float, gamma: float,
                  vp: VehicleParams, prior: FlowTables | None
                  ) -> tuple[tuple[float, float, float], float, FlowTables]:
    """`trim_accelerations` of an actuation, with v_dot as a float 3-tuple,
    and its `body_wrench` record."""
    ct, st = math.cos(theta), math.sin(theta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    # body airspeed = R_y(theta)^T (v_a cos(g), 0, -v_a sin(g))
    v_a_body = (v_a * (ct * cg + st * sg), 0.0, v_a * (st * cg - ct * sg))
    ev = body_wrench(v_a_body, _ZERO3, act, vp, prior)
    fx, fy, fz = ev.force
    (gx, gy, gz), m = vp.gravity.tolist(), vp.mass
    v_dot = (gx + (ct * fx + st * fz) / m, gy + fy / m, gz + (-st * fx + ct * fz) / m)
    theta_ddot = float(vp.inertia_inv[1] @ np.array(ev.moment))
    return v_dot, theta_ddot, ev


def theta_star(v_a: float, gamma: float) -> float:
    """Pitch target: zero near hover, aligned with gamma at speed."""
    return gamma * min(max(v_a / WEIGHTS.theta_star_ramp, 0.0), 1.0)


def shaft_power(vp: VehicleParams, act: ActuatorSet) -> float:
    """Static shaft-power proxy sum(rho eta^3 D^5 C_Q0) over all props.

    |eta| keeps the proxy nonnegative when a finite-difference probe steps
    a throttle command marginally below zero."""
    total = 0.0
    for prop in vp.propellers:
        eta = act.position(prop.name, vp)
        total += vp.rho * abs(eta) ** 3 * prop.diameter ** 5 * prop.cq0
    return total


def _cost_terms(act: ActuatorSet, theta: float, th_star: float,
                vp: VehicleParams) -> tuple[float, list[float], float]:
    w = WEIGHTS
    power = w.w_power * shaft_power(vp, act)
    sat = [w.w_sat * w.sat_scale
           * (max(abs(delta) - w.sat_threshold, 0.0) / w.sat_scale) ** 3
           for delta in (act.delta_al, act.delta_e)]
    pitch = w.w_pitch * (theta - th_star) ** 2
    return power, sat, pitch


def trim_cost(u: np.ndarray, theta: float, th_star: float,
              vp: VehicleParams) -> float:
    """Secondary cost q >= 0: net power, control-surface saturation
    barriers and pitch-target deviation. It is comparable across cells and
    across the starts of one cell; `TrimPoint.cost` stores it. The
    deviation from the neighboring solutions, which the solver also
    minimizes, is a term of ``trim_residual`` only.

    The saturation barrier on the aileron pair and the elevator is
    w_sat * s * (max(0, |delta| - thr) / s)^3 with thr = sat_threshold and
    s = sat_scale: exactly zero up to the threshold, and cubic beyond it, so
    that its square root in ``trim_residual`` has a continuous first
    derivative."""
    power, sat, pitch = _cost_terms(trim_actuation(vp, u), theta, th_star, vp)
    return power + sum(sat) + pitch


def trim_residual(u: np.ndarray, theta: float, v_a: float, gamma: float,
                  vp: VehicleParams, neighbor_mean: list[float] | None,
                  th_star: float, prior: FlowTables | None
                  ) -> tuple[np.ndarray, FlowTables]:
    """Weighted residual vector [sqrt(Q_v) v_dot_xz, sqrt(Q_theta)
    theta_ddot, sqrt(cost terms)] whose squared norm is the trim objective,
    and its `body_wrench` record. ``th_star`` is the pitch target,
    ``theta_star(v_a, gamma)`` in a solve; ``neighbor_mean`` is the mean z of
    the neighboring solutions, None for no neighbor term; ``prior`` is as in
    `trim_accelerations`."""
    w = WEIGHTS
    act = trim_actuation(vp, u)
    v_dot, th_dd, ev = _steady_state(act, theta, v_a, gamma, vp, prior)
    sq_v = math.sqrt(w.q_v)
    parts = [sq_v * v_dot[0], sq_v * v_dot[2], math.sqrt(w.q_theta) * th_dd]
    power, sat, pitch = _cost_terms(act, theta, th_star, vp)
    parts.append(math.sqrt(power))
    parts.extend(math.sqrt(s) for s in sat)
    parts.append(math.sqrt(w.w_pitch) * (theta - th_star))
    if neighbor_mean is not None:
        sq_n = math.sqrt(w.w_neighbor)
        parts.extend(sq_n * (zk - mk) for zk, mk in zip((*u, theta), neighbor_mean))
    return np.array(parts), ev


def solve_trim_point(v_a: float, gamma: float, ig: np.ndarray,
                     vp: VehicleParams,
                     neighbors: list[np.ndarray] | None = None) -> TrimPoint:
    """Solve one operating point from an initial guess z = (u, theta).

    Every residual evaluation hands `body_wrench` the record of the current
    LM iterate as ``prior``. The iterate is the last evaluated z that is not
    a one-coordinate offset of the iterate before it: the Jacobian's
    central-difference probes are such offsets, so a probe of delta_plr,
    delta_al, delta_e or delta_pt rebuilds only the sources that command
    moves, and a probe of delta_w or theta, which changes the wing tilt or
    the body airspeed, is a full evaluation. Results are those of full
    evaluations, bit for bit."""
    th_star = theta_star(v_a, gamma)
    neighbor_mean = np.mean(neighbors, axis=0).tolist() if neighbors else None
    lb = np.concatenate([U_LO, [-math.pi / 2]])
    ub = np.concatenate([U_HI, [math.pi / 2]])
    it_z = it_ev = None

    def residual(z):
        nonlocal it_z, it_ev
        z = z.tolist()
        r, ev = trim_residual(z[:5], z[5], v_a, gamma, vp, neighbor_mean,
                              th_star, it_ev)
        if it_z is None or sum(a != b for a, b in zip(z, it_z)) > 1:
            it_z, it_ev = z, ev
        return r

    res = least_squares_lm(residual, np.asarray(ig, dtype=float), lb, ub,
                           max_iter=MAX_ITER)
    u, theta = res.x[:5], float(res.x[5])
    v_dot, th_dd = trim_accelerations(u, theta, v_a, gamma, vp, it_ev)
    res_v = float(np.linalg.norm(v_dot))
    res_th = abs(th_dd)
    feasible = res_v < WEIGHTS.eps_v and res_th < WEIGHTS.eps_theta
    return TrimPoint(v_a=v_a, gamma=gamma, u=u, theta=theta,
                     res_v=res_v, res_theta=res_th,
                     cost=trim_cost(u, theta, th_star, vp),
                     feasible=feasible)


def hover_initial_guess(vp: VehicleParams) -> np.ndarray:
    """Static-thrust-balance guess for the hover cell."""
    main = vp.prop["pl"]
    eta = math.sqrt(0.95 * vp.weight
                    / (2.0 * vp.rho * main.diameter ** 4 * main.ct0))
    d_plr = min(eta / main.max_speed, COMMAND_HI)
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
    """Build the map as one continuation front from the seed cell.

    Cells are visited once, ring by ring outward from the seed (Chebyshev
    grid distance, then Manhattan distance, then index); ring 0 is the seed
    cell, solved from the seed guess, and must be feasible. One scan of a
    cell's neighbors finds the feasible ones solved before it: the cell is
    solved from each distinct one, with all of them in its cost, and keeps
    the best result (``_better``). A cell with none at its turn is retried
    after the pass, from the seed guess if it still has none. One INFO
    record per ring counts its solves and improvements; a DEBUG record per
    cell names the start that won.
    """
    va_axis = np.asarray(va_axis, dtype=float)
    gamma_axis = np.asarray(gamma_axis, dtype=float)
    if va_axis.size == 0 or gamma_axis.size == 0:
        raise TrimError("grid axes must not be empty")
    if np.any(np.diff(va_axis) <= 0.0) or np.any(np.diff(gamma_axis) <= 0.0):
        raise TrimError("grid axes must be strictly increasing")
    nv, ng = va_axis.size, gamma_axis.size
    # the hover column stores its gamma = 0 solution in every gamma cell
    hover_col = 0 if va_axis[0] == 0.0 else None
    hover_j = int(np.argmin(np.abs(gamma_axis)))

    if seed is None:
        if hover_col is None:
            raise TrimError("default seed needs a hover column (v_a = 0) in the grid")
        seed = (0.0, float(gamma_axis[hover_j]), hover_initial_guess(vp))
    seed_va, seed_gamma, seed_ig = seed
    si = int(np.argmin(np.abs(va_axis - seed_va)))
    sj = int(np.argmin(np.abs(gamma_axis - seed_gamma)))
    if abs(va_axis[si] - seed_va) > 1e-9 or abs(gamma_axis[sj] - seed_gamma) > 1e-9:
        raise TrimError("seed operating point must be a grid node")

    points: list[list[TrimPoint | None]] = [[None] * ng for _ in range(nv)]
    seed_ig = np.asarray(seed_ig, dtype=float)

    def solve_ring(r: int, cells, last_resort: bool) -> None:
        solves = improved = 0
        for i, j in cells:
            ctx, starts = [], {}      # feasible neighbors' z; distinct starts by z
            for ni, nj in _neighbor_cells(i, j, nv, ng):
                src = points[ni][nj]
                if src is not None and src.feasible:
                    ctx.append(z := src.z)
                    starts.setdefault(z.tobytes(), (f"cell ({ni}, {nj})", z))
            if not starts and last_resort:
                starts[b""] = ("the seed guess", seed_ig)
            best = won = None
            for name, ig in starts.values():
                cand = solve_trim_point(float(va_axis[i]), float(gamma_axis[j]), ig,
                                        vp, neighbors=ctx or None)
                if _better(cand, best):
                    best, won, improved = cand, name, improved + 1
            if best is not None:
                log.debug("trim map cell (%d, %d): start from %s won", i, j, won)
                points[i][j] = best
                if i == hover_col and j == hover_j:
                    points[i] = [replace(best, gamma=float(g), u=best.u.copy())
                                 for g in gamma_axis]
            solves += len(starts)
        log.info("trim map sweep %d: %d solves, %d cells improved",
                 r, solves, improved)

    def ring(c: tuple[int, int]) -> int:
        return max(abs(c[0] - si), abs(c[1] - sj))

    order = sorted((c for c in np.ndindex(nv, ng) if c == (si, sj)
                    or not (c[0] == hover_col and c[1] != hover_j)),
                   key=lambda c: (ring(c), abs(c[0] - si) + abs(c[1] - sj), c))
    for r, cells in itertools.groupby(order, key=ring):
        solve_ring(r, cells, last_resort=r == 0)  # ring 0 has no neighbor yet
        if r == 0 and not points[si][sj].feasible:
            first = points[si][sj]
            raise TrimError(
                f"seed cell (v_a={seed_va}, gamma={seed_gamma}) did not solve "
                f"feasibly: |v_dot|={first.res_v:.3g}, |th_dd|={first.res_theta:.3g}")
    # a cell with no feasible solved neighbor at its turn has no point yet;
    # retry it from the neighbors feasible since, or from the seed guess
    late = [c for c in order if points[c[0]][c[1]] is None]
    if late:
        solve_ring(r + 1, late, last_resort=True)

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
        f"# {TITLE}",
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
    comments, header, arr, row_lines = read_csv_table(path, TrimError)
    if ",".join(header) != CSV_HEADER:
        raise TrimError(f"unexpected trim map header: {','.join(header)}")
    if not row_lines.size:
        raise TrimError(f"no rows in trim map {path}")
    for row, lineno in zip(arr.tolist(), row_lines):
        if not all(map(math.isfinite, row)) or row[2] not in (0.0, 1.0):
            raise TrimError(f"{path} line {lineno}: values must be finite and "
                            f"feasible 0 or 1: {row}")
    weights = TrimWeights(**read_keys(
        dict(tok.partition("=")[::2] for line in comments if line.strip() != TITLE
             for tok in line.split()), WEIGHT_KEYS, TrimError, f"{path} weights"))

    # each row's cell: the indices of its va and gamma on the axes
    va_axis, rows_i = np.unique(arr[:, 0], return_inverse=True)
    gamma_axis, rows_j = np.unique(arr[:, 1], return_inverse=True)
    points: list[list[TrimPoint | None]] = \
        [[None] * gamma_axis.size for _ in range(va_axis.size)]
    for row, lineno, i, j in zip(arr, row_lines, rows_i.tolist(), rows_j.tolist()):
        if points[i][j] is not None:
            raise TrimError(f"{path} line {lineno}: second row for the cell "
                            f"va={float(row[0])!r}, gamma={float(row[1])!r}")
        points[i][j] = TrimPoint(
            v_a=row[0], gamma=row[1], u=row[4:9].copy(), theta=row[3],
            res_v=row[10], res_theta=row[11], cost=row[9],
            feasible=bool(row[2]))
    if len(arr) < va_axis.size * gamma_axis.size:   # one row per cell, so one lacks its row
        i, j = np.argwhere([[p is None for p in row] for row in points])[0]
        raise TrimError(f"{path}: trim map grid is incomplete, no row for the cell "
                        f"va={float(va_axis[i])!r}, gamma={float(gamma_axis[j])!r}")

    return TrimMap(va_axis=va_axis, gamma_axis=gamma_axis, points=points,
                   weights=weights)
