"""Command-line interface: config validation, model evaluation, trim-map
building and queries, scenario simulation, reporting, and invariant checks."""
from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import aero, sim, trim
from .dynamics import RigidBodyState, integrate_step
from .rotations import euler_zyx_to_matrix
from .vehicle import (ConfigError, VehicleParams, _vec3,
                      actuation_from_commands, default_vehicle,
                      load_vehicle_config, mirror_twin)


def _load_vehicle(path: str | None) -> VehicleParams:
    return default_vehicle() if path is None else load_vehicle_config(path)


def cmd_config_validate(args) -> int:
    try:
        vp = load_vehicle_config(args.path)
    except ConfigError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"OK: {args.path} ({vp.mass} kg, {len(vp.segments)} segments, "
          f"{len(vp.propellers)} propellers)")
    return 0


def cmd_model_eval(args) -> int:
    vp = _load_vehicle(args.vehicle)
    state = sim.state_from_dict(
        yaml.safe_load(Path(args.state).read_text(encoding="utf-8")) or {})
    araw = yaml.safe_load(Path(args.actuators).read_text(encoding="utf-8")) or {}
    wind = araw.pop("wind", None)
    if wind is not None:
        wind = _vec3(wind, "wind")
    act = actuation_from_commands(vp, **{f"delta_{k}": float(v)
                                         for k, v in araw.items()})
    fm, tab = aero.total_wrench(state, act, vp, wind)
    rows = [(p.name, f, m, False) for p, f, m in
            zip(vp.propellers, tab.prop_force, tab.prop_moment)]
    rows += zip((s.name for s in vp.segments), tab.seg_force, tab.seg_moment,
                tab.seg_stalled)
    rows.append(("fuselage", tab.fus_force, np.zeros(3), False))
    rows.append(("TOTAL", fm.force, fm.moment, False))
    print("source,fx,fy,fz,mx,my,mz,stalled")
    for name, force, moment, stalled in rows:
        print(f"{name}," + ",".join(repr(float(v)) for v in (*force, *moment))
              + f",{int(stalled)}")
    return 0


def cmd_trim_build(args) -> int:
    if not (args.va_step > 0.0 and args.gamma_step_deg > 0.0):
        raise trim.TrimError("grid steps must be > 0")
    if not (args.va_max >= 0.0 and args.gamma_max_deg >= 0.0):
        raise trim.TrimError("grid maxima must be >= 0")
    vp = _load_vehicle(args.vehicle)
    va_axis = np.arange(0.0, args.va_max + 1e-9, args.va_step)
    gamma_axis = np.radians(np.arange(-args.gamma_max_deg,
                                      args.gamma_max_deg + 1e-9,
                                      args.gamma_step_deg))
    tmap = trim.build_trim_map(vp, va_axis=va_axis, gamma_axis=gamma_axis)
    trim.save_trim_map(tmap, args.out)
    total = tmap.va_axis.size * tmap.gamma_axis.size
    print(f"built {tmap.va_axis.size}x{tmap.gamma_axis.size} map: "
          f"{tmap.n_feasible}/{total} feasible -> {args.out}")
    return 0


def cmd_trim_query(args) -> int:
    tmap = trim.load_trim_map(args.map)
    lut = trim.lookup_trim(tmap, args.va, args.gamma)
    names = ("delta_w", "delta_plr", "delta_al", "delta_e", "delta_pt")
    if lut.clamped:
        print("WARNING: query outside grid hull, clamped to boundary",
              file=sys.stderr)
    print(f"va={args.va} gamma={args.gamma}")
    for name, v in zip(names, lut.u):
        print(f"  {name:10s} {v: .6f}")
    print(f"  {'theta_t':10s} {lut.theta: .6f}  ({math.degrees(lut.theta):.2f} deg)")
    return 0


def cmd_sim_run(args) -> int:
    vp = _load_vehicle(args.vehicle)
    sc = sim.load_scenario(args.scenario)
    tmap = trim.load_trim_map(args.map) if args.map else None
    log = sim.run_scenario(sc, vp, tmap)
    log.save(args.out)
    status = f"FAULT at {log.fault}" if log.fault else "ok"
    print(f"{sc.name}: {log.rows.shape[0]} ticks -> {args.out} ({status})")
    return 1 if log.fault else 0


def cmd_report(args) -> int:
    log = sim.RunLog.load(args.log)
    sc = sim.load_scenario(args.scenario) if args.scenario else None
    metrics = sim.emit_report(log, args.out, sc)
    for k, v in metrics.items():
        print(f"{k:28s} {v:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------

def _check_rk4_order(vp) -> tuple[bool, str]:
    act = actuation_from_commands(vp)
    s0 = RigidBodyState(omega=np.array([2.0, -3.0, 1.0]))
    vp0 = _drag_free(vp)

    def run(dt, steps):
        s = s0.copy()
        for _ in range(steps):
            s = integrate_step(s, act, vp0, dt=dt)
        return s.omega

    base, n = 0.016, 25
    w1 = run(base, n)
    w2 = run(base / 2, 2 * n)
    w4 = run(base / 4, 4 * n)
    e1 = np.linalg.norm(w1 - w4)
    e2 = np.linalg.norm(w2 - w4)
    order = math.log2(e1 / e2) if e2 > 0 else float("inf")
    return order >= 3.9, f"RK4 observed order {order:.2f}"


def _drag_free(vp: VehicleParams) -> VehicleParams:
    # torque-free variant: keep inertia, remove gravity and air forces
    import copy
    vp2 = copy.deepcopy(vp)
    vp2.gravity = np.zeros(3)
    vp2.rho = 1e-12
    vp2.__post_init__()
    return vp2


def _check_orthonormality(vp, steps=10_000) -> tuple[bool, str]:
    act = actuation_from_commands(vp)
    vp0 = _drag_free(vp)
    s = RigidBodyState(omega=np.array([3.0, -2.0, 1.5]))
    for _ in range(steps):
        s = integrate_step(s, act, vp0, dt=0.004)
    err = np.abs(s.R_IB.T @ s.R_IB - np.eye(3)).max()
    return err < 1e-8, f"orthonormality drift {err:.2e} after {steps} steps"


def _check_allocation(vp, n=100) -> tuple[bool, str]:
    from .attitude import daisy_chain_allocate
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(n):
        zw = rng.uniform(0.0, math.pi / 2)
        state = RigidBodyState(
            v=np.array([rng.uniform(0.0, 18.0), rng.uniform(-1, 1), rng.uniform(-2, 2)]),
            R_IB=euler_zyx_to_matrix(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.3), 0.0),
            omega=rng.uniform(-0.5, 0.5, 3))
        u_n = actuation_from_commands(vp, delta_w=zw / (math.pi / 2),
                                      delta_plr=rng.uniform(0.3, 0.8))
        M_act = rng.uniform(-0.5, 0.5, 3)
        res = daisy_chain_allocate(M_act, state, u_n, vp)
        err = np.abs(res.allocated + res.residual - M_act).max()
        worst = max(worst, err)
    return worst < 1e-9, f"allocation accounting worst error {worst:.2e}"


def _check_continuity(vp) -> tuple[bool, str]:
    # the coefficient law the model evaluates, every segment at its four
    # blend edges
    worst = 0.0
    for seg in vp.segments:
        hw = seg.blend_halfwidth
        for edge in (seg.alpha_stall_pos - hw, seg.alpha_stall_pos + hw,
                     seg.alpha_stall_neg - hw, seg.alpha_stall_neg + hw):
            lo = aero.airfoil_coefficients(seg, edge - 1e-9, 0.1)[:3]
            hi = aero.airfoil_coefficients(seg, edge + 1e-9, 0.1)[:3]
            worst = max(worst, *(abs(a - b) for a, b in zip(lo, hi)))
    return worst < 1e-7, f"coefficient jump across blend edges {worst:.2e}"


def _check_mirror(vp, n=100) -> tuple[bool, str]:
    # a symmetric state and actuation are their own mirror images, so the
    # mirror twin must give the reflected wrench: (F_y, M_x, M_z) negated
    twin = mirror_twin(vp)
    reflect = np.array([1.0, -1.0, 1.0])
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(n):
        v = np.array([rng.uniform(-2, 20), 0.0, rng.uniform(-3, 3)])
        omega = np.array([0.0, rng.uniform(-1, 1), 0.0])
        act = actuation_from_commands(
            vp, delta_w=rng.uniform(0, 1), delta_plr=rng.uniform(0, 1),
            delta_pt=rng.uniform(0, 1), delta_e=rng.uniform(-1, 1))
        a = rng.uniform(-1, 1)
        act.delta_al, act.delta_ar = a, -a
        fm, _ = aero.body_wrench(v, omega, act, vp)
        fm_m, _ = aero.body_wrench(v, omega, act, twin)
        asym = max(np.abs(fm_m.force - reflect * fm.force).max(),
                   np.abs(fm_m.moment + reflect * fm.moment).max())
        worst = max(worst, asym)
    return worst < 1e-9, f"symmetric-state mirror-twin residual {worst:.2e}"


def cmd_check(args) -> int:
    vp = _load_vehicle(args.vehicle)
    checks = [
        ("rk4_order", _check_rk4_order),
        ("rotation_orthonormality", _check_orthonormality),
        ("allocation_accounting", _check_allocation),
        ("coefficient_continuity", _check_continuity),
        ("mirror_symmetry", _check_mirror),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn(vp)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tiltwing",
                                description="Tiltwing VTOL simulation and control stack")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("config", help="vehicle config tools")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    v = pcs.add_parser("validate", help="validate a vehicle config file")
    v.add_argument("path")
    v.set_defaults(func=cmd_config_validate)

    pm = sub.add_parser("model", help="aerodynamic model tools")
    pms = pm.add_subparsers(dest="subcommand", required=True)
    ev = pms.add_parser("eval", help="print the wrench breakdown as CSV")
    ev.add_argument("--vehicle", default=None)
    ev.add_argument("--state", required=True)
    ev.add_argument("--actuators", required=True)
    ev.set_defaults(func=cmd_model_eval)

    pt = sub.add_parser("trim", help="trim-map tools")
    pts = pt.add_subparsers(dest="subcommand", required=True)
    tb = pts.add_parser("build", help="build the trim map")
    tb.add_argument("--vehicle", default=None)
    tb.add_argument("--out", required=True)
    tb.add_argument("--va-max", type=float, default=25.0)
    tb.add_argument("--va-step", type=float, default=1.0)
    tb.add_argument("--gamma-max-deg", type=float, default=30.0)
    tb.add_argument("--gamma-step-deg", type=float, default=5.0)
    tb.set_defaults(func=cmd_trim_build)
    tq = pts.add_parser("query", help="interpolate the trim map")
    tq.add_argument("--map", required=True)
    tq.add_argument("--va", type=float, required=True)
    tq.add_argument("--gamma", type=float, required=True,
                    help="flight-path angle [rad]")
    tq.set_defaults(func=cmd_trim_query)

    ps = sub.add_parser("sim", help="scenario simulation")
    pss = ps.add_subparsers(dest="subcommand", required=True)
    sr = pss.add_parser("run", help="run a scenario")
    sr.add_argument("--vehicle", default=None)
    sr.add_argument("--scenario", required=True,
                    help="shipped scenario name or a YAML path")
    sr.add_argument("--map", default=None, help="trim map CSV (cruise mode)")
    sr.add_argument("--out", required=True)
    sr.set_defaults(func=cmd_sim_run)

    pr = sub.add_parser("report", help="metrics from a run log")
    pr.add_argument("--log", required=True)
    pr.add_argument("--out", default=None, help="output prefix for .csv/.txt")
    pr.add_argument("--scenario", default=None,
                    help="scenario (enables setpoint-aware metrics)")
    pr.set_defaults(func=cmd_report)

    ck = sub.add_parser("check", help="run the invariant suites")
    ck.add_argument("--vehicle", default=None)
    ck.set_defaults(func=cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, trim.TrimError, sim.ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
