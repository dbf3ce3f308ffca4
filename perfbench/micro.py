"""Isolated per-call timers on the default vehicle.

States are drawn from the seed: level-ish attitudes at any heading, with
the airspeed along the heading (a vehicle that flies forward, not sideways)
and the wing tilt scheduled on that speed. Each timer reports the median
per-call time, so one slow call does not move it.
"""
from __future__ import annotations

import math
import time

import numpy as np

from workloads import TRIM_SEED_GUESS

N_STATES = 8
TIMER_BUDGET_S = 0.4            # per timer, after one warm-up call
MAX_CALLS = 400


def _states(vp, rng: np.random.Generator):
    from tiltwing.dynamics import RigidBodyState
    from tiltwing.rotations import euler_zyx_to_matrix
    from tiltwing.vehicle import actuation_from_commands
    out = []
    for _ in range(N_STATES):
        yaw = rng.uniform(-math.pi, math.pi)
        roll, pitch = np.radians(rng.uniform(-10.0, 10.0, 2))
        speed = rng.uniform(0.0, 16.0)
        R = euler_zyx_to_matrix(roll, pitch, yaw)
        heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        v = speed * heading + np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
        state = RigidBodyState(x=np.array([0.0, 0.0, -30.0]), v=v, R_IB=R,
                               omega=rng.uniform(-0.3, 0.3, 3))
        delta_w = min(max(1.0 - speed / 16.0, 0.05), 1.0)
        delta_plr = rng.uniform(0.5, 0.8)
        act = actuation_from_commands(vp, delta_w=delta_w, delta_plr=delta_plr,
                                      delta_pt=rng.uniform(0.0, 0.3),
                                      delta_e=rng.uniform(-0.2, 0.2))
        out.append((state, act, speed, delta_w, delta_plr))
    return out


def _median_us(calls) -> float:
    """Median microseconds per call, cycling through ``calls``."""
    calls[0]()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (time.perf_counter() - start < TIMER_BUDGET_S
                                      or len(times) < len(calls)):
        fn = calls[len(times) % len(calls)]
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def micro_metrics(vp, tmap, seed: int) -> dict[str, float]:
    from tiltwing import aero
    from tiltwing.attitude import daisy_chain_allocate
    from tiltwing.cruise import CruiseController, CruiseSetpoint
    from tiltwing.dynamics import integrate_step
    from tiltwing.trim import solve_trim_point
    from tiltwing.vehicle import nominal_actuation

    rng = np.random.default_rng(seed)
    states = _states(vp, rng)
    zero = np.zeros(3)
    moments = rng.uniform(-0.05, 0.05, (N_STATES, 3))
    cc = CruiseController()
    trim_cases = [(rng.uniform(0.0, 8.0), math.radians(rng.uniform(-5.0, 5.0)))
                  for _ in range(3)]

    def body_wrench(s, a):
        return lambda: aero.body_wrench(s.R_IB.T @ s.v, s.omega, a, vp)

    def step(s, a):
        return lambda: integrate_step(s, a, vp, zero, 0.004)

    def allocate(s, a, m, dw, dp):
        u_n = nominal_actuation(vp, a, delta_plr=dp, delta_w=dw)
        return lambda: daisy_chain_allocate(m, s, u_n, vp, zero)

    def cruise(s, a, v):
        sp = CruiseSetpoint(v_ax=v + 1.0)
        return lambda: cc.step(s, sp, tmap, vp, a, 0.02, zero)

    def solve(va, gamma):
        return lambda: solve_trim_point(va, gamma, TRIM_SEED_GUESS, vp)

    return {
        "micro.body_wrench.us": _median_us([body_wrench(s, a)
                                            for s, a, *_ in states]),
        "micro.integrate_step.us": _median_us([step(s, a) for s, a, *_ in states]),
        "micro.daisy_chain_allocate.us": _median_us(
            [allocate(s, a, m, dw, dp)
             for (s, a, _, dw, dp), m in zip(states, moments)]),
        "micro.cruise_step.us": _median_us([cruise(s, a, v)
                                            for s, a, v, *_ in states]),
        "micro.solve_trim_point.us": _median_us([solve(va, g)
                                                 for va, g in trim_cases]),
    }
