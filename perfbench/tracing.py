"""Per-layer tracing from outside the program.

Each layer function is wrapped where its caller looks the name up: a
module that did ``from .aero import body_wrench`` holds its own binding,
so ``tiltwing.aero.body_wrench``, ``tiltwing.dynamics.body_wrench`` and
``tiltwing.trim.body_wrench`` are three sites of one function. A wrapper
times its call, keeps the time its wrapped children took (for self time),
counts calls per (parent, child) pair and can hand the arguments and
result to a hook. Nothing under ``src/`` is edited; ``installed`` puts the
original functions back on exit.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import math
import re
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# site name -> (module, attribute path); the site name is the module that
# looks the function up, then the function.
SITES = {
    "aero.body_wrench": ("tiltwing.aero", "body_wrench"),
    "dynamics.body_wrench": ("tiltwing.dynamics", "body_wrench"),
    "trim.body_wrench": ("tiltwing.trim", "body_wrench"),
    "sim.run_scenario": ("tiltwing.sim", "run_scenario"),
    "sim.integrate_step": ("tiltwing.sim", "integrate_step"),
    "sim.daisy_chain_allocate": ("tiltwing.sim", "daisy_chain_allocate"),
    "sim.nominal_moment_estimate": ("tiltwing.sim", "nominal_moment_estimate"),
    "sim.apply_actuator_rates": ("tiltwing.sim", "apply_actuator_rates"),
    "sim.RunLog.save": ("tiltwing.sim", "RunLog.save"),
    "cruise.CruiseController.step": ("tiltwing.cruise", "CruiseController.step"),
    "cruise.control_derivatives": ("tiltwing.cruise", "control_derivatives"),
    "cruise.lookup_trim": ("tiltwing.cruise", "lookup_trim"),
    "trim.build_trim_map": ("tiltwing.trim", "build_trim_map"),
    "trim.solve_trim_point": ("tiltwing.trim", "solve_trim_point"),
    "trim.least_squares_lm": ("tiltwing.trim", "least_squares_lm"),
}
BODY_WRENCH_SITES = ("aero.body_wrench", "dynamics.body_wrench", "trim.body_wrench")

_SCENARIO_SITES = {
    "sim.run_scenario", "aero.body_wrench", "dynamics.body_wrench",
    "sim.integrate_step", "sim.daisy_chain_allocate",
    "sim.nominal_moment_estimate", "sim.apply_actuator_rates", "sim.RunLog.save"}
# Sites each workload must call; every other site must record no call.
EXERCISED = {
    "hover_alloc": _SCENARIO_SITES,
    "cruise_transition": _SCENARIO_SITES | {
        "cruise.CruiseController.step", "cruise.control_derivatives",
        "cruise.lookup_trim"},
    "trim_map": {"trim.build_trim_map", "trim.solve_trim_point",
                 "trim.least_squares_lm", "trim.body_wrench"},
}

SWEEP_RE = re.compile(r"sweep (\d+): (\d+) solves, (\d+) cells improved")


@dataclass
class SiteStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Call counts and busy time per site, collected in memory."""

    def __init__(self) -> None:
        self.stats = {name: SiteStats() for name in SITES}
        self.pairs: Counter = Counter()      # (parent site, child site) -> calls
        self.tick_starts: list[float] = []   # one apply_actuator_rates per tick
        self.alloc_res_sq: list[float] = []
        self.lookups_clamped = 0
        self.lm_records: list[tuple[bool, int, int, str]] = []
        self.sweeps: list[tuple[int, int, int]] = []
        self._stack: list[list] = []          # [site, child seconds]
        self._hooks = {
            "sim.daisy_chain_allocate": self._on_alloc,
            "cruise.lookup_trim": self._on_lookup,
            "trim.least_squares_lm": self._on_lm,
        }

    def wrap(self, site: str, fn):
        stats = self.stats[site]
        stack = self._stack
        hook = self._hooks.get(site)
        keep_start = site == "sim.apply_actuator_rates"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [site, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.pairs[(parent, site)] += 1
                if keep_start:
                    self.tick_starts.append(t0)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _on_alloc(self, result) -> None:
        self.alloc_res_sq.append(float(np.dot(result.residual, result.residual)))

    def _on_lookup(self, result) -> None:
        self.lookups_clamped += bool(result.clamped)

    def _on_lm(self, result) -> None:
        self.lm_records.append((bool(result.converged), int(result.n_iter),
                                int(result.n_fev), str(result.message)))

    def calls(self, site: str) -> int:
        return self.stats[site].calls


class _SweepHandler(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        m = SWEEP_RE.search(record.getMessage())
        if m:
            self.tracer.sweeps.append(tuple(int(g) for g in m.groups()))


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every site and capture the trim sweep records; undo on exit."""
    originals = []
    try:
        for site, (module_name, attr_path) in SITES.items():
            owner, attr = _resolve(module_name, attr_path)
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(site, fn))
        trim_log = logging.getLogger("tiltwing.trim")
        handler = _SweepHandler(tracer)
        old_level = trim_log.level
        trim_log.addHandler(handler)
        trim_log.setLevel(logging.INFO)
        try:
            yield tracer
        finally:
            trim_log.removeHandler(handler)
            trim_log.setLevel(old_level)
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def coverage_errors(tracer: Tracer, workload: str) -> list[str]:
    """Sites the workload should call but did not, and bypassed sites it called."""
    must = EXERCISED[workload]
    errors = [f"{site} recorded no call" for site in sorted(must)
              if tracer.calls(site) == 0]
    errors += [f"{site} recorded {tracer.calls(site)} calls on a workload that "
               "bypasses it" for site in sorted(set(SITES) - must)
               if tracer.calls(site) != 0]
    return errors


def _us(st: SiteStats) -> float:
    return st.total_s / st.calls * 1e6 if st.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, ticks: int) -> dict[str, float]:
    """Per-layer figures of one traced job of ``wall_s`` seconds."""
    s = tracer.stats
    bw_calls = sum(s[n].calls for n in BODY_WRENCH_SITES)
    bw_total = sum(s[n].total_s for n in BODY_WRENCH_SITES)
    solves = s["trim.solve_trim_point"].calls
    step = s["sim.integrate_step"]
    alloc = s["sim.daisy_chain_allocate"]
    cstep = s["cruise.CruiseController.step"]
    run = s["sim.run_scenario"]
    lookups = s["cruise.lookup_trim"].calls
    lm = tracer.lm_records
    sweep_solves = sum(r[1] for r in tracer.sweeps)
    ticks_ms = np.diff(tracer.tick_starts) * 1e3

    def pct(q: float) -> float:
        return float(np.percentile(ticks_ms, q)) if ticks_ms.size else 0.0

    return {
        "aero.body_wrench.us": _ratio(bw_total, bw_calls) * 1e6,
        "aero.body_wrench.per_tick": _ratio(bw_calls, ticks),
        "aero.body_wrench.per_solve": _ratio(s["trim.body_wrench"].calls, solves),
        "aero.body_wrench.share": _ratio(bw_total, wall_s),
        "dynamics.integrate_step.us": _us(step),
        "dynamics.integrate_step.self_us": _ratio(step.self_s, step.calls) * 1e6,
        "attitude.daisy_chain_allocate.us": _us(alloc),
        "attitude.daisy_chain_allocate.share": _ratio(alloc.total_s, wall_s),
        "attitude.daisy_chain_allocate.evals_per_call": _ratio(
            tracer.pairs[("sim.daisy_chain_allocate", "aero.body_wrench")],
            alloc.calls),
        "attitude.alloc.res_rms": math.sqrt(_ratio(sum(tracer.alloc_res_sq),
                                                   3 * len(tracer.alloc_res_sq))),
        "attitude.nominal_moment_estimate.us": _us(s["sim.nominal_moment_estimate"]),
        "cruise.step.us": _us(cstep),
        "cruise.step.share": _ratio(cstep.total_s, wall_s),
        "cruise.control_derivatives.us": _us(s["cruise.control_derivatives"]),
        "cruise.lookup_trim.us": _us(s["cruise.lookup_trim"]),
        "cruise.lookup_clamped_frac": _ratio(tracer.lookups_clamped, lookups),
        "trim.solve_trim_point.us": _us(s["trim.solve_trim_point"]),
        "trim.solves": float(solves),
        "trim.sweeps": float(len(tracer.sweeps)),
        "trim.improved_frac": _ratio(sum(r[2] for r in tracer.sweeps), sweep_solves),
        "leastsq.converged_frac": _ratio(sum(r[0] for r in lm), len(lm)),
        "leastsq.iters_per_solve": _ratio(sum(r[1] for r in lm), len(lm)),
        "leastsq.fev_per_solve": _ratio(sum(r[2] for r in lm), len(lm)),
        "sim.run_scenario.self_share": _ratio(run.self_s, run.total_s),
        "sim.tick_ms.p50": pct(50.0),
        "sim.tick_ms.p99": pct(99.0),
        "sim.save.s": s["sim.RunLog.save"].total_s,
        "vehicle.apply_actuator_rates.us": _us(s["sim.apply_actuator_rates"]),
    }
