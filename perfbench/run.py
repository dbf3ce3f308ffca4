"""Benchmark of the tiltwing stack: one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/tiltwing``. Workloads are
``hover_alloc``, ``cruise_transition`` and ``trim_map``; ``README.md`` in
this directory says why each exists and which layer figures should move
which end-to-end figure.

With ``--trace 0`` the run repeats the workload's job while the next one is
expected to finish inside ``--seconds`` (always at least one) and reports
the end-to-end metrics. With ``--trace 1`` it runs the job once plain and
once with every layer wrapped, requires both to produce the same outputs,
and reports the per-layer metrics, the isolated timers and the tracing
overhead. The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import micro
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR_NAME = ".perfbench_out"
SETUP_PROBES = 9


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tiltwing" / "__init__.py").is_file():
        print(f"no src/tiltwing under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tiltwing
    if Path(tiltwing.__file__).resolve().parent != (src / "tiltwing").resolve():
        print(f"imported tiltwing from {tiltwing.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed, root / OUT_DIR_NAME)
    if args.trace:
        result = traced_run(inputs, root)
    else:
        result = plain_run(inputs, args.seconds, root)
    print(json.dumps(result))
    return 0


def plain_run(inputs, seconds: float, root: Path) -> dict:
    # half the set-up probes before the jobs and half after, so that the
    # median spans the run
    probes = [_probe_setup(inputs, root) for _ in range(SETUP_PROBES // 2)]
    loaded = workloads.set_up(inputs.scenario_path, inputs.map_path)
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(workloads.run_job(inputs, loaded))
        elapsed = time.perf_counter() - start
        if elapsed + jobs[-1].wall_s > seconds:
            break

    probes += [_probe_setup(inputs, root)
               for _ in range(SETUP_PROBES - len(probes))]
    setup_s = statistics.median(probes)

    errors = [e for job in jobs for e in job.errors]
    if any(job.hashes != jobs[0].hashes for job in jobs):
        errors.append("repeated jobs of one input produced different outputs")
    job_s = statistics.median(job.wall_s for job in jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)

    _report(inputs, jobs[0], errors)
    print(f"jobs={len(jobs)} job_s={[round(j.wall_s, 3) for j in jobs]} "
          f"fail_frac={failed / attempted:.4g} "
          f"setup_probes_s={[round(p, 4) for p in probes]}")
    _print_job_rates(inputs, job_s)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": _with_units({"job_s": job_s, "setup_s": setup_s,
                                "peak_rss_mb": peak_rss_mb}, root, "end_to_end"),
    }


def traced_run(inputs, root: Path) -> dict:
    loaded = workloads.set_up(inputs.scenario_path, inputs.map_path)
    plain = workloads.run_job(inputs, loaded)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_job(inputs, loaded)

    errors = plain.errors + traced.errors + tracing.coverage_errors(
        tracer, inputs.workload)
    if traced.hashes != plain.hashes:
        errors.append("traced and plain runs produced different outputs")
    metrics = tracing.layer_metrics(tracer, traced.wall_s, traced.ticks)
    metrics.update(_quality_metrics(traced.quality))
    metrics["trace.plain_job_s"] = plain.wall_s
    metrics["trace.traced_job_s"] = traced.wall_s
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    tmap = loaded.tmap or _load_coarse_map()
    metrics.update(micro.micro_metrics(loaded.vp, tmap, inputs.seed))

    _report(inputs, traced, errors)
    for site in tracing.SITES:
        st = tracer.stats[site]
        print(f"  {site:32s} calls={st.calls:8d} total_s={st.total_s:9.4f} "
              f"self_s={st.self_s:9.4f}")
    if tracer.lm_records:
        messages = Counter(r[3] for r in tracer.lm_records)
        print(f"  least_squares_lm messages: {dict(messages)}")
    print(f"tracing overhead: plain {plain.wall_s:.4f} s, traced "
          f"{traced.wall_s:.4f} s ({100 * metrics['trace.overhead_frac']:+.2f}%)")
    return {
        "correct": not errors,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": _with_units(metrics, root, "per_layer"),
    }


def _quality_metrics(quality: dict[str, float]) -> dict[str, float]:
    """The deterministic result figures, under the layer that produces them."""
    return {
        "attitude.roll_err_rms_deg": quality.get("roll_err_rms_deg", 0.0),
        "attitude.pitch_err_rms_deg": quality.get("pitch_err_rms_deg", 0.0),
        "cruise.vz_err_rms": quality.get("vz_err_rms", 0.0),
        "trim.map_cost_mean": quality.get("map_cost_mean", 0.0),
    }


def _with_units(metrics: dict[str, float], root: Path, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def _load_coarse_map():
    from tiltwing.trim import load_trim_map
    return load_trim_map(workloads.COARSE_MAP)


def _probe_setup(inputs, root: Path) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
    if inputs.scenario_path is not None:
        cmd += ["--scenario", str(inputs.scenario_path)]
    if inputs.map_path is not None:
        cmd += ["--map", str(inputs.map_path)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def _report(inputs, job, errors: list[str]) -> None:
    """Output identity against the recorded references, and the checks."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) \
        if REFERENCES.is_file() else {}
    recorded = refs.get(inputs.workload, {}).get(str(inputs.seed), {})
    for name, value in job.hashes.items():
        ref = recorded.get(name)
        verdict = "no reference" if ref is None else \
            ("matches reference" if ref == value else f"DIFFERS from reference {ref}")
        print(f"{inputs.workload} seed={inputs.seed} {name} sha256={value} {verdict}")
    print(" ".join(f"{k}={v:.6g}" for k, v in job.quality.items()))
    for e in errors:
        print(f"CHECK FAILED: {e}")


def _print_job_rates(inputs, job_s: float) -> None:
    spec = workloads.SCENARIOS.get(inputs.workload)
    if spec is not None:
        print(f"wall_per_sim_s={job_s / spec.horizon_s:.6g}")
    else:
        print(f"map_build_s={job_s:.6g}")


if __name__ == "__main__":
    sys.exit(main())
