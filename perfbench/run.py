"""volswap benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload series_book --seed 1 --seconds 15 --trace 0

Run from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off: it runs the workload's ``passes``
passes over the same inputs, each in a fresh interpreter (``worker.py``), one
after the other, and times every operation as the median of its passes.
With ``--trace 1`` it runs one pass in process untraced and then traced
(MC on one worker so every span is in process) and reports the per-layer
metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  A full result file, with a run manifest, is written to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
#: seconds one worker pass may take before the run is abandoned.
PASS_TIMEOUT_S = 40

#: end-to-end metric name -> unit; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "op_p99_ms": "ms", "ok_frac": "fraction",
}
TRACED = ("series_pricer.kappa_series", "series_pricer.coeff_b",
          "specfun.gamma_half_integer", "specfun.kummer_1f1",
          "pde_engine.solve_psi", "pde_engine.solve_banded",
          "pde_engine.kappa_from_solution", "pde_engine.quad",
          "mc_engine.kappa_mc", "mc_engine.path_normals")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run_passes(args, n_passes: int) -> tuple:
    """``n_passes`` worker passes, one after the other.

    Returns the set-up samples (fresh-interpreter start to the end of the
    warm-up calls, one per pass) and each pass's list of outcomes.
    """
    from workloads import Outcome

    setups, passes = [], []
    for _ in range(n_passes):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
             str(args.seed), repr(args.seconds)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"worker pass exited with {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        setups.append(res["ready"] - started)
        passes.append([Outcome(**o) for o in res["outcomes"]])
    return setups, passes


def merge_passes(passes: list) -> list:
    """Per operation, its first pass's outcome timed at the median of its
    times over all passes.

    The median drops both the passes that ran while the shared host was
    busy and the rare lucky pass that the minimum would pick.
    """
    merged = []
    for runs in zip(*passes):
        extra = dict(runs[0].extra)
        for key in ("mc_s", "refine_s"):
            if key in extra:
                extra[key] = statistics.median(r.extra[key] for r in runs)
        merged.append(dataclasses.replace(
            runs[0], seconds=statistics.median(r.seconds for r in runs),
            extra=extra))
    return merged


def import_breakdown(reps: int = 3) -> dict:
    """Median self-time import cost of numpy, scipy and volswap for
    ``import volswap.cli``, from ``python -X importtime``."""
    samples = {"numpy": [], "scipy": [], "volswap": []}
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import volswap.cli"],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        self_us = dict.fromkeys(samples, 0)
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m:
                top = m.group(2).split(".")[0]
                if top in self_us:
                    self_us[top] += int(m.group(1))
        for k, v in self_us.items():
            samples[k].append(v * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def manifest(args) -> dict:
    import numpy
    import scipy
    from volswap import mc_engine

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "volswap_threads": os.environ.get("VOLSWAP_THREADS"),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mc_workers": mc_engine.resolve_workers(),
    }


def tail_ms(seconds: list, q: float) -> float:
    """The q-th percentile in ms, lowered to the highest percentile that
    still has ten samples beyond it when there are too few operations."""
    import numpy as np
    q = min(q, max(50.0, 100.0 * (1.0 - 10.0 / len(seconds))))
    return float(np.percentile(seconds, q)) * 1e3


def end_to_end(setup_times, merged, executed) -> dict:
    """Timings from the merged outcomes, ``ok_frac`` from every execution."""
    times = [o.seconds for o in merged]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": tail_ms(times, 90),
        "op_p99_ms": tail_ms(times, 99),
        "ok_frac": sum(o.status == "ok" for o in executed) / len(executed),
    }


def per_layer(tracer, outcomes, workers, imports, overhead_s) -> tuple:
    """Per-layer metrics ({name: (value, unit)}) and the names not exercised."""
    spans = tracer.summary()
    out, idle = {}, []
    for name in TRACED:
        rec = spans.get(name, {"calls": 0, "time_s": 0.0})
        if rec["calls"] == 0:
            idle.append(name)
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.time_s"] = (rec["time_s"], "s")
    out["pde_engine.quad.integrand_evals"] = (tracer.integrand_evals, "count")

    series = [o for o in outcomes if "terms" in o.extra]
    out["series_pricer.terms_per_call"] = (
        statistics.fmean(o.extra["terms"] for o in series) if series else 0.0, "count")
    out["series_pricer.diverging_frac"] = (
        sum(o.extra["regime"] == "diverging" for o in series) / len(series)
        if series else 0.0, "fraction")
    out["series_pricer.trusted_wrong"] = (
        sum(bool(o.extra.get("trusted_wrong")) for o in outcomes), "count")

    solves = spans.get("pde_engine.solve_psi", {}).get("calls", 0)
    prices = spans.get("pde_engine.kappa_from_solution", {}).get("calls", 0)
    out["pde_engine.solves_per_price"] = (solves / prices if prices else 0.0, "ratio")
    out["pde_engine.psi_bytes_stored"] = (tracer.psi_bytes_max, "bytes")
    pde_errs = [o.abs_err for o in outcomes if "terms" not in o.extra]
    out["pde_engine.max_abs_err"] = (max(pde_errs) if prices and pde_errs else 0.0,
                                     "kappa")

    mc = [o.extra for o in outcomes if "se" in o.extra]
    kmc = spans.get("mc_engine.kappa_mc", {"time_s": 0.0, "self_s": 0.0})
    out["mc_engine.payoff.self_s"] = (kmc["self_s"], "s")
    paths = sum(e["n_paths"] for e in mc)
    out["mc_engine.paths_per_s"] = (paths / kmc["time_s"] if kmc["time_s"] else 0.0,
                                    "1/s")
    out["mc_engine.workers"] = (workers if mc else 0, "count")
    out["mc_engine.var_per_path"] = (
        statistics.median(e["rse"] ** 2 * e["n_paths"] for e in mc) if mc else 0.0,
        "rel2")
    out["mc_engine.max_abs_z"] = (max(abs(e["z"]) for e in mc) if mc else 0.0, "SE")

    out["setup.numpy_s"] = (imports["numpy"], "s")
    out["setup.scipy_s"] = (imports["scipy"], "s")
    out["setup.volswap_self_s"] = (imports["volswap"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out, idle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("series_book", "pde_surface", "oracle_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "volswap", "__init__.py")):
        print(f"volswap sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    setup_times, passes = [], []
    if not args.trace:
        setup_times, passes = run_passes(args, WORKLOADS[args.workload].passes)

    import worker
    from reference import Reference

    workload = WORKLOADS[args.workload](args.seed, args.seconds, Reference())
    if args.trace:
        worker.warm_up(args.workload)
        from spans import Tracer
        from volswap import mc_engine

        os.environ["VOLSWAP_THREADS"] = "1"
        workers = mc_engine.resolve_workers()
        plain_wall, outcomes = workload.run()
        with Tracer() as tracer:
            wall, traced_outcomes = workload.run()
        imports = import_breakdown()
        metrics, idle = per_layer(tracer, traced_outcomes, workers, imports,
                                  wall - plain_wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        absent, idle = tracer.absent, [n for n in idle if n not in tracer.absent]
        executed = outcomes + traced_outcomes
    else:
        outcomes = merge_passes(passes)
        executed = [o for outs in passes for o in outs]
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(setup_times, outcomes, executed).items()}

    counts = {s: sum(o.status == s for o in executed)
              for s in ("ok", "refused", "failed")}
    extras = workload.extras(outcomes)
    result = {"correct": not any(o.broken for o in executed),
              "attempted": len(executed),
              "failed": counts["failed"], "metrics": metrics}
    record = {
        "manifest": manifest(args), "result": result, "counts": counts,
        "extras": extras, "setup_samples_s": setup_times,
        "pass_op_seconds": [[o.seconds for o in outs] for outs in passes],
        "failures": [{"i_s": c.i_s, "i_zeta": c.i_zeta, "why": o.why}
                     for c, o in zip(workload.cases, outcomes)
                     if o.status == "failed"][:200],
    }
    if args.trace:
        record.update(absent=absent, idle=idle, untraced_wall_s=plain_wall)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if args.trace:
        tracer.save(stem + "-spans.npz")

    print(f"{args.workload} seed={args.seed} ops={len(executed)} "
          f"ok={counts['ok']} refused={counts['refused']} failed={counts['failed']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  {name} = {value:.6g}")
    if args.trace:
        print(f"  absent: {absent or '-'}  idle: {idle or '-'}")
    print(f"  result file: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
