"""Child process of the benchmark; run.py starts one per measurement.

    python3 perfbench/worker.py setup --seed S
    python3 perfbench/worker.py workload --workload W --seed S --seconds T
                                [--trace 0|1] [--max-sites N] [--spans PATH]

run.py pins the BLAS thread count in the environment before this
interpreter starts, so it holds before numpy is imported. twistchain is
imported from the checkout's own src/ and nowhere else. The result is one
JSON object on the last line of stdout.

`setup` is what a CLI user pays on every call: import twistchain (numpy,
scipy) and one `verify all --n-sites 2`. `workload` makes the same warm
call, then times whole passes over the workload's configs until --seconds
of wall time have gone (at least one pass): each config is `run_suite` per
suite plus `render_json`, exactly what `twistchain verify` does. With
--trace 1 it makes one untraced pass, one traced pass and the single-call
layer scan instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from spans import Tracer  # noqa: E402
from workloads import SUITES, WORKLOADS, configs_for, config_key  # noqa: E402

LAYERS = ("tensor", "chain", "bethe", "symmetry", "fusion", "rmatrix", "twist",
          "relations", "reporting")
SCAN_SITES = (4, 8, 9)
SCAN_FUNCS = ("monodromy_matrix", "build_hamiltonian", "monodromy_poly_coeffs")
# Counts recorded by probes; reported as 0 when the probed call never ran.
PROBE_COUNTS = ("tensor.lift.bytes", "chain.monodromy_poly_coeffs.bytes",
                "chain.spectrum_of.dense", "bethe.solve_bethe.failed")


def _import_package():
    import twistchain

    where = os.path.dirname(os.path.abspath(twistchain.__file__))
    if where != os.path.join(SRC, "twistchain"):
        raise SystemExit(f"twistchain imported from {where}, not from {SRC}")
    return twistchain


def _run_config(tc, cfg: dict, seed: int, suites, suite_s=None, tracer=None):
    """One `twistchain verify` call: run_suite per suite, then render_json."""
    config = tc.RunConfig(seed=seed, **cfg)
    reports = []
    for suite in suites:
        t = time.perf_counter()
        if tracer is None:
            reports.extend(tc.suites.run_suite(config, suite))
        else:
            with tracer.span(f"suites.{suite}"):
                reports.extend(tc.suites.run_suite(config, suite))
        if suite_s is not None:
            suite_s[suite] += time.perf_counter() - t
    return reports, tc.reporting.render_json(config, reports)


def summarize(key: str, reports, text: str) -> dict:
    """What the benchmark checks of one verify call: never residual values,
    only the report bytes and the ordered (check_id, pass) vector."""
    verdicts = [[r.check_id, bool(r.passed)] for r in reports]
    return {
        "key": key,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "verdict_sha256": hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
        "checks": len(reports),
        "failing": [[i, r.check_id] for i, r in enumerate(reports) if not r.passed],
        "failed_counted": sum(1 for r in reports if not r.passed and not r.expected_failure),
        "suite_errors": sum(1 for r in reports if r.check_id.endswith(".error")),
    }


def one_pass(tc, configs, seed, suites, tracer=None, suite_s=None):
    """Time one pass over the configs; summaries are made after the clock stops.

    Returns the pass's CPU seconds, its wall seconds, the CPU seconds of
    each verify call and the summaries. CPU time of this process is the
    wall time the pass takes when nothing else wants its core: BLAS runs
    one thread and twistchain starts none, so it leaves out only the time
    the scheduler gives to other processes on a shared host."""
    outputs, latencies = [], []
    t0, c0 = time.perf_counter(), time.process_time()
    for cfg in configs:
        c = time.process_time()
        outputs.append(_run_config(tc, cfg, seed, suites, suite_s, tracer))
        latencies.append(time.process_time() - c)
    cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - t0
    summaries = [summarize(config_key(cfg), reps, text)
                 for cfg, (reps, text) in zip(configs, outputs)]
    return cpu_s, wall_s, latencies, summaries


def warm_call(tc, seed: int) -> dict:
    reps, text = _run_config(tc, {"n_sites": 2}, seed, ("all",))
    return summarize("n2-warm", reps, text)


def runtime_info() -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
    }


def _probes(tc):
    def lift(tr, res, exc):
        if res is not None:
            tr.counts["tensor.lift.bytes"] += res.nbytes

    def eigenvalues(tr, res, exc):
        if res is not None:
            tr.record_max("tensor.eigenvalues.dim", len(res))

    def poly_coeffs(tr, res, exc):
        if res is not None:
            tr.counts["chain.monodromy_poly_coeffs.bytes"] += sum(c.nbytes for c in res)

    def spectrum_of(tr, res, exc):
        if res is not None and res[1] == "dense":
            tr.counts["chain.spectrum_of.dense"] += 1

    def solve_bethe(tr, res, exc):
        if isinstance(exc, tc.bethe.BetheSolverError):
            tr.counts["bethe.solve_bethe.failed"] += 1

    return {
        "tensor.lift": lift,
        "tensor.eigenvalues": eigenvalues,
        "chain.monodromy_poly_coeffs": poly_coeffs,
        "chain.spectrum_of": spectrum_of,
        "bethe.solve_bethe": solve_bethe,
    }


def layer_metrics(tracer: Tracer, wrapped, traced_s: float, untraced_s: float) -> dict:
    totals = tracer.totals()
    out = {}
    for name in wrapped:
        agg = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.self_s"] = agg["self_s"]
    for key in PROBE_COUNTS:
        out[key] = tracer.counts.get(key, 0)
    out["tensor.eigenvalues.dim"] = tracer.maxima.get("tensor.eigenvalues.dim", 0)
    calls = out["bethe.solve_bethe.calls"]
    out["bethe.converged_ratio"] = (
        (calls - out["bethe.solve_bethe.failed"]) / calls if calls else 0.0)
    out["bethe.converged_ratio.base"] = calls

    layer_self = defaultdict(float)
    for name, agg in totals.items():
        layer_self[name.split(".", 1)[0]] += agg["self_s"]
    for layer in LAYERS + ("suites",):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["trace.report_s"] = traced_s
    out["trace.uncovered_s"] = traced_s - sum(layer_self.values())
    out["trace.overhead"] = traced_s / untraced_s
    return out


def layer_scan(tc, seed: int) -> dict:
    """Single direct calls at fixed sizes: the ROADMAP Baseline rows."""
    rng = random.Random(seed)
    out = {}
    for n in SCAN_SITES:
        spec = tc.chain.ChainSpec(n, tc.twist.TwistParams(0.5, 1.0))
        u = complex(rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0))
        for fn in SCAN_FUNCS:
            call_args = (spec, u) if fn == "monodromy_matrix" else (spec,)
            t = time.perf_counter()
            res = getattr(tc.chain, fn)(*call_args)
            out[f"chain.{fn}.n{n}_s"] = time.perf_counter() - t
            out[f"chain.{fn}.n{n}_bytes"] = (
                sum(c.nbytes for c in res) if isinstance(res, list) else res.nbytes)
            del res
    return out


def run_workload(args) -> dict:
    tc = _import_package()
    configs = configs_for(args.workload, args.max_sites)
    suites = WORKLOADS[args.workload]["suites"]
    result = {"runtime": runtime_info(), "warm": warm_call(tc, args.seed)}

    if not args.trace:
        passes, walls, latencies, summaries = [], [], [], []
        while not walls or sum(walls) < args.seconds:
            cpu_s, wall_s, lat, summ = one_pass(tc, configs, args.seed, suites)
            passes.append(cpu_s)
            walls.append(wall_s)
            latencies.append(lat)
            summaries.append(summ)
        result.update(report_s=passes, report_wall_s=walls, latencies=latencies,
                      passes=summaries)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    suite_s = defaultdict(float)
    _, untraced_s, _, plain = one_pass(tc, configs, args.seed, suites, suite_s=suite_s)
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "twistchain" or name.startswith("twistchain.")]
    wrapped = tracer.install(modules, [getattr(tc, layer) for layer in LAYERS], _probes(tc))
    try:
        _, traced_s, _, traced = one_pass(tc, configs, args.seed, suites, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = layer_metrics(tracer, wrapped, traced_s, untraced_s)
    layer.update({f"suites.{s}.s": suite_s[s] for s in SUITES})
    layer.update(layer_scan(tc, args.seed))
    if args.spans:
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **tracer.dump()}, fh)
    result.update(report_s=[untraced_s], passes=[plain, traced], layer=layer)
    return result


def run_setup(args) -> dict:
    tc = _import_package()
    return {"warm": warm_call(tc, args.seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("mode", choices=("setup", "workload"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-sites", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    out = run_setup(args) if args.mode == "setup" else run_workload(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
