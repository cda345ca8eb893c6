"""twistchain benchmark: end-to-end and per-layer metrics of `verify`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all   # every workload, untraced and traced

Run from the root of a checkout. Workloads are defined in workloads.py,
metric names and units in BENCHMARK.json at the root. Every measurement
runs in a fresh child interpreter (worker.py) with the BLAS thread count
pinned before numpy is imported, twistchain taken from the checkout's src/.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it say the same for a
reader, with sample counts, the runtime (BLAS threads, nproc, versions)
and every failing check. Results, stored verdicts and spans go under
.bench_out/ at the root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "twistchain")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170
TAIL = 10  # a tail percentile needs this many samples beyond it


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(args: list[str]) -> tuple[dict, float, float]:
    """Run worker.py in a fresh interpreter; return its JSON result, the
    wall time from process start to exit and the CPU time the child used
    (children run one at a time, so the RUSAGE_CHILDREN delta is its own)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    c0 = _children_cpu_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded {CHILD_TIMEOUT_S} s")
    elapsed = time.perf_counter() - t0
    cpu_s = _children_cpu_s() - c0
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), elapsed, cpu_s


def fastest_pass_s(latencies: list[list[float]]) -> float:
    """CPU seconds of one pass with every verify call at its fastest over
    the run's passes. The same calls repeat in every pass, so a repeat
    that ran while the host was busy is dropped call by call."""
    return sum(min(call) for call in zip(*latencies))


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, PACKAGE).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def tail_percentile(samples):
    """(q, value) of the highest percentile with TAIL samples beyond it."""
    n = len(samples)
    if n <= TAIL:
        return None
    k = n - TAIL - 1
    return int(100 * (k + 1) / n), sorted(samples)[k]


def describe_timing(name: str, samples, unit: str, what: str) -> str:
    line = f"{name:<22} {statistics.median(samples):.6g} {unit}  median of n={len(samples)} {what}"
    tail = tail_percentile(samples)
    if tail is None:
        return line + f"; no tail percentile (needs more than {TAIL} samples)"
    return line + f"; p{tail[0]} {tail[1]:.6g} {unit} ({TAIL} samples beyond it)"


def verdict_changes(old: dict, new: dict, label: str) -> list[str]:
    """Every verdict that differs between two stored results, by check id."""
    lines = []
    for key, cur in new.items():
        prev = old.get(key)
        if prev is None:
            continue
        if prev["checks"] != cur["checks"]:
            lines.append(f"{label} {key}: checks {prev['checks']} -> {cur['checks']}")
        was = {tuple(x) for x in prev["failing"]}
        now = {tuple(x) for x in cur["failing"]}
        for i, check in sorted(was - now):
            lines.append(f"{label} {key} #{i} {check}: fail -> pass")
        for i, check in sorted(now - was):
            lines.append(f"{label} {key} #{i} {check}: pass -> fail")
    return lines


def check_outputs(workload: str, seed: int, passes: list[list[dict]]) -> tuple[int, list[str]]:
    """Outputs of the same code must agree: across passes of this run and
    against the stored result of an earlier run of the same source tree.
    Returns the number of disagreeing verify calls and the lines to print."""
    failed, lines = 0, []
    first = {s["key"]: s for s in passes[0]}
    for later in passes[1:]:
        for s in later:
            if s["sha256"] != first[s["key"]]["sha256"]:
                failed += 1
                lines.append(f"NONDETERMINISTIC {s['key']}: report bytes differ between passes")
    current = {k: {f: s[f] for f in ("sha256", "verdict_sha256", "checks", "failing")}
               for k, s in first.items()}

    digest = code_hash()
    store = os.path.join(OUT, "verdicts", f"{workload}-seed{seed}.json")
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            old = json.load(fh)
        same_code = old["code_hash"] == digest
        for key, cur in current.items():
            prev = old["configs"].get(key)
            if same_code and prev is not None and prev["sha256"] != cur["sha256"]:
                failed += 1
                lines.append(f"NONDETERMINISTIC {key}: differs from an earlier run "
                             "of the same source tree")
        lines += verdict_changes(old["configs"], current, "changed since last run:")
        if same_code:
            current = {**old["configs"], **current}
    os.makedirs(os.path.dirname(store), exist_ok=True)
    with open(store, "w", encoding="utf-8") as fh:
        json.dump({"code_hash": digest, "configs": current}, fh, indent=1)

    ref_path = os.path.join(REFERENCE, f"{workload}.json")
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            ref = json.load(fh)
        if ref["seed"] == seed:
            lines += verdict_changes(ref["configs"], current, "changed vs reference:")
    return failed, lines


def failing_lines(summaries: list[dict]) -> list[str]:
    by_check: dict[str, list[str]] = {}
    for s in summaries:
        for _, check in s["failing"]:
            by_check.setdefault(check, []).append(s["key"])
    return [f"FAIL {check} x{len(keys)}: {', '.join(sorted(set(keys)))}"
            for check, keys in sorted(by_check.items())]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: int,
            max_sites: int | None = None) -> tuple[dict, list[str]]:
    """One benchmark run. Returns the result object and the report lines."""
    spec = load_spec()
    wargs = ["workload", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)]
    if max_sites is not None:
        wargs += ["--max-sites", str(max_sites)]
    if trace:
        wargs += ["--spans", os.path.join(OUT, "spans", f"{workload}-seed{seed}.json")]

    setup_s, setup_wall_s, warm = [], [], []
    if not trace:
        for _ in range(SETUP_RUNS):
            res, elapsed, cpu_s = run_child(["setup", "--seed", str(seed)])
            setup_s.append(cpu_s)
            setup_wall_s.append(elapsed)
            warm.append(res["warm"])
    res, _, _ = run_child(wargs)
    warm.append(res["warm"])
    rt = res["runtime"]

    failed, lines = check_outputs(workload, seed, res["passes"])
    failed += sum(1 for w in warm[1:] if w["sha256"] != warm[0]["sha256"])
    summaries = res["passes"][0]
    attempted = len(warm) + sum(len(p) for p in res["passes"])
    checks = sum(s["checks"] for s in summaries)
    counted = sum(s["failed_counted"] for s in summaries)
    suite_errors = sum(s["suite_errors"] for s in summaries)

    head = [f"perfbench {workload} seed={seed} trace={trace} configs={len(summaries)} "
            f"blas_threads={rt['blas_threads']} nproc={rt['nproc']} python={rt['python']} "
            f"numpy={rt['numpy']} scipy={rt['scipy']} openblas={rt['numpy_openblas']}"
            f"/{rt['scipy_openblas']}"]
    if trace:
        values = dict(res["layer"], suite_errors=suite_errors)
        table = spec["per_layer"]
        base = res["layer"]["bethe.converged_ratio.base"]
        traced_s = values["trace.report_s"]
        shares = ", ".join(
            f"{m['name'].split('.')[0]} {100 * values[m['name']] / traced_s:.1f}%"
            for m in table if m["name"].count(".") == 1 and m["name"].endswith(".self_s"))
        extra = [f"bethe.converged_ratio base: {base} solve_bethe calls",
                 f"self time as share of traced report_s: {shares}, uncovered "
                 f"{100 * values['trace.uncovered_s'] / traced_s:.2f}%",
                 f"trace.overhead = traced report_s {traced_s:.6g} s / "
                 f"untraced report_s {res['report_s'][0]:.6g} s (wall)"]
    else:
        values = {
            "report_s": fastest_pass_s(res["latencies"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "checks_run": checks,
            "checks_failed_ratio": counted / checks,
        }
        table = spec["end_to_end"]
        calls = [t for one in res["latencies"] for t in one]
        extra = [
            f"report_s = sum over {len(res['latencies'][0])} verify calls of the fastest "
            f"CPU time of each over {len(res['latencies'])} passes",
            describe_timing("pass_cpu_s", res["report_s"], "s", "passes of the workload"),
            describe_timing("pass_wall_s", res["report_wall_s"], "s", "passes of the workload"),
            describe_timing("verify_call_cpu_s", calls, "s", "verify calls"),
            describe_timing("setup_s", setup_s, "s", "fresh processes, CPU"),
            describe_timing("setup_wall_s", setup_wall_s, "s", "fresh processes"),
            f"checks_failed_ratio base: {counted} failed (not expected_failure) "
            f"/ {checks} reports",
            f"suite_errors {suite_errors} count (<suite>.error reports)",
        ]
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    body = [f"{name:<44} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, head + body + extra + failing_lines(summaries) + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-sites", type=int, default=None,
                        help="keep only configs with at most this many sites (smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no twistchain sources at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    try:
        results = {}
        for workload, trace in runs:
            result, lines = measure(workload, args.seed, seconds, trace, args.max_sites)
            print("\n".join(lines), flush=True)
            results[f"{workload}/trace{trace}"] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
