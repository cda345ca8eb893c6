"""Tests of the benchmark harness itself (not of twistchain).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import fastest_pass_s, tail_percentile, verdict_changes  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_times_nested_tree():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents) == [5.0, 4.0, 4.0]


def _module(name: str, source: str, **names) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(compile(source, name, "exec"), mod.__dict__)
    return mod


def test_tracer_patches_every_namespace_binding_the_function():
    inner = _module("pkg.inner", "def leaf(x):\n    return x + 1\n"
                                 "def outer(x):\n    return leaf(x) * 2\n"
                                 "def _private(x):\n    return x\n")
    user = _module("pkg.user", "def call(x):\n    return outer(x)\n", outer=inner.outer)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    wrapped = tracer.install([inner, user], [inner])
    assert wrapped == ["inner.leaf", "inner.outer"]
    try:
        assert user.call(1) == 4
    finally:
        tracer.uninstall()
    assert user.outer is inner.outer and inner.outer.__name__ == "outer"
    names = [tracer.names[i] for i in tracer.name_of]
    assert names == ["inner.outer", "inner.leaf"]
    assert tracer.parents == [-1, 0]
    totals = tracer.totals()
    # outer spans clock ticks 0..3, leaf 1..2
    assert totals["inner.outer"] == {"calls": 1, "self_s": 2.0}
    assert totals["inner.leaf"] == {"calls": 1, "self_s": 1.0}


def test_tracer_probe_sees_exceptions():
    seen = []
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("m.boom", boom, probe=lambda tr, r, e: seen.append(type(e)))
    try:
        traced()
    except KeyError:
        pass
    assert seen == [KeyError] and tracer.ends[0] >= tracer.starts[0]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(20))) == (50, 9)


def test_fastest_pass_takes_each_call_at_its_fastest():
    # two passes over three verify calls; pass 1 was slow on the second call
    assert fastest_pass_s([[1.0, 5.0, 2.0], [1.5, 3.0, 2.0]]) == 6.0
    assert fastest_pass_s([[4.0, 2.0]]) == 6.0


def test_verdict_changes_lists_each_flip():
    old = {"c": {"checks": 3, "failing": [[0, "a.x"]]}}
    new = {"c": {"checks": 3, "failing": [[2, "a.z"]]}}
    assert verdict_changes(old, new, "vs") == ["vs c #0 a.x: fail -> pass",
                                               "vs c #2 a.z: pass -> fail"]


def test_declared_metric_names():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "domain-sweep",
         "--max-sites", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_emits_every_end_to_end_metric():
    result, spec = _smoke(0), _spec()
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_emits_every_per_layer_metric():
    result, spec = _smoke(1), _spec()
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(NAME.fullmatch(n) for n in result["metrics"])
