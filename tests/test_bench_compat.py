"""The benchmark's traced run wraps the functions named in BENCHMARK.json,
its layer scan calls three of them directly, and a probe reads the route
that `chain.spectrum_of` returns. A rename, a move or a changed return type
would otherwise surface only there, as missing metrics. The package exports
nothing that neither its own code nor the benchmark reads, and takes its
norms and Kronecker products from `tensor` alone.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

import twistchain
from twistchain.chain import (
    ChainSpec,
    build_hamiltonian,
    monodromy_matrix,
    monodromy_poly_coeffs,
    spectrum_of,
)
from twistchain.twist import TwistParams

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
# per-layer names of the form <module>.<function>.<metric>; `suites.<suite>.s`
# times a suite, not a function
FUNCTION_LAYERS = ("tensor", "chain", "bethe", "symmetry", "fusion", "rmatrix", "twist",
                   "relations", "reporting")


def _traced_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    out = set()
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in FUNCTION_LAYERS:
            out.add((parts[0], parts[1]))
    return sorted(out)


def test_per_layer_functions_are_public_functions_of_their_module():
    found = _traced_functions()
    assert ("chain", "monodromy_matrix") in found
    for module_name, func_name in found:
        module = importlib.import_module(f"twistchain.{module_name}")
        func = getattr(module, func_name, None)
        assert inspect.isfunction(func), f"{module_name}.{func_name}"
        assert not func_name.startswith("_")
        assert func.__module__ == f"twistchain.{module_name}", f"{module_name}.{func_name}"


def test_layer_scan_calls_keep_their_return_types():
    n = 4
    spec = ChainSpec(n, TwistParams(0.5, 1.0))
    assert isinstance(monodromy_matrix(spec, 1.3 + 0.2j), np.ndarray)
    assert isinstance(build_hamiltonian(spec), np.ndarray)
    coeffs = monodromy_poly_coeffs(spec)
    assert isinstance(coeffs, list) and len(coeffs) == n + 1
    assert all(isinstance(c, np.ndarray) and c.shape == (2 * spec.dim,) * 2 for c in coeffs)


def test_spectrum_of_keeps_returning_eigenvalues_and_route():
    """The probe counts `chain.spectrum_of.dense` from `result[1]`."""
    n = 3
    h = build_hamiltonian(ChainSpec(n, TwistParams(0.5, 1.0)))
    for m, route in ((h, "graded"), (h + h.T, "dense")):
        res = spectrum_of(m, n)
        assert isinstance(res, tuple) and len(res) == 2
        assert isinstance(res[0], np.ndarray) and res[0].shape == (2 ** n,)
        assert res[1] == route


def _module_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "twistchain").glob("*.py"))}


def test_every_exported_name_is_read_in_src_or_pinned_by_the_benchmark():
    """Each name of ``twistchain.__all__``, and each module-level function
    and class of the package, is referenced in the package's code (a name
    or an attribute, parsed with ``ast``; imports, definitions and the
    ``__all__`` strings do not count), or its function is pinned in
    BENCHMARK.json ``per_layer``: nothing in ``src`` is kept only for the
    tests."""
    trees = _module_trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    pinned = set(_traced_functions())
    unread = [name for name in twistchain.__all__ if name not in referenced
              and (getattr(twistchain, name).__module__.removeprefix("twistchain."), name)
              not in pinned]
    assert unread == []
    unread = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in referenced and (module, node.name) not in pinned]
    assert unread == []


def test_norms_and_kronecker_products_come_from_tensor_alone():
    """No ``np.linalg.norm`` or ``np.kron`` (nor ``numpy.`` spellings of
    them) in the package outside ``tensor.py``: every residual norm is
    ``tensor.frobenius`` and every Kronecker product ``tensor.kron``, so
    one body decides how they are taken."""
    found = []
    for module, tree in _module_trees().items():
        if module == "tensor":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    (node.attr == "kron" and isinstance(node.value, ast.Name))
                    or (node.attr == "norm" and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg")):
                found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found.extend(f"{module}:{node.lineno} from {node.module} import {a.name}"
                             for a in node.names if a.name in ("kron", "norm"))
    assert found == []
