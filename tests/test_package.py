"""The package's public surface: every export resolves and is declared."""

import ast
import dataclasses
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import fletcher_penalty
from fletcher_penalty import (
    RegionParams,
    SolverConfig,
    builtin_problem,
    evaluate,
    gradient_eigenstep,
    layered_hess,
    make_product,
    make_rayleigh_sphere,
    make_sphere,
    sym_eig_min,
    zero_cost,
)

MODULES = sorted(m.name for m in pkgutil.iter_modules(fletcher_penalty.__path__))
# the names the package root resolves on first access, from derivative_check
LAZY = {"DerivativeReport", "check_problem", "fd_grad", "fd_jacobian", "relative_error"}


def _package_imports():
    """(module, names) of each `from .module import names` at the package root."""
    tree = ast.parse(pathlib.Path(fletcher_penalty.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    assert all(node.level == 1 for node in imports), "the package imports only its own modules"
    return [(node.module, [a.name for a in node.names]) for node in imports]


def test_every_module_all_name_resolves():
    for name in MODULES:
        module = importlib.import_module("fletcher_penalty." + name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_package_import_is_in_its_module_all():
    assert set(fletcher_penalty._LAZY) == LAZY
    for module_name, names in _package_imports() + [("derivative_check", sorted(LAZY))]:
        module = importlib.import_module("fletcher_penalty." + module_name)
        undeclared = [name for name in names if name not in module.__all__]
        assert undeclared == [], (module_name, undeclared)


def test_every_export_resolves_by_import_and_by_attribute():
    exports = [(m, name) for m, names in _package_imports() for name in names]
    exports += [("derivative_check", name) for name in sorted(LAZY)]
    for module_name, name in exports:
        module = importlib.import_module("fletcher_penalty." + module_name)
        namespace = {}
        exec("from fletcher_penalty import %s" % name, namespace)
        assert namespace[name] is getattr(fletcher_penalty, name) is getattr(module, name), name
    star = {}
    exec("from fletcher_penalty import *", star)
    assert {name for _, name in exports} <= set(star)
    assert LAZY <= set(dir(fletcher_penalty))


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fletcher_penalty.no_such_name
    with pytest.raises(ImportError):
        exec("from fletcher_penalty import no_such_name", {})


def test_derivative_check_loads_on_first_use():
    # a fresh process: this one has loaded derivative_check through the tests' imports
    code = "\n".join([
        "import os, sys, tempfile",
        "import fletcher_penalty, fletcher_penalty.cli",
        "loaded = lambda: 'fletcher_penalty.derivative_check' in sys.modules",
        "assert not loaded()",
        "out = os.path.join(tempfile.mkdtemp(), 'out')",
        "for argv in (['solve', '--problem', 'rayleigh', '--n', '4'],",
        "             ['restore', '--problem', 'stiefel', '--n', '3', '--t-end', '0.05']):",
        "    assert fletcher_penalty.cli.main(argv + ['--output-path', out]) == 0, argv",
        "assert not loaded()",
        "fletcher_penalty.check_problem",
        "assert loaded()",
    ])
    env = dict(os.environ)
    src = str(pathlib.Path(fletcher_penalty.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def _two_runs():
    p = builtin_problem("rayleigh", n=6)
    x = p.init_point(0)
    return {
        "PenaltyEval": lambda: evaluate(p, x, 1.0),
        "SvdResult": lambda: evaluate(p, x, 1.0).jac_svd,
        "LayeredQuantities": lambda: layered_hess(p, x),
        "RunTrace": lambda: gradient_eigenstep(p, x, SolverConfig(eps1=1e-3)),
    }


@pytest.mark.parametrize("record", ["LayeredQuantities", "PenaltyEval", "RunTrace", "SvdResult"])
def test_records_of_arrays_compare_and_hash_by_identity(record):
    # a field-wise == of ndarray fields could only raise; two equal runs are two records
    make = _two_runs()[record]
    a, b = make(), make()
    assert type(a).__name__ == record
    assert a == a and a != b
    assert len({a, b, a}) == 2


# every record the library computes and returns, with its fields in their documented order
RESULT_FIELDS = {
    "SvdResult": ("u", "s", "vt"),
    "PenaltyEval": ("x", "h_val", "h_norm", "jac", "jac_svd", "grad_f", "lambda_val", "beta",
                    "g_val", "grad_g", "grad_norm", "lag_block", "lag_hess"),
    "BetaThresholds": ("beta1", "beta2", "beta3", "b_max", "c_lambda", "sigma_min", "sigma_max"),
    "LayeredQuantities": ("h_norm", "riem_grad", "riem_grad_norm", "min_eig"),
    "CriticalityCertificate": ("eps0_measured", "eps1_measured", "eps2_measured", "targets",
                               "focp_pass", "socp_pass", "min_eig"),
    "Cost": ("value", "grad", "hess"),
    "IterationRecord": ("k", "kind", "step_len", "g_before", "g_after", "grad_norm", "h_norm",
                        "curvature", "backtracks", "slope", "d_norm"),
    "PlateauStage": ("index", "beta", "lp", "iters", "stop_reason", "b_value"),
    "DerivativeReport": ("target", "max_rel_err", "worst_point_seed", "step_used", "passed"),
    "RunTrace": ("config", "records", "final_x", "final_certificate", "termination", "plateaus"),
}


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_results_are_immutable_named_tuples(name):
    cls = getattr(fletcher_penalty, name)
    assert issubclass(cls, tuple) and cls._fields == RESULT_FIELDS[name]
    record = cls._make(range(len(cls._fields)))
    for i, field in enumerate(cls._fields):
        assert getattr(record, field) == record[i] == i  # PlateauStage.index is its field
        with pytest.raises(AttributeError):
            setattr(record, field, -1)


def test_svd_unpacks_and_two_classes_stay_dataclasses():
    a = np.arange(6.0).reshape(2, 3)
    u, s, vt = res = fletcher_penalty.svd(a)
    assert u is res.u and s is res.s and vt is res.vt
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
    classes = [getattr(fletcher_penalty, n) for n in fletcher_penalty.__all__]
    classes = [c for c in classes if isinstance(c, type)]
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {"Problem", "RegionParams"}
    assert {c.__name__ for c in classes if issubclass(c, tuple)} == set(RESULT_FIELDS) | {"SolverConfig"}


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: RegionParams(radius=0.0, sigma_lb=1.0),
                 r"^RegionParams\.radius must be strictly positive$", id="region-zero-radius"),
    pytest.param(lambda: RegionParams(radius=0.5, sigma_lb=-1.0),
                 r"^RegionParams\.sigma_lb must be strictly positive$", id="region-negative-sigma"),
    pytest.param(lambda: RegionParams(radius=float("nan"), sigma_lb=1.0),
                 r"^RegionParams\.radius must be strictly positive$", id="region-nan-radius"),
    pytest.param(lambda: make_sphere(3, [1.0, 0.0]),
                 r"^w has length 2, expected 3$", id="sphere-w-length"),
    pytest.param(lambda: make_rayleigh_sphere(np.ones((2, 3))),
                 r"^expected a square matrix$", id="rayleigh-non-square"),
    pytest.param(lambda: make_product([], zero_cost(3)),
                 r"^need at least one block$", id="product-no-block"),
    pytest.param(lambda: sym_eig_min(np.ones((2, 3))),
                 r"^expected a square matrix, got shape \(2, 3\)$", id="sym-eig-min-non-square"),
])
def test_bad_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
