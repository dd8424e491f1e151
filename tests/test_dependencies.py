"""The dependencies declared in pyproject.toml are exactly the third-party
modules that the package's sources, and with the ``test`` extra its tests,
import; and the package's structural rules: one export list, one input
check, one mode sum, one convergence rule and one process."""
import ast
import importlib
import sys
from pathlib import Path

import pytest

import deltacasimir

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltacasimir"
TESTS = ROOT / "tests"


def _imported_third_party_modules(directory):
    """The top-level modules that the files in ``directory`` import, by an
    import statement or ``pytest.importorskip``, less the standard library,
    the package and the directory's own modules."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                names.add(node.args[0].value.split(".")[0])
    local = {path.stem for path in directory.glob("*.py")}
    return names - set(sys.stdlib_module_names) - local - {"__future__", "deltacasimir"}


def _declared(requirements):
    names = set()
    for req in requirements:
        for sep in "<>=!~;[ ":
            req = req.split(sep, 1)[0]
        names.add(req.strip().lower())
    return names


PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
PROJECT = PYPROJECT["project"]


def test_every_third_party_import_is_declared_and_nothing_more():
    assert _imported_third_party_modules(PACKAGE) == _declared(PROJECT["dependencies"]) \
        == {"numpy"}


def test_every_third_party_import_of_the_tests_is_declared_and_nothing_more():
    """``pip install -e .[test]`` installs every module the tests import, so
    collection cannot fail on a missing one."""
    declared = _declared(PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])
    assert _imported_third_party_modules(TESTS) == declared


def _is_int_or_float_test(node):
    """Whether node is a call isinstance(x, (int, float))."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)):
        return False
    return {getattr(e, "id", None) for e in node.args[1].elts} >= {"int", "float"}


def test_one_function_checks_scalar_inputs():
    """``errors.require_real`` is the package's one scalar-input check and
    ``errors.require_real_array`` its one array check: no other module
    imports ``numbers`` or tests isinstance(x, (int, float)), and the
    per-module validators they replaced stay gone."""
    retired = {"_is_real", "_check_qd", "_require_d", "_check_positive", "_positive_q",
               "_separations"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module}
            else:
                imported = set()
            assert "numbers" not in imported or path.name == "errors.py", path.name
            assert not _is_int_or_float_test(node), (path.name, node.lineno)
            if isinstance(node, ast.FunctionDef):
                assert node.name not in retired, (path.name, node.name)


def test_one_copy_of_the_force_integrand():
    """The force's integrand and continuation are ``forces._canonical_force``'s
    (the entropy density takes its own continuation along the same ray):
    the integrands and continuations each module once wrote stay gone, and
    only the force's continuation check and ``scattering.kernel`` call
    ``flux_deficit``."""
    retired = {"_zero_t_integrand", "_finite_t_integrand", "_continuation",
               "_density_integrand", "_density_continuation"}
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in retired, (path.name, node.name)
            elif isinstance(node, ast.Call) and "flux_deficit" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(path.name)
    assert callers == {"forces.py", "scattering.py"}


def test_one_ray_engine():
    """The canonical force and the entropy density are members of one ray
    engine, ``numerics.integrate_oscillatory_tail``: only ``numerics``
    defines ``_SCALE`` and lays out ray edges (the only log2 is its octave
    count), and ``forces`` and ``thermo`` import the entry and reach
    ``_gk_segments`` only through it.  The entropy's distance integral
    keeps ``_adaptive_gk``."""
    imported, scale, log2, segments = {}, set(), set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if node.module == "numerics":
                    imported.setdefault(path.stem, set()).update(names)
            else:
                names = {getattr(node, "id", getattr(node, "attr", None))}
            if "_gk_segments" in names:
                segments.add(path.stem)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_SCALE"
                                                    for t in node.targets):
                scale.add(path.stem)
            elif isinstance(node, ast.Call) and "log2" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                log2.add(path.stem)
    assert scale == log2 == segments == {"numerics"}
    assert {"integrate_oscillatory_tail", "_SCALE"} <= imported["forces"]
    assert {"integrate_oscillatory_tail", "_SCALE", "_adaptive_gk"} <= imported["thermo"]


def _walk_own(fn):
    """The nodes of function ``fn``, less those of the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_one_convergence_rule():
    """``numerics.QuadratureEstimate`` sets ``converged`` from its own
    estimate and tol: no other code assigns it, no call passes it (every
    estimate is built from value, error, evaluations and tol), and the
    engine internals return (value, error, evaluations), no flag list."""
    internals = {"_refine", "_gk_segments"}
    seen = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  and c.name == "QuadratureEstimate" for n in ast.walk(c)}
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert name != "converged" or id(node) in inside, where
            elif isinstance(node, ast.Call):
                assert all(k.arg != "converged" for k in node.keywords), where
                if getattr(node.func, "attr", getattr(node.func, "id", None)) in (
                        "setattr", "__setattr__"):
                    assert id(node) in inside or not any(
                        isinstance(a, ast.Constant) and a.value == "converged"
                        for a in node.args), where
                if getattr(node.func, "id", None) == "QuadratureEstimate":
                    assert len(node.args) == 4 and not node.keywords, where
            elif isinstance(node, ast.FunctionDef) and node.name in internals:
                seen.add(node.name)
                for ret in _walk_own(node):
                    if isinstance(ret, ast.Return):
                        assert isinstance(ret.value, ast.Tuple) and len(ret.value.elts) == 3 \
                            or getattr(ret.value.func, "id", None) in internals, where
    assert seen == internals


def test_one_process():
    """Every command runs in one process: no module of the package imports
    ``concurrent``, ``multiprocessing`` or ``threading`` (the CLI's process
    pool paid on no figure)."""
    banned = {"concurrent", "multiprocessing", "threading"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module.split(".")[0]}
            else:
                continue
            assert not imported & banned, (path.name, node.lineno)


# the library modules (all but cli), whose __all__ lists the package joins
LIBRARY = [path.stem for path in sorted(PACKAGE.glob("*.py"))
           if path.stem not in ("__init__", "cli")]


def test_one_export_list():
    """``deltacasimir.__all__`` is ``__version__`` and the ``__all__`` lists
    of the library modules, each name once, so a deleted name cannot linger
    in one list while it is gone from another."""
    names = ["__version__"] + [name for stem in LIBRARY
                               for name in importlib.import_module(f"deltacasimir.{stem}").__all__]
    assert len(set(names)) == len(names)
    assert len(set(deltacasimir.__all__)) == len(deltacasimir.__all__)
    assert set(deltacasimir.__all__) == set(names)


@pytest.mark.parametrize("module", ["deltacasimir"] + [f"deltacasimir.{stem}" for stem in LIBRARY])
def test_every_exported_name_is_bound(module):
    module = importlib.import_module(module)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("gone", ["bose_factor", "asymptotic_force",
                                  "entropy_lifshitz_temperature_slope",
                                  "coefficients_linear_solve", "SingularSystemError",
                                  "thermal_weight", "cosine_integral", "KernelValue",
                                  "force_zero_t_canonical", "force_finite_t_canonical",
                                  "force_zero_t_lifshitz", "force_finite_t_lifshitz",
                                  "force_lifshitz_zero_mode_term",
                                  "PhysicalParams", "to_dimensionless",
                                  "from_dimensionless_force", "UnitsConvention",
                                  "OscillatorySpec", "integrate_smooth_semi_infinite",
                                  "integrate_oscillatory_tail", "sum_exponential_series",
                                  "ForceValue", "FreeEnergyValue", "EntropyValue"])
def test_a_removed_name_is_not_exported(gone):
    # they served no figure; the 4x4 solve lives on in tests/oracles.py,
    # numerics keeps the weight as _thermal_weight_raw and computes no Ci,
    # casimir_force is the force's one entry, its zero mode inlined, the
    # physical-units layer had no reader, the engines are numerics' private
    # ones, cli keeps figure 2's divisor, and Result is the one scalar result
    with pytest.raises(ImportError):
        exec(f"from deltacasimir import {gone}", {})


def _benchmark_imports():
    """(file, name) for each name other than a submodule that a ``from
    deltacasimir import ...`` in perfbench/*.py imports."""
    return [(path.name, alias.name) for path in sorted((ROOT / "perfbench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.module == "deltacasimir"
            for alias in node.names if not (PACKAGE / f"{alias.name}.py").exists()]


def test_every_name_the_benchmark_imports_is_exported():
    # the benchmark's self-tests run workloads.py's imports but not those of
    # record_reference.py, which re-records the reference values
    names = _benchmark_imports()
    assert {file for file, _ in names} >= {"workloads.py", "record_reference.py"}
    assert [(file, name) for file, name in names if name not in deltacasimir.__all__] == []


def test_one_version_string():
    """pyproject.toml takes the version from ``deltacasimir.__version__``,
    so the package and its metadata cannot disagree."""
    assert "version" not in PROJECT and "version" in PROJECT["dynamic"]
    assert PYPROJECT["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "deltacasimir.__version__"}
