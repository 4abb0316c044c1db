"""Each quasicartan module imports cleanly when it is the first one loaded
(grouprings and pairs import each other: grouprings at module level,
pairs inside check_lbh)."""

import ast
import os
import subprocess
import sys

import pytest

MODULES = ["cli", "finring", "groupoid", "grouprings", "pairs",
           "reconstruct", "steinberg", "twist"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", f"import quasicartan.{module}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


_LOADED = "import sys; print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"


def test_the_package_loads_the_standard_library_only():
    # numpy and others are installed here but are not dependencies; a
    # bare interpreter's own modules (site hooks, say) are subtracted
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def loaded(code):
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    imports = "; ".join(f"import quasicartan.{m}" for m in MODULES)
    outside = loaded(f"{imports}; {_LOADED}") - loaded(_LOADED) \
        - set(sys.stdlib_module_names) - {"quasicartan"}
    assert outside == set()


def test_the_package_reads_no_compose_or_values_view():
    # the package reads a composition through G.composite and
    # G.composable_pairs and a cocycle through c.value; the views
    # G.compose and c.values are defined for callers outside it.  A call
    # such as dict.values() is not a read of the view
    reads = []
    for module in MODULES:
        path = os.path.join(SRC, "quasicartan", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        reads.extend(f"{module}.py:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr in ("compose", "values")
                     and id(node) not in called)
    assert reads == []


def test_the_package_solves_a_linear_system_for_the_dagger_only():
    # the kernel and invertibility questions are spanning tests
    # (finring.standard_basis_tails); solve_linear finds daggers alone
    callers = []
    for module in MODULES:
        path = os.path.join(SRC, "quasicartan", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    walk(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call) and "solve_linear" in (
                        getattr(child.func, "attr", None),
                        getattr(child.func, "id", None)):
                    callers.append(".".join([module] + scope))
                walk(child, scope)

        walk(tree, [])
    assert callers == ["pairs.Pair._solve_dagger_system"]


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_as_python_3_10(module):
    # pyproject promises requires-python >= 3.10; the grammar of that
    # version is checked here whatever the interpreter's own version
    path = os.path.join(SRC, "quasicartan", f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=(3, 10))
