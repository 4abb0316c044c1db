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


# The definitions that no command reaches but the package keeps, walked
# from as the commands are.  The named oracles, each with what it alone
# reads, are the slow definitional paths the tests check the fast ones
# against:
KEPT = {
    "reconstruct.ultrafilter_oracle", "pairs.Pair.leq",
    "reconstruct.ahat_iso", "reconstruct._atom_coefficient",
    "steinberg.DiagonalSubalgebra.contains",
    # and these are read by bench/, until a benchmark change drops them
    # (ROADMAP item 10): the summary reader, the instance builders, the
    # fibre cocycle with the action it reads, a delegate counted by name,
    # the composition and cocycle views, and two imports of make_groupoid
    # that bench/test_bench.py requires
    "cli.parse_summary", "groupoid.disjoint_union", "twist.trivial_cocycle",
    "twist.coboundary_cocycle", "twist.fibre_cocycle",
    "twist.ExplicitTwist.act", "grouprings.TwistedGroupRing.mul",
    "groupoid.FiniteGroupoid.compose", "twist.Cocycle.values",
    "reconstruct.make_groupoid", "twist.make_groupoid",
}


def _names(node):
    """Every name that node reads, and every attribute, as .attribute."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions(sources):
    """(defs, imports, top) of the package's sources: defs maps
    module.name to each top-level function and class and module.Class.name
    to each method, imports maps module.name to whether the module reads
    each name it imports from the package, and top is what the modules'
    top-level statements read."""
    defs, imports, top = {}, {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read_here = _names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                imports.update((f"{module}.{a.asname or a.name}",
                                (a.asname or a.name) in read_here)
                               for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{module}.{node.name}.{sub.name}", sub)
                                for sub in node.body
                                if isinstance(sub, ast.FunctionDef))
            else:
                top |= _names(node)
    return defs, imports, top


def _unreached(sources, roots):
    """The keys of _definitions, sorted, that a walk from roots and from
    the modules' top-level statements does not reach, and the imports
    that their module never reads, less roots.

    The walk is by name.  Reached code reads every name and attribute in
    it.  A top-level definition is reached when its name is read, as a
    name or an attribute, and a method when its class is reached and its
    name is read as an attribute, or it is a dunder method.  So a shared
    name can only make more reached."""
    defs, imports, read = _definitions(sources)
    reached, todo = set(), {key for key in roots if key in defs}
    while True:
        for key in todo:
            node = defs[key]
            if isinstance(node, ast.ClassDef):
                read |= set().union(*map(_names, node.bases + [
                    n for n in node.body if not isinstance(n, ast.FunctionDef)]))
            else:
                read |= _names(node)
        reached |= todo
        todo = set()
        for key in defs.keys() - reached:
            *owner, name = key.split(".")
            if {name, "." + name} & read if len(owner) == 1 else \
                    ".".join(owner) in reached and ("." + name in read or (
                        name.startswith("__") and name.endswith("__"))):
                todo.add(key)
        if not todo:
            unused = {key for key, used in imports.items() if not used}
            return sorted((defs.keys() - reached) | (unused - set(roots)))


def _sources():
    out = {}
    for module in MODULES:
        with open(os.path.join(SRC, "quasicartan", f"{module}.py"),
                  encoding="utf-8") as fh:
            out[module] = fh.read()
    return out


def test_every_definition_is_reached_from_a_command_or_kept():
    # cli.main dispatches the six commands through cli.COMMANDS, which is
    # top-level code
    sources = _sources()
    defs, imports, _ = _definitions(sources)
    assert KEPT <= defs.keys() | imports.keys()
    assert _unreached(sources, ["cli.main", *KEPT]) == []


def test_a_definition_that_nothing_reaches_is_named():
    sources = _sources()
    sources["steinberg"] += "\n\ndef planted():\n    return convolve\n"
    assert _unreached(sources, ["cli.main", *KEPT]) == ["steinberg.planted"]


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_as_python_3_10(module):
    # pyproject promises requires-python >= 3.10; the grammar of that
    # version is checked here whatever the interpreter's own version
    path = os.path.join(SRC, "quasicartan", f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=(3, 10))
