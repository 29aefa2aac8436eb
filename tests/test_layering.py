"""Static checks on the package's module graph."""

import ast
import graphlib
import pathlib

import ncsym

SRC = pathlib.Path(ncsym.__file__).parent

# the numerical stack, lowest first; no module imports one to its right
LAYERS = ("linalg", "geometry", "funcalc", "sqrtlib", "domains", "girard",
          "verify", "cli")


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree) -> set:
    deps = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            deps |= ({node.module} if node.module
                     else {alias.name for alias in node.names})
    return deps


def test_no_import_inside_a_function():
    found = [f"{name}.py:{node.lineno}"
             for name, tree in _trees().items()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_graph_is_acyclic_and_layered():
    graph = {name: _package_imports(tree) for name, tree in _trees().items()}
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError
    for i, name in enumerate(LAYERS):
        assert not graph[name] & set(LAYERS[i + 1:]), name


def _calls(tree, prefix: str) -> list:
    """The calls in tree of a routine whose name starts with prefix, as
    np.linalg.<name> or as a name imported from numpy.linalg."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", ""))
            .startswith(prefix)]


def _callers(trees, prefix: str) -> list:
    """module.function for each function that makes such a call."""
    return [f"{name}.{func.name}"
            for name, tree in trees.items()
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _calls(func, prefix)]


def test_one_function_solves_for_eigenvalues():
    # every other spectral function takes the Spectrum that linalg.spectrum
    # returns and reads its eigenvalues, so a second solve path cannot
    # creep back
    trees = _trees()
    assert _callers(trees, "eig") == ["linalg.eigenvalues"]  # Spectrum's
    assert sum(len(_calls(tree, "eig")) for tree in trees.values()) == 1


def test_singular_values_are_taken_in_linalg():
    # norms and the invertibility test live in linalg; outside it only a
    # rank test and a null space need the singular values themselves
    outside = [name for name in _callers(_trees(), "svd")
               if not name.startswith("linalg.")]
    assert outside == ["sqrtlib.sqrt_exists", "verify._intertwiner_basis"]


def _readme_entry_points() -> set:
    """Names the README's "Library entry points" section imports from
    ncsym in its code blocks."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Library entry points\n")[1]
    section = section.split("\n## ")[0]
    blocks = section.split("```python\n")[1:]
    return {alias.name
            for block in blocks
            for node in ast.walk(ast.parse(block.split("```")[0]))
            if isinstance(node, ast.ImportFrom) and node.module == "ncsym"
            for alias in node.names}


def test_package_binds_exactly_the_documented_entry_points():
    tree = _trees()["__init__"]
    bound = {alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    documented = _readme_entry_points()
    assert documented
    assert {name for name in bound if not name.startswith("__")} \
        == documented
