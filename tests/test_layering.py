"""Static checks on the package's module graph."""

import ast
import graphlib
import pathlib
import re
import sys

import pytest

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


def _reach(graph: dict, name: str) -> set:
    """The package modules name imports, directly or through others."""
    seen, todo = set(), [name]
    while todo:
        for dep in graph[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_identity_side_reaches_no_spectral_module():
    # pi, its u,v split and the tolerance check live in linalg, so the
    # identity code stands on linalg alone, apart from the discs, branch
    # roots and fibers built over it
    graph = {name: _package_imports(tree) for name, tree in _trees().items()}
    for name in ("words", "report", "ratexpr", "symbasis", "parsing",
                 "girard", "verify"):
        assert not _reach(graph, name) & {"geometry", "funcalc", "sqrtlib",
                                          "domains"}, name
    assert _reach(graph, "girard") == {"errors", "linalg", "ratexpr",
                                       "report", "symbasis", "words"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    found = []
    for name, tree in _trees().items():
        modules = {alias.asname or alias.name
                   for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{name}: {node.module}.{alias.name}"
                          for alias in node.names if _private(alias.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and getattr(node.value, "id", None) in modules):
                found.append(f"{name}: {node.value.id}.{node.attr}")
    assert found == []


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


def _definitions(trees, names) -> list:
    """module.function for each function defined under one of names."""
    return [f"{name}.{func.name}"
            for name, tree in trees.items()
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in names]


def test_one_function_solves_for_eigenvalues():
    # every other spectral function takes the Spectrum that linalg.spectrum
    # returns and reads its eigenvalues or its eigenbasis, so a second
    # solve path cannot creep back: Spectrum.eigenvalues calls eigvals and
    # Spectrum.eig calls eig, and nothing else calls either
    trees = _trees()
    spectrum_class, = (node for node in trees["linalg"].body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "Spectrum")
    solvers = [func for func in spectrum_class.body
               if isinstance(func, ast.FunctionDef) and _calls(func, "eig")]
    assert [(func.name, _calls(func, "eig")[0].func.attr)
            for func in solvers] == [("eigenvalues", "eigvals"),
                                     ("eig", "eig")]
    assert _callers(trees, "eig") == ["linalg.eigenvalues", "linalg.eig"]
    assert sum(len(_calls(tree, "eig")) for tree in trees.values()) == 2


def test_singular_values_are_taken_in_linalg():
    # norms and the invertibility test live in linalg; outside it only a
    # rank test and a null space need the singular values themselves
    outside = [name for name in _callers(_trees(), "svd")
               if not name.startswith("linalg.")]
    assert outside == ["sqrtlib.sqrt_exists", "verify._intertwiner_basis"]
    # a condition number is sv_ratio's reciprocal: np.linalg.cond would
    # take a second SVD of a matrix whose ratio is read anyway
    assert [node for tree in _trees().values() for node in ast.walk(tree)
            if getattr(node, "attr", None) == "cond"] == []


def test_one_union_find_and_numpys_matrix_rank():
    # eigenvalue clusters and the coupling graphs of fibers and genericity
    # share linalg's union-find, and sqrt_exists counts its rank with
    # np.linalg.matrix_rank, not a copy of it
    trees = _trees()
    assert sorted(_callers(trees, "connected_components")) == [
        "domains._coupling_components", "linalg.cluster_eigenvalues"]
    assert _definitions(trees, {"numerical_rank"}) == []


def test_one_certificate_for_every_signed_sum_of_pieces():
    # the roots of x and the fiber points of pi are both signed sums of
    # spectral pieces: sqrtlib owns their sign patterns, and one table of
    # piece products checks their squares and certifies them distinct
    trees = _trees()
    assert _definitions(trees, {"square_bound", "_checked_sums",
                                "_distinctness_margin"}) == []
    assert _definitions(trees, {"sign_patterns"}) == ["sqrtlib.sign_patterns"]
    for name in ("signed_sums", "certify_distinct"):
        assert sorted(_callers(trees, name)) == [
            "domains.fiber", "sqrtlib.all_square_roots"], name


def _function(trees, module: str, name: str):
    """The definition of name in module."""
    func, = (node for node in ast.walk(trees[module])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == name)
    return func


def _mentions(node, name: str) -> bool:
    return any(getattr(sub, "id", getattr(sub, "attr", None)) == name
               for sub in ast.walk(node))


def test_each_decision_has_one_home():
    # the chart phi is pi o omega; require_samples gates the levels of
    # both samplers; replace copies every field of a check; linalg reads
    # [re, im] matrix rows; and default_radius is never refused inside
    # propose_simple_set, whose own test has kept every center off 0
    trees = _trees()
    assert _definitions(trees, {"phi"}) == []
    sources = {name: ast.unparse(tree) for name, tree in trees.items()}
    assert [name for name, text in sources.items()
            if "levels must each be at least 1" in text] == ["ratexpr"]
    assert not _mentions(_function(trees, "report", "merge"), "CheckResult")
    reader = _function(trees, "verify", "anc_example_suite")
    assert _calls(reader, "matrix_from_lists") and not _calls(reader,
                                                             "complex")
    assert not any(isinstance(node, ast.ExceptHandler) for node in ast.walk(
        _function(trees, "geometry", "propose_simple_set")))


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


def test_numpy_is_the_only_runtime_dependency():
    # every absolute import is the standard library's or numpy; relative
    # ones are the package's own
    found = {alias.name.split(".")[0]
             for tree in _trees().values() for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    found |= {node.module.split(".")[0]
              for tree in _trees().values() for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert found - set(sys.stdlib_module_names) - {"ncsym"} == {"numpy"}
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / \
        "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d)[0] for d in declared] == ["numpy"]
