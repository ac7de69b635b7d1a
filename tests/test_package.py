import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sectoral
from sectoral import contour, presets, projections


def test_all_names_resolve():
    missing = [name for name in sectoral.__all__
               if getattr(sectoral, name, None) is None]
    assert missing == []
    assert len(set(sectoral.__all__)) == len(sectoral.__all__)


def test_projection_and_power_leave_sparse_and_special_unimported():
    # scipy.sparse and scipy.special add about 8 MB of resident memory and
    # 30 ms of import time to a fresh process; a projection (node loop,
    # fibre route and reordered Schur form) and a complex power must not
    # need them
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import sectoral",
        "from sectoral import presets, projections",
        "c = presets.contour_imag()",
        "projections.sectorial_projection(presets.op_dtheta_shift(8), c)",
        "projections.sectorial_projection(np.array([[1, 2], [0, -1]]), c)",
        "projections.schur_projection(np.array([[1, 2], [0, -1]]), c)",
        "projections.complex_power(np.diag([1.0, 2.0 + 1j]), 0.5, np.pi)",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('scipy.sparse', 'scipy.special'))))",
    ])
    src = os.path.dirname(os.path.dirname(sectoral.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _bench_tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_exist():
    # the benchmark's --trace run refuses to start when a wrapped name is
    # gone from its module
    tracer = _bench_tracer()
    missing = [f"{mod}.{name}"
               for table in (tracer.SPAN_TARGETS, tracer.COUNT_TARGETS)
               for mod, names in table.items() for name in names
               if not callable(getattr(importlib.import_module(
                   f"sectoral.{mod}"), name, None))]
    assert missing == []


def test_benchmark_tracer_counts_one_solve_per_quadrature_node():
    # the benchmark's --trace self-check counts linalg.solve once per
    # quadrature node of a probe projection; a node loop that went around
    # linalg.solve would fail it
    c = presets.contour_imag()
    n_nodes = len(contour.quad_nodes(c).nodes)
    A = np.random.default_rng(6).standard_normal((6, 6))
    tracer = _bench_tracer().Tracer()
    tracer.install()
    try:
        tracer.start("probe")
        projections.sectorial_projection(A, c)
        counts = tracer.stop()
    finally:
        tracer.uninstall()
    assert n_nodes > 0
    assert (counts["linalg.solve"], counts["contour.quad_nodes"],
            counts["projections.sectorial_projection"]) == (n_nodes, 1, 1)


def test_benchmark_tracer_counts_one_eig_per_oracle_and_residual():
    # the benchmark's linalg.eig.repeat_frac reads the traced eig spans:
    # the oracle and the branch-difference residual each decompose A once
    c = presets.contour_imag()
    A = np.random.default_rng(6).standard_normal((6, 6))
    tracer = _bench_tracer().Tracer()
    tracer.install()
    try:
        tracer.start("oracle")
        projections.eigen_projection_oracle(A, lambda z: z.real > 0)
        oracle = tracer.stop()
        tracer.start("residual")
        projections.wodzicki_residual(A, 0.37, np.pi / 2, -np.pi / 2, c)
        residual = tracer.stop()
    finally:
        tracer.uninstall()
    assert (oracle["linalg.eig"],
            oracle["projections.eigen_projection_oracle"]) == (1, 1)
    assert (residual["linalg.eig"],
            residual["projections.wodzicki_residual"]) == (1, 1)


def _package_trees():
    src = Path(sectoral.__file__).parent
    return {path.name: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))}


def _module_level_names(tree):
    """The names a module binds at its top level: functions, classes and
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _names_read(trees):
    """Every name the trees load, or read as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_package_has_no_unused_import():
    # a name bound by an import is read in its module (or, in __init__,
    # exported through __all__)
    unused = []
    for module, tree in _package_trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read.update(name.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "__all__"
                    for name in node.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_private_module_names_have_a_caller_in_the_package():
    # a module-level _name that only tests reach is code kept for its test
    trees = _package_trees()
    defined = {(module, name) for module, tree in trees.items()
               for name in _module_level_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    read = _names_read(trees.values())
    assert sorted(f"{m}: {n}" for m, n in defined if n not in read) == []


def test_module_level_names_are_defined_once():
    # a constant, function or class defined in two modules of the package
    # can drift apart: the second module imports it instead
    homes = {}
    for module, tree in _package_trees().items():
        for name in _module_level_names(tree):
            homes.setdefault(name, set()).add(module)
    assert {n: sorted(m) for n, m in homes.items() if len(m) > 1} == {}


def test_public_module_names_are_read_exported_or_benchmarked():
    # a public module-level name is read somewhere in the package, exported
    # through sectoral.__all__, or named by the benchmark (as a name, an
    # attribute, an import or a string); one that only tests reach belongs
    # with the tests
    trees = _package_trees()
    defined = {(module, name) for module, tree in trees.items()
               for name in _module_level_names(tree)
               if not name.startswith("_")}
    bench = [ast.parse(path.read_text()) for path in sorted(
        (Path(__file__).parent.parent / "perfbench").glob("*.py"))]
    read = _names_read(trees.values()) | _names_read(bench)
    read |= set(sectoral.__all__)
    read |= {node.name for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.alias)}
    read |= {node.value for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(f"{m}: {n}" for m, n in defined if n not in read) == []
