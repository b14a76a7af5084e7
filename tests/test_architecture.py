"""Module boundaries of the package, read from its source with ast."""

import ast
from pathlib import Path

import pytest

import chaoslab

MODULES = sorted(Path(chaoslab.__file__).resolve().parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.fixture(scope="module")
def trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def test_no_module_uses_another_modules_private_names(trees):
    offences = []
    for name, tree in trees.items():
        module_aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if _private(alias.name):
                        offences.append(f"{name}:{node.lineno} imports {alias.name}")
                    elif node.module is None:  # from . import experiments as xp
                        module_aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in module_aliases and _private(node.attr)):
                offences.append(f"{name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert offences == []


def test_no_function_takes_the_noise_model_or_a_cache(trees):
    # a law is one argument (FieldCache or residual columns), the noise
    # model is the ModelSpec's sigma_override field, and every draw is the
    # first n rows of its block, so no function takes particle ids
    offences = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                    if arg is not None and arg.arg in ("sigma_override", "cache", "particle_ids"):
                        offences.append(f"{name}:{node.lineno} takes {arg.arg}")
    assert offences == []


def _enclosing_functions(trees, matches) -> set[str]:
    """``module:function`` of every node ``matches`` accepts, ``module:<module>`` at top level."""
    found = set()

    def visit(module, node, where):
        if matches(node):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            visit(module, child, inner)

    for module, tree in trees.items():
        visit(module, tree, "<module>")
    return found


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def test_only_the_pool_map_starts_a_process_pool(trees):
    # one pool per study call, started in one place
    assert _enclosing_functions(trees, lambda n: _named(n, "ProcessPoolExecutor")) == {
        "experiments.py:_pool_map"}


def test_one_coupling_step_in_experiments(trees):
    # the reps of the coupling step as stacked blocks; a lone rep is a block of one
    steps = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Call) and _named(n.func, "euler_step"))
    assert {s for s in steps if s.startswith("experiments.py:")} == {
        "experiments.py:_coupled_grid_reps"}
    defined = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.FunctionDef) and n.name == "_coupled_grid_rep")
    assert defined == set()


def test_one_noise_kernel_for_the_euler_step(trees):
    # the drift and the diffusion increment come from one kernel, called by the step alone
    defined = _enclosing_functions(trees, lambda n: isinstance(n, ast.FunctionDef) and n.name in (
        "drift_and_noise_root", "diffusion_increment", "_draws"))
    assert defined == set()
    callers = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Call) and _named(n.func, "drift_and_noise"))
    assert callers == {"dynamics.py:euler_step"}


def test_only_the_study_runner_builds_a_report(trees):
    # every study hands its tasks and its verdict step to run_study
    builds = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Call) and _named(n.func, "StudyReport"))
    assert builds == {"experiments.py:run_study"}
