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
    # a law is one argument (FieldCache or residual columns), and the noise
    # model is the ModelSpec's sigma_override field
    offences = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                    if arg is not None and arg.arg in ("sigma_override", "cache"):
                        offences.append(f"{name}:{node.lineno} takes {arg.arg}")
    assert offences == []
