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
    # a law is one argument: its residual columns; the noise model is the
    # ModelSpec's sigma_override field, every draw is the first n rows of its
    # block, so no function takes particle ids, and the divergence ceiling is
    # dynamics.MOMENT_CEILING, read when a guard is called
    offences = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                    if arg is not None and arg.arg in ("sigma_override", "cache", "particle_ids",
                                                         "moment_ceiling"):
                        offences.append(f"{name}:{node.lineno} takes {arg.arg}")
    assert offences == []


def test_the_five_engines_share_one_signature(trees):
    # an engine reads its whole input from these; nothing reaches it through **kwargs
    engines = ("sgd_run", "msgld_run", "interacting_sde_run", "meanfield_ode_run",
               "meanfield_sde_run")
    found = {}
    for node in ast.walk(trees["dynamics.py"]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            assert node.args.kwarg is None, f"dynamics.py:{node.lineno} takes **kwargs"
            if isinstance(node, ast.FunctionDef) and node.name in engines:
                found[node.name] = ast.dump(node.args)
    assert sorted(found) == sorted(engines)
    assert set(found.values()) == {ast.dump(ast.parse(
        "def f(model, pi, hyper, N, init, plan, snapshot_times=None): pass").body[0].args)}


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


def test_only_the_cli_and_the_pool_workers_steady_the_heap(trees):
    # a library caller keeps malloc's defaults
    assert _enclosing_functions(trees, lambda n: _named(n, "steady_heap")) == {
        "cli.py:cli_dispatch", "experiments.py:_pool_map"}
    assert _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Call) and _named(n.func, "steady_heap")) == {
        "cli.py:cli_dispatch"}
    assert _enclosing_functions(trees, lambda n: isinstance(n, ast.keyword) and (
        n.arg == "initializer" and _named(n.value, "steady_heap"))) == {"experiments.py:_pool_map"}


def test_only_the_cli_dispatch_writes_a_run_directory(trees):
    # a handler returns its outcome; the manifest, the output root and the files are one path
    def manifest_start(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "start" and _named(n.func.value, "RunManifest"))

    for matches in (manifest_start,
                    lambda n: isinstance(n, ast.Call) and _named(n.func, "finish"),
                    lambda n: isinstance(n, ast.Call) and _named(n.func, "output_root")):
        assert _enclosing_functions(trees, matches) == {"cli.py:cli_dispatch"}


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


def test_only_field_cache_names_the_field_cache(trees):
    # a kernel takes a law as its residual columns alone: field_cache returns them
    # as an array, and no function or module defines, names or imports a FieldCache
    assert _enclosing_functions(trees, lambda n: _named(n, "FieldCache") or (
        isinstance(n, (ast.ClassDef, ast.alias)) and n.name == "FieldCache") or (
        isinstance(n, ast.Constant) and n.value == "FieldCache")) == set()
    defined = {f"{name}:{node.name}" for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "field_cache"}
    assert defined == {"meanfield.py:field_cache"}


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def test_one_variance_rule_for_the_limit(trees):
    # the limit's step gamma^(1/(1-alpha)) is spelled by gamma_scale alone; the
    # stationary map and the grid law read their variance from one helper
    spelled = _enclosing_functions(trees, lambda n: (
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
        and isinstance(n.right, ast.BinOp) and isinstance(n.right.op, ast.Div)
        and _is_one(n.right.left) and isinstance(n.right.right, ast.BinOp)
        and isinstance(n.right.right.op, ast.Sub) and _is_one(n.right.right.left)))
    assert spelled == {"model.py:gamma_scale"}
    assert _enclosing_functions(trees, lambda n: bool(_bound_names(n) & {
        "_effective_variance"})) == set()


def test_only_the_study_runner_builds_a_report(trees):
    # every study hands its tasks and its verdict step to run_study
    builds = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Call) and _named(n.func, "StudyReport"))
    assert builds == {"experiments.py:run_study"}


def _bound_names(node) -> set[str]:
    """The names ``node`` binds: a def or class, an assignment target, an import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    if isinstance(node, ast.alias):
        return {(node.asname or node.name).split(".")[0]}
    return set()


def _module_names(tree) -> set[str]:
    """The names a module binds at its top level (not inside its functions or classes)."""
    names = set()
    for top in tree.body:
        scoped = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in [top] if scoped else ast.walk(top):
            names |= _bound_names(node)
    return names


def test_every_name_in_all_is_defined(trees):
    # a stale entry would break ``from chaoslab.<module> import *``
    missing, checked = [], 0
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(_named(t, "__all__") for t in node.targets):
                checked += 1
                defined = _module_names(tree)
                missing += [f"{name}: {n}" for n in ast.literal_eval(node.value)
                            if n not in defined]
    assert checked >= 8 and missing == []


def test_names_no_study_or_command_reads_are_gone(trees):
    # test oracles and fixtures live in the tests; the package keeps what a verdict reads
    gone = {"path_metric", "PathMetric", "sgd_sde_gap", "per_sample_grad", "g_envelope",
            "save_dataset", "_atomic_write_bytes", "from_samples", "_fd_derivative_norms",
            "EmpiricalMeasure", "_as_measure", "as_measure", "require_no_pin"}
    assert _enclosing_functions(trees, lambda n: bool(_bound_names(n) & gone)) == set()
    # the grid law keeps no per-atom prediction path beside its residual columns
    fields = [s.target.id for node in ast.walk(trees["stationary.py"])
              if isinstance(node, ast.ClassDef) and node.name == "GridLawPath"
              for s in node.body if isinstance(s, ast.AnnAssign)]
    assert "residual_d1" in fields and "predictions" not in fields


def test_one_sentence_for_a_value_no_run_reads(trees):
    # an unknown key and a leaf of the CLI's table of unread leaves are refused alike,
    # by io's one spelling of the sentence
    spelled = {name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "does not read them" in node.value}
    assert spelled == {"io.py"}


def test_no_config_carries_a_budget_or_a_statistic(trees):
    # a setting that only its default reached is a constant of its study, and so is
    # every verdict's gate; run_study reads its config only through asdict, for the
    # report's echo
    def dataclass_fields(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    _named(d.func if isinstance(d, ast.Call) else d, "dataclass")
                    for d in node.decorator_list):
                yield from (f"{node.name}.{s.target.id}" for s in node.body
                            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))

    fields = {f for tree in trees.values() for f in dataclass_fields(tree)}
    assert any(f.endswith("Config.seed") for f in fields)
    gates = ("slope_threshold", "endpoint_ratio", "ratio_threshold", "floor_jitter",
             "decrease_factor")
    assert {f for f in fields if f.split(".")[1] in ("budget_s", "statistic", *gates)} == set()
    reads = _enclosing_functions(
        trees, lambda n: isinstance(n, ast.Attribute) and _named(n.value, "config"))
    assert "experiments.py:run_study" not in reads


def test_the_init_law_is_one_box(trees):
    # a point mass is the box of width zero: no kind to branch on and no point to read
    fields = [s.target.id for node in ast.walk(trees["dynamics.py"])
              if isinstance(node, ast.ClassDef) and node.name == "InitSpec"
              for s in node.body if isinstance(s, ast.AnnAssign)]
    assert tuple(fields) == ("low", "high")
    assert _enclosing_functions(trees, lambda n: isinstance(n, ast.Attribute) and (
        n.attr == "w0" or (n.attr == "kind" and "init" in ast.unparse(n.value)))) == set()


def test_only_the_problem_config_reads_init_kind(trees):
    # init_kind spells a box in the config; the runs, the regime shortcut included,
    # read the InitSpec that ProblemConfig.build makes of it
    assert _enclosing_functions(trees, lambda n: isinstance(n, ast.Attribute)
                                and n.attr == "init_kind") == {
        "experiments.py:__post_init__", "experiments.py:build"}


def test_settable_value_count(trees):
    # each settable value doubles the configurations the tests must cover, so a new
    # option shows up here as a reviewed change: the fields of the *Config dataclasses
    # and of Hyperparams, and the defaulted parameters of public functions and methods
    fields = params = 0

    def visit(node, public):
        nonlocal params
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, public and not child.name.startswith("_"))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and public \
                    and not child.name.startswith("_"):
                a = child.args
                params += len(a.defaults) + sum(d is not None for d in a.kw_defaults)

    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (node.name.endswith("Config")
                                                   or node.name == "Hyperparams"):
                fields += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                              for s in node.body)
        visit(tree, True)
    assert (fields, params) == (68, 39)
