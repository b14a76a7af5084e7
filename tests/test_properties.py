"""Property tests: the CLI on random tiny study configs, the Euler step under
particle permutations, study tables across pool widths, and the coupling's
reps across block sizes and pool widths."""

import json
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

with warnings.catch_warnings():
    # hypothesis imports this module to report a failing example, and one of its
    # imports warns; imported here, a failure is reported instead of ending the run
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

import chaoslab.experiments as xp
from chaoslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERDICT, cli_dispatch
from chaoslab.dynamics import euler_step
from chaoslab.experiments import ProblemConfig, SweepConfig, coupled_chaos_error, gamma_sweep
from chaoslab.meanfield import field_cache, noise_width, ridge_block
from chaoslab.model import FEATURES, LOSSES, Hyperparams
from chaoslab.rng import NoisePlan

# deterministic examples and no example database: the suite reads the same every run
SMALL = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# init boxes: ordinary, wide, inverted (a config error) and far out (diverges at step 0)
BOXES = [(-0.04, 0.04), (-3.0, 3.0), (1.0, -1.0), (19000.0, 20000.0)]


@st.composite
def tiny_problems(draw):
    low, high = draw(st.sampled_from(BOXES))
    return {"feature": draw(st.sampled_from(sorted(FEATURES))),
            "loss": draw(st.sampled_from(sorted(LOSSES))),
            "p": draw(st.integers(1, 2)),
            "labels": draw(st.sampled_from(["noisy", "realizable", "single"])),
            "init_low": low, "init_high": high}


@st.composite
def tiny_hypers(draw):
    # at most 10 Euler steps, and no more SGD steps (gamma >= dt at beta = 1)
    dt = draw(st.sampled_from([0.05, 0.1]))
    steps = draw(st.integers(2, 10))
    return {"dt": dt, "T": steps * dt, "gamma": dt * draw(st.sampled_from([1, 2])),
            "eta": draw(st.sampled_from([0.0, 0.2]))}


# a sweep's gammas step toward the gamma -> 0 limit
DESCENDING_GAMMAS = st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=3,
                             unique=True).map(lambda g: sorted(g, reverse=True))

# one out-of-range key in about one config of three
BREAKS = {"consistency": [("reps", 1), ("N_grid", [8]), ("N_grid", [64, 8])],
          "sweep": [("reps", 0), ("N_ref", 0), ("gammas", [0.5, -1.0]), ("batches", [0])]}


@st.composite
def tiny_study_configs(draw):
    command = draw(st.sampled_from(["gamma-sweep", "batch-sweep", "consistency"]))
    cfg = {"problem": draw(tiny_problems()), "hyper": draw(tiny_hypers()),
           "seed": draw(st.integers(0, 2**31))}
    if command == "consistency":
        cfg["N_grid"] = draw(st.lists(st.integers(1, 64), min_size=2, max_size=3))
        cfg["reps"] = draw(st.integers(2, 3))
    else:
        cfg["gammas"] = draw(DESCENDING_GAMMAS)
        cfg["batches"] = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)
                              .map(sorted))
        cfg["N_ref"] = draw(st.integers(1, 64))
        cfg["reps"] = draw(st.integers(1, 3))
    breaks = BREAKS["consistency" if command == "consistency" else "sweep"]
    broken = draw(st.sampled_from([None] * 2 * len(breaks) + breaks))
    if broken is not None:
        cfg[broken[0]] = broken[1]
    return command, cfg


@SMALL
@given(tiny_study_configs())
def test_cli_on_tiny_study_configs_exits_with_a_code(command_cfg):
    command, cfg = command_cfg
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli_dispatch([command, "--config", str(path), "--out", str(Path(tmp) / "out"),
                           "--strict"])
    assert rc in (EXIT_OK, EXIT_VERDICT, EXIT_CONFIG)


@SMALL
@given(p=st.integers(1, 2), n=st.integers(1, 64), seed=st.integers(0, 2**31),
       feature=st.sampled_from(["tanh-dot", "linear-dot"]), per_particle=st.booleans(),
       eta=st.sampled_from([0.0, 0.3]))
def test_euler_step_is_permutation_equivariant(p, n, seed, feature, per_particle, eta):
    model, pi, _ = ProblemConfig(feature=feature, p=p).build()
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, noise_width(model, pi)))
    Z_lang = rng.standard_normal((n, p))
    scale = rng.uniform(0.0, 1.0, (n, 1)) if per_particle else 0.7
    law = field_cache(W, model, pi)  # one law for both orders of the particles
    perm = rng.permutation(n)

    def step(rows):
        s = scale[rows] if per_particle else scale
        return euler_step(ridge_block(W[rows], model, pi), law, model, pi, 0.05, 1.0, s,
                          Z[rows], Z_lang[rows], eta)

    np.testing.assert_allclose(step(perm), step(np.arange(n))[perm], rtol=1e-13, atol=1e-15)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), reps=st.integers(1, 3),
       gammas=DESCENDING_GAMMAS)
def test_study_tables_equal_at_one_and_two_workers(seed, reps, gammas):
    cfg = SweepConfig(hyper=Hyperparams(T=0.2, dt=0.05), gammas=tuple(gammas), N_ref=32,
                      reps=reps, seed=seed)
    assert gamma_sweep(cfg, workers=1).tables == gamma_sweep(cfg, workers=2).tables


@st.composite
def tiny_couplings(draw):
    Ns = tuple(sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))))
    return {"Ns": Ns, "m": draw(st.integers(1, Ns[0])), "reps": draw(st.integers(1, 4)),
            "p": draw(st.integers(1, 2)), "eta": draw(st.sampled_from([0.0, 0.1])),
            "beta": draw(st.sampled_from([0.5, 1.0])), "seed": draw(st.integers(0, 2**31))}


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(tiny_couplings())
def test_coupling_reps_equal_at_any_block_size_and_worker_count(c):
    model, pi, init = ProblemConfig(p=c["p"]).build()
    hyper = Hyperparams(beta=c["beta"], T=0.1, dt=0.02, eta=c["eta"])
    runs = []
    for budget in (1, 10**9):  # one rep per block, and every rep in one block
        with patch.object(xp, "_COUPLING_BLOCK_PARTICLES", budget):
            for workers in (1, 2):
                est = coupled_chaos_error(model, pi, hyper, c["Ns"], c["m"], 16, c["reps"],
                                          NoisePlan(c["seed"]), init, workers)
                runs.append(np.stack([est[N].per_rep for N in c["Ns"]]))
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])
