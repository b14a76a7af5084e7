"""Spans around the calls into chaoslab's layers, recorded from outside ``src/``.

``install`` replaces each traced function at every name a chaoslab module
binds it to, so a caller that did ``from .meanfield import mean_field_terms``
calls the wrapper too.  A wrapper records one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory; the pass
that made them writes them out when it ends.  Some wrappers also add counts
of the work the call did (particle-steps, draws, points), so rates are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, fn, name: str, namer=None, counter=None):
        """``fn`` with a span per call; ``namer`` picks the span name from the
        arguments, ``counter`` returns counts to add from (args, kwargs, result)."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            result = self.span(label, fn, *args, **kwargs)
            if counter:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{label}.{key}"] += value
            return result

        return traced


# ----------------------------- what is traced -----------------------------


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _mean_field_terms_name(args, kwargs) -> str:
    need_sigma = kwargs.get("need_sigma", args[4] if len(args) > 4 else False)
    return "meanfield.mean_field_terms." + ("sigma" if need_sigma else "nosigma")


def _mean_field_terms_counts(args, kwargs, result) -> dict:
    W, model, pi = args[0], args[2], args[3]
    points = _rows(W) * len(pi)
    # computed, not measured: the float64 (n, D, p) block of feature gradients
    return {"points": points, "grad_bytes_computed": 8 * points * model.p}


def _engine_counts(args, kwargs, traj) -> dict:
    return {"particle_steps": traj.meta["N"] * traj.meta["n_steps"]}


# (defining module, function, span name, namer, counter, modules whose binding
# is replaced; None means every chaoslab module that binds the function)
TARGETS = [
    ("chaoslab.io", "load_config", "io.load_config", None, None, None),
    ("chaoslab.io", "trajectory_to_csv", "io.trajectory_to_csv", None,
     lambda a, k, r: {"rows": len(a[0].times) * a[0].n_particles}, None),
    ("chaoslab.io", "save_trajectory", "io.save_trajectory", None, None, None),
    ("chaoslab.io", "write_csv", "io.write_csv", None, None, None),
    ("chaoslab.experiments", "chaos_rate_study", "experiments.chaos_rate_study", None, None, None),
    ("chaoslab.experiments", "batch_sweep", "experiments.batch_sweep", None, None, None),
    ("chaoslab.experiments", "two_regime_study", "experiments.two_regime_study", None, None, None),
    ("chaoslab.experiments", "sgd_sde_consistency_study",
     "experiments.sgd_sde_consistency_study", None, None, None),
    ("chaoslab.dynamics", "sgd_run", "dynamics.sgd_run", None, _engine_counts, None),
    ("chaoslab.dynamics", "interacting_sde_run", "dynamics.interacting_sde_run", None,
     _engine_counts, None),
    ("chaoslab.dynamics", "meanfield_ode_run", "dynamics.meanfield_ode_run", None,
     _engine_counts, None),
    ("chaoslab.dynamics", "meanfield_sde_run", "dynamics.meanfield_sde_run", None,
     _engine_counts, None),
    # only where stationarity_check calls it: inside dynamics it is the body
    # of the public engines, whose self time it would otherwise take
    ("chaoslab.dynamics", "_euler_run", "dynamics._euler_run", None, _engine_counts,
     ("chaoslab.stationary",)),
    ("chaoslab.meanfield", "field_cache", "meanfield.field_cache", None, None, None),
    ("chaoslab.meanfield", "mean_field_terms", "meanfield.mean_field_terms",
     _mean_field_terms_name, _mean_field_terms_counts, None),
    ("chaoslab.meanfield", "sqrt_psd_batch", "meanfield.sqrt_psd_batch", None,
     lambda a, k, r: {"matrices": len(a[0])}, None),
    ("chaoslab.metrics", "w2_1d_quantile", "metrics.w2_1d_quantile", None, None, None),
    ("chaoslab.metrics", "w2_sliced", "metrics.w2_sliced", None, None, None),
    ("chaoslab.metrics", "w2_exact", "metrics.w2_exact", None, None, None),
    ("chaoslab.stationary", "map_H", "stationary.map_H", None, None, None),
    ("chaoslab.stationary", "fixed_point_iterate", "stationary.fixed_point_iterate", None,
     lambda a, k, r: {"iterations": r.iterations}, None),
    ("chaoslab.stationary", "stationarity_check", "stationary.stationarity_check", None, None, None),
    ("chaoslab.model", "check_assumptions", "model.check_assumptions", None, None, None),
]

# NoisePlan methods are wrapped on the class, so every plan instance is traced.
METHODS = [
    ("normals", "rng.normals", lambda a, k, r: {"draws": r.size}),
    ("uniforms", "rng.uniforms", lambda a, k, r: {"draws": r.size}),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets this version of chaoslab lacks."""
    importlib.import_module("chaoslab.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "chaoslab" or name.startswith("chaoslab."))]
    missing = []
    for module_name, attr, span_name, namer, counter, only_in in TARGETS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap(original, span_name, namer, counter)
        for module in modules:
            if only_in is not None and module.__name__ not in only_in:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
        engines = getattr(sys.modules["chaoslab.cli"], "_ENGINES", {})
        for key, value in list(engines.items()):
            if value is original:
                engines[key] = traced
    from chaoslab.rng import NoisePlan

    for attr, span_name, counter in METHODS:
        setattr(NoisePlan, attr, tracer.wrap(getattr(NoisePlan, attr), span_name, None, counter))
    return missing


# ----------------------------- aggregation -----------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - _covered(inside))
    return out


def aggregate(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, busy time and self time, in seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own
    return dict(out)
