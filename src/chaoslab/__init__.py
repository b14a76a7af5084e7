"""Numerical laboratory for SGD on wide two-layer networks, its interacting
particle diffusions, and their mean-field limits."""

from .model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    ModelSpec,
    check_assumptions,
    gamma_scale,
    make_model,
    stepsize_schedule,
    time_weight,
)
from .meanfield import (
    EmpiricalMeasure,
    covariance_sigma,
    mean_field_h,
    noise_xi,
    predict,
    sqrt_psd,
    structural_risk,
)
from .dynamics import (
    InitSpec,
    NoisePlan,
    Trajectory,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    msgld_run,
    sgd_run,
    sgd_sde_gap,
    weak_form_residual,
)
from .experiments import coupled_chaos_error
from .metrics import fit_rate, path_metric, w2_1d, w2_exact, w2_sliced
from .stationary import GridDensity1D, fixed_point_iterate, map_H, stationarity_check

__version__ = "0.1.0"
