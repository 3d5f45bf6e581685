"""Spectral verification toolkit on the 2-torus: logarithmic BMO/Hardy
estimates, truncation-splitting bounds, Osgood-type majorant ODEs, and
inviscid-limit convergence experiments for 2D incompressible flow."""

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    inverse_transform,
    leray_project,
    load_field_csv,
    riesz_transform,
    save_field_csv,
)
from .norms import NormReport, bmo_seminorm, compute_norms, hardy_norm, lp_norm, zygmund_functional
from .logineq import (
    CorpusScan,
    IneqTrial,
    make_corpus,
    scan_corpus,
    verify_main_inequality,
    verify_zygmund_estimate,
    zygmund_family_scan,
)
from .osgood import (
    OsgoodProblem,
    RateBound,
    Trajectory,
    check_majorization,
    integrate_majorant,
    log_gronwall_bound,
    rate_exponent,
)
from .splitting import (
    SplitConfig,
    chebyshev_support_bound,
    holder_remainder_bound,
    truncate_split,
)
from .flow import (
    FlowState,
    NormSeries,
    SolverConfig,
    energy_identity_terms,
    gap_l2,
    random_band_velocity,
    run,
    step,
    taylor_green_velocity,
    two_mode_velocity,
)
from .inviscid import (
    ExperimentConfig,
    GapSeries,
    run_sweep,
    sweep_majorization,
    verify_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
