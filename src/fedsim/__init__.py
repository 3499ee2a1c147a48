"""Deterministic federated-optimization workbench.

Implements a multi-step inertial-momentum training rule next to four
standard baselines (plain averaging, client momentum, control variates,
adaptive server), with runtime verification of the update-rule identities
and a reproducible, path-keyed randomness model.
"""

from .algorithms import (
    AlgoParams,
    DivergenceError,
    MimHyper,
    RoundState,
    compute_delta,
    eta_l_bound,
    fedadam_round,
    fedavg_round,
    fedcm_round,
    init_round_state,
    mim_local_update,
    mim_round,
    scaffold_round,
)
from .analysis import (
    MetricRow,
    compute_u,
    finite_difference_check,
    local_consistency,
    verify_delta_recursion,
    verify_u_update,
)
from .objectives import (
    FederatedProblem,
    dirichlet_partition,
    ingest_csv,
    logreg_problem,
    mlp_problem,
    quadratic_problem,
)
from .simulator import (
    ConfigError,
    ProblemConfig,
    RunConfig,
    RunRecord,
    build_problem,
    run_sweep,
    run_training,
    sample_clients,
    sweep_configs,
)
from .vectors import ParamVector, RngStream, derive_rng, l2_norm_sq, mean_vectors

__version__ = "0.1.0"
