"""Monte Carlo forecasting of collections on non-performing loan portfolios.

The package simulates account-level repayment over an 84-month horizon,
estimates expected collections with calibrated prediction intervals, and
allocates a fixed simulation budget across accounts to minimize estimator
variance, optionally under per-portfolio variance caps solved by an
active-set method (the uncapped plan is its stationary plan with no caps).  A Gaussian-process emulator predicts per-account
collection variance from covariates so that optimized plans do not need
per-account pilot runs.
"""

__version__ = "0.1.0"

from .allocator import pilot_block_variance, plan_for_population, round_plan
from .constrained import (
    ActiveSetSolution,
    ConstrainedPlan,
    ConstrainedProblem,
    InfeasibleProblemError,
    PortfolioInputs,
    active_set_solve,
    brute_force_oracle,
    check_slater,
    kkt_report,
    round_counts,
    stationarity_solution,
)
from .emulator import (
    GpEmulator,
    fit_gp,
    generate_training_data,
    random_design,
    sigma2_for_population,
    sliced_lhd,
    validate_emulator,
)
from .estimators import (
    MuEstimate,
    PredictionInterval,
    VarianceInputs,
    estimate_mu,
    estimator_variance,
    monthly_bands,
    normal_quantile,
    prediction_interval,
    variance_inputs_from_samples,
)
from .population import (
    Population,
    balance_cdf,
    balance_cdf_inv,
    credit_cdf,
    credit_cdf_inv,
    init_population,
)
from .rng import derive_seed, stream
from .simulator import (
    HORIZON,
    RealisationPlan,
    SimulationOutput,
    TRANSITIONS,
    payment_probability,
    run_plan,
)
