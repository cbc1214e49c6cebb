"""Monte Carlo estimators, variance inputs and prediction intervals.

The population estimate of expected total collections is the sum over
accounts of the per-account realisation means.  :func:`estimator_variance`,
its variance under a plan with per-account counts R_i and per-block counts
r_j, is the one formula for a plan's variance:

    sum_i sigma2_i / R_i + sum_j sigma2_D,j / r_j.

A prediction interval adds the collections' own variance, sum_i sigma2_i +
sum_j sigma2_D,j, so its half width is (only this module applies 1 + 1/R)

    z_(1+p)/2 * sqrt( sum_i sigma2_i (1 + 1/R_i) + sum_j sigma2_D,j (1 + 1/r_j) ).

Per-account variances come either from the realisation sample variances
(method M1, requires R_i >= 2 everywhere) or from the Gaussian-process
variance emulator (method M2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import ndtri
from .constrained import portfolio_variance
from .population import Population
from .simulator import RealisationPlan, SimulationOutput

__all__ = [
    "VarianceInputs",
    "MuEstimate",
    "PredictionInterval",
    "normal_quantile",
    "estimate_mu",
    "estimator_variance",
    "prediction_interval",
    "monthly_bands",
    "variance_inputs_from_samples",
]


def normal_quantile(q: float) -> float:
    """Quantile of the standard normal distribution.

    This is the package's one normal quantile, :func:`collsim._special.ndtri`,
    which equals ``scipy.special.ndtri`` bit for bit without importing scipy.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return float(ndtri(q))


# --------------------------------------------------------------------------
# Point estimates


@dataclass(frozen=True)
class MuEstimate:
    total: float
    per_portfolio: np.ndarray  # indexed by portfolio
    per_month: np.ndarray | None  # length horizon, None if monthly stats absent


def estimate_mu(output: SimulationOutput, population: Population) -> MuEstimate:
    """Unbiased Monte Carlo estimates of expected collections from a :func:`collsim.simulator.run_plan` output.

    Returns the population total (the sum of the output's per-account
    means), the per-portfolio totals (which sum exactly to the population
    total) and, when the output carries monthly statistics, the
    per-month expected collections, its ``monthly_mean``.  ``run_plan`` gave
    every account a realisation.
    """
    if output.n != population.n:
        raise ValueError(f"output covers {output.n} accounts, population has {population.n}")
    means = output.means
    per_portfolio = np.array([means[population.portfolio == j].sum() for j in range(population.n_portfolios)])
    return MuEstimate(total=float(means.sum()), per_portfolio=per_portfolio, per_month=output.monthly_mean)


@dataclass(frozen=True)
class VarianceInputs:
    """Per-account and per-block variances feeding the variance formulas.

    ``sigma2_independent`` is indexed by account id (entries for dependent
    accounts are ignored); ``sigma2_block`` is indexed by portfolio, NaN where
    a portfolio has no dependent block.  Sample variances (method M1) come
    from :func:`variance_inputs_from_samples`, which needs R_i >= 2 everywhere.
    """

    sigma2_independent: np.ndarray
    sigma2_block: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.sigma2_independent) < 0):
            raise ValueError("independent-account variances must be non-negative")
        blk = np.asarray(self.sigma2_block)
        if np.any(blk[~np.isnan(blk)] < 0):
            raise ValueError("block variances must be non-negative")


def _require_two_realisations(what: str, offenders) -> None:
    """Raise unless ``offenders``, the ids of accounts with R_i < 2, is empty; the message names the first 10."""
    if len(offenders):
        head = ", ".join(str(i) for i in offenders[:10])
        raise ValueError(
            f"{what} need R_i >= 2 for every account; offenders: {head}" + (" ..." if len(offenders) > 10 else "")
        )


def variance_inputs_from_samples(output: SimulationOutput, population: Population) -> VarianceInputs:
    """M1 variance inputs: the output's per-account and block sample variances (requires R_i >= 2)."""
    _require_two_realisations("sample variances", np.flatnonzero(output.counts < 2))
    sigma2 = output.variances.copy()
    sigma2_block = np.full(population.n_portfolios, np.nan)
    for j, blk in output.block_totals.items():
        sigma2_block[j] = blk.var(ddof=1)
    return VarianceInputs(sigma2_independent=sigma2, sigma2_block=sigma2_block)


def estimator_variance(inputs: VarianceInputs, plan: RealisationPlan, population: Population):
    """Variance of the mean estimate, per portfolio and in total."""
    if np.any(plan.counts < 0):
        raise ValueError("plan counts must be non-negative")
    per_portfolio = np.empty(population.n_portfolios)
    for j, pf in enumerate(population.portfolios):
        ids, dep = pf.independent_ids, pf.dependent_ids
        s2d, r_block = (inputs.sigma2_block[j], plan.counts[dep[0]]) if len(dep) else (0.0, 0.0)
        if np.isnan(s2d):
            raise ValueError(f"portfolio {j} has a dependent block but no block variance input")
        per_portfolio[j] = portfolio_variance(inputs.sigma2_independent[ids], plan.counts[ids], s2d, r_block)
    return per_portfolio, float(per_portfolio.sum())


# --------------------------------------------------------------------------
# Prediction intervals


@dataclass(frozen=True)
class PredictionInterval:
    center: float
    half_width: float
    coverage_p: float

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    @property
    def relative_uncertainty(self) -> float:
        return 2.0 * self.half_width / self.center


def prediction_interval(
    mu_hat: float,
    inputs: VarianceInputs,
    plan: RealisationPlan,
    population: Population,
    p: float = 0.95,
) -> PredictionInterval:
    """Normal-quantile prediction interval for the realised total: :func:`estimator_variance` plus the units' own variance."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"coverage probability must lie in (0, 1), got {p}")
    _, var = estimator_variance(inputs, plan, population)
    blocks = [j for j, pf in enumerate(population.portfolios) if len(pf.dependent_ids)]
    var += inputs.sigma2_independent[population.independent_ids].sum() + inputs.sigma2_block[blocks].sum()
    z = normal_quantile((1.0 + p) / 2.0)
    return PredictionInterval(center=float(mu_hat), half_width=z * float(np.sqrt(var)), coverage_p=p)


def monthly_bands(output: SimulationOutput, p: float = 0.95) -> list[PredictionInterval]:
    """Per-month prediction intervals from month-specific sample variances.

    Only defined for M1 with an equal-realisations plan, mirroring the fact
    that the variance emulator predicts total-collection variances only; the
    plan is read from the output's counts.  The centres are the output's
    ``monthly_mean``, :func:`estimate_mu`'s ``per_month``; the variance of
    month ``t`` is its ``monthly_var[t]``, times ``1 + 1/R`` for the one
    count R.
    """
    if output.monthly_mean is None:
        raise ValueError("monthly bands need a run with store_monthly=True")
    counts = output.counts
    _require_two_realisations("monthly bands", np.flatnonzero(counts < 2))
    if len(np.unique(counts)) != 1:
        raise ValueError("monthly bands require an equal-realisations plan")

    var = output.monthly_var * (1.0 + 1.0 / counts[0])
    z = normal_quantile((1.0 + p) / 2.0)
    return [
        PredictionInterval(center=float(c), half_width=z * float(np.sqrt(v)), coverage_p=p)
        for c, v in zip(output.monthly_mean, var)
    ]
