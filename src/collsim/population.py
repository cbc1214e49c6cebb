"""Synthetic account populations and covariate CDF transforms.

Accounts carry an initial balance, a fixed credit score, an operational
segment, a transition-eligibility flag and an indicator of whether the account
paid in the month before the simulation starts.  Populations are partitioned
into portfolios; within each portfolio the accounts that start in segment 3
and are eligible for transition form the "dependent block", whose outcomes are
coupled through the capacity-constrained segment transitions.

The module also provides the CDF / inverse-CDF transforms of the balance and
credit-score distributions, which map covariates onto the unit square for the
variance emulator's experimental design.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .rng import _unit_streams

__all__ = [
    "Account",
    "PortfolioIndex",
    "Population",
    "CreditMixture",
    "DEFAULT_CREDIT_MIXTURE",
    "init_population",
    "balance_cdf",
    "balance_cdf_inv",
    "credit_cdf",
    "credit_cdf_inv",
]

# Initialization distributions of the representative population.
BALANCE_MEAN = 2500.0
BALANCE_SD = 1000.0
BALANCE_LO = 500.0
BALANCE_HI = 10000.0
PROB_PAID_BEFORE_START = 0.2
SEGMENT_PROBS = (0.2, 0.2, 0.6)
PROB_ELIGIBLE = 0.1

_CSV_HEADER = ("id", "balance", "credit_score", "segment", "eligible", "paid_last_month", "portfolio")

_A = (BALANCE_LO - BALANCE_MEAN) / BALANCE_SD
_B = (BALANCE_HI - BALANCE_MEAN) / BALANCE_SD
_PHI_A = ndtr(_A)
_PHI_B = ndtr(_B)
_NORM = _PHI_B - _PHI_A


@dataclass(frozen=True)
class CreditMixture:
    """Normal mixture for initial credit scores.

    The final component is written N(-5, sqrt(0.1)) in some sources; we read
    it as variance 0.1 by default, but the variance is configurable.
    """

    weights: tuple = (0.15, 0.05, 0.2, 0.6)
    means: tuple = (1.0, 4.0, -1.0, -5.0)
    variances: tuple = (1.0, 1.0, 1.0, 0.1)

    def __post_init__(self):
        if not np.isclose(sum(self.weights), 1.0):
            raise ValueError("mixture weights must sum to 1")
        if len(self.weights) != len(self.means) or len(self.means) != len(self.variances):
            raise ValueError("mixture component lists must have equal length")

    @property
    def sds(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.variances))

    def cdf(self, c):
        c = np.asarray(c, dtype=float)
        w = np.asarray(self.weights)
        mu = np.asarray(self.means)
        sd = self.sds
        return (w * ndtr((c[..., None] - mu) / sd)).sum(axis=-1)

    def inv_cdf(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise ValueError(f"u must lie in (0, 1), got {u}")
        lo, hi = -40.0, 40.0
        return brentq(lambda c: float(self.cdf(c)) - u, lo, hi, xtol=1e-13)

    def sample(self, u_comp, u_val):
        """Inverse-CDF sample using one uniform for the component, one for the value."""
        edges = np.cumsum(self.weights)
        comp = np.searchsorted(edges, u_comp, side="right")
        comp = np.minimum(comp, len(self.weights) - 1)
        mu = np.asarray(self.means)[comp]
        sd = self.sds[comp]
        return mu + sd * ndtri(u_val)


DEFAULT_CREDIT_MIXTURE = CreditMixture()


def balance_cdf(b):
    """Truncated-normal CDF of the initial balance, mapped to [0, 1]."""
    b = np.asarray(b, dtype=float)
    if np.any(b < BALANCE_LO) or np.any(b > BALANCE_HI):
        raise ValueError(f"balance outside support [{BALANCE_LO}, {BALANCE_HI}]")
    u = (ndtr((b - BALANCE_MEAN) / BALANCE_SD) - _PHI_A) / _NORM
    return np.clip(u, 0.0, 1.0)[()] if u.ndim == 0 else np.clip(u, 0.0, 1.0)


def balance_cdf_inv(u):
    """Inverse of :func:`balance_cdf` on the open unit interval."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0, 1)")
    b = BALANCE_MEAN + BALANCE_SD * ndtri(_PHI_A + u * _NORM)
    return float(b) if b.ndim == 0 else b


def credit_cdf(c, mixture: CreditMixture = DEFAULT_CREDIT_MIXTURE):
    """CDF of the credit-score mixture."""
    out = mixture.cdf(c)
    return float(out) if out.ndim == 0 else out


def credit_cdf_inv(u, mixture: CreditMixture = DEFAULT_CREDIT_MIXTURE):
    """Inverse of :func:`credit_cdf` via bracketed root finding."""
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 0:
        return mixture.inv_cdf(float(u_arr))
    return np.array([mixture.inv_cdf(float(x)) for x in u_arr])


@dataclass(frozen=True)
class Account:
    """Covariates and initial state of one simulated debtor."""

    id: int
    balance: float
    credit_score: float
    segment: int
    eligible: bool
    paid_last_month: bool

    def __post_init__(self):
        if self.segment not in (1, 2, 3):
            raise ValueError(f"segment must be in {{1,2,3}}, got {self.segment}")


@dataclass(frozen=True)
class PortfolioIndex:
    """Index sets of one portfolio: the dependent block and the independents."""

    dependent_ids: np.ndarray
    independent_ids: np.ndarray


@dataclass(frozen=True)
class Population:
    """Columnar, immutable collection of accounts partitioned into portfolios."""

    balance: np.ndarray
    credit_score: np.ndarray
    segment: np.ndarray
    eligible: np.ndarray
    paid_last_month: np.ndarray
    portfolio: np.ndarray
    n_portfolios: int
    seed: int | None = None
    portfolio_probs: tuple | None = None
    _portfolios: list = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.balance)

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.n)

    def account(self, i: int) -> Account:
        return Account(
            id=int(i),
            balance=float(self.balance[i]),
            credit_score=float(self.credit_score[i]),
            segment=int(self.segment[i]),
            eligible=bool(self.eligible[i]),
            paid_last_month=bool(self.paid_last_month[i]),
        )

    @property
    def portfolios(self) -> list[PortfolioIndex]:
        if self._portfolios is None:
            out = []
            for j in range(self.n_portfolios):
                members = np.flatnonzero(self.portfolio == j)
                dep_mask = (self.segment[members] == 3) & self.eligible[members]
                out.append(
                    PortfolioIndex(
                        dependent_ids=members[dep_mask],
                        independent_ids=members[~dep_mask],
                    )
                )
            object.__setattr__(self, "_portfolios", out)
        return self._portfolios

    @property
    def independent_ids(self) -> np.ndarray:
        """All independent account ids, across portfolios, in ascending order."""
        return np.sort(np.concatenate([p.independent_ids for p in self.portfolios]))

    # ------------------------------------------------------------------ I/O

    def to_csv(self, path) -> None:
        int_columns = (self.segment, self.eligible, self.paid_last_month, self.portfolio)
        ints = (np.asarray(c).astype(int).tolist() for c in int_columns)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(_CSV_HEADER)
            w.writerows(zip(range(self.n), self.balance.tolist(), self.credit_score.tolist(), *ints))

    @classmethod
    def from_csv(cls, path, n_portfolios: int | None = None) -> "Population":
        """Read a population written by :meth:`to_csv`.

        Rejects a row with a NaN, a segment outside {1, 2, 3}, a balance
        outside the support, a flag other than 0 or 1 or a portfolio id
        outside ``range(n_portfolios)``, naming the first such row's line.
        """
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if not rows:
            raise ValueError(f"empty population file: {path}")
        try:
            cols = {name: np.array([float(r[name]) for r in rows]) for name in _CSV_HEADER[1:]}
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: every row needs the numeric fields {_CSV_HEADER[1:]} ({e})") from None

        def reject(bad, message):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{path}, line {i + 2}: {message}; row {rows[i]}")

        reject(np.isnan(np.column_stack(list(cols.values()))).any(axis=1), "a field is NaN")
        portfolio = cols["portfolio"]
        if n_portfolios is None:
            n_portfolios = int(portfolio.max()) + 1
        reject(~np.isin(cols["segment"], (1, 2, 3)), "segment must be 1, 2 or 3")
        balance = cols["balance"]
        outside = (balance < BALANCE_LO) | (balance > BALANCE_HI)
        reject(outside, f"balance outside [{BALANCE_LO}, {BALANCE_HI}]")
        for flag in ("eligible", "paid_last_month"):
            reject(~np.isin(cols[flag], (0, 1)), f"{flag} must be 0 or 1")
        reject(~np.isin(portfolio, np.arange(n_portfolios)), f"portfolio id outside range({n_portfolios})")
        return cls(
            balance=balance,
            credit_score=cols["credit_score"],
            segment=cols["segment"].astype(int),
            eligible=cols["eligible"].astype(bool),
            paid_last_month=cols["paid_last_month"].astype(bool),
            portfolio=portfolio.astype(int),
            n_portfolios=n_portfolios,
        )

    def write_manifest(self, path) -> None:
        manifest = {
            "n": self.n,
            "n_portfolios": self.n_portfolios,
            "seed": self.seed,
            "portfolio_probs": list(self.portfolio_probs) if self.portfolio_probs else None,
            "balance": {"mean": BALANCE_MEAN, "sd": BALANCE_SD, "range": [BALANCE_LO, BALANCE_HI]},
            "prob_paid_before_start": PROB_PAID_BEFORE_START,
            "segment_probs": list(SEGMENT_PROBS),
            "prob_eligible": PROB_ELIGIBLE,
        }
        Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def init_population(
    n: int,
    portfolio_probs=(1.0,),
    seed: int = 0,
    mixture: CreditMixture = DEFAULT_CREDIT_MIXTURE,
) -> Population:
    """Draw ``n`` accounts independently from the initialization distributions.

    Each account is generated from its own stream keyed by ``(seed, id)``, so
    the result is independent of generation order.
    """
    if n < 1:
        raise ValueError("cannot generate an empty population (n must be >= 1)")
    probs = np.asarray(portfolio_probs, dtype=float)
    if probs.ndim != 1 or len(probs) < 1 or np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
        raise ValueError(f"portfolio_probs must be a probability vector, got {portfolio_probs}")

    u = np.empty((n, 7))
    for i, g in enumerate(_unit_streams(seed, "population", ids=range(n))):
        g.random(out=u[i])

    paid0 = u[:, 0] < PROB_PAID_BEFORE_START
    balance = balance_cdf_inv(np.clip(u[:, 1], 1e-15, 1 - 1e-15))
    seg_edges = np.cumsum(SEGMENT_PROBS)
    segment = np.minimum(np.searchsorted(seg_edges, u[:, 2], side="right"), 2) + 1
    credit = mixture.sample(u[:, 3], np.clip(u[:, 4], 1e-15, 1 - 1e-15))
    eligible = u[:, 5] < PROB_ELIGIBLE
    pf_edges = np.cumsum(probs)
    portfolio = np.minimum(np.searchsorted(pf_edges, u[:, 6], side="right"), len(probs) - 1)

    return Population(
        balance=balance,
        credit_score=credit,
        segment=segment,
        eligible=eligible,
        paid_last_month=paid0,
        portfolio=portfolio,
        n_portfolios=len(probs),
        seed=seed,
        portfolio_probs=tuple(float(p) for p in probs),
    )
