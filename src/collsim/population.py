"""Synthetic account populations and covariate CDF transforms.

A :class:`Population` holds one column per account attribute: an initial
balance, a fixed credit score, an operational segment, a
transition-eligibility flag and an indicator of whether the account paid in
the month before the simulation starts.  Populations are partitioned into
portfolios; within each portfolio the accounts that start in segment 3 and
are eligible for transition form the "dependent block", whose outcomes are
coupled through the capacity-constrained segment transitions.

The initialization distributions are module constants: a truncated normal
balance, the credit-score normal mixture ``CREDIT_WEIGHTS``,
``CREDIT_MEANS`` and ``CREDIT_SDS``, and the segment, eligibility and
prior-payment probabilities.  The module also provides the CDF / inverse-CDF
transforms of the balance and credit-score distributions, which map
covariates onto the unit square for the variance emulator's experimental
design.  Population draws use the package's own normal quantile
(:func:`collsim._special.ndtri`, bitwise scipy's), so drawing a population
loads no scipy; the CDFs and the credit-score inverse, which only the
emulator reaches, import ``scipy.special.ndtr`` and ``scipy.optimize.brentq``
where they are called.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._special import ndtri
from .rng import _philox_uniforms, _unit_keys

__all__ = [
    "PortfolioIndex",
    "Population",
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
# Normal mixture of initial credit scores.  The last component is written
# N(-5, sqrt(0.1)) in some sources; we read it as variance 0.1.
CREDIT_WEIGHTS = np.array([0.15, 0.05, 0.2, 0.6])
CREDIT_MEANS = np.array([1.0, 4.0, -1.0, -5.0])
CREDIT_SDS = np.sqrt([1.0, 1.0, 1.0, 0.1])
_CREDIT_EDGES = np.cumsum(CREDIT_WEIGHTS)

# Accounts per piece of init_population's draws and of to_csv's rows: the
# temporaries of a piece stay under about a megabyte whatever the population size.
_PIECE = 4096

_CSV_HEADER = ("id", "balance", "credit_score", "segment", "eligible", "paid_last_month", "portfolio")

_A = (BALANCE_LO - BALANCE_MEAN) / BALANCE_SD
_B = (BALANCE_HI - BALANCE_MEAN) / BALANCE_SD
_PHI_A = 0.022750131948179195  # scipy.special.ndtr(_A), _A = -2.0
_PHI_B = 0.9999999999999681  # scipy.special.ndtr(_B), _B = 7.5
_NORM = _PHI_B - _PHI_A


def balance_cdf(b):
    """Truncated-normal CDF of the initial balance, mapped to [0, 1]."""
    b = np.asarray(b, dtype=float)
    if np.any(b < BALANCE_LO) or np.any(b > BALANCE_HI):
        raise ValueError(f"balance outside support [{BALANCE_LO}, {BALANCE_HI}]")
    from scipy.special import ndtr  # imported here to keep it out of `import collsim`

    u = (ndtr((b - BALANCE_MEAN) / BALANCE_SD) - _PHI_A) / _NORM
    return np.clip(u, 0.0, 1.0)[()] if u.ndim == 0 else np.clip(u, 0.0, 1.0)


def balance_cdf_inv(u):
    """Inverse of :func:`balance_cdf` on the open unit interval."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0, 1)")
    b = BALANCE_MEAN + BALANCE_SD * ndtri(_PHI_A + u * _NORM)
    return float(b) if b.ndim == 0 else b


def credit_cdf(c):
    """CDF of the credit-score mixture."""
    from scipy.special import ndtr  # imported here to keep it out of `import collsim`

    c = np.asarray(c, dtype=float)
    out = (CREDIT_WEIGHTS * ndtr((c[..., None] - CREDIT_MEANS) / CREDIT_SDS)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def credit_cdf_inv(u):
    """Inverse of :func:`credit_cdf` via bracketed root finding."""
    from scipy.optimize import brentq  # imported here to keep it out of `import collsim`

    def inv(x: float) -> float:
        if not 0.0 < x < 1.0:
            raise ValueError(f"u must lie in (0, 1), got {x}")
        return brentq(lambda c: credit_cdf(c) - x, -40.0, 40.0, xtol=1e-13)

    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 0:
        return inv(float(u_arr))
    return np.array([inv(float(x)) for x in u_arr])


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
        """Write one row per account, ``_PIECE`` accounts at a time."""
        int_columns = (self.segment, self.eligible, self.paid_last_month, self.portfolio)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(_CSV_HEADER)
            for start in range(0, self.n, _PIECE):
                sl = slice(start, start + _PIECE)
                ids = range(start, min(start + _PIECE, self.n))
                ints = (np.asarray(c[sl]).astype(int).tolist() for c in int_columns)
                w.writerows(zip(ids, self.balance[sl].tolist(), self.credit_score[sl].tolist(), *ints))

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
) -> Population:
    """Draw ``n`` accounts independently from the initialization distributions.

    Account ``i`` takes the first seven uniforms of its own stream
    ``(seed, "population", i)``, so the result is independent of generation
    order.  The uniforms of ``_PIECE`` accounts at a time are computed
    together from their Philox keys, bitwise equal to each stream's draws.
    """
    if n < 1:
        raise ValueError("cannot generate an empty population (n must be >= 1)")
    probs = np.asarray(portfolio_probs, dtype=float)
    if probs.ndim != 1 or len(probs) < 1 or np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
        raise ValueError(f"portfolio_probs must be a probability vector, got {portfolio_probs}")

    u = np.empty((n, 7))
    for start in range(0, n, _PIECE):
        ids = range(start, min(start + _PIECE, n))
        u[start : ids.stop] = _philox_uniforms(_unit_keys(seed, "population", ids=ids), 7)

    paid0 = u[:, 0] < PROB_PAID_BEFORE_START
    balance = balance_cdf_inv(np.clip(u[:, 1], 1e-15, 1 - 1e-15))
    seg_edges = np.cumsum(SEGMENT_PROBS)
    segment = np.minimum(np.searchsorted(seg_edges, u[:, 2], side="right"), 2) + 1
    comp = np.minimum(np.searchsorted(_CREDIT_EDGES, u[:, 3], side="right"), len(CREDIT_WEIGHTS) - 1)
    credit = CREDIT_MEANS[comp] + CREDIT_SDS[comp] * ndtri(np.clip(u[:, 4], 1e-15, 1 - 1e-15))
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
