"""Budget allocation, optionally under per-portfolio variance caps.

Minimizes the total estimator variance subject to the budget constraint and
upper bounds V_j on each portfolio's estimator variance (``np.inf`` for no
cap).  The key per-portfolio constants are

    gamma_j = sqrt(|D_j|) sigma_D,j + sum_{i in I_j} sigma_i
    eps_j   = gamma_j / V_j

With active set B, the stationarity solution assigns each unit a count
c_i * e_j where c_i = sigma_i (independent) or sigma_D,j / sqrt(|D_j|) (block
member), and e_j = eps_j for active portfolios or the common multiplier
alpha(B) = C_Rem / d_B for inactive ones, where C_Rem = C - sum_{j in B}
gamma_j eps_j and d_B = sum_{j not in B} gamma_j.  A portfolio's variance under
such a plan is gamma_j / e_j, so active portfolios meet their caps exactly.

The uncapped optimum, every count sigma-proportional with e_j = C / sum_j
gamma_j, is the stationarity solution with no caps and B = {}.  A portfolio
with gamma_j = 0 has variance 0 under any plan: it is never active, adds
nothing to d_B and gets zero counts.

The active-set iteration starts from B = {} and, after each re-solve, adds
every portfolio whose cap is violated, stopping when a full pass adds nothing.
Strict feasibility (Slater: sum_j gamma_j eps_j < C) guarantees convergence to
the global optimum; alpha decreases strictly whenever constraints are added,
and the Lagrange multipliers delta_j = (eps_j / alpha)^2 - 1 stay
non-negative.  Every pass ends with an interior alpha: by Slater, alpha(B) d_B
exceeds the sum of gamma_j eps_j over the live (gamma_j > 0) portfolios not in
B, so one of them has eps_j < alpha(B), meets its cap and stays inactive.  A
brute-force oracle over all active sets validates small instances.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PortfolioInputs",
    "ConstrainedProblem",
    "ConstrainedPlan",
    "ActiveSetSolution",
    "InfeasibleProblemError",
    "round_counts",
    "portfolio_variance",
    "stationarity_solution",
    "active_set_solve",
    "check_slater",
    "kkt_report",
    "brute_force_oracle",
    "problem_from_json",
    "solution_to_json",
]

_VIOLATION_RTOL = 1e-12  # cap counts as violated only beyond this relative excess


class InfeasibleProblemError(ValueError):
    """The caps cannot all be met within the budget."""


def round_counts(counts) -> np.ndarray:
    """Round real counts: [0, 1) -> 1, else half away from zero.

    A zero count arises only for zero-variance units, which still need one
    realisation to estimate their (deterministic) total.
    """
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("counts must be non-negative before rounding")
    rounded = np.floor(c + 0.5)
    return np.where(c < 1.0, 1.0, rounded)


def portfolio_variance(sigma2, counts, sigma2_block, r_block) -> float:
    """One portfolio's estimator variance: sigma2_i / R_i summed over units with sigma2_i > 0, plus any sigma2_block / r_block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = float(np.where(sigma2 > 0, sigma2 / counts, 0.0).sum())
    if sigma2_block > 0:
        v += sigma2_block / r_block
    return v


@dataclass(frozen=True)
class PortfolioInputs:
    """Standard deviations of one portfolio's accounts."""

    sigma_independent: np.ndarray
    sigma_block: float = 0.0
    block_size: int = 0

    def __post_init__(self):
        if np.any(np.asarray(self.sigma_independent) < 0) or self.sigma_block < 0:
            raise ValueError("standard deviations must be non-negative")
        if self.block_size == 0 and self.sigma_block != 0.0:
            raise ValueError("a block standard deviation needs a positive block size")

    @property
    def gamma(self) -> float:
        return float(
            np.sqrt(self.block_size) * self.sigma_block + np.asarray(self.sigma_independent).sum()
        )


def check_caps(caps, n_portfolios: int) -> None:
    """Raise a ``ValueError`` naming ``caps`` unless there is one per portfolio and each is positive (``np.inf`` for none)."""
    values = np.asarray(caps, dtype=float)
    if values.shape != (n_portfolios,):
        raise ValueError(f"one cap per portfolio required: {n_portfolios} portfolios, caps {values.tolist()}")
    if not np.all(values > 0):  # NaN too
        raise ValueError(f"caps must be positive (use np.inf for no cap), got {values.tolist()}")


@dataclass(frozen=True)
class ConstrainedProblem:
    portfolios: tuple  # of PortfolioInputs
    caps: np.ndarray  # V_j > 0, stored as floats
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "caps", np.asarray(self.caps, dtype=float))
        check_caps(self.caps, len(self.portfolios))
        if not 0 < self.budget <= 2**53:  # counts above 2**53 are not all exact integers
            raise ValueError(f"budget must be positive and at most 2**53, got {self.budget}")
        if not np.any(self.gamma > 0):
            raise ValueError("degenerate problem: all standard deviations are zero")

    @property
    def n_portfolios(self) -> int:
        return len(self.portfolios)

    @property
    def gamma(self) -> np.ndarray:
        return np.array([pf.gamma for pf in self.portfolios])

    @property
    def eps(self) -> np.ndarray:
        return self.gamma / self.caps


@dataclass(frozen=True)
class ConstrainedPlan:
    """Real-valued counts per portfolio: independents plus one block count."""

    r_independent: tuple  # of arrays, one per portfolio
    r_block: np.ndarray  # NaN where a portfolio has no block
    multiplier: np.ndarray  # e_j applied to portfolio j

    def cost(self, problem: ConstrainedProblem) -> float:
        total = 0.0
        for j, pf in enumerate(problem.portfolios):
            total += float(self.r_independent[j].sum())
            if pf.block_size:
                total += pf.block_size * float(self.r_block[j])
        return total

    def portfolio_variances(self, problem: ConstrainedProblem) -> np.ndarray:
        return np.array([
            portfolio_variance(np.asarray(pf.sigma_independent) ** 2, self.r_independent[j], pf.sigma_block**2, self.r_block[j])
            for j, pf in enumerate(problem.portfolios)
        ])

    def objective(self, problem: ConstrainedProblem) -> float:
        return float(self.portfolio_variances(problem).sum())


@dataclass(frozen=True)
class ActiveSetSolution:
    active: frozenset
    plan: ConstrainedPlan
    lam: float  # budget multiplier
    delta: np.ndarray  # cap multipliers, zero off the active set
    alpha_trace: list  # the inactive portfolios' alpha, one per pass

    @property
    def iterations(self) -> int:
        return len(self.alpha_trace)


def check_slater(problem: ConstrainedProblem):
    """Strict feasibility: the caps can be met with budget to spare.

    Returns ``(holds, margin)`` with margin = C - sum_j gamma_j eps_j.
    """
    spend = float((problem.gamma * problem.eps).sum())
    margin = problem.budget - spend
    return margin > 0, margin


def stationarity_solution(problem: ConstrainedProblem, active) -> ConstrainedPlan:
    """Closed-form stationary plan for a given active set."""
    active = frozenset(active)
    if not active <= set(range(problem.n_portfolios)):
        raise ValueError("active set contains unknown portfolio indices")
    gamma, eps = problem.gamma, problem.eps
    act = np.array([j in active for j in range(problem.n_portfolios)])
    c_rem = problem.budget - float((gamma[act] * eps[act]).sum())
    d = float(gamma[~act].sum())
    if d == 0:  # every portfolio with variability is active
        if c_rem < 0:
            raise InfeasibleProblemError(
                f"active caps alone need {problem.budget - c_rem:.6g} > budget {problem.budget:.6g}"
            )
        alpha = np.nan  # no inactive portfolio uses it
    else:
        if c_rem <= 0:
            raise InfeasibleProblemError(
                f"budget exhausted by active constraints (C_Rem = {c_rem:.6g})"
            )
        alpha = c_rem / d
    e = np.where(act | (gamma == 0), eps, alpha)
    r_indep, r_block = [], np.full(problem.n_portfolios, np.nan)
    for j, pf in enumerate(problem.portfolios):
        r_indep.append(np.asarray(pf.sigma_independent, dtype=float) * e[j])
        if pf.block_size:
            r_block[j] = pf.sigma_block / np.sqrt(pf.block_size) * e[j]
    return ConstrainedPlan(r_independent=tuple(r_indep), r_block=r_block, multiplier=e)


def active_set_solve(problem: ConstrainedProblem) -> ActiveSetSolution:
    """Active-set iteration: repeatedly add all violated caps and re-solve."""
    holds, margin = check_slater(problem)
    if not holds:
        raise InfeasibleProblemError(
            f"Slater's condition fails: minimum cap spend exceeds budget by {-margin:.6g}"
        )
    n = problem.n_portfolios
    gamma, eps = problem.gamma, problem.eps
    live = gamma > 0  # a portfolio without variability never binds its cap
    active: set = set()
    alpha_trace: list = []
    while True:
        plan = stationarity_solution(problem, active)
        inactive = [j for j in range(n) if j not in active and live[j]]  # never empty (module docstring)
        alpha_trace.append(float(plan.multiplier[inactive[0]]))
        variances = plan.portfolio_variances(problem)
        violated = [j for j in inactive if variances[j] > problem.caps[j] * (1.0 + _VIOLATION_RTOL)]
        if not violated:
            break
        active.update(violated)

    alpha = alpha_trace[-1]
    with np.errstate(over="ignore"):  # a huge alpha underflows lambda to 0
        lam = float(1.0 / np.float64(alpha) ** 2)
    delta = np.zeros(n)
    for j in active:
        delta[j] = (eps[j] / alpha) ** 2 - 1.0
    return ActiveSetSolution(
        active=frozenset(active),
        plan=plan,
        lam=lam,
        delta=delta,
        alpha_trace=alpha_trace,
    )


def kkt_report(problem: ConstrainedProblem, solution: ActiveSetSolution) -> dict:
    """Residuals of the Karush-Kuhn-Tucker conditions at a solution."""
    plan, lam, delta = solution.plan, solution.lam, solution.delta
    variances = plan.portfolio_variances(problem)
    caps = problem.caps

    stationarity = 0.0
    for j, pf in enumerate(problem.portfolios):
        sig2 = np.asarray(pf.sigma_independent, dtype=float) ** 2
        pos = sig2 > 0  # zero-variance units have no stationarity condition
        r = plan.r_independent[j]
        if pos.any():
            grad = lam - (1.0 + delta[j]) * sig2[pos] / r[pos] ** 2
            stationarity = max(stationarity, float(np.abs(grad).max() / max(lam, 1e-300)))
        if pf.sigma_block > 0:
            grad_b = lam * pf.block_size - (1.0 + delta[j]) * pf.sigma_block**2 / plan.r_block[j] ** 2
            stationarity = max(stationarity, abs(grad_b) / max(lam * pf.block_size, 1e-300))

    primal_cost = abs(plan.cost(problem) - problem.budget) / problem.budget
    capped = np.isfinite(caps)  # an infinite cap can be neither violated nor tight
    gap, caps = variances[capped] - caps[capped], caps[capped]
    primal_caps = float(np.max(gap / caps, initial=0.0))
    comp_slack = float(np.max(np.abs(delta[capped] * gap) / caps, initial=0.0))
    return {
        "stationarity_residual": stationarity,
        "primal_cost_residual": primal_cost,
        "max_cap_violation": primal_caps,
        "min_delta": float(np.min(delta)),
        "max_complementary_slackness": comp_slack,
        "objective": plan.objective(problem),
        "portfolio_variances": variances.tolist(),
    }


# Relative tolerance of the brute-force oracle's cap and multiplier-sign checks.
_ORACLE_RTOL = 1e-9


def brute_force_oracle(problem: ConstrainedProblem):
    """Enumerate every active set; return the best KKT-feasible candidate.

    Active sets range over the finite caps: an infinite cap cannot be tight,
    and making it active would give its portfolio zero counts.  Refuses more
    than 12 portfolios.  Returns ``None`` when no candidate is feasible
    (consistent with a Slater failure).  Caps and multiplier signs are
    checked to a relative tolerance of ``_ORACLE_RTOL``.
    """
    n = problem.n_portfolios
    if n > 12:
        raise ValueError(f"brute force limited to 12 portfolios, got {n}")
    caps = problem.caps
    gamma, eps = problem.gamma, problem.eps
    capped = np.flatnonzero(np.isfinite(caps)).tolist()
    best = None
    for r in range(len(capped) + 1):
        for combo in itertools.combinations(capped, r):
            active = frozenset(combo)
            try:
                plan = stationarity_solution(problem, active)
            except InfeasibleProblemError:
                continue
            variances = plan.portfolio_variances(problem)
            if np.any(variances > caps * (1.0 + _ORACLE_RTOL)):
                continue
            inactive = [j for j in range(n) if j not in active and gamma[j] > 0]
            if inactive:
                alpha = float(plan.multiplier[inactive[0]])
                delta = np.array(
                    [(eps[j] / alpha) ** 2 - 1.0 if j in active else 0.0 for j in range(n)]
                )
                if np.any(delta < -_ORACLE_RTOL):
                    continue
            obj = plan.objective(problem)
            if best is None or obj < best[1] * (1.0 - 1e-15):
                best = (active, obj, plan)
    return best


# --------------------------------------------------------------------------
# Wire formats


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``, else a ``ValueError`` naming the file and ``what`` it holds."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: {what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _is_integer(v) -> bool:
    """Whether ``v`` is a JSON integer: an int, never a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number: an int or a float, never a bool or a string."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_number(v) -> float:
    if not _is_number(v) or not np.isfinite(v):  # json reads NaN, Infinity and -Infinity, which are not JSON numbers
        raise ValueError("not a number")
    return float(v)


def _json_vector(v) -> np.ndarray:
    if not isinstance(v, list):
        raise ValueError("not a list of numbers")
    return np.array([_json_number(x) for x in v], dtype=float)


def _json_integer(v) -> int:
    if not _is_integer(v):
        raise ValueError("not an integer")
    return v


def _json_cap(v) -> float:
    return np.inf if v == "inf" else _json_number(v)


def problem_from_json(path) -> ConstrainedProblem:
    """Read a problem from a JSON file.

    Schema: ``{"budget": C, "portfolios": [{"sigma_independent": [...],
    "sigma_block": s, "block_size": n, "cap": V}, ...]}``; ``cap`` may be the
    string ``"inf"``.  A missing, non-numeric, non-finite (``NaN``,
    ``Infinity``) or (for ``block_size``) non-integral field raises one
    ``ValueError`` naming the file, the portfolio index and the field; so does
    a file that is not JSON or not a JSON object.  A problem that is not
    well posed, such as a cap that is not positive, raises naming the file.
    """
    doc, where = _read_json_object(path, "problem"), str(path)

    def field(obj, key, convert, what, context, default=None):
        if not isinstance(obj, dict):
            raise ValueError(f"{context}: expected a JSON object, got {obj!r}")
        if key not in obj:
            if default is None:
                raise ValueError(f"{context}: missing field {key!r}")
            return default
        try:
            return convert(obj[key])
        except (TypeError, ValueError):
            raise ValueError(f"{context}: field {key!r} must be {what}, got {obj[key]!r}") from None

    budget = field(doc, "budget", _json_number, "a number", where)
    entries = doc.get("portfolios")
    if not isinstance(entries, list):
        raise ValueError(f"{where}: field 'portfolios' must be a list of portfolio objects, got {entries!r}")
    portfolios, caps = [], []
    for j, p in enumerate(entries):
        context = f"{where}, portfolio {j}"
        sigma = field(p, "sigma_independent", _json_vector, "a list of numbers", context, np.array([]))
        sigma_block = field(p, "sigma_block", _json_number, "a number", context, 0.0)
        block_size = field(p, "block_size", _json_integer, "an integer", context, 0)
        caps.append(field(p, "cap", _json_cap, "a number or \"inf\"", context))
        try:
            portfolios.append(PortfolioInputs(sigma_independent=sigma, sigma_block=sigma_block, block_size=block_size))
        except ValueError as e:
            raise ValueError(f"{context}: {e}") from None
    try:
        return ConstrainedProblem(portfolios=tuple(portfolios), caps=np.array(caps), budget=budget)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def solution_to_json(problem: ConstrainedProblem, solution: ActiveSetSolution) -> dict:
    """The solution as a JSON document: active set, multipliers, plan, objective and KKT diagnostics."""
    return {
        "active_set": sorted(solution.active),
        "iterations": solution.iterations,
        "alpha_trace": solution.alpha_trace,
        "lambda": solution.lam,
        "delta": solution.delta.tolist(),
        "objective": solution.plan.objective(problem),
        "portfolio_variances": solution.plan.portfolio_variances(problem).tolist(),
        "plan": {
            "r_block": [None if np.isnan(r) else r for r in solution.plan.r_block],
            "r_independent": [list(map(float, r)) for r in solution.plan.r_independent],
        },
        "diagnostics": kkt_report(problem, solution),
    }


def _write_plan_csv(path, portfolios) -> None:
    """The one plan CSV layout, streamed from ``portfolios``: per portfolio ``j``, its block's count (``None`` without a
    block), its independent units' ids and their counts.  The block comes first, as unit ``block-j``; a row holds a real
    count's ``repr`` and its :func:`round_counts`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["unit_id", "kind", "count_real", "count_int"])
        for j, (block, ids, counts) in enumerate(portfolios):
            if block is not None:
                w.writerow([f"block-{j}", "block", repr(float(block)), int(round_counts(block))])
            w.writerows(zip(ids, itertools.repeat("independent"), map(repr, map(float, counts)), map(int, round_counts(counts))))


def plan_to_csv(problem: ConstrainedProblem, solution: ActiveSetSolution, path) -> None:
    """Plan CSV of a solved problem; portfolio ``j``'s independents are units ``pj-i``."""
    plan = solution.plan
    _write_plan_csv(path, (
        (plan.r_block[j] if pf.block_size else None, (f"p{j}-{i}" for i in range(len(r))), r)
        for j, (pf, r) in enumerate(zip(problem.portfolios, plan.r_independent))
    ))
