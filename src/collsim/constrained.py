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
non-negative.  A brute-force oracle over all active sets is provided for
validation on small instances.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PortfolioInputs",
    "ConstrainedProblem",
    "ConstrainedPlan",
    "ActiveSetSolution",
    "InfeasibleProblemError",
    "round_counts",
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


@dataclass(frozen=True)
class ConstrainedProblem:
    portfolios: tuple  # of PortfolioInputs
    caps: np.ndarray  # V_j > 0
    budget: float

    def __post_init__(self):
        caps = np.asarray(self.caps, dtype=float)
        if len(caps) != len(self.portfolios):
            raise ValueError("one cap per portfolio required")
        if np.any(caps <= 0):
            raise ValueError("caps must be positive (use np.inf for no cap)")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
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
        return self.gamma / np.asarray(self.caps, dtype=float)


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
        out = np.empty(problem.n_portfolios)
        for j, pf in enumerate(problem.portfolios):
            s2 = np.asarray(pf.sigma_independent) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                v = float(np.where(s2 > 0, s2 / self.r_independent[j], 0.0).sum())
            if pf.sigma_block > 0:
                v += pf.sigma_block**2 / float(self.r_block[j])
            out[j] = v
        return out

    def objective(self, problem: ConstrainedProblem) -> float:
        return float(self.portfolio_variances(problem).sum())


@dataclass(frozen=True)
class ActiveSetSolution:
    active: frozenset
    plan: ConstrainedPlan
    lam: float  # budget multiplier
    delta: np.ndarray  # cap multipliers, zero off the active set
    alpha_trace: list
    iterations: int
    fully_constrained_slack: float = 0.0  # unspent budget when every cap is active


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
    iterations = 0
    while True:
        iterations += 1
        plan = stationarity_solution(problem, active)
        inactive = [j for j in range(n) if j not in active and live[j]]
        if inactive:
            alpha_trace.append(float(plan.multiplier[inactive[0]]))
        variances = plan.portfolio_variances(problem)
        caps = np.asarray(problem.caps, dtype=float)
        violated = [
            j for j in inactive if variances[j] > caps[j] * (1.0 + _VIOLATION_RTOL)
        ]
        if not violated:
            break
        active.update(violated)

    slack = 0.0
    if not inactive:
        slack = problem.budget - float((gamma * eps).sum())
        lam = np.nan
        delta = np.full(n, np.nan)  # multipliers undefined without an interior alpha
    else:
        alpha = alpha_trace[-1]
        lam = 1.0 / alpha**2
        delta = np.zeros(n)
        for j in active:
            delta[j] = (eps[j] / alpha) ** 2 - 1.0
    return ActiveSetSolution(
        active=frozenset(active),
        plan=plan,
        lam=lam,
        delta=delta,
        alpha_trace=alpha_trace,
        iterations=iterations,
        fully_constrained_slack=slack,
    )


def kkt_report(problem: ConstrainedProblem, solution: ActiveSetSolution) -> dict:
    """Residuals of the Karush-Kuhn-Tucker conditions at a solution."""
    plan, lam, delta = solution.plan, solution.lam, solution.delta
    variances = plan.portfolio_variances(problem)
    caps = np.asarray(problem.caps, dtype=float)

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
        "min_delta": float(np.min(delta)) if len(delta) else 0.0,
        "max_complementary_slackness": comp_slack,
        "objective": plan.objective(problem),
        "portfolio_variances": variances.tolist(),
    }


def brute_force_oracle(problem: ConstrainedProblem, rtol: float = 1e-9):
    """Enumerate every active set; return the best KKT-feasible candidate.

    Refuses more than 12 portfolios.  Returns ``None`` when no candidate is
    feasible (consistent with a Slater failure).
    """
    n = problem.n_portfolios
    if n > 12:
        raise ValueError(f"brute force limited to 12 portfolios, got {n}")
    caps = np.asarray(problem.caps, dtype=float)
    gamma, eps = problem.gamma, problem.eps
    best = None
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            active = frozenset(combo)
            try:
                plan = stationarity_solution(problem, active)
            except InfeasibleProblemError:
                continue
            variances = plan.portfolio_variances(problem)
            if np.any(variances > caps * (1.0 + rtol)):
                continue
            inactive = [j for j in range(n) if j not in active and gamma[j] > 0]
            if inactive:
                alpha = float(plan.multiplier[inactive[0]])
                delta = np.array(
                    [(eps[j] / alpha) ** 2 - 1.0 if j in active else 0.0 for j in range(n)]
                )
                if np.any(delta < -rtol):
                    continue
            obj = plan.objective(problem)
            if best is None or obj < best[1] * (1.0 - 1e-15):
                best = (active, obj, plan)
    return best


# --------------------------------------------------------------------------
# Wire formats


def problem_from_json(path_or_dict) -> ConstrainedProblem:
    """Read a problem from a JSON document.

    Schema: ``{"budget": C, "portfolios": [{"sigma_independent": [...],
    "sigma_block": s, "block_size": n, "cap": V}, ...]}``; ``cap`` may be the
    string ``"inf"``.
    """
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as f:
            doc = json.load(f)
    portfolios, caps = [], []
    for p in doc["portfolios"]:
        portfolios.append(
            PortfolioInputs(
                sigma_independent=np.asarray(p.get("sigma_independent", []), dtype=float),
                sigma_block=float(p.get("sigma_block", 0.0)),
                block_size=int(p.get("block_size", 0)),
            )
        )
        caps.append(float(p["cap"]))
    return ConstrainedProblem(portfolios=tuple(portfolios), caps=np.array(caps), budget=float(doc["budget"]))


def solution_to_json(problem: ConstrainedProblem, solution: ActiveSetSolution, path=None):
    doc = {
        "active_set": sorted(solution.active),
        "iterations": solution.iterations,
        "alpha_trace": solution.alpha_trace,
        "lambda": None if np.isnan(solution.lam) else solution.lam,
        "delta": [None if np.isnan(d) else d for d in solution.delta],
        "objective": solution.plan.objective(problem),
        "portfolio_variances": solution.plan.portfolio_variances(problem).tolist(),
        "plan": {
            "r_block": [None if np.isnan(r) else r for r in solution.plan.r_block],
            "r_independent": [list(map(float, r)) for r in solution.plan.r_independent],
        },
        "diagnostics": (
            kkt_report(problem, solution) if not np.isnan(solution.lam) else {"fully_constrained": True}
        ),
    }
    if path is not None:
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
    return doc


def plan_to_csv(problem: ConstrainedProblem, solution: ActiveSetSolution, path) -> None:
    """Plan CSV with the same unit schema as the unconstrained allocator."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["unit_id", "kind", "count_real", "count_int"])
        for j, pf in enumerate(problem.portfolios):
            if pf.block_size:
                r = float(solution.plan.r_block[j])
                w.writerow([f"block-{j}", "block", repr(r), int(round_counts([r])[0])])
            for i, r in enumerate(solution.plan.r_independent[j]):
                w.writerow([f"p{j}-{i}", "independent", repr(float(r)), int(round_counts([r])[0])])
