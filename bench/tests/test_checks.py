"""Every correctness check rejects a deliberately wrong output."""

import json
import math

import numpy as np
import pytest
from collsim import Population

import checks
import exact
import workloads


@pytest.fixture(scope="module")
def moments():
    g = np.random.default_rng(0)
    n = 500
    credit = g.normal(0.0, 3.0, n)
    segment = g.integers(1, 4, n)
    paid0 = g.random(n) < 0.2
    balance = g.uniform(500.0, 5000.0, n)
    return exact.total_moments(credit, segment, paid0, balance)


def test_exact_mean_sum(moments):
    mean, var, _ = moments
    r = np.full(len(mean), 25.0)
    assert checks.exact_mean(mean, mean, var, r).ok
    se = math.sqrt((var / r).sum())
    shifted = mean + 6 * se / len(mean)  # the sum moves by six standard errors
    assert not checks.exact_mean(shifted, mean, var, r).ok
    assert not checks.exact_mean(mean - 6 * se / len(mean), mean, var, r).ok


def test_m1_variance_sum(moments):
    _, var, m4 = moments
    sd = exact.sample_variance_sd(var, m4, 25)
    assert checks.variance_sum(var, var, sd).ok
    assert not checks.variance_sum(var / 2, var, sd).ok
    assert not checks.variance_sum(var * 1.5, var, sd).ok


def test_means_within_balance():
    balance = np.array([100.0, 200.0])
    assert checks.means_within_balance([0.0, 200.0], balance).ok
    assert not checks.means_within_balance([0.0, 200.5], balance).ok
    assert not checks.means_within_balance([-1.0, 10.0], balance).ok


def test_sums_and_brackets():
    assert checks.close("sum", 100.0, 100.0).ok
    assert not checks.close("sum", 100.001, 100.0).ok
    assert checks.close("curve", 100.4, 100.0, abs_tol=0.42).ok
    assert not checks.close("curve", 101.0, 100.0, abs_tol=0.42).ok
    assert checks.brackets("interval", 1.0, 2.0, 3.0).ok
    assert not checks.brackets("interval", 2.5, 2.0, 3.0).ok


def test_coverage_region():
    lo, hi = checks.coverage_region(48)
    assert (lo, hi) == (38, 48)
    # each excluded tail has probability at most alpha / 2
    pmf = [math.comb(48, k) * 0.95**k * 0.05 ** (48 - k) for k in range(49)]
    assert sum(pmf[:lo]) <= checks.COVERAGE_ALPHA / 2 < sum(pmf[: lo + 1])
    assert checks.coverage_count(46, 48).ok
    assert not checks.coverage_count(30, 48).ok
    lo, hi = checks.coverage_region(4000)
    assert hi < 4000  # with many repetitions, too-wide intervals are caught too
    assert not checks.coverage_count(4000, 4000).ok


def test_relative_uncertainty():
    assert checks.relative_uncertainty(0.036, 0.034).ok
    assert not checks.relative_uncertainty(0.05, 0.034).ok
    assert not checks.relative_uncertainty(0.02, 0.034).ok


def test_allocation_checks(moments):
    _, var, _ = moments
    sd = np.sqrt(var)
    optimal = 25 * len(sd) * sd / sd.sum()
    assert checks.correlation(optimal, sd).ok
    assert not checks.correlation(np.random.default_rng(1).permutation(optimal), sd).ok
    equal = np.full(len(sd), 25.0)
    assert checks.variance_reduction(var, optimal, equal).ok
    backwards = 25 * len(sd) * (1 / (sd + 1)) / (1 / (sd + 1)).sum()
    assert not checks.variance_reduction(var, backwards, equal).ok


def test_protect_checks():
    caps = [1e9, 6e4]
    assert checks.within_caps([1e7, 6.3e4], caps).ok
    assert not checks.within_caps([1e7, 1.2 * 6e4], caps).ok  # 20% over the cap
    report = dict.fromkeys(checks.KKT_RESIDUALS, 1e-15)
    assert checks.kkt(report).ok
    for key in checks.KKT_RESIDUALS:
        assert not checks.kkt({**report, key: 1e-6}).ok
    assert checks.cap_active([1], 1).ok
    assert not checks.cap_active([], 1).ok


@pytest.fixture(scope="module")
def forecast_output(tmp_path_factory):
    """A small `collsim simulate` run, checked by the forecast_large checks."""
    out = tmp_path_factory.mktemp("forecast")
    w = workloads.ForecastLarge(seed=4)
    w.n_accounts = 400
    assert workloads._cli_main(w.argv(out)) == 0
    return out


def _forecast_failures(out):
    return {c.name for c in workloads.ForecastLarge(seed=4)._check_op(out) if not c.ok}


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_forecast_checks_pass_then_catch_edits(forecast_output, tmp_path):
    assert _forecast_failures(forecast_output) == set()

    def copy():
        d = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        for f in forecast_output.iterdir():
            (d / f.name).write_bytes(f.read_bytes())
        return d

    d = copy()
    _edit_json(d / "collections_summary.json", lambda rows: [r.update(variance=r["variance"] / 2) for r in rows])
    assert "m1_variance_sum" in _forecast_failures(d)

    d = copy()
    pop = Population.from_csv(d / "population.csv")
    indep = pop.independent_ids
    mean, var, _ = exact.total_moments(
        pop.credit_score[indep], pop.segment[indep], pop.paid_last_month[indep], pop.balance[indep]
    )
    shift = 6 * math.sqrt(var.sum() / 25) / len(indep)
    _edit_json(d / "collections_summary.json", lambda rows: [r.update(mean=r["mean"] + shift) for r in rows])
    assert "exact_mean_sum" in _forecast_failures(d)

    d = copy()
    _edit_json(d / "report.json", lambda r: r.update(plan_cost=r["plan_cost"] + 1))
    assert _forecast_failures(d) == {"report_plan_cost"}

    d = copy()
    _edit_json(d / "report.json", lambda r: r["interval"].update(lower=r["mu_total"] + 1))
    assert "interval_brackets_total" in _forecast_failures(d)
