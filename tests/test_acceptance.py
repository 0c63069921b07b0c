"""End-to-end acceptance checks, one per headline claim.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the same condition.  All randomness is seeded; Monte Carlo
comparisons state their standard-error bands, series comparisons their
quadrature tolerances.
"""

import json
import pathlib

import numpy as np
import pytest

from fbmchaos import chaos, experiments
from fbmchaos.gaussian import series_constants
from fbmchaos.young import towghi_fuzz_report

DATA = pathlib.Path(__file__).parent / "data"


def _line(num, label, ok):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_brownian_constants():
    sc = series_constants(0.5)
    ok = (abs(sc.sigma2 - 1.0) < 1e-6
          and abs(sc.sigma2_tilde - 0.5) < 1e-6
          and abs(sc.fclt_C - 0.5) < 1e-6)
    _line(1, "Brownian limit constants (1, 0.5, 0.5) within 1e-6", ok)


def test_criterion_02_constant_identity():
    rep = experiments.constant_identity_experiment(H_list=(0.35, 0.40, 0.45))
    _line(2, "fclt_C^2 = sigma2_tilde - sigma2/4 within 2x quadrature tol",
          rep["pass"])


def test_criterion_03_levy_area_variance():
    rep = experiments.levy_area_mc_experiment(H=0.4, N=10000, n_sub=64)
    row = rep["rows"][0]
    _line(3, f"MC area second moment vs lag table (|z|={abs(row['z']):.2f} "
          "< 5)", rep["pass"])


def test_criterion_04_moment_growth():
    rep = experiments.moment_experiment(H=0.4, ps=(2, 4),
                                        m_range=range(4, 10), N=1000)
    _line(4, "normalized p-th moments bounded across levels (ratio <= 3), "
          "p=2 constant-weight within 4 SE of oracle", rep["pass"])


def test_criterion_05_fclt_marginal():
    rep = experiments.fclt_experiment(H=0.4, m=10, N=2000)
    _line(5, "normalized sum variance within 4 SE of exact, limit within "
          "2%, KS normality at 0.01", rep["pass"])


def test_criterion_06_covariance_closed_forms():
    rep = experiments.covariance_table_experiment(H=0.4, triples=20)
    _line(6, "order-2 closed-form covariances match pairing oracle to "
          "1e-8 on 20 random triples", rep["pass"])


def test_criterion_07_third_order_scaling():
    rep = experiments.third_order_experiment(H=0.4, m_range=range(4, 10))
    slopes = {r["pattern"]: r["slope"] for r in rep["rows"]}
    _line(7, "order-3 dyadic slopes within 10% of -(6H-1) and lag-decay "
          f"bound holds (slopes {min(slopes.values()):.2f}.."
          f"{max(slopes.values()):.2f})", rep["pass"])


def test_criterion_08_young_integration_suite():
    rep = experiments.young_suite_experiment(seed=2024, cases=100)
    golden = json.loads((DATA / "towghi_golden.json").read_text())
    fresh = towghi_fuzz_report(seed=golden["seed"], cases=golden["cases"],
                               points=golden["points"], p=golden["p"],
                               q=golden["q"])
    stable = fresh["max_ratio"] == pytest.approx(golden["max_ratio"],
                                                 rel=1e-12)
    _line(8, "variation sandwich, bounded-ratio golden regression, "
          "product rule, nested-integral bound", rep["pass"] and stable)


def test_criterion_09_rho_sum_exhaustive():
    rep = experiments.rho_sum_experiment(max_p=4, max_q=3,
                                         m_range=range(1, 7))
    tally = rep["rows"][-1]
    _line(9, f"correlation-sum bound on all {tally['assignments']} "
          "admissible assignments, zero violations",
          rep["pass"] and tally["violations"] == 0)


def test_criterion_10_rde_self_convergence():
    rep = experiments.rde_demo_experiment(H=0.5, N=400)
    order = next(r for r in rep["rows"] if r["check"] == "order")
    jac = next(r for r in rep["rows"] if r["check"] == "jacobian")
    _line(10, f"step-halving order {order['slope']:.2f} > 1 and Jacobian "
          f"defect {jac['defect']:.1e} <= 10x estimate", rep["pass"])
