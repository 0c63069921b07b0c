"""Every gate can fail: each mutant, patched in for one test and never
written into the package, makes the command that checks it exit 1.  A
report's verdict is the conjunction of the rows that carry a ``pass``."""

import dataclasses
import json

import numpy as np

from fbmchaos import chaos, cli, experiments, gaussian, rde, young


def test_verdict_is_conjunction_of_checking_rows():
    def verdict(rows):
        return experiments._report("rule", {}, rows)["pass"]

    assert verdict([{"value": 1.0}])  # a row that only reports
    assert verdict([{"value": 1.0}, {"pass": True}, {"pass": np.bool_(True)}])
    assert not verdict([{"value": 1.0}, {"pass": True}, {"pass": False}])


def _run(tmp_path, *argv):
    code = cli.main(list(argv) + ["--out", str(tmp_path)])
    rows = json.loads((tmp_path / f"{argv[0]}.json").read_text())["rows"]
    return code, rows


def _covariance(tmp_path):
    # at its default seed 404 the command draws five qtilde rows
    return _run(tmp_path, "verify-moment", "--which", "covariance")


def test_covariance_rows_pass_unmutated(tmp_path):
    code, rows = _covariance(tmp_path)
    assert code == 0
    assert [r["which"] for r in rows].count("qtilde") == 5


def test_area_table_without_corner_average_fails(tmp_path, monkeypatch):
    # production mutant: the qtilde lag-table pattern as the left-point sum
    # of F g, no four-corner average
    cov_tables = chaos._cov_tables

    def left_point(pattern, tb, tt, term):
        if pattern == "qtilde":
            return np.sum(tb["F"] * tb["g"], axis=(1, 2))
        return cov_tables(pattern, tb, tt, term)

    monkeypatch.setattr(chaos, "_cov_tables", left_point)
    code, rows = _covariance(tmp_path)
    assert code == 1
    assert [r["which"] for r in rows if not r["pass"]] == ["qtilde"] * 5


def test_area_kernel_without_half_diagonal_fails(tmp_path, monkeypatch):
    # oracle mutant: M = [k < l], the left-point area
    kernel = chaos._area_kernel
    monkeypatch.setattr(chaos, "_area_kernel",
                        lambda n: kernel(n) - 0.5 * np.eye(n))
    code, rows = _covariance(tmp_path)
    assert code == 1
    assert [r["which"] for r in rows if not r["pass"]] == ["qtilde"] * 5


def _covariance_with_cross(tmp_path):
    # seed 405 draws three cross rows; seed 404 draws none
    return _run(tmp_path, "verify-moment", "--which", "covariance",
                "--seed", "405")


def test_covariance_rows_pass_unmutated_at_the_cross_seed(tmp_path):
    code, rows = _covariance_with_cross(tmp_path)
    assert code == 0
    assert [r["which"] for r in rows].count("cross") == 3


def test_doubled_cross_entry_fails_its_rows(tmp_path, monkeypatch):
    # production mutant: the hat/tilde cross entry as rho^2/2
    cov_Q_pair = chaos.cov_Q_pair

    def doubled(H, which, lag, n_sub=None):
        out = cov_Q_pair(H, which, lag, n_sub)
        return 2.0 * out if which == "cross" else out

    monkeypatch.setattr(chaos, "cov_Q_pair", doubled)
    code, rows = _covariance_with_cross(tmp_path)
    assert code == 1
    assert [r["which"] for r in rows if not r["pass"]] == ["cross"] * 3


def test_pvar_rows_pass_unmutated(tmp_path):
    code, rows = _run(tmp_path, "pvar")
    assert code == 0 and all(r.get("pass", True) for r in rows)


def test_halved_bar_vp_fails(tmp_path, monkeypatch):
    bar_Vp = young.bar_Vp
    monkeypatch.setattr(young, "bar_Vp", lambda f, p: 0.5 * bar_Vp(f, p))
    code, rows = _run(tmp_path, "pvar")
    assert code == 1
    assert [r["norm"] for r in rows if not r.get("pass", True)] == ["bar_Vp"]


def test_doubled_tilde_vp_fails(tmp_path, monkeypatch):
    # the tilde_Vp row only reports; the Vp row checks tilde_Vp <= Vp
    tilde_Vp = young.tilde_Vp
    monkeypatch.setattr(young, "tilde_Vp", lambda f, p: 2.0 * tilde_Vp(f, p))
    code, rows = _run(tmp_path, "pvar")
    assert code == 1
    assert [r["norm"] for r in rows if not r.get("pass", True)] == ["Vp"]


def test_levy_area_oracle_at_lag_one_fails(tmp_path, monkeypatch):
    cov_Q_pair = chaos.cov_Q_pair
    monkeypatch.setattr(chaos, "cov_Q_pair", lambda H, which, lag, **kw:
                        cov_Q_pair(H, which, lag + 1, **kw))
    code, rows = _run(tmp_path, "verify-moment", "--which", "levy-area",
                      "--replicas", "2000")
    assert code == 1 and not rows[0]["pass"]


def test_lag_grown_cov_k_tables_fail_the_slopes(tmp_path, monkeypatch):
    # every table times 1 + l^2: six patterns' level sums turn negative, and
    # a level sum with no log gives its row no slope, with no warning
    cov_K_lags = chaos.cov_K_lags
    monkeypatch.setattr(chaos, "cov_K_lags", lambda H, pattern, lags, **kw:
                        cov_K_lags(H, pattern, lags, **kw)
                        * (1.0 + np.asarray(lags, dtype=float) ** 2))
    code, rows = _run(tmp_path, "verify-third-order", "--which", "scaling")
    assert code == 1
    failing = [r for r in rows if not r["pass"]]
    assert [r["pattern"] for r in failing] == [
        "prod_aab", "prod_aaa", "area_own", "l3_aab", "l3_aba", "l3_baa"]
    assert all(r["slope"] is None and r["slope_pass"] is False
               for r in failing)


def _fclt(tmp_path):
    return _run(tmp_path, "verify-fclt", "--m", "6", "--replicas", "200")


def test_fclt_rows_pass_unmutated(tmp_path):
    code, rows = _fclt(tmp_path)
    assert code == 0 and all(r["pass"] for r in rows)


def test_converged_area_at_lag_one_fails_the_limit_row(tmp_path,
                                                       monkeypatch):
    # the converged (no n_sub) oracle entries read one lag out; the
    # finite-resolution variance oracle keeps its own entries
    cov_Q_pair = chaos.cov_Q_pair
    monkeypatch.setattr(chaos, "cov_Q_pair", lambda H, which, lag, n_sub=None:
                        cov_Q_pair(H, which, lag + (n_sub is None), n_sub))
    code, rows = _fclt(tmp_path)
    assert code == 1
    assert [r["check"] for r in rows if not r["pass"]] == [
        "converged-vs-limit"]


def test_symmetric_q_fails_the_fclt(tmp_path, monkeypatch):
    # q = qhat + qtilde in place of the antisymmetric qhat - qtilde
    q_processes = chaos.q_processes

    def symmetric(level1, level2, H):
        out = q_processes(level1, level2, H)
        return dict(out, q=out["qhat"] + out["qtilde"])

    monkeypatch.setattr(chaos, "q_processes", symmetric)
    code, rows = _fclt(tmp_path)
    assert code == 1
    assert [r["check"] for r in rows if not r["pass"]] == [
        "variance", "ks-normality"]


def test_sliced_coarse_levels_fail_the_growth_z_rows(tmp_path, monkeypatch):
    # each coarse sub-step the first fine increment of its block, not their
    # sum: m = 9 has blocks of one and keeps its rows.  Unmutated, every
    # row passes (criterion 4)
    def sliced(inc, cells, n_sub):
        N, d, size = inc.shape
        return inc.reshape(N, d, cells, n_sub, size // (cells * n_sub))[
            ..., 0]

    monkeypatch.setattr(experiments, "_coarse_increments", sliced)
    code, rows = _run(tmp_path, "verify-moment", "--which", "growth")
    assert code == 1
    z = {r["m"]: r["z"] for r in rows if "z" in r}
    assert all(z[m] < -4.0 for m in range(4, 9))
    assert abs(z[9]) < 4.0
    # the coarsest level loses most: the later rows that only have the
    # ratio cap exceed it
    assert all(r["ratio_to_first"] > 3.0 for r in rows
               if r["m"] > 4 and "z" not in r)


def test_k4_sum_without_its_cd_factor_fails_the_anchor(tmp_path,
                                                       monkeypatch):
    # A_cd (pair {2, 3}, listed first) replaced by ones: the bound holds
    # for this sum too, so only the anchor row can see it; unmutated, every
    # row passes (criterion 9)
    class_sum = chaos._class_sum

    def without_cd(H, count, v, exponents):
        if v == 4 and exponents[0]:
            exponents = (0,) + exponents[1:]
        return class_sum(H, count, v, exponents)

    monkeypatch.setattr(chaos, "_class_sum", without_cd)
    code, rows = _run(tmp_path, "verify-third-order", "--which", "rho-sum")
    assert code == 1
    assert [r.get("check") for r in rows if not r["pass"]] == ["k4-anchor"]


def _failing(rows, key):
    return [r[key] for r in rows if not r.get("pass", True)]


def test_squared_fclt_constant_fails_the_brownian_anchor(tmp_path,
                                                         monkeypatch):
    # fclt_C reported as its square (C^2 = 1/4 at H = 1/2); the other H
    # rows only report
    constants = experiments.series_constants

    def squared(H, tol=1e-6):
        sc = constants(H, tol)
        return dataclasses.replace(sc, fclt_C=sc.fclt_C ** 2)

    monkeypatch.setattr(experiments, "series_constants", squared)
    code, rows = _run(tmp_path, "constants")
    assert code == 1
    assert _failing(rows, "H") == [0.5]


def test_series_bookkeeping_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    # the unit variance cov(1, 1, H) read as 1 + 1e-9: the series
    # constants refuse their two assemblies before a row can be written
    cov = gaussian.cov

    def nudged(s, t, H):
        out = cov(s, t, H)
        scalar = np.ndim(s) == np.ndim(t) == 0
        return out + 1e-9 if scalar and s == t == 1.0 else out

    monkeypatch.setattr(gaussian, "cov", nudged)
    gaussian._series_constants.cache_clear()
    try:
        code = cli.main(["constants", "--identity", "--out", str(tmp_path)])
    finally:
        gaussian._series_constants.cache_clear()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("consistency error: series bookkeeping mismatch")


def _young(tmp_path):
    return _run(tmp_path, "young-check", "--cases", "100")


def test_young_rows_pass_unmutated(tmp_path):
    code, rows = _young(tmp_path)
    assert code == 0 and not _failing(rows, "check")


def test_halved_controlled_pvar_fails_the_sandwich(tmp_path, monkeypatch):
    controlled_pvar = young.controlled_pvar
    monkeypatch.setattr(young, "controlled_pvar",
                        lambda f, p: 0.5 * controlled_pvar(f, p))
    code, rows = _young(tmp_path)
    assert code == 1
    assert _failing(rows, "check") == ["fv-sandwich"]


def test_halved_path_vp_fails_the_product_rule(tmp_path, monkeypatch):
    # V_p of 1-D values halved: the sandwich reads 2-D values only
    Vp = young.Vp
    monkeypatch.setattr(young, "Vp", lambda f, p:
                        (0.5 if np.ndim(f) == 1 else 1.0) * Vp(f, p))
    code, rows = _young(tmp_path)
    assert code == 1
    assert _failing(rows, "check") == ["product-rule"]


def test_box_factor_at_4h_fails_the_iterated_bound(tmp_path, monkeypatch):
    # (t - s)^{4H} in place of (t - s)^{2H}; the bound is loose by a factor
    # of three at these cases, so dropping its 3^r would not show
    bound = young.iterated_A_bound
    monkeypatch.setattr(young, "iterated_A_bound", lambda a_list, boxes, H:
                        bound(a_list, boxes, 2 * H))
    code, rows = _young(tmp_path)
    assert code == 1
    assert _failing(rows, "check") == ["iterated-bound"]


def _rde(tmp_path):
    return _run(tmp_path, "rde-demo")


def test_rde_rows_pass_unmutated(tmp_path):
    code, rows = _rde(tmp_path)
    assert code == 0 and not _failing(rows, "check")


def test_jacobian_steps_without_level_two_fail_the_defect(tmp_path,
                                                          monkeypatch):
    # J and its inverse stepped with zero Levy areas: at seed 12 the defect
    # reads about 0.67 against a bound of about 0.006; the state steps, and
    # so the order row, keep level 2
    step = rde._step_J_Jinv
    monkeypatch.setattr(rde, "_step_J_Jinv", lambda coeff, y, J, K, x, B2, dt:
                        step(coeff, y, J, K, x, 0 * B2, dt))
    code, rows = _rde(tmp_path)
    assert code == 1
    assert _failing(rows, "check") == ["jacobian"]
