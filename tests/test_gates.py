"""Every gate can fail: each mutant, patched in for one test and never
written into the package, makes the command that checks it exit 1.  A
report's verdict is the conjunction of the rows that carry a ``pass``."""

import json

import numpy as np

from fbmchaos import chaos, cli, experiments, young
from fbmchaos.gaussian import _lag_tables


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
    # production mutant: the left-point sum of F g, no four-corner average
    def left_point(lags, H, n):
        return np.concatenate([np.sum(t["F"] * t["g"], axis=(1, 2))
                               for t in _lag_tables(H, lags, n)])

    monkeypatch.setattr(chaos, "tilde_rho_finite", left_point)
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
