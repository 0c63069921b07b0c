"""Every gate can fail: each mutant, patched in for one test and never
written into the package, makes the command that checks it exit 1."""

import json

import numpy as np

from fbmchaos import chaos, cli, young
from fbmchaos.gaussian import _lag_tables


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
    assert code == 0 and all(r["pass"] for r in rows)


def test_halved_bar_vp_fails(tmp_path, monkeypatch):
    bar_Vp = young.bar_Vp
    monkeypatch.setattr(young, "bar_Vp", lambda f, p: 0.5 * bar_Vp(f, p))
    code, rows = _run(tmp_path, "pvar")
    assert code == 1
    assert [r["norm"] for r in rows if not r["pass"]] == ["bar_Vp"]
