from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np
import pytest

from fbmchaos.chaos import cov_Q_pair
from fbmchaos import gaussian
from fbmchaos.errors import CapacityError, DomainError
from fbmchaos.gaussian import (
    HurstModel,
    _check_H,
    _lag_tables,
    cov,
    cov_rect,
    rho,
    rho_tail_bound,
    series_constants,
    tilde_rho,
)

HS = [0.35, 0.4, 0.45, 0.5]


# An independent second-moment oracle: the iterated covariance recursion on
# the grid of [s,t], with no lag tables.
@dataclass(frozen=True)
class IteratedCov:
    """R^l_s on an n x n grid over [s,t]; values[i,j] = R^l_s(u_i, u_j)."""

    level: int
    s: float
    t: float
    n: int
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def corner(self):
        """R^l_s(t,t), the top-corner value used as a second-moment oracle."""
        return float(self.values[-1, -1])


def iterated_cov_Rl(l, interval, n, H, corner_average=False):
    """Iterated covariance R^l_s on a uniform n x n grid of [s,t]^2.

    Base case R^1_s(u,v) = R([s,u] x [s,v]); each further level is the
    left-point discrete double Young integral of the previous level against
    dR:  R^l(u_i, v_j) = sum_{k<=i, l<=j} R^{l-1}(u_{k-1}, v_{l-1})
    * R(cell_k x cell_l).  R^2_s(t,t) converges to the Levy-area second
    moment on [s,t] under refinement in n.

    With ``corner_average`` each cell contributes the average of the four
    corner values of the previous level instead of the lower-left one.  At
    level 2 this is exactly the second moment of the geometric (piecewise-
    linear signature) area at resolution n, matching the simulated lift.
    """
    _check_H(H)
    if l < 1:
        raise DomainError("level must be >= 1")
    if n < 2:
        raise DomainError("grid size must be >= 2")
    s, t = float(interval[0]), float(interval[1])
    if not (0.0 <= s < t):
        raise DomainError("interval must satisfy 0 <= s < t")
    grid = s + (t - s) * np.arange(n + 1) / n
    Rm = cov(grid[:, None], grid[None, :], H)
    base = Rm - cov(grid, s, H)[:, None] - cov(s, grid, H)[None, :] + cov(s, s, H)
    if l == 1:
        return IteratedCov(1, s, t, n, grid, base)
    g_cells = np.diff(np.diff(Rm, axis=0), axis=1)
    values = base
    for _ in range(l - 1):
        if corner_average:
            corner = 0.25 * (
                values[:-1, :-1] + values[1:, :-1] + values[:-1, 1:] + values[1:, 1:]
            )
        else:
            corner = values[:-1, :-1]
        inner = corner * g_cells
        acc = np.cumsum(np.cumsum(inner, axis=0), axis=1)
        nxt = np.zeros_like(values)
        nxt[1:, 1:] = acc
        values = nxt
    return IteratedCov(l, s, t, n, grid, values)


# An independent tilde_rho oracle: left-point sums of F * g over the lag-i
# table of _lag_tables on dyadic grids n = 2^3 ... 2^max_level, extrapolated
# to n = infinity.
def _extrap_powers(H):
    # leading error exponents of the left-point double sum: multiples of
    # theta = 4H - 1 mixed with integer powers of 1/n; duplicates merge at
    # H = 1/2 where theta = 1
    th = 4 * H - 1
    powers = []
    for p in (th, 2 * th, 1.0, th + 1.0, 2.0):
        if all(abs(p - q) > 1e-9 for q in powers):
            powers.append(p)
    return powers


def leftpoint_tilde_rho(i, H, tol=1e-6, max_level=12):
    """tilde_rho(i) by the refined left-point quadrature ladder.

    The raw ladder converges like a mixture of powers n^{-(4H-1)}, n^{-1},
    ... which is far too slow to certify small tolerances directly, so each
    new level re-fits the known-exponent error model
    a + sum_k b_k n^{-theta_k} and the stopping rule is two successive
    fitted limits within ``tol``.  Fails if the ladder is exhausted first.
    """
    powers = _extrap_powers(H)
    ns, vals = [], []
    best = None
    prev_best = None
    for j in range(3, max_level + 1):
        n = 2 ** j
        ns.append(float(n))
        # one chunk: the generator is used up here, so a level's tables are
        # freed before the next level builds its own
        vals.append(sum(float(np.sum(t["F"] * t["g"]))
                        for t in _lag_tables(H, [i], n)))
        prev_best = best
        best = vals[-1]
        if len(vals) >= 2 and vals[-1] == vals[-2]:
            # degenerate cases (Brownian disjoint lags) hit the limit exactly
            return vals[-1]
        if len(vals) >= len(powers) + 2:
            use_n = np.array(ns[-7:])
            use_v = np.array(vals[-7:])
            A = np.column_stack(
                [np.ones_like(use_n)] + [use_n ** (-p) for p in powers]
            )
            coef, *_ = np.linalg.lstsq(A, use_v, rcond=None)
            best = float(coef[0])
        if prev_best is not None and len(vals) >= len(powers) + 3:
            if abs(best - prev_best) < tol:
                return best
    raise AssertionError(f"ladder for tilde_rho({i}, H={H}) did not reach "
                         f"tol={tol} by n=2^{max_level}")


def product_rule_tilde_rho(lag, H):
    """rho(lag)^2/2 - int int d_u f d_v f at lag >= 1, in 40 digits.

    f(u,v) = R([0,u] x [lag,v]); for v >= u, d_u f = H((v-u)^c - (lag-u)^c)
    and d_v f = H(v^c - (v-u)^c) with c = 2H - 1.  Of the four terms of the
    product, (lag-u)^c v^c separates and (v-u)^{2c} integrates in closed
    form; the other two take one inner integral in closed form, leaving
    one-dimensional quadratures.  Terms of size lag^{2c} cancel to
    lag^{4H-4}, and the closed form of the (v-u)^{2c} term is a second
    difference of lag^{2c+2}: about 20 digits lost at lag 26,425.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        H = mp.mpf(H)
        c, lag = 2 * H - 1, mp.mpf(lag)

        def power_diff(x, a):  # int_{x-1}^{x} t^{a-1} dt
            return (x ** a - (x - 1) ** a) / a

        t1 = mp.quad(lambda v: v ** c * power_diff(v, c + 1), [lag, lag + 1])
        t2 = (power_diff(lag + 1, 2 * c + 2) - power_diff(lag, 2 * c + 2)) / (
            2 * c + 1)
        t3 = power_diff(lag, c + 1) * power_diff(lag + 1, c + 1)
        t4 = mp.quad(lambda u: (lag - u) ** c * power_diff(lag + 1 - u, c + 1),
                     [0, 1])
        r = ((lag + 1) ** (2 * H) + (lag - 1) ** (2 * H)
             - 2 * lag ** (2 * H)) / 2
        return float(r ** 2 / 2 - H * H * (t1 - t2 - t3 + t4))


def smooth_density_tilde_rho(lags, H, nodes=32):
    """tilde_rho at integer lags >= 2 by Gauss-Legendre on the density.

    Away from the diagonal the rectangular increments of R have the smooth
    density d2R/dudv = H(2H-1)(v-u)^{2H-2}, so

        tilde_rho(i) = int_0^1 int_i^{i+1} (R(u,v) - R(u,i))
                       * H(2H-1) (v-u)^{2H-2} dv du,

    an analytic integrand on the closed rectangle.  R(u,v) - R(u,i)
    cancels to the size of the result, so relative accuracy falls like
    lag^2 eps: about 1e-13 at lag 8 and 1e-11 at lag 64.
    """
    lags = np.asarray(lags, dtype=float)
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)  # nodes on [0,1], weights w/2 per axis
    v = lags[None, :] + u[:, None]  # (nodes, L)
    # f(u,v) = R(u,v) - R(u, lag), shape (nodes_u, nodes_v, L)
    f = cov(u[:, None, None], v[None, :, :], H) - cov(
        u[:, None], lags[None, :], H)[:, None, :]
    dens = H * (2 * H - 1) * (v[None, :, :] - u[:, None, None]) ** (2 * H - 2)
    return 0.25 * np.einsum("a,b,abl->l", w, w, f * dens)


def binomial_rho(k, H, terms=12):
    """rho(k) = k^{2H} sum_{j>=1} C(2H,2j) k^{-2j}, cancellation-free at
    lags k >= 8, where the terms left out are below k^{2H-2 terms-2}."""
    from scipy.special import binom

    k = np.asarray(k, dtype=float)
    j = np.arange(1, terms + 1)[:, None]
    return k ** (2 * H) * np.sum(binom(2 * H, 2 * j) * k ** (-2.0 * j), axis=0)


class TestHurstModel:
    def test_valid_range(self):
        HurstModel(0.4, 2)
        HurstModel(0.5, 1)

    @pytest.mark.parametrize("H", [0.2, 1 / 3, 0.51, 0.75])
    def test_rejects_bad_H(self, H):
        with pytest.raises(DomainError):
            HurstModel(H, 2)

    def test_rejects_bad_d(self):
        with pytest.raises(DomainError):
            HurstModel(0.4, 0)


class TestCov:
    @pytest.mark.parametrize("H", HS)
    def test_diagonal(self, H):
        for t in (0.25, 1.0, 3.7):
            assert cov(t, t, H) == pytest.approx(t ** (2 * H), rel=1e-14)

    def test_unit(self):
        assert cov(1.0, 1.0, 0.4) == 1.0

    def test_brownian_min(self):
        assert cov(0.5, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("H", HS)
    def test_symmetry(self, H):
        rng = np.random.default_rng(0)
        s, t = rng.uniform(0, 2, size=(2, 50))
        np.testing.assert_allclose(cov(s, t, H), cov(t, s, H), rtol=1e-14)

    @pytest.mark.parametrize("H", HS)
    def test_positive_semidefinite(self, H):
        rng = np.random.default_rng(1)
        for _ in range(5):
            grid = np.sort(rng.uniform(0.01, 2.0, size=12))
            M = cov(grid[:, None], grid[None, :], H)
            w = np.linalg.eigvalsh(M)
            assert w.min() > -1e-10 * w.max()


class TestCovRect:
    def test_rho_identity(self):
        for k in range(1, 6):
            for H in (0.35, 0.4, 0.45):
                assert cov_rect(((0, 1), (k, k + 1)), H) == pytest.approx(
                    rho(k, H), rel=1e-12
                )

    def test_degenerate(self):
        assert cov_rect(((0.3, 0.3), (0.1, 0.9)), 0.4) == 0.0

    def test_brownian_disjoint(self):
        assert cov_rect(((0, 1), (2, 3)), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_reversed_raises(self):
        with pytest.raises(DomainError):
            cov_rect(((1, 0), (0, 1)), 0.4)

    @pytest.mark.parametrize("H", HS)
    def test_additivity(self, H):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(0, 2, size=3))
            s, t = np.sort(rng.uniform(0, 2, size=2))
            whole = cov_rect(((a, c), (s, t)), H)
            parts = cov_rect(((a, b), (s, t)), H) + cov_rect(((b, c), (s, t)), H)
            assert whole == pytest.approx(parts, abs=1e-12)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_stationarity_and_scaling(self, H):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s1, t1 = np.sort(rng.uniform(0, 1, size=2))
            s2, t2 = np.sort(rng.uniform(0, 1, size=2))
            u = rng.uniform(0, 1)
            a = rng.uniform(0.1, 3.0)
            base = cov_rect(((s1, t1), (s2, t2)), H)
            shifted = cov_rect(((s1 + u, t1 + u), (s2 + u, t2 + u)), H)
            scaled = cov_rect(((a * s1, a * t1), (a * s2, a * t2)), H)
            assert shifted == pytest.approx(base, abs=1e-12)
            assert scaled == pytest.approx(a ** (2 * H) * base, abs=1e-12)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45, 0.5])
    def test_one_var_total_variation_bound(self, H):
        # total variation of u -> R([s,t] x [0,u]) is at most 3 |t-s|^{2H}
        rng = np.random.default_rng(4)
        grid = np.linspace(0, 1, 801)
        for _ in range(20):
            s, t = np.sort(rng.uniform(0, 1, size=2))
            vals = cov_rect(((s, t), (np.zeros_like(grid), grid)), H)
            tv = np.abs(np.diff(vals)).sum()
            assert tv <= 3 * (t - s) ** (2 * H) + 1e-9


class TestRho:
    def test_lag_zero(self):
        for H in HS:
            assert rho(0, H) == 1.0

    def test_brownian_zero(self):
        for k in range(1, 10):
            assert rho(k, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_lag1(self):
        assert rho(1, 0.4) == pytest.approx(2 ** (2 * 0.4 - 1) - 1, rel=1e-14)
        assert rho(1, 0.4) == pytest.approx(-0.129449, abs=1e-6)

    def test_negative_for_rough(self):
        for H in (0.35, 0.4, 0.45):
            ks = np.arange(1, 200)
            assert np.all(rho(ks, H) < 0)

    def test_absolute_sums_bounded(self):
        # partial sums of |rho| are bounded by partial sum + exact tail bound
        H = 0.4
        ks = np.arange(0, 5000)
        partial = np.abs(rho(ks, H)).sum()
        total = partial + rho_tail_bound(4999, H)
        # the full series sums to 1 + 1/2 by telescoping
        assert total == pytest.approx(1.5, abs=1e-10)


class TestRhoTailBound:
    def test_brownian(self):
        assert rho_tail_bound(5, 0.5) == 0.0

    def test_refuses_H_outside_model_range(self):
        # for H > 1/2 the telescoped tail diverges, so no closed form holds
        for H in (0.3, 0.6):
            with pytest.raises(DomainError):
                rho_tail_bound(0, H)

    def test_nonincreasing(self):
        H = 0.4
        vals = [rho_tail_bound(K, H) for K in range(2, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dominates_partial_sums(self):
        H = 0.4
        for K in (2, 5, 20, 100):
            ks = np.arange(K + 1, 10 * K + 1)
            assert rho_tail_bound(K, H) >= np.abs(rho(ks, H)).sum()


class TestTildeRho:
    def test_brownian_ito_isometry(self):
        assert tilde_rho(0, 0.5) == 0.5

    def test_brownian_disjoint_lags(self):
        # every expansion coefficient carries H(2H-1) = 0
        for i in (1, 2, 5, 10 ** 6):
            assert float(tilde_rho(i, 0.5)) == 0.0
        assert np.all(tilde_rho(np.arange(1, 100), 0.5) == 0.0)
        assert not np.any(gaussian._tilde_rho_coeffs(0.5))

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("lag", [0, 1, 3])
    def test_product_rule_is_exact_on_every_grid(self, lag, n):
        # Delta(f^2) = 2Fg + 2bc + 2(b+c)g + g^2 on each sub-cell, with b and
        # c its edge increments; over the cells it sums to f(1,lag+1)^2
        for H in HS:
            (t,) = _lag_tables(H, [lag], n)
            P, F, g = t["P"], t["F"], t["g"]
            b = np.diff(P, axis=1)[:, :, :-1]
            c = np.diff(P, axis=2)[:, :-1, :]
            total = np.sum(2 * F * g + 2 * b * c + 2 * (b + c) * g + g * g)
            assert total == pytest.approx(t["r"][0] ** 2, abs=1e-13)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_closed_forms_match_leftpoint_ladder(self, H):
        for lag in (0, 1):
            assert tilde_rho(lag, H) == pytest.approx(
                leftpoint_tilde_rho(lag, H), abs=1e-6)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_matches_smooth_density(self, H):
        # two independent evaluation routes for lags away from the diagonal
        for lag in (2, 3, 4):
            assert tilde_rho(lag, H) == pytest.approx(
                leftpoint_tilde_rho(lag, H), abs=5e-7)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_matches_mpmath_product_rule(self, H):
        assert tilde_rho(1, H) == pytest.approx(
            product_rule_tilde_rho(1, H), abs=1e-12)
        # the expansion in 1/lag, from the nearest lag it serves to the
        # largest series truncation the constants once needed
        lags = [2, 3, 4, 8, 64, 1023, 26425]
        np.testing.assert_allclose(
            tilde_rho(lags, H),
            [product_rule_tilde_rho(lag, H) for lag in lags], rtol=1e-12)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_matches_smooth_density_quadrature(self, H):
        # the quadrature's own cancellation limits this comparison
        lags = np.arange(2, 65)
        np.testing.assert_allclose(tilde_rho(lags, H),
                                   smooth_density_tilde_rho(lags, H),
                                   rtol=1e-10)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_expansion_leading_terms(self, H):
        # the j = 0, 1 terms of f cancel; the leading term is rho^2/4 with
        # rho(k) ~ H(2H-1) k^{2H-2}
        c = gaussian._tilde_rho_coeffs(H)
        assert c[0] == 0.0 and c[1] == 0.0
        assert c[2] == pytest.approx((H * (2 * H - 1)) ** 2 / 4, rel=1e-13)

    @pytest.mark.parametrize("H", HS)
    def test_scalar_and_vector_calls_agree(self, H):
        lags = np.arange(6)
        vec = tilde_rho(lags, H)
        one = [tilde_rho(int(lag), H) for lag in lags]
        assert all(type(v) is float for v in one)
        np.testing.assert_allclose(vec, one, rtol=1e-14, atol=0)

    def test_matches_R2_recursion(self):
        H = 0.4
        t0 = float(tilde_rho(0, H))
        # extrapolate the recursion corner over the same dyadic ladder
        corners = {n: iterated_cov_Rl(2, (0, 1), n, H).corner for n in (1024, 2048)}
        # raw corner converges slowly; accept the coarse agreement and check
        # the direction of refinement
        assert abs(corners[2048] - t0) < abs(corners[1024] - t0)
        assert corners[2048] == pytest.approx(t0, abs=2e-3)

    def test_magnitude_versus_rho_mass(self):
        # |tilde_rho(i)| is controlled by the squared rho mass of the lag
        H = 0.4
        lags = np.arange(10, 200)
        vals = tilde_rho(lags, H)
        assert np.all(np.abs(vals) <= rho(lags, H) ** 2)

    def test_negative_lag_rejected(self):
        for lags in (-1, [0, -2]):
            with pytest.raises(DomainError):
                tilde_rho(lags, 0.4)

    def test_fractional_lag_rejected(self):
        with pytest.raises(DomainError):
            tilde_rho(0.5, 0.4)


class TestSeriesConstants:
    def test_brownian_anchor(self):
        sc = series_constants(0.5)
        assert sc.sigma2 == pytest.approx(1.0, abs=1e-8)
        assert sc.sigma2_tilde == pytest.approx(0.5, abs=1e-8)
        assert sc.fclt_C == pytest.approx(0.5, abs=1e-8)

    def test_rho0_exact(self):
        # sigma2 squares the table's rho(0), which is 1 with no rounding
        for H in (0.4, 0.5):
            assert rho(np.arange(gaussian.SERIES_K + 1), H)[0] == 1.0

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_identity_and_bounds(self, H):
        sc = series_constants(H, tol=1e-6)
        assert sc.sigma2 >= 1.0
        assert sc.sigma2_tilde > 0
        assert sc.fclt_C > 0
        assert sc.fclt_C ** 2 == pytest.approx(
            sc.sigma2_tilde - sc.sigma2 / 4.0, abs=2e-6
        )

    def test_tail_bound_recorded(self):
        sc = series_constants(0.4, tol=1e-6)
        assert 0 < sc.tail_bound < 1e-6
        assert series_constants(0.5).tail_bound == 0.0

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_zeta_tails_match_long_direct_sums(self, H):
        K, N = gaussian.SERIES_K, 200_000
        rho_sq, tilde = gaussian._series_tails(H, K)
        far_rho_sq, far_tilde = gaussian._series_tails(H, N)
        ks = np.arange(K + 1, N + 1)
        # the far tails are under 1e-4 of the totals
        assert np.sum(binomial_rho(ks, H) ** 2) + far_rho_sq == \
            pytest.approx(rho_sq, rel=1e-12)
        assert np.sum(tilde_rho(ks, H)) + far_tilde == \
            pytest.approx(tilde, rel=1e-12)
        # and with lags to 2000 from the independent quadrature
        ks = np.arange(K + 1, 2001)
        assert np.sum(smooth_density_tilde_rho(ks, H)) + \
            gaussian._series_tails(H, 2000)[1] == pytest.approx(tilde, rel=1e-9)

    @pytest.mark.parametrize("H", [0.35, 0.4, 0.45])
    def test_tail_bound_dominates_a_shorter_expansion(self, H, monkeypatch):
        # at J = 12 the remainder is large enough to see: the bound must
        # cover what the coefficients 13..60 add to both constants
        full = gaussian._series_constants.__wrapped__(H)
        gaussian._tilde_rho_coeffs.cache_clear()
        monkeypatch.setattr(gaussian, "_J", 12)
        try:
            short = gaussian._series_constants.__wrapped__(H)
        finally:
            gaussian._tilde_rho_coeffs.cache_clear()
        moved = (abs(short.sigma2 - full.sigma2)
                 + abs(short.sigma2_tilde - full.sigma2_tilde))
        assert 0 < moved <= short.tail_bound
        assert short.tail_bound > 1e3 * full.tail_bound

    def test_uncertifiable_tol_is_refused_before_any_table(self, monkeypatch):
        def table_built(*args):
            raise AssertionError("a tilde_rho table was built")

        monkeypatch.setattr(gaussian, "tilde_rho", table_built)
        with pytest.raises(CapacityError, match="certify"):
            series_constants(0.4, tol=1e-15)

    def test_tight_tol_is_answered(self):
        # the proven bound is near 1e-17, so 1e-13 is certified
        sc = series_constants(0.4, tol=1e-13)
        assert sc.fclt_C == series_constants(0.4).fclt_C

    def test_cached_and_read_only(self):
        # tol only gates the request: every certified tol shares one object
        sc = series_constants(0.45)
        assert series_constants(0.45, tol=1e-3) is sc
        with pytest.raises(FrozenInstanceError):
            sc.fclt_C = 0.0


class TestIteratedCov:
    def test_level1_base(self):
        H = 0.4
        ic = iterated_cov_Rl(1, (0.2, 1.0), 16, H)
        for i in (0, 5, 16):
            for j in (0, 3, 16):
                expect = cov_rect(
                    ((0.2, ic.grid[i]), (0.2, ic.grid[j])), H
                )
                assert ic.values[i, j] == pytest.approx(expect, abs=1e-13)

    def test_zero_boundary(self):
        ic = iterated_cov_Rl(3, (0, 1), 32, 0.4)
        assert np.all(ic.values[0, :] == 0)
        assert np.all(ic.values[:, 0] == 0)

    def test_brownian_level2(self):
        n = 512
        ic = iterated_cov_Rl(2, (0, 1), n, 0.5)
        # left sums give exactly 1/2 - 1/(2n) at H = 1/2
        assert ic.corner == pytest.approx(0.5 - 1 / (2 * n), abs=1e-12)

    def test_brownian_level2_corner_average(self):
        # trapezoid variant matches the piecewise-linear area second moment,
        # 1/2 - 1/(4n) at H = 1/2, exactly
        for n in (4, 16, 64):
            ic = iterated_cov_Rl(2, (0, 1), n, 0.5, corner_average=True)
            assert ic.corner == pytest.approx(0.5 - 1 / (4 * n), abs=1e-13)

    def test_corner_average_between_riemann_sums(self):
        H, n = 0.4, 64
        left = iterated_cov_Rl(2, (0, 1), n, H).corner
        trap = iterated_cov_Rl(2, (0, 1), n, H, corner_average=True).corner
        assert 0 < trap < left

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("H", HS)
    def test_corner_average_matches_the_lag_table(self, H, n):
        # the Levy-area oracle of levy_area_mc_experiment, by two engines
        trap = iterated_cov_Rl(2, (0, 1), n, H, corner_average=True).corner
        assert cov_Q_pair(H, "qtilde", 0, n_sub=n) == pytest.approx(
            trap, rel=1e-14)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            iterated_cov_Rl(0, (0, 1), 8, 0.4)
        with pytest.raises(DomainError):
            iterated_cov_Rl(2, (1, 0), 8, 0.4)
        with pytest.raises(DomainError):
            iterated_cov_Rl(2, (0, 1), 1, 0.4)
