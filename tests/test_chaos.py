import numpy as np
import pytest

from fbmchaos import chaos, gaussian
from fbmchaos.errors import CapacityError, DomainError
from fbmchaos.fbm import SimSpec, simulate, simulate_batch
from fbmchaos.gaussian import HurstModel, rho, series_constants, tilde_rho
from fbmchaos.lift import level3_areas, levy_areas, lift2, lift3
from fbmchaos.chaos import (
    K_PATTERNS,
    SumProcess,
    admissible_assignments,
    brute_cov_K,
    cov_K_lags,
    cross_hat_tilde_finite,
    exact_cov_K,
    exact_second_moment_Q,
    isserlis_moment,
    q_processes,
    rho_sum_bound_verify,
    second_moment_K,
    third_order_sums,
    tilde_rho_finite,
    weighted_levy_sum,
    _cov_K_unit,
)


def make_lift(H=0.4, d=2, m=4, refine=4, seed=1, with_l3=False):
    p = simulate(SimSpec(model=HurstModel(H, d), m=m, refine=refine, seed=seed))
    L = lift2(p)
    return p, (lift3(p, L) if with_l3 else L)


class TestSumProcess:
    def test_values_length_checked(self):
        with pytest.raises(DomainError):
            SumProcess(m=3, values=np.zeros(5))

    def test_evaluation_uses_dyadic_floor(self):
        cells = np.arange(1.0, 5.0)
        sp = SumProcess(m=2, values=np.concatenate([[0], np.cumsum(cells)]))
        assert sp.at(0.0) == 0.0
        assert sp.at(0.3) == 1.0  # floor(4 * 0.3) = 1
        assert sp.at(1.0) == 10.0
        assert sp.increment(0.3, 0.8) == pytest.approx(6.0 - 1.0)

    def test_normalization_scale(self):
        sp = SumProcess(m=6, values=np.zeros(65), norm_exponent=2 * 0.4 - 0.5)
        assert sp.scale == pytest.approx(64 ** 0.3)


class TestWeightedSums:
    def test_equal_components_rejected(self):
        _, L = make_lift()
        with pytest.raises(DomainError):
            weighted_levy_sum(1.0, L, 1, 1)

    def test_constant_weight_is_plain_sum(self):
        _, L = make_lift(seed=3)
        v = weighted_levy_sum(1.0, L, 0, 1)
        assert v == pytest.approx(L.level2[:, 0, 1].sum(), abs=1e-14)

    def test_weight_length_checked(self):
        _, L = make_lift()
        with pytest.raises(DomainError):
            weighted_levy_sum(np.ones(7), L, 0, 1)

    def test_subinterval_uses_left_endpoint_weights(self):
        _, L = make_lift(seed=4)
        w = np.arange(17.0)
        v = weighted_levy_sum(w, L, 0, 1, s=0.25, t=0.75)
        expect = np.dot(w[4:12], L.level2[4:12, 0, 1])
        assert v == pytest.approx(expect, abs=1e-14)


class TestQProcesses:
    def test_algebraic_structure(self):
        _, L = make_lift(d=3, seed=6)
        Q = q_processes(L)
        np.testing.assert_allclose(Q.q, -np.swapaxes(Q.q, 1, 2), atol=1e-16)
        np.testing.assert_allclose(Q.qhat, np.swapaxes(Q.qhat, 1, 2), atol=1e-16)
        assert np.all(Q.qhat[:, np.arange(3), np.arange(3)] == 0)
        assert np.all(Q.qtilde[:, np.arange(3), np.arange(3)] == 0)

    def test_q_is_antisymmetric_part_of_level2(self):
        # shuffle identity: qhat - qtilde = (B^{ba} - B^{ab}) / 2
        _, L = make_lift(seed=7)
        Q = q_processes(L)
        anti = 0.5 * (np.swapaxes(L.level2, 1, 2) - L.level2)
        np.testing.assert_allclose(Q.q, anti, atol=1e-14)

    def test_qcheck_centering(self):
        _, L = make_lift(H=0.45, m=5, seed=8)
        Q = q_processes(L)
        expect = 0.5 * (L.level1[:, 0] ** 2 - 2.0 ** (-5 * 2 * 0.45))
        np.testing.assert_allclose(Q.qcheck[:, 0], expect, atol=1e-15)

    def test_process_accessor(self):
        _, L = make_lift(seed=9)
        Q = q_processes(L)
        sp = Q.process("q", 0, 1)
        assert sp.at(1.0) == pytest.approx(Q.q[:, 0, 1].sum(), abs=1e-14)
        sp2 = Q.process("qcheck", 1)
        assert sp2.values.shape == (17,)
        with pytest.raises(DomainError):
            Q.process("nope", 0, 1)


class TestFiniteResolutionOracles:
    def test_brownian_area_autocovariance(self):
        # piecewise-linear areas at H = 1/2: Var = 1/2 - 1/(4n), lags vanish
        for n in (2, 8, 32):
            v = tilde_rho_finite(np.arange(3), 0.5, n)
            assert v[0] == pytest.approx(0.5 - 1 / (4 * n), abs=1e-13)
            np.testing.assert_allclose(v[1:], 0.0, atol=1e-13)

    def test_converges_to_series_value(self):
        H = 0.4
        for lag in (0, 1, 2):
            coarse = tilde_rho_finite([lag], H, 64)[0]
            fine = tilde_rho_finite([lag], H, 512)[0]
            lim = float(tilde_rho(lag, H))
            assert abs(fine - lim) < abs(coarse - lim) + 1e-12

    def test_brownian_cross_is_quarter(self):
        for n in (2, 16):
            assert cross_hat_tilde_finite([0], 0.5, n)[0] == pytest.approx(0.25, abs=1e-13)

    def test_cross_converges_to_quarter_rho_sq(self):
        H = 0.4
        v = cross_hat_tilde_finite([0, 1, 2], H, 512)
        lim = 0.25 * rho(np.arange(3), H) ** 2
        np.testing.assert_allclose(v, lim, atol=2e-4)


class TestExactSecondMomentQ:
    def test_normalized_variances_approach_limits(self):
        H = 0.4
        sc = series_constants(H)
        scale = (2 ** 10) ** (4 * H - 1)
        pairs = [
            ("qtilde", sc.sigma2_tilde),
            ("qhat", sc.sigma2 / 4),
            ("q", sc.fclt_C ** 2),
        ]
        for which, lim in pairs:
            v = exact_second_moment_Q(H, 10, which) * scale
            assert v == pytest.approx(lim, rel=2e-4)

    def test_qcheck_is_half_sigma2(self):
        H = 0.45
        sc = series_constants(H)
        v = exact_second_moment_Q(H, 10, "qcheck") * (2 ** 10) ** (4 * H - 1)
        assert v == pytest.approx(sc.sigma2 / 2, rel=2e-4)

    def test_finite_resolution_brownian_anchor(self):
        m, n = 3, 4
        v = exact_second_moment_Q(0.5, m, "qtilde", n_sub=n)
        assert v == pytest.approx(8 * 4.0 ** -m * (0.5 - 1 / (4 * n)), abs=1e-14)

    def test_subinterval_and_empty(self):
        H = 0.4
        assert exact_second_moment_Q(H, 5, "qhat", s=0.3, t=0.3) == 0.0
        half = exact_second_moment_Q(H, 5, "qhat", s=0.0, t=0.5)
        full = exact_second_moment_Q(H, 5, "qhat")
        assert 0 < half < full

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            exact_second_moment_Q(0.4, 4, "qux")

    def test_mc_agreement_qtilde(self):
        H, m, n, N = 0.4, 5, 8, 3000
        sp = SimSpec(model=HurstModel(H, 2), m=m, refine=n, seed=31)
        inc = simulate_batch(sp, N).reshape(N, 2, 2 ** m, n)
        _, l2 = levy_areas(inc)
        tot = l2[:, :, 0, 1].sum(axis=1)
        est = np.mean(tot ** 2)
        se = np.std(tot ** 2, ddof=1) / np.sqrt(N)
        orc = exact_second_moment_Q(H, m, "qtilde", n_sub=n)
        assert abs(est - orc) < 4 * se

    def test_mc_agreement_q(self):
        H, m, n, N = 0.4, 5, 8, 3000
        sp = SimSpec(model=HurstModel(H, 2), m=m, refine=n, seed=32)
        inc = simulate_batch(sp, N).reshape(N, 2, 2 ** m, n)
        l1, l2 = levy_areas(inc)
        tot = (0.5 * l1[:, :, 0] * l1[:, :, 1] - l2[:, :, 0, 1]).sum(axis=1)
        est = np.mean(tot ** 2)
        se = np.std(tot ** 2, ddof=1) / np.sqrt(N)
        orc = exact_second_moment_Q(H, m, "q", n_sub=n)
        assert abs(est - orc) < 4 * se


class TestThirdOrderSums:
    def test_requires_level3(self):
        _, L = make_lift()
        with pytest.raises(DomainError):
            third_order_sums(L)

    def test_cells_assembled_from_lift(self):
        _, L = make_lift(d=2, with_l3=True, seed=11)
        T = third_order_sums(L)
        np.testing.assert_array_equal(T.level3, L.level3)
        np.testing.assert_allclose(
            T.triple[:, 0, 1, 1], L.level1[:, 0] * L.level1[:, 1] ** 2, atol=1e-15
        )
        np.testing.assert_allclose(
            T.area_inc[:, 0, 1, 0], L.level2[:, 0, 1] * L.level1[:, 0], atol=1e-15
        )
        with pytest.raises(DomainError):
            T.cells("quartic", 0, 0, 0)

    def test_process_normalization(self):
        _, L = make_lift(H=0.45, with_l3=True, seed=12)
        T = third_order_sums(L)
        sp = T.process("triple", 0, 1, 0)
        assert sp.norm_exponent == pytest.approx(2 * 0.45 - 0.5)


class TestCovKOracles:
    @pytest.mark.parametrize("pattern", K_PATTERNS)
    def test_matches_pairing_enumeration(self, pattern):
        # hand-derived covariance vs brute-force Gaussian-moment expansion on
        # the identical discretization: agreement to rounding error
        H, n = 0.4, 3
        for lag in (0, 1, 2):
            hand = _cov_K_unit(H, pattern, lag, n)
            brute = brute_cov_K(H, pattern, lag, n)
            assert hand == pytest.approx(brute, rel=1e-10, abs=1e-14)

    def test_matches_pairing_enumeration_other_hurst(self):
        for pattern in ("area_own", "l3_aba", "l3_baa"):
            hand = _cov_K_unit(0.45, pattern, 1, 4)
            brute = brute_cov_K(0.45, pattern, 1, 4)
            assert hand == pytest.approx(brute, rel=1e-10, abs=1e-14)

    def test_matches_pairing_enumeration_at_negative_lags(self):
        # a negative lag puts cell j before cell i in the pairing oracle
        for pattern in ("area_own", "l3_baa"):
            for lag in (-1, -2):
                hand = _cov_K_unit(0.4, pattern, lag, 3)
                brute = brute_cov_K(0.4, pattern, lag, 3)
                assert hand == pytest.approx(brute, rel=1e-10, abs=1e-14)

    def test_lag_reflection_symmetry(self):
        # stationarity: covariance depends on |i - j| even for asymmetric
        # patterns once both cross orderings are included
        for pattern in ("area_own", "l3_aba", "l3_baa"):
            for lag in (1, 3):
                a = _cov_K_unit(0.4, pattern, lag, 8)
                b = _cov_K_unit(0.4, pattern, -lag, 8)
                assert a == pytest.approx(b, rel=1e-10)

    def test_product_patterns_closed_form(self):
        H = 0.42
        r = rho(2, H)
        assert _cov_K_unit(H, "prod_abc", 2, 2) == pytest.approx(r ** 3)
        assert _cov_K_unit(H, "prod_aab", 2, 2) == pytest.approx(2 * r ** 3 + r)
        assert _cov_K_unit(H, "prod_aaa", 2, 2) == pytest.approx(6 * r ** 3 + 9 * r)

    def test_brownian_l3_aab_variance(self):
        # H = 1/2 limit of the left-sum double integral variance is 1/4
        vals = [_cov_K_unit(0.5, "l3_aab", 0, n) for n in (64, 256)]
        assert vals[1] == pytest.approx(0.25, rel=2e-2)
        assert abs(vals[1] - 0.25) < abs(vals[0] - 0.25)

    def test_exact_cov_K_scaling_and_checks(self):
        H, m = 0.4, 5
        v = exact_cov_K(H, m, "prod_abc", 3, 5)
        assert v == pytest.approx((2.0 ** -m) ** (6 * H) * rho(2, H) ** 3)
        with pytest.raises(DomainError):
            exact_cov_K(H, m, "prod_abc", 0, 5)
        with pytest.raises(DomainError):
            exact_cov_K(H, m, "prod_abc", 1, 5, n_quad=1)
        with pytest.raises(DomainError):
            exact_cov_K(H, m, "septic", 1, 5)

    def test_second_moment_slope(self):
        # E[(K^m)^2] ~ (2^-m)^{6H-1}: fitted log2-slope near -(6H - 1)
        H = 0.4
        ms = np.arange(4, 8)
        for pattern in ("l3_abc", "area_own", "prod_aab"):
            vals = [second_moment_K(H, m, pattern, n_quad=24) for m in ms]
            slope = np.polyfit(ms, np.log2(vals), 1)[0]
            assert slope == pytest.approx(-(6 * H - 1), rel=0.1)

    def test_mc_agreement_triple_products(self):
        H, m, N = 0.4, 5, 4000
        sp = SimSpec(model=HurstModel(H, 3), m=m, refine=1, seed=33)
        inc = simulate_batch(sp, N)[:, :, :, None]
        l1, _ = levy_areas(inc)
        tot = (l1[:, :, 0] * l1[:, :, 1] * l1[:, :, 2]).sum(axis=1)
        est = np.mean(tot ** 2)
        se = np.std(tot ** 2, ddof=1) / np.sqrt(N)
        orc = second_moment_K(H, m, "prod_abc")
        assert abs(est - orc) < 4 * se


class TestIsserlis:
    def test_odd_degree_zero(self):
        assert isserlis_moment(np.eye(3), [0, 1, 2]) == 0.0

    def test_fourth_moment(self):
        C = np.array([[2.0, 0.5], [0.5, 1.0]])
        # E[X^2 Y^2] = Var X Var Y + 2 Cov^2
        assert isserlis_moment(C, [0, 0, 1, 1]) == pytest.approx(2.5)
        assert isserlis_moment(C, [0, 0, 0, 0]) == pytest.approx(3 * 4.0)

    def test_sixth_moment(self):
        c = 0.3
        C = np.array([[1.0, c], [c, 1.0]])
        assert isserlis_moment(C, [0, 0, 0, 1, 1, 1]) == pytest.approx(9 * c + 6 * c ** 3)

    def test_degree_cap(self):
        with pytest.raises(CapacityError):
            isserlis_moment(np.eye(1), [0] * 14)


class TestRhoSumBound:
    def test_inadmissible_rejected(self):
        pair = frozenset({0, 1})
        with pytest.raises(DomainError):
            rho_sum_bound_verify(2, 1, {pair: 2}, [4])
        with pytest.raises(DomainError):
            rho_sum_bound_verify(1, 1, {}, [4])

    def test_empty_assignment_saturates(self):
        rep = rho_sum_bound_verify(3, 2, {}, [3, 4])
        assert rep["pass"]
        for row in rep["rows"]:
            assert row["lhs"] == pytest.approx(row["bound"])

    def test_single_pair_full_weight(self):
        rep = rho_sum_bound_verify(2, 2, {frozenset({0, 1}): 2}, [3, 4, 5])
        assert rep["pass"] and rep["exponent"] == 1

    def test_exhaustive_small(self):
        count = 0
        for p, q in [(2, 2), (3, 2)]:
            for a in admissible_assignments(p, q):
                rep = rho_sum_bound_verify(p, q, a, [3, 5])
                assert rep["pass"], (p, q, a)
                count += 1
        assert count > 10

    def test_repeated_call_is_bitwise_equal(self):
        # the second pass reads the cached powers and contraction paths
        for H in (0.4, 0.45):
            for p, q in [(3, 1), (3, 3), (4, 2)]:
                for a in admissible_assignments(p, q, max_exponent=q):
                    first = rho_sum_bound_verify(p, q, a, [2, 4], H=H)
                    assert rho_sum_bound_verify(p, q, a, [2, 4], H=H) == first
        assert chaos._seq_power.cache_info().hits > 0
        assert chaos._contraction_path.cache_info().hits > 0

    def test_brute_force_agreement(self):
        # einsum contraction equals the literal nested sum on a tiny range
        import itertools

        H, m = 0.4, 2
        a = {frozenset({0, 1}): 1, frozenset({1, 2}): 2}
        rep = rho_sum_bound_verify(3, 3, a, [m], H=H)
        total = 1.0 + 2.0 * chaos.rho_tail_bound(0, H)
        cells = 4
        lhs = 0.0
        for k in itertools.product(range(cells), repeat=3):
            term = 1.0
            for key, e in a.items():
                i, j = sorted(key)
                term *= (abs(rho(abs(k[i] - k[j]), H)) / total) ** e
            lhs += term
        assert rep["rows"][0]["lhs"] == pytest.approx(lhs, rel=1e-12)


class TestCovQPairs:
    def test_brute_agreement(self):
        from fbmchaos.chaos import Q_PAIRS, brute_cov_Q, cov_Q_pair

        n = 4
        for H in (0.4, 0.5):
            for which in Q_PAIRS:
                for lag in (0, 1, 2):
                    hand = cov_Q_pair(H, which, lag, n_sub=n)
                    brute = brute_cov_Q(H, which, lag, n)
                    assert hand == pytest.approx(brute, abs=1e-13), (
                        H, which, lag)

    def test_odd_component_pairs_vanish(self):
        from fbmchaos.chaos import cov_Q_pair

        # products of odd and even Hermite components are uncorrelated
        for which in ("qhat_qcheck", "qtilde_qcheck"):
            for lag in (0, 3):
                assert cov_Q_pair(0.4, which, lag, n_sub=3) == 0.0

    def test_exact_cov_scaling_and_validation(self):
        from fbmchaos.chaos import cov_Q_pair, exact_cov_Q

        H, m = 0.4, 3
        got = exact_cov_Q(H, m, "qtilde", 2, 5, n_sub=4)
        want = (2.0 ** -m) ** (4 * H) * cov_Q_pair(H, "qtilde", 3, n_sub=4)
        assert got == pytest.approx(want, rel=1e-14)
        with pytest.raises(DomainError):
            exact_cov_Q(H, m, "qtilde", 0, 1)
        with pytest.raises(DomainError):
            exact_cov_Q(H, m, "qtilde", 1, 2 ** m + 1)

    def test_lag_symmetry(self):
        from fbmchaos.chaos import Q_PAIRS, cov_Q_pair

        # stationary family: covariances depend on |lag| only
        for which in Q_PAIRS:
            assert cov_Q_pair(0.4, which, -2, n_sub=4) == pytest.approx(
                cov_Q_pair(0.4, which, 2, n_sub=4), abs=1e-15)


class TestOrder2LagTable:
    @pytest.mark.parametrize("n_sub", [None, 4])
    def test_second_moment_is_the_sum_over_cell_pairs(self, n_sub):
        H, m = 0.4, 3
        cells = range(1, 2 ** m + 1)

        def double_sum(which):
            return sum(chaos.exact_cov_Q(H, m, which, i, j, n_sub=n_sub)
                       for i in cells for j in cells)

        for which in chaos.Q_PAIRS:
            assert exact_second_moment_Q(H, m, which, n_sub=n_sub) == \
                pytest.approx(double_sum(which), rel=1e-13, abs=0), which
        want = (double_sum("qtilde") + double_sum("qhat")
                - 2.0 * double_sum("cross"))
        assert exact_second_moment_Q(H, m, "q", n_sub=n_sub) == \
            pytest.approx(want, rel=1e-13, abs=0)

    def test_converged_qtilde_answers_every_lag(self):
        H = 0.4
        lags = np.array([0, 1, 2, 7, 32, 33, 10 ** 5])
        np.testing.assert_array_equal(chaos.cov_Q_pair(H, "qtilde", lags),
                                      tilde_rho(lags, H))
        assert chaos.cov_Q_pair(H, "qtilde", -3) == tilde_rho(3, H)
        # far out, tilde_rho(i) ~ rho(i)^2/4 ~ (H(2H-1))^2/4 i^{4H-4}
        far = chaos.cov_Q_pair(H, "qtilde", 10 ** 5)
        assert far == pytest.approx((H * (2 * H - 1)) ** 2 / 4
                                    * 1e5 ** (4 * H - 4), rel=1e-4)
        # at H = 1/2 every lag beyond 0 is exactly 0, so only the diagonal
        # tilde_rho(0) = 1/2 survives
        for m in (2, 10):
            assert exact_second_moment_Q(0.5, m, "qtilde") == 0.5 * 2 ** -m

    @pytest.mark.parametrize("H", [0.4, 0.5])
    @pytest.mark.parametrize("n_sub", [None, 4])
    def test_vector_matches_scalar_calls_bitwise(self, H, n_sub):
        # numpy may evaluate a power on a 0-d array to a different last bit
        # than its array loop (at H = 0.4 first at lag 16), which the
        # cancellation in rho magnifies; an integer lag keeps the 0-d
        # evaluation, so these lags stay below that
        lags = np.arange(-11, 12)
        for which in chaos.Q_PAIRS:
            vec = chaos.cov_Q_pair(H, which, lags, n_sub)
            one = [chaos.cov_Q_pair(H, which, int(lag), n_sub) for lag in lags]
            assert all(type(v) is float for v in one)
            np.testing.assert_array_equal(vec, one, err_msg=which)


class TestLagTableEngine:
    # n = 31 puts 64 lags in a chunk, so these vectors cross a boundary
    n = 31

    def lags(self):
        chunk = gaussian._TABLE_ELEMS // (self.n + 1) ** 2
        assert 8 <= chunk < 70
        return np.arange(-2, chunk + 6)

    @pytest.mark.parametrize("pattern", K_PATTERNS)
    def test_vector_matches_per_lag_calls(self, pattern):
        H, lags = 0.4, self.lags()
        signed = cov_K_lags(H, pattern, lags, self.n, symmetrized=False)
        sym = cov_K_lags(H, pattern, lags, self.n)
        for lag, c, cs in zip(lags, signed, sym):
            one = _cov_K_unit(H, pattern, int(lag), self.n)
            mirror = _cov_K_unit(H, pattern, -int(lag), self.n)
            assert c == pytest.approx(one, rel=1e-13, abs=0)
            want = one if lag == 0 else 0.5 * (one + mirror)
            assert cs == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("fn", [tilde_rho_finite, cross_hat_tilde_finite])
    def test_order2_chunking_is_bitwise_invisible(self, fn):
        lags = np.abs(self.lags())
        half = len(lags) // 2
        whole = fn(lags, 0.4, self.n)
        split = np.concatenate([fn(lags[:half], 0.4, self.n),
                                fn(lags[half:], 0.4, self.n)])
        np.testing.assert_array_equal(whole, split)
