import numpy as np
import pytest

from fbmchaos.errors import DomainError
from fbmchaos.fbm import SimSpec, simulate, simulate_batch
from fbmchaos.gaussian import HurstModel, tilde_rho
from fbmchaos.lift import (
    IntervalSignature,
    chen_combine,
    level3_areas,
    levy_areas,
    lift2,
    lift3,
)


def make_path(H=0.4, d=2, m=3, refine=16, seed=1, replica=0):
    return simulate(
        SimSpec(model=HurstModel(H, d), m=m, refine=refine, seed=seed, replica=replica)
    )


class TestLift2:
    def test_single_substep(self):
        # with one sub-step only the geometric half-product survives
        p = make_path(refine=1)
        L = lift2(p)
        expect = 0.5 * np.einsum("ca,cb->cab", L.level1, L.level1)
        np.testing.assert_allclose(L.level2, expect, atol=1e-15)

    def test_shuffle_identity(self):
        L = lift2(make_path(d=3))
        lhs = L.level2 + np.swapaxes(L.level2, -1, -2)
        rhs = np.einsum("ca,cb->cab", L.level1, L.level1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_shuffle_identity_random(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(H=st.floats(min_value=0.34, max_value=0.5),
                   d=st.integers(1, 4), m=st.integers(1, 4),
                   refine=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
        def check(H, d, m, refine, seed):
            L = lift2(make_path(H=H, d=d, m=m, refine=refine, seed=seed))
            sig = L.signature()
            for l1, l2 in ((L.level1, L.level2), (sig.level1, sig.level2)):
                np.testing.assert_allclose(
                    l2 + np.swapaxes(l2, -1, -2),
                    np.einsum("...a,...b->...ab", l1, l1), atol=1e-13)

        check()

    def test_diagonal_rule(self):
        L = lift2(make_path())
        for a in range(2):
            np.testing.assert_array_equal(L.level2[:, a, a], 0.5 * L.level1[:, a] ** 2)

    def test_level1_consistency(self):
        p = make_path()
        L = lift2(p)
        cells = p.increments.reshape(2, 8, 16).sum(axis=2).T
        np.testing.assert_allclose(L.level1, cells, atol=1e-14)

    def test_second_moment_matches_quadrature(self):
        # MC over [0,1]: E[(B^{1,2}_{0,1})^2] near tilde_rho(0) at n=64
        H = 0.4
        sp = SimSpec(model=HurstModel(H, 2), m=1, refine=32, seed=21)
        N = 2000
        inc = simulate_batch(sp, N).reshape(N, 2, 1, 64)
        _, l2 = levy_areas(inc)
        areas = l2[:, 0, 0, 1]
        est = np.mean(areas ** 2)
        se = np.std(areas ** 2, ddof=1) / np.sqrt(N)
        oracle = float(tilde_rho(0, H))
        assert abs(est - oracle) < 4 * se


class TestChen:
    def test_zero_length_identity(self):
        L = lift2(make_path())
        sig = L.signature()
        z = IntervalSignature.zero(sig.t, 2)
        out = chen_combine(sig, z)
        np.testing.assert_array_equal(out.level1, sig.level1)
        np.testing.assert_array_equal(out.level2, sig.level2)

    def test_recombination_matches_direct(self):
        p = make_path(d=3)
        L = lift2(p)
        sig = L.signature()
        inc_full = p.increments.reshape(3, 1, -1)
        l1, l2 = levy_areas(inc_full)
        np.testing.assert_allclose(sig.level1, l1[0], atol=1e-13)
        np.testing.assert_allclose(sig.level2, l2[0], atol=1e-13)

    def test_recombination_level3(self):
        p = make_path(d=2)
        L = lift3(p, lift2(p))
        sig = L.signature()
        l3 = level3_areas(p.increments.reshape(2, 1, -1))
        np.testing.assert_allclose(sig.level3, l3[0], atol=1e-13)

    def test_associativity(self):
        L = lift2(make_path(m=2, refine=4))
        a = L.signature(0, 1)
        b = L.signature(1, 2)
        c = L.signature(2, 4)
        left = chen_combine(chen_combine(a, b), c)
        right = chen_combine(a, chen_combine(b, c))
        np.testing.assert_allclose(left.level2, right.level2, atol=1e-14)

    def test_associativity_random_splits(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(H=st.floats(min_value=0.34, max_value=0.5),
                   d=st.integers(1, 3), m=st.integers(2, 4),
                   seed=st.integers(0, 2 ** 32 - 1), data=st.data())
        def check(H, d, m, seed, data):
            p = make_path(H=H, d=d, m=m, refine=2, seed=seed)
            L = lift3(p, lift2(p))
            cuts = sorted(data.draw(st.lists(
                st.integers(0, 2 ** m), min_size=4, max_size=4, unique=True)))
            a, b, c = (L.signature(i, j) for i, j in zip(cuts, cuts[1:]))
            left = chen_combine(chen_combine(a, b), c)
            right = chen_combine(a, chen_combine(b, c))
            whole = L.signature(cuts[0], cuts[-1])
            for level in ("level1", "level2", "level3"):
                np.testing.assert_allclose(getattr(left, level),
                                           getattr(right, level), atol=1e-13)
                np.testing.assert_allclose(getattr(left, level),
                                           getattr(whole, level), atol=1e-13)

        check()

    def test_non_abutting_rejected(self):
        L = lift2(make_path(m=2, refine=4))
        with pytest.raises(DomainError):
            chen_combine(L.signature(0, 1), L.signature(2, 3))


class TestLift3:
    def test_requires_same_path(self):
        p, q = make_path(seed=1), make_path(seed=2)
        with pytest.raises(DomainError):
            lift3(p, lift2(q))

    def test_aaa_closed_form(self):
        p = make_path(m=2, refine=64, seed=5)
        L = lift3(p, lift2(p))
        expect = L.level1[:, 0] ** 3 / 6
        np.testing.assert_allclose(L.level3[:, 0, 0, 0], expect, atol=1e-13)

    def test_aba_identity(self):
        p = make_path(m=2, refine=64, seed=6)
        L = lift3(p, lift2(p))
        B1, B2, B3 = L.level1, L.level2, L.level3
        lhs = B3[:, 0, 1, 0]
        rhs = B2[:, 0, 1] * B1[:, 0] - 2 * B3[:, 0, 0, 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_baa_identity(self):
        p = make_path(m=2, refine=256, seed=7)
        L = lift3(p, lift2(p))
        B1, B2, B3 = L.level1, L.level2, L.level3
        lhs = B3[:, 1, 0, 0]
        rhs = 0.5 * B1[:, 0] ** 2 * B1[:, 1] - B2[:, 0, 1] * B1[:, 0] + B3[:, 0, 0, 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRefinementGap:
    def test_gap_decreasing_in_n(self):
        H = 0.4
        N = 300
        sp = SimSpec(model=HurstModel(H, 2), m=2, refine=64, seed=9)
        inc = simulate_batch(sp, N).reshape(N, 2, 4, 64)
        rms = []
        for n in (4, 8, 16, 32):
            thin_n = inc.reshape(N, 2, 4, n, 64 // n).sum(axis=-1)
            thin_2n = inc.reshape(N, 2, 4, 2 * n, 32 // n).sum(axis=-1)
            _, a = levy_areas(thin_n)
            _, b = levy_areas(thin_2n)
            rms.append(np.sqrt(np.mean((a - b)[:, :, 0, 1] ** 2)))
        assert all(x > y for x, y in zip(rms, rms[1:]))

    def test_brownian_gap_exact_variance(self):
        # halving the sub-step adds an independent per-step Levy area:
        # E[(Btilde(n) - Btilde(2n))^2] = 1/(8n) on [0,1] for H = 1/2
        N = 4000
        for n in (8, 16):
            sp = SimSpec(model=HurstModel(0.5, 2), m=1, refine=n, seed=10)
            inc = simulate_batch(sp, N).reshape(N, 2, 1, 2 * n)
            _, a = levy_areas(inc.reshape(N, 2, 1, n, 2).sum(axis=-1))
            _, b = levy_areas(inc)
            gaps = (a - b)[:, 0, 0, 1]
            est = np.mean(gaps ** 2)
            se = np.std(gaps ** 2, ddof=1) / np.sqrt(N)
            assert abs(est - 1 / (8 * n)) < 4 * se


class TestBatchInvariance:
    # replica chunks of any size must give bitwise the rows of one batch,
    # whatever memory layout the chunking leaves behind
    @pytest.mark.parametrize("cells, n", [(1024, 8), (512, 4)])
    def test_rows_bitwise_equal_in_any_batching(self, cells, n):
        inc = np.random.default_rng(8).standard_normal((40, 2, cells, n))
        whole = levy_areas(inc)
        for batch in (1, 7, 32):
            parts = [levy_areas(inc[i:i + batch])
                     for i in range(0, len(inc), batch)]
            for k in range(2):
                joined = np.concatenate([p[k] for p in parts])
                assert joined.tobytes() == whole[k].tobytes()
