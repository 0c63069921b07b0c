import tracemalloc

import numpy as np
import pytest

from fbmchaos.fbm import SimSpec, simulate_batch
from fbmchaos.gaussian import HurstModel, tilde_rho
from fbmchaos.lift import chen_fold, level3_areas, levy_areas


def make_cells(H=0.4, d=2, m=3, refine=16, seed=1, replica=0):
    """Sub-step increments (d, cells, refine) of one sampled replica."""
    sp = SimSpec(model=HurstModel(H, d), m=m, refine=refine, seed=seed,
                 replica=replica)
    return simulate_batch(sp, 1)[0].reshape(d, 2 ** m, refine)


def lift_of(cells, with_l3=False):
    """Per-cell (level1, level2, level3 or None) of sub-step increments."""
    l1, l2 = levy_areas(cells)
    return l1, l2, (level3_areas(cells) if with_l3 else None)


def fold_range(levels, i, j):
    """chen_fold of cells i..j-1 of per-cell levels (level3 may be None)."""
    return chen_fold(*(None if x is None else x[i:j] for x in levels))


def join(*folds):
    """chen_fold of already folded intervals, taken as consecutive cells."""
    return chen_fold(*(None if parts[0] is None else np.stack(parts)
                       for parts in zip(*folds)))


class TestLift2:
    def test_single_substep(self):
        # with one sub-step only the geometric half-product survives
        l1, l2 = levy_areas(make_cells(refine=1))
        expect = 0.5 * np.einsum("ca,cb->cab", l1, l1)
        np.testing.assert_allclose(l2, expect, atol=1e-15)

    def test_shuffle_identity(self):
        l1, l2 = levy_areas(make_cells(d=3))
        lhs = l2 + np.swapaxes(l2, -1, -2)
        rhs = np.einsum("ca,cb->cab", l1, l1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_shuffle_identity_random(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(H=st.floats(min_value=0.34, max_value=0.5),
                   d=st.integers(1, 4), m=st.integers(1, 4),
                   refine=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
        def check(H, d, m, refine, seed):
            l1, l2 = levy_areas(make_cells(H=H, d=d, m=m, refine=refine,
                                           seed=seed))
            s1, s2, _ = chen_fold(l1, l2)
            for a, b in ((l1, l2), (s1, s2)):
                np.testing.assert_allclose(
                    b + np.swapaxes(b, -1, -2),
                    np.einsum("...a,...b->...ab", a, a), atol=1e-13)

        check()

    def test_diagonal_rule(self):
        l1, l2 = levy_areas(make_cells())
        s1, s2, _ = chen_fold(l1, l2)
        for a in range(2):
            np.testing.assert_array_equal(l2[:, a, a], 0.5 * l1[:, a] ** 2)
            assert s2[a, a] == pytest.approx(0.5 * s1[a] ** 2, abs=1e-14)

    def test_level1_consistency(self):
        cells = make_cells()
        l1, _ = levy_areas(cells)
        np.testing.assert_allclose(l1, cells.sum(axis=2).T, atol=1e-14)

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
        levels = lift_of(make_cells(), with_l3=True)
        whole = fold_range(levels, 0, 8)
        empty = fold_range(levels, 0, 0)
        for k, shape in enumerate([(2,), (2, 2), (2, 2, 2)]):
            assert empty[k].shape == shape
            assert not empty[k].any()
        for out in (join(whole, empty), join(empty, whole)):
            for k in range(3):
                np.testing.assert_array_equal(out[k], whole[k])

    def test_recombination_matches_direct(self):
        cells = make_cells(d=3)
        s1, s2, _ = chen_fold(*levy_areas(cells))
        l1, l2 = levy_areas(cells.reshape(3, 1, -1))
        np.testing.assert_allclose(s1, l1[0], atol=1e-13)
        np.testing.assert_allclose(s2, l2[0], atol=1e-13)

    def test_recombination_level3(self):
        cells = make_cells(d=2)
        sig = chen_fold(*lift_of(cells, with_l3=True))
        l3 = level3_areas(cells.reshape(2, 1, -1))
        np.testing.assert_allclose(sig[2], l3[0], atol=1e-13)

    def test_associativity(self):
        levels = lift_of(make_cells(m=2, refine=4))
        a, b, c = (fold_range(levels, i, j) for i, j in ((0, 1), (1, 2),
                                                          (2, 4)))
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        np.testing.assert_allclose(left[1], right[1], atol=1e-14)
        np.testing.assert_allclose(left[1], fold_range(levels, 0, 4)[1],
                                   atol=1e-14)

    def test_associativity_random_splits(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(H=st.floats(min_value=0.34, max_value=0.5),
                   d=st.integers(1, 3), m=st.integers(2, 4),
                   seed=st.integers(0, 2 ** 32 - 1), data=st.data())
        def check(H, d, m, seed, data):
            levels = lift_of(make_cells(H=H, d=d, m=m, refine=2, seed=seed),
                             with_l3=True)
            cuts = sorted(data.draw(st.lists(
                st.integers(0, 2 ** m), min_size=4, max_size=4, unique=True)))
            a, b, c = (fold_range(levels, i, j)
                       for i, j in zip(cuts, cuts[1:]))
            left = join(join(a, b), c)
            right = join(a, join(b, c))
            whole = fold_range(levels, cuts[0], cuts[-1])
            for k in range(3):
                np.testing.assert_allclose(left[k], right[k], atol=1e-13)
                np.testing.assert_allclose(left[k], whole[k], atol=1e-13)

        check()

    def test_batch_rows_are_single_replica_folds(self):
        # the fold broadcasts over leading replica axes, row by row bitwise
        sp = SimSpec(model=HurstModel(0.4, 2), m=3, refine=4, seed=3)
        cells = simulate_batch(sp, 3).reshape(3, 2, 8, 4)
        batch = chen_fold(*lift_of(cells, with_l3=True))
        for r in range(3):
            one = chen_fold(*lift_of(cells[r], with_l3=True))
            for k in range(3):
                assert batch[k][r].tobytes() == one[k].tobytes()


class TestLift3:
    def test_aaa_closed_form(self):
        l1, _, l3 = lift_of(make_cells(m=2, refine=64, seed=5), with_l3=True)
        np.testing.assert_allclose(l3[:, 0, 0, 0], l1[:, 0] ** 3 / 6,
                                   atol=1e-13)

    def test_aba_identity(self):
        B1, B2, B3 = lift_of(make_cells(m=2, refine=64, seed=6), with_l3=True)
        lhs = B3[:, 0, 1, 0]
        rhs = B2[:, 0, 1] * B1[:, 0] - 2 * B3[:, 0, 0, 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_baa_identity(self):
        B1, B2, B3 = lift_of(make_cells(m=2, refine=256, seed=7),
                             with_l3=True)
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
    @pytest.mark.parametrize("cells, n", [(1024, 8), (512, 4), (1, 64)])
    def test_rows_bitwise_equal_in_any_batching(self, cells, n):
        inc = np.random.default_rng(8).standard_normal((40, 2, cells, n))
        whole = levy_areas(inc)
        for batch in (1, 7, 32):
            parts = [levy_areas(inc[i:i + batch])
                     for i in range(0, len(inc), batch)]
            for k in range(2):
                joined = np.concatenate([p[k] for p in parts])
                assert joined.tobytes() == whole[k].tobytes()

    def test_cells_as_replicas_give_the_same_bits(self):
        # 64 cells of 64 sub-steps in one replica, and the same cells as 64
        # one-cell replicas, which leave a different memory layout
        inc = np.random.default_rng(9).standard_normal((2, 64, 64))
        many = levy_areas(inc)
        few = levy_areas(np.moveaxis(inc, 1, 0)[:, :, None, :])
        for k in range(2):
            assert few[k][:, 0].tobytes() == many[k].tobytes()

    @pytest.mark.parametrize("shape, factor", [
        # 64 components in one cell of 512 sub-steps: the running level 2
        # is d times smaller than the increments
        pytest.param((64, 1, 512), 8, id="d64"),
        # the levy-area command's chunk of 250 one-cell replicas of 64
        # sub-steps: no temporary as large as all sub-steps' products
        pytest.param((250, 2, 1, 64), 2, id="levy-area-chunk"),
    ])
    def test_peak_memory_stays_within_a_multiple_of_the_increments(
            self, shape, factor):
        inc = np.random.default_rng(10).standard_normal(shape)
        tracemalloc.start()
        try:
            levy_areas(inc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < factor * inc.nbytes
