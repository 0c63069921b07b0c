import itertools

import numpy as np
import pytest

from fbmchaos import chaos, cli, experiments, gaussian
from fbmchaos.errors import DomainError
from fbmchaos.fbm import SimSpec, simulate_batch
from fbmchaos.gaussian import HurstModel, rho, series_constants, tilde_rho
from fbmchaos.lift import level3_areas, levy_areas
from fbmchaos.chaos import (
    K_PATTERNS,
    admissible_assignments,
    cov_K_lags,
    cov_Q_pair,
    exact_second_moment_Q,
    normalization,
    q_processes,
    rho_sum_bound_verify,
    sum_process,
    third_order_sums,
    wick_cov,
)


# Test-only oracles: the per-cell-pair view of cov_K_lags and its
# stationary sum over lags, the exhaustive Isserlis enumeration of both
# orders' cells (the oracle of chaos.wick_cov at small n), the order-3
# cells as coefficient tensors for wick_cov and the itertools enumeration
# of admissible exponent assignments.  No command needs them.


def isserlis_moment(cov_matrix, monomial):
    """E[prod_k X_{monomial[k]}] for centered jointly Gaussian X.

    Sum over perfect matchings of products of covariances; zero for odd
    degree.
    """
    idx = tuple(monomial)
    C = np.asarray(cov_matrix, dtype=float)

    def rec(ids):
        if not ids:
            return 1.0
        if len(ids) % 2:
            return 0.0
        head, rest = ids[0], ids[1:]
        total = 0.0
        for pos in range(len(rest)):
            c = C[head, rest[pos]]
            if c != 0.0:
                total += c * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(idx)


def _monomials(kind, base, n):
    """One unit cell's element as Gaussian monomials in fine increments.

    Variables are (component, global fine index); ``base`` is the cell's
    first fine index.  Component 0 plays alpha, 1 beta and 2 a third
    component that never repeats.  ``kind`` is an order-2 entry ("qhat",
    "qcheck", "qtilde") or a K pattern.  The order-2 area is geometric (the
    left-point area plus the half-product diagonal); the order-3 patterns
    use the left-point area, as their lag tables do.  Returns a list of
    (coeff, [var, ...]); qcheck carries a constant term (empty monomial).
    """
    A, B, C = ([(comp, base + k) for k in range(n)] for comp in range(3))
    area = [(1.0, [A[p], B[k]]) for k in range(n) for p in range(k)]
    if kind == "qhat":
        return [(0.5, [a, b]) for a in A for b in B]
    if kind == "qcheck":
        return [(0.5, [a, a2]) for a in A for a2 in A] + [(-0.5, [])]
    if kind == "qtilde":
        return area + [(0.5, [A[k], B[k]]) for k in range(n)]
    products = {"prod_abc": (A, B, C), "prod_aab": (A, A, B),
                "prod_aaa": (A, A, A)}
    if kind in products:
        return [(1.0, list(v)) for v in itertools.product(*products[kind])]
    if kind in ("area_cross", "area_own"):
        last = C if kind == "area_cross" else A
        return [(c, v + [x]) for c, v in area for x in last]
    if kind == "l3_aab":
        return [(0.5, [A[p], A[q], B[k]])
                for k in range(n) for p in range(k) for q in range(k)]
    if kind == "l3_abc":
        return [(1.0, [A[p], B[k], C[l]])
                for l in range(n) for k in range(l) for p in range(k)]
    # B^{aba} = X - 2Z and B^{baa} = Y/2 - X + Z, with X = B^{ab}B^a,
    # Y = (B^a)^2 B^b and Z = B^{aab}
    parts = {"l3_aba": ((1.0, "area_own"), (-2.0, "l3_aab")),
             "l3_baa": ((0.5, "prod_aab"), (-1.0, "area_own"),
                        (1.0, "l3_aab"))}
    if kind not in parts:
        raise DomainError(f"unknown kind {kind!r}")
    return [(w * c, v) for w, part in parts[kind]
            for c, v in _monomials(part, base, n)]


def _pairing_cov(H, n, lag, kind_i, kind_j):
    """E[X_i Y_j] of two unit cells at signed offset lag = j - i, by pairing.

    Each cell is expanded by ``_monomials`` into its n fine increments on the
    mesh-1/n grid spanning both cells; the three components are independent
    fBm copies.  Monomials with the same variables are merged, then the
    Isserlis moment of every cross product of the two expansions is summed.
    """
    size = n * (abs(lag) + 1)
    fine = (1.0 / n) ** (2 * H) * rho(
        np.abs(np.arange(size)[:, None] - np.arange(size)[None, :]), H
    )
    C = np.kron(np.eye(3), fine)

    def merged(kind, base):
        out = {}
        for c, v in _monomials(kind, base, n):
            key = tuple(sorted(comp * size + pos for comp, pos in v))
            out[key] = out.get(key, 0.0) + c
        return out.items()

    total = 0.0
    for vi, ci in merged(kind_i, max(0, -lag) * n):
        for vj, cj in merged(kind_j, max(0, lag) * n):
            total += ci * cj * isserlis_moment(C, vi + vj)
    return total


# the two cells of each chaos.Q_PAIRS entry, by _monomials kind
Q_KINDS = {"qhat": ("qhat", "qhat"), "qcheck": ("qcheck", "qcheck"),
           "qtilde": ("qtilde", "qtilde"), "cross": ("qhat", "qtilde"),
           "qhat_qcheck": ("qhat", "qcheck"),
           "qtilde_qcheck": ("qtilde", "qcheck")}


def k_cell(pattern, n):
    """One K pattern's unit cell as (components, coefficient tensor) over n
    sub-steps: the left-point sums that _monomials expands, as indicator
    tensors, combined as it combines them."""
    x, y, z = np.ix_(*(np.arange(n),) * 3)
    full = np.ones((n, n, n))
    area = (x < y) * full  # [p < k] on the first two slots
    aab = 0.5 * (x < z) * (y < z) * full  # l3_aab on (p, q, k)
    cells = {"prod_abc": ((0, 1, 2), full), "prod_aab": ((0, 0, 1), full),
             "prod_aaa": ((0, 0, 0), full), "area_cross": ((0, 1, 2), area),
             "area_own": ((0, 1, 0), area),
             "l3_abc": ((0, 1, 2), (x < y) * (y < z) * full),
             "l3_aab": ((0, 0, 1), aab),
             "l3_aba": ((0, 1, 0), area - 2.0 * aab.transpose(0, 2, 1)),
             "l3_baa": ((0, 0, 1), 0.5 * full - area.transpose(0, 2, 1)
                        + aab)}
    return cells[pattern]


def _cov_K_unit(H, pattern, offset, n):
    """Unit-lattice covariance of one K pattern at signed cell offset."""
    return float(cov_K_lags(H, pattern, [offset], n, symmetrized=False)[0])


def exact_cov_K(H, m, pattern, i, j, n_quad=32):
    """E[K_cell_i K_cell_j] for one order-3 pattern at dyadic level m.

    Cells are 1-indexed.  The value is the explicit discrete inner-product
    sum on an n_quad x n_quad sub-grid of each cell (patterns without
    quadrature are closed forms), scaled by (2^{-m})^{6H}.
    """
    if n_quad < 2:
        raise DomainError("n_quad must be >= 2")
    if not (1 <= i <= 2 ** m and 1 <= j <= 2 ** m):
        raise DomainError("cell indices out of range")
    scale = (2.0 ** -m) ** (6 * H)
    return scale * _cov_K_unit(H, pattern, j - i, n_quad)


def second_moment_K(H, m, pattern, s=0.0, t=1.0, n_quad=32):
    """E[(K^m_{s,t})^2] by lag-stationary summation of pair covariances."""
    i0, i1 = chaos._cell_range(m, s, t)
    count = i1 - i0
    per = cov_K_lags(H, pattern, np.arange(count), n_quad=n_quad)
    return (2.0 ** -m) ** (6 * H) * chaos._lag_weighted_sum(count, per)


def itertools_assignments(p, q, max_exponent=3):
    """admissible_assignments as one dict per itertools.product tuple,
    filtered row by row: the enumeration the array filter replaced."""
    pairs = [frozenset(c) for c in itertools.combinations(range(p), 2)]
    every = ({k: v for k, v in zip(pairs, combo) if v} for combo in
             itertools.product(range(max_exponent + 1), repeat=len(pairs)))
    return [a for a in every if all(
        sum(v for k, v in a.items() if i in k) <= q for i in range(p))]


def brute_cov_K(H, pattern, lag, n):
    """Pairing-enumeration oracle for the unit-lattice pattern covariance.

    Discretizes each unit cell into n fine increments (mesh 1/n), expands
    K_i and K_j into Gaussian monomials, and sums Isserlis moments of all
    cross products; a negative lag puts cell j before cell i.  O((n^3)^2)
    Isserlis calls of degree 6 — keep n small.
    """
    return _pairing_cov(H, n, lag, pattern, pattern)


def make_lift(H=0.4, d=2, m=4, refine=4, seed=1, with_l3=False, replica=0):
    """Per-cell (level1, level2, level3 or None) of one sampled replica."""
    spec = SimSpec(model=HurstModel(H, d), m=m, refine=refine, seed=seed,
                   replica=replica)
    cells = simulate_batch(spec, 1)[0].reshape(d, 2 ** m, refine)
    l1, l2 = levy_areas(cells)
    return l1, l2, (level3_areas(cells) if with_l3 else None)


class TestSumProcess:
    def test_values_length_checked(self):
        for cells in (np.zeros(5), np.zeros((3, 6)), np.zeros(0), 1.0):
            with pytest.raises(DomainError):
                sum_process(cells)

    def test_evaluation_uses_dyadic_floor(self):
        cells = np.arange(1.0, 5.0)
        assert sum_process(cells, 0.0) == 0.0
        assert sum_process(cells, 0.3) == 1.0  # floor(4 * 0.3) = 1
        assert sum_process(cells) == 10.0
        np.testing.assert_array_equal(sum_process(cells, [0.3, 0.8]), [1, 6])
        batch = np.stack([cells, -cells, 2 * cells])
        out = sum_process(batch, np.array([[0.3], [1.0]]))
        assert out.shape == (3, 2, 1)
        np.testing.assert_array_equal(out[:, :, 0],
                                      [[1, 10], [-1, -10], [2, 20]])

    def test_times_outside_unit_interval_refused(self):
        # no clipping: t = -0.5 is not the empty sum, t = 1.5 not the total
        cells = np.arange(1.0, 5.0)
        for t in (-0.5, 1.5, np.nan, [0.5, 1.5]):
            with pytest.raises(DomainError):
                sum_process(cells, t)

    def test_total_is_a_slice_sum(self):
        # the bits of a slice sum, which a cumsum's last entry need not keep
        cells = np.random.default_rng(3).normal(size=(5, 1024))
        np.testing.assert_array_equal(sum_process(cells), cells.sum(axis=-1))

    def test_normalization_scale(self):
        assert normalization(6, 0.4, 2) == pytest.approx(64 ** 0.3)
        assert normalization(6, 0.4, 3) == pytest.approx(64 ** 0.7)
        # the square by one power of 2^m is exact at the Brownian anchor
        assert normalization(3, 0.5, 2) ** 2 != 8.0
        assert normalization(3, 0.5, 2, power=2) == 8.0


class TestWeightedSums:
    def test_constant_weight_is_plain_sum(self):
        l1, l2, _ = make_lift(seed=3)
        cells = q_processes(l1, l2, 0.4)["qtilde"][:, 0, 1]
        total = l2[:, 0, 1].sum()
        assert sum_process(cells) == total
        assert sum_process(cells, weights=1.0) == total

    def test_weight_length_checked(self):
        l1, l2, _ = make_lift()
        cells = q_processes(l1, l2, 0.4)["qtilde"][:, 0, 1]
        for w in (np.ones(7), np.ones((2, 16))):
            with pytest.raises(DomainError):
                sum_process(cells, weights=w)

    def test_subinterval_uses_left_endpoint_weights(self):
        l1, l2, _ = make_lift(seed=4)
        w = np.arange(17.0)
        cells = q_processes(l1, l2, 0.4)["qtilde"][:, 0, 1]
        s, t = sum_process(cells, [0.25, 0.75], weights=w[:-1])
        expect = np.dot(w[4:12], l2[4:12, 0, 1])
        assert t - s == pytest.approx(expect, abs=1e-14)

    def test_batch_rows_are_single_replica_values(self):
        # the one-path API on a single replica is the N = 1 case
        H, m, n, N = 0.4, 4, 4, 3
        spec = SimSpec(model=HurstModel(H, 2), m=m, refine=n, seed=5)
        l1, l2 = levy_areas(simulate_batch(spec, N).reshape(N, 2, 2 ** m, n))
        cells = q_processes(l1, l2, H)["qtilde"][..., 0, 1]
        w = np.tanh(l1[..., 0])
        batch = sum_process(cells, [0.5, 1.0], weights=w)
        for r in range(N):
            one = sum_process(cells[r], [0.5, 1.0], weights=w[r])
            np.testing.assert_array_equal(batch[r], one)


class TestGrowthLevelsShareOnePath:
    """verify-moment --which growth takes every level from one fine path."""

    def test_level_totals_equal_the_finest(self, monkeypatch):
        # each level's cells tile [0, 1], so their level-1 total is B_1
        totals = []

        def recording(inc):
            l1, l2 = levy_areas(inc)
            totals.append(l1.sum(axis=-2))
            return l1, l2

        monkeypatch.setattr(experiments, "levy_areas", recording)
        experiments.moment_experiment(N=20, threads=1)
        assert len(totals) == 6  # one chunk, levels m = 4..9
        for total in totals[:-1]:
            np.testing.assert_allclose(total, totals[-1], rtol=0, atol=1e-13)
        assert np.abs(totals[-1]).min() > 1e-6  # not trivially zero

    def test_rows_do_not_depend_on_the_thread_count(self, tmp_path,
                                                    monkeypatch):
        pools = []

        def counted(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        pool = experiments.ThreadPoolExecutor
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", counted)
        results = set()
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            cli.main(["verify-moment", "--which", "growth", "--replicas",
                      "300", "--threads", threads, "--out", str(out)])
            results.add((out / "verify-moment.json").read_bytes())
        assert len(results) == 1
        # 2,048-point streams: every thread runs a chunk
        assert pools == [1, 2, 3]


class TestQProcesses:
    def test_algebraic_structure(self):
        Q = q_processes(*make_lift(d=3, seed=6)[:2], 0.4)
        np.testing.assert_allclose(Q["q"], -np.swapaxes(Q["q"], 1, 2),
                                   atol=1e-16)
        np.testing.assert_allclose(Q["qhat"], np.swapaxes(Q["qhat"], 1, 2),
                                   atol=1e-16)
        assert np.all(Q["qhat"][:, np.arange(3), np.arange(3)] == 0)
        assert np.all(Q["qtilde"][:, np.arange(3), np.arange(3)] == 0)

    def test_q_is_antisymmetric_part_of_level2(self):
        # shuffle identity: qhat - qtilde = (B^{ba} - B^{ab}) / 2
        l1, l2, _ = make_lift(seed=7)
        anti = 0.5 * (np.swapaxes(l2, 1, 2) - l2)
        np.testing.assert_allclose(q_processes(l1, l2, 0.4)["q"], anti,
                                   atol=1e-14)

    def test_qcheck_centering(self):
        l1, l2, _ = make_lift(H=0.45, m=5, seed=8)
        expect = 0.5 * (l1[:, 0] ** 2 - 2.0 ** (-5 * 2 * 0.45))
        np.testing.assert_allclose(q_processes(l1, l2, 0.45)["qcheck"][:, 0],
                                   expect, atol=1e-15)

    def test_q_cells_of_a_batch(self):
        # replica r of a batch has the cells of its own path's lift, bitwise,
        # and the half-product-minus-area q the sampled checks once formed
        H, m, n, N = 0.4, 3, 4, 3
        spec = SimSpec(model=HurstModel(H, 2), m=m, refine=n, seed=9)
        l1, l2 = levy_areas(simulate_batch(spec, N).reshape(N, 2, 2 ** m, n))
        Q = q_processes(l1, l2, H)
        for r in range(N):
            one = q_processes(*make_lift(H, 2, m, n, seed=9, replica=r)[:2],
                              H)
            for key in ("qhat", "qcheck", "qtilde", "q"):
                np.testing.assert_array_equal(Q[key][r], one[key], err_msg=key)
        np.testing.assert_array_equal(
            Q["q"][..., 0, 1], 0.5 * l1[..., 0] * l1[..., 1] - l2[..., 0, 1])


class TestFiniteResolutionOracles:
    def test_brownian_area_autocovariance(self):
        # piecewise-linear areas at H = 1/2: Var = 1/2 - 1/(4n), lags vanish
        for n in (2, 8, 32):
            v = cov_Q_pair(0.5, "qtilde", np.arange(3), n_sub=n)
            assert v[0] == pytest.approx(0.5 - 1 / (4 * n), abs=1e-13)
            np.testing.assert_allclose(v[1:], 0.0, atol=1e-13)

    def test_converges_to_series_value(self):
        H = 0.4
        for lag in (0, 1, 2):
            coarse = cov_Q_pair(H, "qtilde", [lag], n_sub=64)[0]
            fine = cov_Q_pair(H, "qtilde", [lag], n_sub=512)[0]
            lim = float(tilde_rho(lag, H))
            assert abs(fine - lim) < abs(coarse - lim) + 1e-12

    def test_brownian_cross_is_quarter(self):
        for n in (2, 16):
            assert cov_Q_pair(0.5, "cross", [0], n_sub=n)[0] == \
                pytest.approx(0.25, abs=1e-13)

    def test_cross_converges_to_quarter_rho_sq(self):
        H = 0.4
        v = cov_Q_pair(H, "cross", [0, 1, 2], n_sub=512)
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
        with pytest.raises(DomainError):
            third_order_sums(*make_lift())

    def test_cells_assembled_from_lift(self):
        l1, l2, l3 = make_lift(d=2, with_l3=True, seed=11)
        T = third_order_sums(l1, l2, l3)
        np.testing.assert_array_equal(T["level3"], l3)
        np.testing.assert_allclose(
            T["triple"][:, 0, 1, 1], l1[:, 0] * l1[:, 1] ** 2, atol=1e-15)
        np.testing.assert_allclose(
            T["area_inc"][:, 0, 1, 0], l2[:, 0, 1] * l1[:, 0], atol=1e-15)
        batch = third_order_sums(l1[None], l2[None], l3[None])
        for key in ("level3", "area_inc", "triple"):
            np.testing.assert_array_equal(batch[key][0], T[key])

    def test_process_normalization(self):
        # order-3 sums scale by (2^m)^{3H - 1/2}: the normalized exact second
        # moment is flat in m (by (2^m)^{2H - 1/2} it falls 3x per 2 levels)
        H = 0.4
        for pattern in ("prod_abc", "l3_abc"):
            vals = [second_moment_K(H, m, pattern, n_quad=8)
                    * normalization(m, H, 3, power=2) for m in range(4, 11)]
            assert max(vals) / min(vals) - 1.0 < 1e-3, pattern


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

    def test_zero_cell_range(self):
        # s == t leaves no cells: every sum is empty
        for a in ({frozenset({0, 1}): 1}, {}):
            rep = rho_sum_bound_verify(3, 2, a, [3], s=0.5, t=0.5)
            assert rep["pass"]
            assert rep["rows"][0]["count"] == 0
            assert rep["rows"][0]["lhs"] == 0.0

    def test_p_above_four_refused(self):
        for a in ({}, {frozenset({0, 4}): 1}):
            with pytest.raises(DomainError):
                rho_sum_bound_verify(5, 3, a, [2])

    def test_repeated_call_is_bitwise_equal(self):
        # the second pass reads the cached powers and class sums
        for H in (0.4, 0.45):
            for p, q in [(3, 1), (3, 3), (4, 2)]:
                for a in admissible_assignments(p, q, max_exponent=q):
                    first = rho_sum_bound_verify(p, q, a, [2, 4], H=H)
                    assert rho_sum_bound_verify(p, q, a, [2, 4], H=H) == first
        assert chaos._seq_power.cache_info().hits > 0
        assert chaos._class_sum.cache_info().hits > 0

    def test_assignments_match_the_itertools_enumeration(self):
        # the same dicts in the same order, with Python int exponents
        for p in range(1, 5):
            for q in range(1, 4):
                for top in range(4):
                    got = admissible_assignments(p, q, max_exponent=top)
                    assert got == itertools_assignments(p, q, top), (p, q, top)
                    assert all(type(v) is int for a in got for v in a.values())

    def test_vertex_permutations_give_bitwise_equal_rows(self):
        for a in admissible_assignments(4, 3):
            want = rho_sum_bound_verify(4, 3, a, [1, 2, 3])["rows"]
            for perm in itertools.permutations(range(4)):
                moved = {frozenset(perm[i] for i in k): v
                         for k, v in a.items()}
                assert rho_sum_bound_verify(4, 3, moved, [1, 2, 3])[
                    "rows"] == want, (a, perm)

    def test_brute_force_agreement(self):
        # every assignment of the rho-sum command against the literal
        # nested sum over all count^p index tuples, at 4 cells (m = 2) and
        # at the 3 cells 2..4 of [0.25, 0.625] (m = 3)
        H = 0.4
        total = 1.0 + 2.0 * chaos.rho_tail_bound(0, H)
        classes = set()
        for p in (2, 3, 4):
            for q in (1, 2, 3):
                for a in admissible_assignments(p, q, max_exponent=q):
                    classes.add(_pair_graph_class(a))
                    for m, s, t, cells in ((2, 0.0, 1.0, 4),
                                           (3, 0.25, 0.625, 3)):
                        k = np.indices((cells,) * p).reshape(p, -1)
                        terms = np.ones(k.shape[1])
                        for key, e in a.items():
                            i, j = sorted(key)
                            terms *= (np.abs(rho(np.abs(k[i] - k[j]), H))
                                      / total) ** e
                        row = rho_sum_bound_verify(p, q, a, [m], s, t,
                                                   H)["rows"][0]
                        assert row["count"] == cells
                        assert row["lhs"] == pytest.approx(
                            terms.sum(), rel=1e-12, abs=0), (p, q, a, cells)
        # 25 graphs and the empty one, among them K4 (p = 4, q = 3) and
        # single pairs, which at p = 3 and 4 leave isolated vertices
        assert len(classes) == 26
        assert _pair_graph_class(
            {frozenset(k): 1 for k in itertools.combinations(range(4), 2)}
        ) in classes
        assert _pair_graph_class({frozenset({0, 1}): 1}) in classes


def _pair_graph_class(a):
    """An assignment up to relabelling (isolated vertices dropped): the
    least sorted edge list over the permutations of four labels."""
    return min(tuple(sorted((min(perm[i] for i in k), max(perm[i] for i in k),
                             v) for k, v in a.items()))
               for perm in itertools.permutations(range(4)))


class TestCovQPairs:
    def test_brute_agreement(self):
        from fbmchaos.chaos import Q_PAIRS, cov_Q_pair

        n = 4
        for H in (0.4, 0.5):
            for which in Q_PAIRS:
                for lag in (0, 1, 2):
                    hand = cov_Q_pair(H, which, lag, n_sub=n)
                    brute = _pairing_cov(H, n, lag, *Q_KINDS[which])
                    assert hand == pytest.approx(brute, abs=1e-13), (
                        H, which, lag)

    def test_odd_component_pairs_vanish(self):
        from fbmchaos.chaos import cov_Q_pair

        # products of odd and even Hermite components are uncorrelated
        for which in ("qhat_qcheck", "qtilde_qcheck"):
            for lag in (0, 3):
                assert cov_Q_pair(0.4, which, lag, n_sub=3) == 0.0

    @pytest.mark.parametrize("n_sub", [None, 4])
    def test_lag_arrays_keep_their_shape(self, n_sub):
        lags = np.array([[0, -1, 2], [3, 4, -5]])
        for which in chaos.Q_PAIRS:
            np.testing.assert_array_equal(
                cov_Q_pair(0.4, which, lags, n_sub),
                cov_Q_pair(0.4, which, lags.ravel(), n_sub).reshape(2, 3))

    def test_lag_symmetry(self):
        from fbmchaos.chaos import Q_PAIRS, cov_Q_pair

        # stationary family: covariances depend on |lag| only
        for which in Q_PAIRS:
            assert cov_Q_pair(0.4, which, -2, n_sub=4) == pytest.approx(
                cov_Q_pair(0.4, which, 2, n_sub=4), abs=1e-15)


class TestWickContraction:
    # chaos.wick_cov against the exhaustive enumeration, the hand-derived
    # lag tables and the lift, each set within 1e-12 of its largest value

    @staticmethod
    def _close(got, want):
        err = np.max(np.abs(np.asarray(got) - np.asarray(want)))
        assert err <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_isserlis_enumeration(self, n):
        # pairs of two kinds are not even in the lag, so they fix its sign
        lags = np.arange(-2, 3)
        pairs = [(chaos.q_pair_cells(which, n), Q_KINDS[which])
                 for which in chaos.Q_PAIRS]
        for kinds in [(pattern,) * 2 for pattern in K_PATTERNS] + [
                ("area_own", "l3_aab"), ("prod_aab", "l3_baa"),
                ("l3_aba", "l3_baa"), ("area_cross", "l3_abc")]:
            pairs.append(([k_cell(kind, n) for kind in kinds], kinds))
        for cells, kinds in pairs:
            self._close(wick_cov(0.4, n, lags, *cells),
                        [_pairing_cov(0.4, n, lag, *kinds) for lag in lags])

    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_order2_tables(self, n):
        lags = np.arange(64)
        for H in (0.35, 0.4, 0.5):
            for which in chaos.Q_PAIRS:
                self._close(
                    wick_cov(H, n, lags, *chaos.q_pair_cells(which, n)),
                    chaos.cov_Q_pair(H, which, lags, n_sub=n))

    def test_matches_order3_tables(self):
        n, lags = 8, np.array([0, 1, 2, 5, 33, 511])
        for pattern in K_PATTERNS:
            for signed in (lags, -lags):
                self._close(
                    wick_cov(0.4, n, signed, *(k_cell(pattern, n),) * 2),
                    cov_K_lags(0.4, pattern, signed, n, symmetrized=False))

    def test_integer_lag_and_unknown_pair(self):
        cells = chaos.q_pair_cells("qtilde", 4)
        assert isinstance(wick_cov(0.4, 4, 3, *cells), float)
        assert wick_cov(0.4, 4, [3], *cells).shape == (1,)
        with pytest.raises(DomainError):
            chaos.q_pair_cells("qbar", 4)

    def test_area_kernel_is_the_lift(self):
        # dA^T M dB is levy_areas' level-2 value, both orders of (a, b)
        n = 6
        inc = np.random.default_rng(6).normal(size=(50, 2, 1, n))
        _, level2 = levy_areas(inc)
        M = chaos._area_kernel(n)
        for a, b in ((0, 1), (1, 0)):
            got = np.einsum("rk,kl,rl->r", inc[:, a, 0], M, inc[:, b, 0])
            np.testing.assert_allclose(got, level2[:, 0, a, b],
                                       rtol=0, atol=1e-13)


class TestOrder2LagTable:
    @pytest.mark.parametrize("n_sub", [None, 4])
    def test_second_moment_is_the_sum_over_cell_pairs(self, n_sub):
        H, m = 0.4, 3
        cells = range(1, 2 ** m + 1)

        def double_sum(which):
            return sum((2.0 ** -m) ** (4 * H)
                       * cov_Q_pair(H, which, j - i, n_sub=n_sub)
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

    @pytest.mark.parametrize("n", [4, 8, 24])
    @pytest.mark.parametrize("symmetrized", [True, False])
    def test_pattern_tuple_is_the_stack_of_single_calls(self, n, symmetrized):
        # one sweep for all patterns gives every table bit for bit; at
        # n = 24 the 104-lag chunks split these lags in two
        H, lags = 0.4, np.arange(-3, 120)
        for patterns in (K_PATTERNS, ("l3_baa", "prod_aab", "area_own")):
            stacked = cov_K_lags(H, patterns, lags, n, symmetrized=symmetrized)
            np.testing.assert_array_equal(stacked, np.stack([
                cov_K_lags(H, pattern, lags, n, symmetrized=symmetrized)
                for pattern in patterns]))

    def test_unknown_or_no_pattern_refused(self):
        for pattern in ("septic", ("area_own", "septic"), ()):
            with pytest.raises(DomainError):
                cov_K_lags(0.4, pattern, [0, 1], 4)

    @staticmethod
    def count_sweeps(monkeypatch):
        sweeps = []

        def counted(*args):
            sweeps.append(args)
            return lag_tables(*args)

        lag_tables = chaos._lag_tables
        monkeypatch.setattr(chaos, "_lag_tables", counted)
        return sweeps

    def test_scaling_sweeps_the_lag_tables_once(self, tmp_path, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        assert cli.main(["verify-third-order", "--which", "scaling",
                         "--out", str(tmp_path)]) == 0
        assert len(sweeps) == 1

    def test_q_second_moment_sweeps_the_lag_tables_once(self, monkeypatch):
        # qtilde and cross are two patterns of one sweep
        sweeps = self.count_sweeps(monkeypatch)
        exact_second_moment_Q(0.4, 6, "q", n_sub=8)
        assert len(sweeps) == 1

    @pytest.mark.parametrize("which", ["qtilde", "cross"])
    def test_order2_chunking_is_bitwise_invisible(self, which):
        lags = np.abs(self.lags())
        half = len(lags) // 2

        def fn(lags):
            return cov_Q_pair(0.4, which, lags, n_sub=self.n)

        np.testing.assert_array_equal(
            fn(lags), np.concatenate([fn(lags[:half]), fn(lags[half:])]))
