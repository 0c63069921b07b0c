import itertools
import json
import pathlib

import numpy as np
import pytest

from fbmchaos import young
from fbmchaos.errors import CapacityError, ConsistencyError, DomainError
from fbmchaos.gaussian import cov_rect
from fbmchaos.young import (
    Vp,
    bar_Vp,
    controlled_pvar,
    discrete_young_integral,
    iterated_A,
    iterated_A_bound,
    product_pvar_check,
    psi_path,
    tilde_Vp,
    towghi_check,
    towghi_fuzz_report,
)

DATA = pathlib.Path(__file__).parent / "data"


def rect_increment(f, box, fixed=None):
    """Alternating-corner sum of f over an index box, other axes pinned (a
    test oracle for the variation engine's increment table).

    ``box`` maps axis -> (i0, i1) breakpoint index interval; ``fixed`` maps
    axis -> breakpoint index.  The two maps must cover all axes exactly.
    """
    fixed = fixed or {}
    N = f.ndim
    if sorted(list(box) + list(fixed)) != list(range(N)):
        raise DomainError("box and fixed axes must partition the axis set")
    shape = f.shape
    idx = [None] * N
    for ax, i in fixed.items():
        if not 0 <= i < shape[ax]:
            raise DomainError("fixed index out of range")
        idx[ax] = np.array([i])
    for ax, (i0, i1) in box.items():
        if not 0 <= i0 < i1 < shape[ax]:
            raise DomainError("box indices out of range")
        idx[ax] = np.array([i0, i1])
    sub = f[np.ix_(*idx)]
    for ax in sorted(box):
        sub = np.diff(sub, axis=ax)
    return float(sub.reshape(()))


def random_grid_function(rng, points=4, N=2):
    """Normal values at the points of an N-axis grid, points per axis."""
    return rng.normal(size=(points,) * N)


def vp_oracle(f, p):
    """Exact V_p by enumerating every sub-partition (endpoints kept)."""
    best = 0.0
    for keep in itertools.product(*[
        [(0, *c, n - 1) for r in range(n - 1)
         for c in itertools.combinations(range(1, n - 1), r)]
        for n in f.shape
    ]):
        sub = f[np.ix_(*keep)]
        for ax in range(sub.ndim):
            sub = np.diff(sub, axis=ax)
        best = max(best, float(np.sum(np.abs(sub) ** p)))
    return best ** (1.0 / p)


def pvar_oracle_2d(f, p):
    """Exact 2-D controlled p-variation: every tiling, scored rectangle by
    rectangle through rect_increment."""
    n1, n2 = f.shape
    return max(
        sum(abs(rect_increment(f, {0: rows, 1: cols})) ** p
            for rows, cols in tiling)
        for tiling in young._tilings_2d(n1 - 1, n2 - 1)
    ) ** (1.0 / p)


class TestGrid:
    # every public function reads its grid values through one check
    def test_zero_dim_refused(self):
        for norm in (tilde_Vp, Vp, controlled_pvar, bar_Vp):
            with pytest.raises(DomainError, match="at least 2 breakpoints"):
                norm(1.0, 2.0)
        with pytest.raises(DomainError, match="at least 2 breakpoints"):
            discrete_young_integral(1.0, 1.0)

    def test_one_point_axis_refused(self):
        for f in (np.zeros(1), np.zeros((3, 1)), np.zeros((0, 3))):
            for norm in (tilde_Vp, Vp, controlled_pvar, bar_Vp):
                with pytest.raises(DomainError,
                                   match="at least 2 breakpoints"):
                    norm(f, 2.0)
        with pytest.raises(DomainError, match="at least 2 breakpoints"):
            product_pvar_check(np.zeros(3), np.zeros(1), 2.0)

    @pytest.mark.parametrize("p", [0.5, float("nan")])
    def test_p_below_one_or_nan_refused(self, p):
        f = np.zeros((3, 3))
        for norm in (tilde_Vp, Vp, controlled_pvar, bar_Vp):
            with pytest.raises(DomainError, match="p must be >= 1"):
                norm(f, p)


class TestRectIncrement:
    def test_one_dimensional_difference(self):
        f = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        assert rect_increment(f, {0: (1, 3)}) == pytest.approx(5.0)

    def test_product_factorizes(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        f = np.outer(a, b)
        v = rect_increment(f, {0: (0, 2), 1: (1, 3)})
        assert v == pytest.approx((a[2] - a[0]) * (b[3] - b[1]))

    def test_additive_over_abutting_boxes(self):
        rng = np.random.default_rng(1)
        f = random_grid_function(rng)
        whole = rect_increment(f, {0: (0, 3), 1: (0, 3)})
        parts = sum(
            rect_increment(f, {0: (i, i + 1), 1: (j, j + 1)})
            for i in range(3)
            for j in range(3)
        )
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_fixed_axes(self):
        rng = np.random.default_rng(2)
        f = random_grid_function(rng)
        v = rect_increment(f, {1: (0, 2)}, fixed={0: 1})
        assert v == pytest.approx(f[1, 2] - f[1, 0])

    def test_bad_axes_rejected(self):
        rng = np.random.default_rng(3)
        f = random_grid_function(rng)
        with pytest.raises(DomainError):
            rect_increment(f, {0: (0, 1)})
        with pytest.raises(DomainError):
            rect_increment(f, {0: (0, 9), 1: (0, 1)})


class TestVariationFunctionals:
    def test_monotone_1d_vp_is_one(self):
        f = np.array([0.0, 0.1, 0.4, 0.8, 1.0])
        for p in (1.0, 2.0, 3.5):
            assert float(Vp(f, p)) == pytest.approx(1.0)

    def test_brownian_covariance_v1_is_one(self):
        # exhaustive sub-partition enumeration of min(s,t) on uniform grids
        for n in (3, 4, 5, 6):
            s = np.linspace(0.0, 1.0, n)
            v = Vp(np.minimum.outer(s, s), 1.0)
            assert float(v) == pytest.approx(1.0, abs=1e-12)

    def test_vp_at_least_tilde(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_grid_function(rng)
            p = rng.uniform(1, 3)
            assert float(Vp(f, p)) >= tilde_Vp(f, p) - 1e-12

    def test_monotonicity_in_p(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_grid_function(rng)
            assert float(Vp(f, 2.5)) <= float(Vp(f, 1.5)) + 1e-12

    def test_capacity_gate(self):
        with pytest.raises(CapacityError):
            Vp(np.zeros((13, 13)), 2.0)

    def test_bar_vp_dominates_vp(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_grid_function(rng)
            assert float(bar_Vp(f, 2.0)) >= float(Vp(f, 2.0)) - 1e-12

    def test_bar_vp_1d_closed_form(self):
        f = np.array([0.5, 1.0, -1.0, 2.0])
        assert float(bar_Vp(f, 2.0)) == pytest.approx(float(Vp(f, 2.0)) + 0.5)

    def test_bar_vp_zero(self):
        assert float(bar_Vp(np.zeros((4, 4)), 1.5)) == 0.0


class TestControlledPvar:
    def test_1d_equals_vp(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=5)
        assert float(controlled_pvar(f, 1.7)) == pytest.approx(vp_oracle(f, 1.7))

    def test_1d_recurrence_matches_subpartition_enumeration(self):
        # in 1-D every dissection is a sub-partition, so the sub-partition
        # enumerator vp_oracle is an independent oracle for the recurrence
        rng = np.random.default_rng(11)
        for _ in range(40):
            points = int(rng.integers(2, 13))
            p = float(rng.uniform(1, 4))
            f = rng.normal(size=points)
            got = controlled_pvar(f, p)
            assert float(got) == pytest.approx(vp_oracle(f, p), rel=1e-13)

    def test_1d_monotone_64_points(self):
        # a monotone function has p-variation |f(1) - f(0)| for p >= 1; the
        # 2^62 dissections are out of reach of any enumeration
        import time

        values = np.cumsum(np.random.default_rng(12).uniform(0, 1, 64))
        for norm in (controlled_pvar, Vp):
            start = time.perf_counter()
            got = float(norm(values, 2.3))
            assert time.perf_counter() - start < 0.5
            assert got == pytest.approx(values[-1] - values[0], rel=1e-12)

    def test_friz_victoir_sandwich_fuzz(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = random_grid_function(rng)
            p = rng.uniform(1, 3)
            assert tilde_Vp(f, p) <= float(Vp(f, p)) + 1e-12
            assert float(Vp(f, p)) <= float(controlled_pvar(f, p)) + 1e-12

    def test_two_piece_superadditivity(self):
        # ||f||^p over the whole box dominates the sum over a vertical split
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = random_grid_function(rng, points=3)
            p = rng.uniform(1, 2.5)
            whole = float(controlled_pvar(f, p)) ** p
            parts = 0.0
            for cols in ((0, 1), (1, 2)):
                sub = f[:, np.asarray(cols)]
                parts += float(controlled_pvar(sub, p)) ** p
            assert parts <= whole + 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            controlled_pvar(np.zeros((5, 5)), 2.0)


class TestExactEngineAgainstEnumeration:
    def test_vp_matches_subpartition_enumeration(self):
        rng = np.random.default_rng(30)
        shapes = [(int(rng.integers(2, 13)),) for _ in range(40)]
        shapes += [tuple(rng.integers(2, 6, size=2)) for _ in range(40)]
        for shape in shapes:
            f = rng.normal(size=shape)
            p = float(rng.uniform(1, 4))
            assert Vp(f, p) == pytest.approx(vp_oracle(f, p), rel=1e-13)

    def test_controlled_pvar_matches_tiling_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            f = rng.normal(size=tuple(rng.integers(2, 5, size=2)))
            p = float(rng.uniform(1, 4))
            assert controlled_pvar(f, p) == pytest.approx(
                pvar_oracle_2d(f, p), rel=1e-13)

    def test_tiling_counts(self):
        # rectangle tilings of an a x b cell grid (OEIS A116694), so the
        # tiling enumerator behind both the engine and the oracle misses none
        counts = {(1, 1): 1, (1, 2): 2, (1, 3): 4, (2, 2): 8, (2, 3): 34,
                  (3, 2): 34, (3, 3): 322}
        for (a, b), count in counts.items():
            assert len(list(young._tilings_2d(a, b))) == count

    def test_random_grids(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # tenths in [-10, 10]: ties and zero increments, but no subnormals
        values = st.integers(-100, 100).map(lambda k: k / 10)

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(shape=st.lists(st.integers(2, 4), min_size=1, max_size=2),
                   p=st.floats(min_value=1, max_value=4), data=st.data())
        def check(shape, p, data):
            f = np.array(data.draw(st.lists(
                values, min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape))))).reshape(shape)
            assert Vp(f, p) == pytest.approx(vp_oracle(f, p), rel=1e-13)
            if len(shape) == 2:
                assert controlled_pvar(f, p) == pytest.approx(
                    pvar_oracle_2d(f, p), rel=1e-13)

        check()


class TestYoungIntegral:
    def test_constant_integrand_telescopes(self):
        rng = np.random.default_rng(11)
        g = random_grid_function(rng)
        v = discrete_young_integral(np.ones(g.shape), g)
        assert v == pytest.approx(rect_increment(g, {0: (0, 3), 1: (0, 3)}), abs=1e-12)

    def test_zero_integrand(self):
        rng = np.random.default_rng(12)
        g = random_grid_function(rng)
        assert discrete_young_integral(np.zeros(g.shape), g) == 0.0

    def test_refinement_limit_quarter(self):
        errs = []
        for n in (16, 64, 256):
            s = np.linspace(0.0, 1.0, n + 1)
            f = np.outer(s, s)
            errs.append(abs(discrete_young_integral(f, f) - 0.25))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3

    def test_separable_integrator_factorizes(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=5), rng.normal(size=5)
        f2 = np.outer(a, b)
        prod = discrete_young_integral(a, a) * discrete_young_integral(b, b)
        assert discrete_young_integral(f2, f2) == pytest.approx(prod, abs=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(14)
        f = random_grid_function(rng)
        for g in (rng.normal(size=(4, 3)), rng.normal(size=4)):
            with pytest.raises(DomainError, match="same grid shape"):
                discrete_young_integral(f, g)


class TestTowghi:
    def test_needs_young_exponents(self):
        rng = np.random.default_rng(15)
        f = random_grid_function(rng)
        with pytest.raises(DomainError):
            towghi_check(f, f, 2.0, 2.0)

    def test_zero_integrator_note(self):
        z = np.zeros((3, 3))
        rep = towghi_check(z, z, 1.9, 1.9)
        assert rep["finite"] and rep["bound_kind"] == "degenerate"

    def test_sharp_bound_for_vanishing_f(self):
        rng = np.random.default_rng(16)
        f = random_grid_function(rng)
        f[0, :] = 0.0
        f[:, 0] = 0.0
        rep = towghi_check(f, rng.normal(size=(4, 4)), 1.9, 1.9)
        # sharp-variant norm never exceeds the face-augmented one
        assert rep["bound_kind"] == "V_p"

    def test_golden_ratio_regression(self):
        golden = json.loads((DATA / "towghi_golden.json").read_text())
        rep = towghi_fuzz_report(
            seed=golden["seed"],
            cases=golden["cases"],
            points=golden["points"],
            p=golden["p"],
            q=golden["q"],
        )
        assert rep["max_ratio"] == pytest.approx(golden["max_ratio"], rel=1e-12)

    def test_fuzz_refuses_non_finite_ratio(self, monkeypatch):
        # a zero norm bound under a nonzero integral is a typed error, not an
        # assert that -O would strip
        monkeypatch.setattr(young, "towghi_check", lambda f, g, p, q: {
            "integral": 1.0, "ratio": 0.0, "finite": False})
        with pytest.raises(ConsistencyError):
            towghi_fuzz_report(seed=1, cases=1)


class TestComposeAndIteratedA:
    def test_single_level_telescoping(self):
        H, grid = 0.45, np.linspace(0, 1, 33)
        s, t = 0.25, 0.625
        vals = iterated_A([np.ones_like(grid)], [psi_path(s, t, H, grid)])
        assert vals[-1] == pytest.approx(cov_rect(((s, t), (0.0, 1.0)), H))

    def test_zero_integrand(self):
        grid = np.linspace(0, 1, 17)
        vals = iterated_A(
            [np.zeros_like(grid), np.ones_like(grid)],
            [psi_path(0, 1, 0.4, grid)] * 2,
        )
        assert np.all(vals == 0.0)

    def test_factors_of_other_lengths_are_refused(self):
        grid = np.linspace(0, 1, 9)
        with pytest.raises(DomainError, match="common grid"):
            iterated_A([np.ones(9), np.ones(8)], [grid, grid])
        with pytest.raises(DomainError, match="non-empty"):
            iterated_A([], [])

    def test_bound_fuzz(self):
        H = 0.4
        grid = np.linspace(0, 1, 65)
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = int(rng.integers(1, 4))
            a_list, h_list, boxes = [], [], []
            for _ in range(r):
                s, t = np.sort(rng.uniform(0, 1, 2))
                a_list.append(rng.uniform(-2, 2) * np.cos(rng.uniform(0, 7) * grid))
                h_list.append(psi_path(s, t, H, grid))
                boxes.append((s, t))
            vals = iterated_A(a_list, h_list)
            assert np.max(np.abs(vals)) <= iterated_A_bound(a_list, boxes, H)


class TestProductAndZeta:
    def test_disjoint_product_rule(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            f = random_grid_function(rng, N=1)
            g = random_grid_function(rng, N=1)
            rep = product_pvar_check(f, g, rng.uniform(1, 2.5))
            assert rep["pass"]

    def test_one_factor_constant(self):
        rng = np.random.default_rng(21)
        f = random_grid_function(rng, N=1)
        rep = product_pvar_check(f, np.ones(3), 2.0)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
