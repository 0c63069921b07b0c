import numpy as np
import pytest

from fbmchaos.errors import DivergenceError
from fbmchaos.fbm import SimSpec, simulate, simulate_batch
from fbmchaos.gaussian import HurstModel
from fbmchaos.lift import level3_areas, levy_areas, lift2, lift3
from fbmchaos.rde import (
    CoefficientField,
    linear_1d,
    solve,
    taylor_steps,
)


def make_lift(H=0.4, d=1, m=5, seed=1, with_l3=True):
    p = simulate(SimSpec(model=HurstModel(H, d), m=m, refine=1, seed=seed))
    L = lift2(p)
    return p, (lift3(p, L) if with_l3 else L)


class TestLinearExample:
    def test_matches_closed_form_update(self):
        p, L = make_lift(seed=2)
        sol = solve(L, linear_1d(), np.array([1.0]))
        x = p.increments[0]
        expect = np.cumprod(1 + x + x ** 2 / 2 + x ** 3 / 6)
        np.testing.assert_allclose(sol.Y[1:, 0], expect, rtol=1e-12)

    def test_second_order_without_level3(self):
        p, L = make_lift(seed=2, with_l3=False)
        sol = solve(L, linear_1d(), np.array([1.0]))
        x = p.increments[0]
        expect = np.cumprod(1 + x + x ** 2 / 2)
        np.testing.assert_allclose(sol.Y[1:, 0], expect, rtol=1e-12)

    def test_jacobian_is_flow_derivative(self):
        # linear equation, level-2 lift: J and Y share one update, J = Y / Y_0
        _, L = make_lift(seed=3, with_l3=False)
        sol = solve(L, linear_1d(), np.array([1.0]))
        np.testing.assert_allclose(sol.J[:, 0, 0] * sol.Y[0, 0], sol.Y[:, 0], rtol=1e-12)

    def test_jacobian_defect_small(self):
        _, L = make_lift(H=0.5, m=7, seed=4)
        sol = solve(L, linear_1d(), np.array([1.0]))
        assert sol.jacobian_defect() < 1e-2

    def test_approaches_exponential(self):
        # scheme limit is exp(B_1); error shrinks as the grid refines
        errs = []
        for m in (4, 6, 8):
            p, L = make_lift(H=0.5, m=m, seed=5)
            sol = solve(L, linear_1d(), np.array([1.0]))
            errs.append(abs(sol.Y[-1, 0] - np.exp(p.values[0, -1])))
        assert errs[2] < errs[0]


class TestMultidimensional:
    def _affine_field(self, A1, A2, bvec):
        # sigma(y) = [A1 y, A2 y], constant drift
        def sigma(y):
            return np.stack([y @ A1.T, y @ A2.T], axis=-1)

        def dsigma(y):
            base = np.stack([A1, A2], axis=1)  # (n, 2, n) at [i, a, k]
            return np.broadcast_to(base, y.shape[:-1] + base.shape)

        return CoefficientField(
            sigma=sigma,
            b=lambda y: np.broadcast_to(bvec, y.shape),
            dsigma=dsigma,
            db=lambda y: np.zeros(y.shape + (y.shape[-1],)),
        )

    def test_commuting_case_matches_scalar_exponential(self):
        # A1 = I, A2 = 0: each component solves the scalar linear equation in B^1
        A1, A2 = np.eye(2), np.zeros((2, 2))
        coeff = self._affine_field(A1, A2, np.zeros(2))
        p = simulate(SimSpec(model=HurstModel(0.4, 2), m=5, refine=1, seed=6))
        L = lift3(p, lift2(p))
        sol = solve(L, coeff, np.array([1.0, 2.0]))
        x = p.increments[0]
        scalar = np.cumprod(1 + x + x ** 2 / 2 + x ** 3 / 6)
        np.testing.assert_allclose(sol.Y[1:, 0], scalar, rtol=1e-11)
        np.testing.assert_allclose(sol.Y[1:, 1], 2 * scalar, rtol=1e-11)

    def test_jacobian_product_near_identity(self):
        A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = np.array([[0.5, 0.0], [0.2, -0.3]])
        coeff = self._affine_field(A1, A2, np.array([0.1, -0.2]))
        _, L = make_lift(H=0.45, d=2, m=7, seed=7)
        sol = solve(L, coeff, np.array([1.0, 0.5]))
        assert sol.jacobian_defect() < 5e-2

    def test_drift_only_is_euler_exact_direction(self):
        coeff = self._affine_field(np.zeros((2, 2)), np.zeros((2, 2)), np.array([1.0, -1.0]))
        _, L = make_lift(d=2, m=5, seed=8)
        sol = solve(L, coeff, np.zeros(2))
        np.testing.assert_allclose(sol.Y[-1], [1.0, -1.0], atol=1e-12)


class TestBatchStepper:
    def test_batch_matches_single(self):
        H = 0.4
        sp = SimSpec(model=HurstModel(H, 1), m=4, refine=1, seed=9)
        N = 5
        inc = simulate_batch(sp, N).reshape(N, 1, 16, 1)
        l1, l2 = levy_areas(inc)
        l3 = level3_areas(inc)
        Y = taylor_steps(linear_1d(), np.array([1.0]), 2.0 ** -4, l1, l2, l3)
        for r in range(N):
            p = simulate(SimSpec(model=HurstModel(H, 1), m=4, refine=1, seed=9, replica=r))
            sol = solve(lift3(p, lift2(p)), linear_1d(), np.array([1.0]))
            np.testing.assert_allclose(Y[r], sol.Y, rtol=1e-11)

    def test_divergence_raises_with_step(self):
        bad = CoefficientField(
            sigma=lambda y: y[..., None] ** 3,
            b=lambda y: y ** 3,
            dsigma=lambda y: 3 * y[..., None, None] ** 2,
            db=lambda y: 3 * y[..., None] ** 2,
        )
        l1 = np.full((1, 40, 1), 2.0)
        l2 = 0.5 * np.einsum("rca,rcb->rcab", l1, l1)
        with pytest.raises(DivergenceError) as ei:
            taylor_steps(bad, np.array([2.0]), 1.0, l1, l2)
        assert ei.value.step is not None

    def test_self_convergence_order_above_one(self):
        # linear benchmark, RMS over replicas of the step-halving change in Y_1
        H = 0.5
        N = 400
        sp = SimSpec(model=HurstModel(H, 1), m=9, refine=1, seed=12)
        inc_f = simulate_batch(sp, N)
        ends = {}
        for m in (5, 6, 7, 8, 9):
            n = 2 ** m
            inc = inc_f.reshape(N, 1, n, 512 // n).sum(axis=3)[..., None]
            l1, l2 = levy_areas(inc)
            l3 = level3_areas(inc)
            Y = taylor_steps(linear_1d(), np.array([1.0]), 2.0 ** -m, l1, l2, l3)
            ends[m] = Y[:, -1, 0]
        ms = np.array([5, 6, 7, 8])
        ds = np.array([np.sqrt(np.mean((ends[m] - ends[m + 1]) ** 2)) for m in ms])
        slope = -np.polyfit(ms * np.log(2), np.log(ds), 1)[0]
        assert slope > 1.0
