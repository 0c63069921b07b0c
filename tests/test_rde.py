import numpy as np
import pytest

from fbmchaos.errors import DivergenceError, DomainError
from fbmchaos.fbm import SimSpec, simulate_batch
from fbmchaos.gaussian import HurstModel
from fbmchaos.lift import level3_areas, levy_areas
from fbmchaos.rde import jacobian_defect, linear_1d, taylor_steps


def make_lift(H=0.4, d=1, m=5, seed=1, with_l3=True, replica=0):
    """Increments (d, 2^m) of one replica and its per-cell levels."""
    sp = SimSpec(model=HurstModel(H, d), m=m, refine=1, seed=seed,
                 replica=replica)
    inc = simulate_batch(sp, 1)[0]
    cells = inc[..., None]
    l1, l2 = levy_areas(cells)
    return inc, (l1, l2, level3_areas(cells) if with_l3 else None)


def steps_with_jacobian(levels, A, xi):
    """(Y, J, Jinv) of the stepper over one replica's cells."""
    return taylor_steps(A, xi, *levels, with_jacobian=True)


class TestLinearExample:
    def test_matches_closed_form_update(self):
        inc, L = make_lift(seed=2)
        Y, _, _ = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
        x = inc[0]
        expect = np.cumprod(1 + x + x ** 2 / 2 + x ** 3 / 6)
        np.testing.assert_allclose(Y[1:, 0], expect, rtol=1e-12)

    def test_second_order_without_level3(self):
        inc, L = make_lift(seed=2, with_l3=False)
        Y, _, _ = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
        x = inc[0]
        expect = np.cumprod(1 + x + x ** 2 / 2)
        np.testing.assert_allclose(Y[1:, 0], expect, rtol=1e-12)

    def test_jacobian_is_flow_derivative(self):
        # linear equation, level-2 lift: J and Y share one update, J = Y / Y_0
        _, L = make_lift(seed=3, with_l3=False)
        Y, J, _ = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
        np.testing.assert_allclose(J[:, 0, 0] * Y[0, 0], Y[:, 0], rtol=1e-12)

    def test_jacobian_defect_small(self):
        _, L = make_lift(H=0.5, m=7, seed=4)
        _, J, Jinv = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
        assert jacobian_defect(J, Jinv) < 1e-2

    def test_approaches_exponential(self):
        # scheme limit is exp(B_1); error shrinks as the grid refines
        errs = []
        for m in (4, 6, 8):
            inc, L = make_lift(H=0.5, m=m, seed=5)
            Y, _, _ = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
            errs.append(abs(Y[-1, 0] - np.exp(inc[0].sum())))
        assert errs[2] < errs[0]


class TestMultidimensional:
    def _affine_field(self, A1, A2):
        # sigma(y) = [A1 y, A2 y]
        return np.stack([A1, A2])

    def test_commuting_case_matches_scalar_exponential(self):
        # A1 = I, A2 = 0: each component solves the scalar linear equation in B^1
        A1, A2 = np.eye(2), np.zeros((2, 2))
        A = self._affine_field(A1, A2)
        inc, L = make_lift(H=0.4, d=2, m=5, seed=6)
        Y, _, _ = steps_with_jacobian(L, A, np.array([1.0, 2.0]))
        x = inc[0]
        scalar = np.cumprod(1 + x + x ** 2 / 2 + x ** 3 / 6)
        np.testing.assert_allclose(Y[1:, 0], scalar, rtol=1e-11)
        np.testing.assert_allclose(Y[1:, 1], 2 * scalar, rtol=1e-11)

    def test_jacobian_product_near_identity(self):
        A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = np.array([[0.5, 0.0], [0.2, -0.3]])
        A = self._affine_field(A1, A2)
        _, L = make_lift(H=0.45, d=2, m=7, seed=7)
        _, J, Jinv = steps_with_jacobian(L, A, np.array([1.0, 0.5]))
        assert jacobian_defect(J, Jinv) < 5e-2

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 3), (2, 2), (3, 2, 2)])
    def test_field_of_another_shape_is_refused(self, shape):
        # d = 2 driving components, n = 2 state components: A is (2, 2, 2)
        _, L = make_lift(d=2, m=3, seed=8)
        with pytest.raises(DomainError, match="A must have shape"):
            taylor_steps(np.ones(shape), np.zeros(2), *L)


class TestBatchStepper:
    def test_batch_matches_single(self):
        H = 0.4
        sp = SimSpec(model=HurstModel(H, 1), m=4, refine=1, seed=9)
        N = 5
        inc = simulate_batch(sp, N).reshape(N, 1, 16, 1)
        l1, l2 = levy_areas(inc)
        l3 = level3_areas(inc)
        Y = taylor_steps(linear_1d(), np.array([1.0]), l1, l2, l3)
        for r in range(N):
            _, L = make_lift(H=H, m=4, seed=9, replica=r)
            one, _, _ = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
            np.testing.assert_allclose(Y[r], one, rtol=1e-11)

    def test_batch_defect_is_max_of_replica_defects(self):
        # rde-demo takes its Jacobian defect over one batch of replicas
        sp = SimSpec(model=HurstModel(0.45, 1), m=6, refine=1, seed=7)
        inc = simulate_batch(sp, 4)[..., None]
        _, J, Jinv = taylor_steps(linear_1d(), np.array([1.0]),
                                  *levy_areas(inc), level3_areas(inc),
                                  with_jacobian=True)
        singles = []
        for r in range(4):
            _, L = make_lift(H=0.45, m=6, seed=7, replica=r)
            _, Jr, Jinv_r = steps_with_jacobian(L, linear_1d(), np.array([1.0]))
            singles.append(jacobian_defect(Jr, Jinv_r))
        assert jacobian_defect(J, Jinv) == max(singles) > 0

    def test_divergence_raises_with_step(self):
        bad = np.full((1, 1, 1), 1e10)
        l1 = np.full((1, 40, 1), 2.0)
        l2 = 0.5 * np.einsum("rca,rcb->rcab", l1, l1)
        with pytest.raises(DivergenceError) as ei:
            taylor_steps(bad, np.array([2.0]), l1, l2)
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
            Y = taylor_steps(linear_1d(), np.array([1.0]), l1, l2, l3)
            ends[m] = Y[:, -1, 0]
        ms = np.array([5, 6, 7, 8])
        ds = np.array([np.sqrt(np.mean((ends[m] - ends[m + 1]) ** 2)) for m in ms])
        slope = -np.polyfit(ms * np.log(2), np.log(ds), 1)[0]
        assert slope > 1.0
