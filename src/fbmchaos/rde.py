"""Rough-Taylor stepping for RDEs driven by a level-2/3 lift.

Solves  dY = sigma(Y) dB + b(Y) dt  one step per lift cell with the explicit
second-order (Davie/Milstein) update

    Y+ = Y + sigma(Y) dB + Dsigma(Y)[sigma(Y)] . BB + b(Y) dt,

where BB is the cell's level-2 value.  When the lift carries level 3 the next
rough-Taylor term  D(Dsigma[sigma])[sigma] . BBB  is added as well; the
self-convergence order of the plain second-order step on the driving paths
handled here caps out at 1, and the level-3 term is what pushes the fitted
order past 1 on the linear benchmark.  The Jacobian J of the flow and its
inverse are advanced by the second-order scheme for their linearized
equations; the product J.Jinv - I is then a fourth-order defect that serves
as a consistency check on the stepping.

All steppers broadcast over leading batch axes, so a whole Monte Carlo batch
advances with one set of einsum contractions per step.  Coefficient callables
must follow the same convention (see CoefficientField).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

__all__ = [
    "CoefficientField",
    "RdeSolution",
    "linear_1d",
    "taylor_steps",
    "solve",
]


@dataclass(frozen=True)
class CoefficientField:
    """Vector fields of the equation dY = sigma(Y) dB + b(Y) dt.

    All members are callables of the state y with shape (..., n) returning

        sigma:   (..., n, d)        sigma_{ia}
        b:       (..., n)
        dsigma:  (..., n, d, n)     d sigma_{ia} / d y_k  at index [i, a, k]
        db:      (..., n, n)        d b_i / d y_k
        d2sigma: (..., n, d, n, n)  second derivative, optional (taken as 0)

    and must broadcast over the leading batch axes of y.
    """

    sigma: callable
    b: callable
    dsigma: callable
    db: callable
    d2sigma: callable = None


def linear_1d():
    """The scalar benchmark field dY = Y dB (no drift)."""
    return CoefficientField(
        sigma=lambda y: y[..., None],
        b=lambda y: np.zeros_like(y),
        dsigma=lambda y: np.ones(y.shape + (1, 1)),
        db=lambda y: np.zeros(y.shape + (1,)),
    )


def _step_Y(coeff, y, x, B2, B3, dt):
    sig = coeff.sigma(y)
    ds = coeff.dsigma(y)
    dy = np.einsum("...ia,...a->...i", sig, x)
    dy += np.einsum("...ibj,...ja,...ab->...i", ds, sig, B2)
    dy += coeff.b(y) * dt
    if B3 is not None:
        # next Taylor term D(Dsigma_g[sigma_b])[sigma_a] . BBB^{abg}
        f3 = np.einsum("...igk,...kbj,...ja->...iabg", ds, ds, sig)
        if coeff.d2sigma is not None:
            d2 = coeff.d2sigma(y)
            f3 = f3 + np.einsum("...igkj,...kb,...ja->...iabg", d2, sig, sig)
        dy += np.einsum("...iabg,...abg->...i", f3, B3)
    return y + dy


def _step_J_Jinv(coeff, y, J, K, x, B2, dt):
    ds = coeff.dsigma(y)
    db_ = coeff.db(y)
    # (A_b A_a)_{ik} and (A_a A_b)_{ik} with A_a = dsigma[:, a, :]
    AbAa = np.einsum("...ibl,...lak->...abik", ds, ds)
    AaAb = np.swapaxes(AbAa, -4, -3)
    if coeff.d2sigma is not None:
        sig = coeff.sigma(y)
        DA = np.einsum("...ibkj,...ja->...abik", coeff.d2sigma(y), sig)
    else:
        DA = 0.0
    Jp = J + np.einsum("...iak,...kj,...a->...ij", ds, J, x)
    Jp += np.einsum("...abik,...kj,...ab->...ij", AbAa + DA, J, B2)
    Jp += dt * np.einsum("...ik,...kj->...ij", db_, J)
    Kp = K - np.einsum("...il,...lbk,...b->...ik", K, ds, x)
    Kp += np.einsum("...il,...ablk,...ab->...ik", K, AaAb - DA, B2)
    Kp -= dt * np.einsum("...il,...lk->...ik", K, db_)
    return Jp, Kp


def taylor_steps(coeff, xi, dt, level1, level2, level3=None, with_jacobian=False):
    """Advance the scheme through per-cell lift values; batched over leads.

    level1: (..., cells, d), level2: (..., cells, d, d), optional level3
    (..., cells, d, d, d); xi broadcasts to (..., n).  Returns the state
    trajectory Y of shape (..., cells + 1, n), or (Y, J, Jinv) with the
    Jacobian trajectories (..., cells + 1, n, n) when with_jacobian is set.
    Raises DivergenceError at the first non-finite step.
    """
    level1 = np.asarray(level1, dtype=float)
    cells, d = level1.shape[-2:]
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1]
    lead = np.broadcast_shapes(level1.shape[:-2], xi.shape[:-1])
    Y = np.empty(lead + (cells + 1, n))
    Y[..., 0, :] = xi
    if with_jacobian:
        J = np.empty(lead + (cells + 1, n, n))
        K = np.empty_like(J)
        J[..., 0, :, :] = np.eye(n)
        K[..., 0, :, :] = np.eye(n)
    for c in range(cells):
        y = Y[..., c, :]
        x = level1[..., c, :]
        B2 = level2[..., c, :, :]
        B3 = None if level3 is None else level3[..., c, :, :, :]
        ynew = _step_Y(coeff, y, x, B2, B3, dt)
        if not np.all(np.isfinite(ynew)):
            raise DivergenceError("state became non-finite", step=c)
        Y[..., c + 1, :] = ynew
        if with_jacobian:
            Jp, Kp = _step_J_Jinv(coeff, y, J[..., c, :, :], K[..., c, :, :], x, B2, dt)
            J[..., c + 1, :, :] = Jp
            K[..., c + 1, :, :] = Kp
    if with_jacobian:
        return Y, J, K
    return Y


@dataclass(frozen=True)
class RdeSolution:
    """Scheme output on the lift's cell edges."""

    times: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)
    Jinv: np.ndarray = field(repr=False)

    def jacobian_defect(self):
        """max |J Jinv - I| along the trajectory (fourth-order in the step)."""
        n = self.J.shape[-1]
        prod = np.einsum("...ij,...jk->...ik", self.J, self.Jinv)
        return float(np.abs(prod - np.eye(n)).max())


def solve(lift, coeff, xi):
    """Run the stepper over one path's lift cells; J and Jinv come along."""
    dt = float(lift.edges[1] - lift.edges[0])
    Y, J, K = taylor_steps(
        coeff, xi, dt, lift.level1, lift.level2, lift.level3, with_jacobian=True
    )
    return RdeSolution(times=lift.edges, Y=Y, J=J, Jinv=K)
