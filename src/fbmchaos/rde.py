"""Rough-Taylor stepping for linear RDEs driven by a level-2/3 lift.

Solves  dY = sigma(Y) dB  with the linear field  sigma(y)_a = A[a] y,  given
as one array A of shape (d, n, n), one step per lift cell with the explicit
second-order (Davie/Milstein) update

    Y+ = Y + sigma(Y) dB + Dsigma(Y)[sigma(Y)] . BB,

where BB is the cell's level-2 value and Dsigma is A itself.  When the lift
carries level 3 the next rough-Taylor term  D(Dsigma[sigma])[sigma] . BBB
is added as well; that term and the Jacobian steps take sigma'' = 0, which
a linear field satisfies.  The `rde-demo` order row asks only for a
step-halving RMS slope above 1 on the scalar benchmark at H = 1/2, where the
scheme's true rate is 1, so the row sits on its own threshold and cannot see
the level-3 term: a stepper without it passed on 11 of 20 seeds.  The
Jacobian J of the flow and its inverse are advanced by the second-order
scheme for their linearized equations; the product J.Jinv - I is then a
fourth-order defect (``jacobian_defect``) that serves as a consistency check
on the stepping.

``taylor_steps`` reads the per-cell level arrays (..., cells, d[, d, d]) of
``lift`` and broadcasts over their leading batch axes, so a whole Monte Carlo
batch advances with one set of einsum contractions per step.
"""

import numpy as np

from .errors import DivergenceError, DomainError

__all__ = [
    "linear_1d",
    "taylor_steps",
    "jacobian_defect",
]


def linear_1d():
    """The scalar benchmark field dY = Y dB, as its (d, n, n) = (1, 1, 1) A."""
    return np.ones((1, 1, 1))


def _step_Y(ds, y, x, B2, B3):
    sig = np.einsum("iak,...k->...ia", ds, y)
    dy = np.einsum("...ia,...a->...i", sig, x)
    dy += np.einsum("ibj,...ja,...ab->...i", ds, sig, B2)
    if B3 is not None:
        # next Taylor term D(Dsigma_g[sigma_b])[sigma_a] . BBB^{abg}
        f3 = np.einsum("igk,kbj,...ja->...iabg", ds, ds, sig)
        dy += np.einsum("...iabg,...abg->...i", f3, B3)
    return y + dy


def _step_J_Jinv(ds, J, K, x, B2):
    # (A_b A_a)_{ik} and (A_a A_b)_{ik}
    AbAa = np.einsum("ibl,lak->abik", ds, ds)
    AaAb = np.swapaxes(AbAa, 0, 1)
    Jp = J + np.einsum("iak,...kj,...a->...ij", ds, J, x)
    Jp += np.einsum("abik,...kj,...ab->...ij", AbAa, J, B2)
    Kp = K - np.einsum("...il,lbk,...b->...ik", K, ds, x)
    Kp += np.einsum("...il,ablk,...ab->...ik", K, AaAb, B2)
    return Jp, Kp


def taylor_steps(A, xi, level1, level2, level3=None, with_jacobian=False):
    """Advance the scheme through per-cell lift values; batched over leads.

    A: (d, n, n) with sigma(y)_a = A[a] y; level1: (..., cells, d), level2:
    (..., cells, d, d), optional level3 (..., cells, d, d, d); xi broadcasts
    to (..., n).  Returns the state trajectory Y of shape (..., cells + 1, n),
    or (Y, J, Jinv) with the Jacobian trajectories (..., cells + 1, n, n)
    when with_jacobian is set.  Raises DomainError for an A of another shape
    and DivergenceError at the first non-finite step.
    """
    level1 = np.asarray(level1, dtype=float)
    cells, d = level1.shape[-2:]
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1]
    A = np.asarray(A, dtype=float)
    if A.shape != (d, n, n):
        raise DomainError(f"A must have shape {(d, n, n)}, got {A.shape}")
    ds = np.moveaxis(A, 0, 1)  # d sigma_{ia} / d y_k at index [i, a, k]
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
        ynew = _step_Y(ds, y, x, B2, B3)
        if not np.all(np.isfinite(ynew)):
            raise DivergenceError("state became non-finite", step=c)
        Y[..., c + 1, :] = ynew
        if with_jacobian:
            Jp, Kp = _step_J_Jinv(ds, J[..., c, :, :], K[..., c, :, :], x, B2)
            J[..., c + 1, :, :] = Jp
            K[..., c + 1, :, :] = Kp
    if with_jacobian:
        return Y, J, K
    return Y


def jacobian_defect(J, Jinv):
    """max |J Jinv - I| over Jacobian trajectories (..., n, n), as a float.

    Fourth-order in the step for the trajectories ``taylor_steps`` returns.
    """
    n = J.shape[-1]
    prod = np.einsum("...ij,...jk->...ik", J, Jinv)
    return float(np.abs(prod - np.eye(n)).max())
