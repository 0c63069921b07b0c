"""Level-2 / level-3 iterated integrals of simulated paths per dyadic cell,
from one sub-step loop for levels 1-3.

Level 2 uses the compensated Riemann sums over the sub-steps of each cell

    sum_k  B^a_{s,u_{k-1}} dB^b_k  +  (1/2) dB^a_k dB^b_k,

i.e. the left-point sums defining the Levy area in the L^2 limit plus the
symmetric half-product that makes the discrete object exactly geometric: it
is the level-2 signature of the piecewise-linear interpolation, so the
shuffle identity B^{a,b} + B^{b,a} = B^a B^b and the diagonal rule
B^{a,a} = (B^a)^2 / 2 hold to machine precision at every resolution, not
just in the limit.  Level 3 uses the compensated sum

    sum_k  B^{a,b}_{s,u_{k-1}} dB^c_k  +  B^a_{s,u_{k-1}} dB^b_k dB^c_k / 2
         +  dB^a_k dB^b_k dB^c_k / 6,

the exact level-3 signature of the same piecewise-linear interpolation, so
the level-3 shuffle identities also hold to machine precision.

Summation order: every sum over sub-steps runs left to right, k = 1, ..., n,
one sub-step at a time, on a sub-step-major copy of the increments; the
running level 1 is the same left-to-right sum.  Each term is formed as the
formulas above read, (B^a + dB^a / 2) dB^b at level 2 and
(B^{ab} + (B^a / 2 + dB^a / 6) dB^b) dB^c at level 3.  No contraction goes
through BLAS, so the values are the same bits on any host, whatever kernel
a BLAS library would pick, and a cell's values do not depend on the other
cells or replicas of the batch.

Sub-step increments come in as (..., d, cells, n) and per-cell levels go out
as (..., cells, d[, d, d]), leading batch axes kept.  ``chen_fold`` folds
the cells of such arrays into the lift of their union by the Chen relation.
"""

import numpy as np

__all__ = [
    "levy_areas",
    "level3_areas",
    "chen_fold",
]


def _substep_major(inc):
    """(n, d, ..., cells) contiguous copy of (..., d, cells, n) increments:
    each sub-step's increments of every component, batch row and cell form
    one contiguous block, so a step is a few long vector operations."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(inc), (-1, -3), (0, 1)))


def _cells_first(levels, k):
    """(..., cells, d, ..., d) contiguous copy of a (d, ..., d, ..., cells)
    array with k leading component axes."""
    return np.ascontiguousarray(
        np.moveaxis(levels, tuple(range(k)), tuple(range(-k, 0))))


def _running_levels(inc, with_level3):
    """(level1, level2, level3 or None) of sub-step increments (..., d,
    cells, n), shaped (d, ..., cells), (d, d, ..., cells) and (d, d, d, ...,
    cells), one sub-step at a time; level 3 moves first, so that it reads
    levels 1 and 2 before they move on."""
    x = _substep_major(inc)
    d = x.shape[1]
    level1 = np.zeros(x.shape[1:])  # running B_{s, u_k}
    level2 = np.zeros((d,) + level1.shape)
    level3 = np.zeros((d,) + level2.shape) if with_level3 else None
    coef, half = np.empty_like(level1), np.empty_like(level1)
    outer = np.empty_like(level2)
    prod = np.empty_like(level3) if with_level3 else None
    for step in x:
        if with_level3:
            # (B^{ab} + (B^a / 2 + dB^a / 6) dB^b) dB^c
            np.divide(step, 6.0, out=coef)
            np.multiply(level1, 0.5, out=half)
            coef += half
            np.multiply(coef[:, None], step[None], out=outer)
            outer += level2
            np.multiply(outer[:, :, None], step[None, None], out=prod)
            level3 += prod
        # level 2 moves on by (B^a + dB^a / 2) dB^b, level 1 by dB
        np.multiply(step, 0.5, out=coef)
        coef += level1
        np.multiply(coef[:, None], step[None], out=outer)
        level2 += outer
        level1 += step
    return level1, level2, level3


def levy_areas(inc):
    """Per-cell level-1 and level-2 arrays from sub-step increments.

    ``inc`` has shape (..., d, cells, n).  Returns (level1, level2) with
    shapes (..., cells, d) and (..., cells, d, d); level2[..., i, a, b] is the
    left-point sum  sum_k B^a_{s, u_{k-1}} dB^b_k  plus the geometric
    half-product (1/2) sum_k dB^a_k dB^b_k  within cell i.  The diagonal is
    re-stated as (level1^a)^2 / 2 (to which it already telescopes) so the
    rule holds bitwise.
    """
    level1, level2, _ = _running_levels(inc, False)
    level1 = _cells_first(level1, 1)
    level2 = _cells_first(level2, 2)
    ii = np.arange(level1.shape[-1])
    level2[..., ii, ii] = 0.5 * level1 ** 2
    return level1, level2


def level3_areas(inc):
    """Per-cell level-3 arrays (..., cells, d, d, d) by the compensated sum,
    on the running levels 1 and 2 of ``levy_areas``."""
    return _cells_first(_running_levels(inc, True)[2], 3)


def chen_fold(level1, level2, level3=None):
    """Chen-fold per-cell lift values left to right over their cells axis.

    Takes (..., cells, d), (..., cells, d, d) and optionally
    (..., cells, d, d, d) arrays, as ``levy_areas``/``level3_areas`` return
    them, and returns the lift of the concatenated cells: (level1, level2,
    level3) of shapes (..., d), (..., d, d), (..., d, d, d), level3 None when
    not given.  The fold starts from the zero lift, so no cells give zeros.
    """
    lead, d = level1.shape[:-2], level1.shape[-1]
    s1, s2 = np.zeros(lead + (d,)), np.zeros(lead + (d, d))
    s3 = None if level3 is None else np.zeros(lead + (d, d, d))
    for k in range(level1.shape[-2]):
        x1, x2 = level1[..., k, :], level2[..., k, :, :]
        if s3 is not None:
            # reads the running level 1 and level 2 before they move on
            s3 = (s3 + level3[..., k, :, :, :]
                  + s1[..., :, None, None] * x2[..., None, :, :]
                  + s2[..., None] * x1[..., None, None, :])
        s2 = s2 + x2 + s1[..., :, None] * x1[..., None, :]
        s1 = s1 + x1
    return s1, s2, s3
