"""Level-2 / level-3 iterated integrals of simulated paths per dyadic cell.

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

# Bytes the vectorized level-2 schedule may hold in its (n, d, d, ...,
# cells) product; larger products take the in-place loop, whose
# temporaries are d times smaller than the increments.
_PRODUCT_BYTES = 2 ** 23


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


def levy_areas(inc):
    """Per-cell level-1 and level-2 arrays from sub-step increments.

    ``inc`` has shape (..., d, cells, n).  Returns (level1, level2) with
    shapes (..., cells, d) and (..., cells, d, d); level2[..., i, a, b] is the
    left-point sum  sum_k B^a_{s, u_{k-1}} dB^b_k  plus the geometric
    half-product (1/2) sum_k dB^a_k dB^b_k  within cell i.  The diagonal is
    re-stated as (level1^a)^2 / 2 (to which it already telescopes) so the
    rule holds bitwise.

    Two schedules give the same bits.  By default each sub-step updates
    preallocated running sums in place.  With more sub-steps than cells,
    where one sub-step is too little work for a vector operation, and a
    product of all sub-steps within _PRODUCT_BYTES, the running level 1 is
    still advanced one sub-step at a time, and the products of all
    sub-steps are then formed at once and summed over the leading sub-step
    axis, which numpy reduces row after row in order.
    """
    x = _substep_major(inc)
    n, d = x.shape[:2]
    cells = x.shape[-1]
    level1 = np.zeros(x.shape[1:])  # running B_{s, u_k}, (d, ..., cells)
    if n > cells and 8 * d * x.size <= _PRODUCT_BYTES:
        mid = np.empty_like(x)
        mid[0] = 0.0
        for k in range(1, n):
            np.add(mid[k - 1], x[k - 1], out=mid[k])
        np.add(mid[-1], x[-1], out=level1)
        mid += 0.5 * x
        # both factors are C-contiguous, so their product is too, and its
        # leading axis is reduced row after row in order
        level2 = (mid[:, :, None] * x[:, None]).sum(axis=0)
    else:
        level2 = np.zeros((d,) + level1.shape)
        mid, prod = np.empty_like(level1), np.empty_like(level2)
        for step in x:
            np.multiply(step, 0.5, out=mid)
            mid += level1
            np.multiply(mid[:, None], step[None], out=prod)
            level2 += prod
            level1 += step
    level1 = _cells_first(level1, 1)
    level2 = _cells_first(level2, 2)
    ii = np.arange(d)
    level2[..., ii, ii] = 0.5 * level1 ** 2
    return level1, level2


def level3_areas(inc):
    """Per-cell level-3 arrays (..., cells, d, d, d) by the compensated sum,
    one sub-step at a time on running level-1 and level-2 sums, which move
    on as in ``levy_areas``."""
    x = _substep_major(inc)
    d = x.shape[1]
    level1 = np.zeros(x.shape[1:])
    level2 = np.zeros((d,) + level1.shape)
    level3 = np.zeros((d,) + level2.shape)
    coef, half = np.empty_like(level1), np.empty_like(level1)
    outer, prod = np.empty_like(level2), np.empty_like(level3)
    for step in x:
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
    return _cells_first(level3, 3)


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
