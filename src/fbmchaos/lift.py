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


def levy_areas(inc):
    """Per-cell level-1 and level-2 arrays from sub-step increments.

    ``inc`` has shape (..., d, cells, n).  Returns (level1, level2) with
    shapes (..., cells, d) and (..., cells, d, d); level2[..., i, a, b] is the
    left-point sum  sum_k B^a_{s, u_{k-1}} dB^b_k  plus the geometric
    half-product (1/2) sum_k dB^a_k dB^b_k  within cell i.  The diagonal is
    re-stated as (level1^a)^2 / 2 (to which it already telescopes) so the
    rule holds bitwise.
    """
    inc = np.asarray(inc)
    d = inc.shape[-3]
    level1 = np.moveaxis(inc.sum(axis=-1), -2, -1)  # (..., cells, d)
    mid = np.zeros_like(inc)
    np.cumsum(inc[..., :-1], axis=-1, out=mid[..., 1:])
    mid += 0.5 * inc
    level2 = np.einsum("...acK,...bcK->...cab", mid, inc, optimize=True)
    ii = np.arange(d)
    level2[..., ii, ii] = 0.5 * level1 ** 2
    return level1, level2


def level3_areas(inc):
    """Per-cell level-3 arrays (..., cells, d, d, d) by the compensated sum."""
    inc = np.asarray(inc)
    pre = np.zeros_like(inc)
    np.cumsum(inc[..., :-1], axis=-1, out=pre[..., 1:])
    mid = pre + 0.5 * inc
    # running geometric level-2 value at the left endpoint of each sub-step
    prod = np.einsum("...acK,...bcK->...abcK", mid, inc, optimize=True)
    p2 = np.zeros_like(prod)
    np.cumsum(prod[..., :-1], axis=-1, out=p2[..., 1:])
    term1 = np.einsum("...abcK,...gcK->...cabg", p2, inc, optimize=True)
    # compensators: sub-step level-2 factor dB^b dB^c / 2 and the segment's
    # own third signature term dB dB dB / 6, making the result the exact
    # level-3 signature of the piecewise-linear interpolation
    comp = np.einsum("...acK,...bcK,...gcK->...cabg", pre, inc, 0.5 * inc, optimize=True)
    comp += np.einsum(
        "...acK,...bcK,...gcK->...cabg", inc, inc, inc / 6.0, optimize=True
    )
    return term1 + comp


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
