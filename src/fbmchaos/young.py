"""Multidimensional discrete Young integration and variation functionals.

A function on a grid-like partition of a box is given by its values at the
grid points: an array with one axis per variable.  Every functional here
depends on those values through their rectangular increments only, never
on where the breakpoints lie, so none takes breakpoints.  The module holds
the three variation functionals (plain grid sum, sub-partition maximum,
face-augmented sum), the controlled p-variation over rectangle dissections,
left-point discrete Young integrals, and checkers for the inequalities that
control them:

  * the two-norm sandwich        V_p(f) <= ||f||_{p-var}
  * the Young-Towghi estimate    |int f dg| <= C Vbar_p(f) V_q(g), 1/p+1/q>1
  * product rule                 V_p(fg) <= V_p(f) V_p(g) (disjoint vars)
  * nested-integral bound        |A_{a_1..a_r}| <= 3^r prod ||a||_inf
                                                     prod (t_i - s_i)^{2H}

Every variation value is exact.  V_p solves axis 0 by a recurrence over
its kept breakpoints and enumerates the sub-partitions of the other axes
only; the controlled p-variation is V_p in 1-D and, in 2-D, the best score
over every rectangle tiling, read from one table of rectangle increments.
Both refuse inputs beyond their operation gates with CapacityError rather
than approximate.  Constants in the inequalities above are not explicit, so
the corresponding checkers report ratios for regression against golden
values instead of asserting invented constants.
"""

import functools
import itertools

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .gaussian import cov_rect

__all__ = [
    "tilde_Vp",
    "Vp",
    "controlled_pvar",
    "bar_Vp",
    "discrete_young_integral",
    "towghi_check",
    "psi_path",
    "iterated_A",
    "iterated_A_bound",
    "product_pvar_check",
]

VP_MAX_OPERATIONS = 2 ** 20


def _grid(f):
    """The values of a grid function as floats, one axis per variable."""
    f = np.asarray(f, dtype=float)
    if f.ndim < 1 or min(f.shape) < 2:
        raise DomainError("each axis needs at least 2 breakpoints")
    return f


def _cell_increments(values):
    out = values
    for ax in range(values.ndim):
        out = np.diff(out, axis=ax)
    return out


def tilde_Vp(f, p):
    """(sum over grid cells of |rectangular increment|^p)^{1/p}."""
    f = _grid(f)
    if not p >= 1:
        raise DomainError("p must be >= 1")
    return float(np.sum(np.abs(_cell_increments(f)) ** p) ** (1.0 / p))


def _kept_breakpoints(n):
    """Every sub-partition of breakpoints 0..n-1 that keeps both endpoints.

    One row per sub-partition.  A dropped breakpoint repeats the index
    before it, so it adds only zero-width cells (zero increments) and every
    row has length n.
    """
    keep = np.array([(1, *inner, 1) for inner in
                     itertools.product((0, 1), repeat=n - 2)], dtype=bool)
    return np.maximum.accumulate(np.where(keep, np.arange(n), 0), axis=1)


def Vp(f, p):
    """Maximum of tilde_Vp over sub-partitions (endpoints always kept).

    With the kept breakpoints of axes 1..N-1 fixed, the sum of |increment|^p
    is additive over consecutive kept breakpoints of axis 0, so axis 0 is
    solved exactly by best[j] = max_{i<j} best[i] + c[i, j], where c[i, j]
    sums over the cells between rows i and j; only the other axes are
    enumerated.  That costs n_0^2 prod_{k>=1} 2^(n_k-2) (n_k-1) operations,
    refused with CapacityError above VP_MAX_OPERATIONS.
    """
    return _vp(_grid(f), p)


def _vp(values, p):
    if not p >= 1:
        raise DomainError("p must be >= 1")
    n0, *rest = values.shape
    ops = n0 ** 2
    for n in rest:
        ops *= 2 ** (n - 2) * (n - 1)
    if ops > VP_MAX_OPERATIONS:
        raise CapacityError(
            f"{ops} operations exceed the V_p gate of {VP_MAX_OPERATIONS}"
        )
    # axis k >= 1 becomes (sub-partition, breakpoint): (n0, S_1, n_1, ...)
    g = values
    for ax in range(len(rest), 0, -1):
        g = np.take(g, _kept_breakpoints(rest[ax - 1]), axis=ax)
    inc = g[None] - g[:, None]  # inc[i, j] = g[j] - g[i]
    cell_axes = tuple(range(3, inc.ndim, 2))
    for ax in cell_axes:
        inc = np.diff(inc, axis=ax)
    c = np.sum(np.abs(inc) ** p, axis=cell_axes).reshape(n0, n0, -1)
    best = np.zeros((n0, c.shape[2]))
    for j in range(1, n0):
        best[j] = np.max(best[:j] + c[:j, j], axis=0)
    return float(best[-1].max()) ** (1.0 / p)


def _face_values(values, alive):
    """Restrict to the face where dead axes are pinned at their start."""
    idx = tuple(
        slice(None) if ax in alive else 0 for ax in range(values.ndim)
    )
    return values[idx]


def bar_Vp(f, p):
    """Sum of Vp over all coordinate faces through the base corner, plus
    the base corner value itself."""
    f = _grid(f)
    N = f.ndim
    total = 0.0
    for r in range(1, N + 1):
        for alive in itertools.combinations(range(N), r):
            total += _vp(_face_values(f, alive), p)
    return float(total + abs(f[(0,) * N]))


def _tilings_2d(n1, n2):
    """All partitions of an n1 x n2 cell grid into axis-aligned rectangles."""
    full = [(i, j) for i in range(n1) for j in range(n2)]

    def rec(covered, acc):
        free = [c for c in full if c not in covered]
        if not free:
            yield list(acc)
            return
        i0, j0 = free[0]
        for i1 in range(i0 + 1, n1 + 1):
            for j1 in range(j0 + 1, n2 + 1):
                rect_cells = {
                    (i, j) for i in range(i0, i1) for j in range(j0, j1)
                }
                if rect_cells & covered:
                    continue
                acc.append(((i0, i1), (j0, j1)))
                yield from rec(covered | rect_cells, acc)
                acc.pop()

    yield from rec(set(), [])


@functools.lru_cache(maxsize=9)
def _tiling_table(n1, n2):
    """The rectangles of every tiling of an n1 x n2 breakpoint grid.

    Column t lists tiling t's rectangles, in _tilings_2d order, as flat
    indices into the (n1, n1, n2, n2) table of rectangle increments, padded
    with the index one past that table's end.
    """
    tilings = [[((i0 * n1 + i1) * n2 + j0) * n2 + j1
                for (i0, i1), (j0, j1) in tiling]
               for tiling in _tilings_2d(n1 - 1, n2 - 1)]
    table = np.array(list(itertools.zip_longest(
        *tilings, fillvalue=n1 * n1 * n2 * n2)))
    table.setflags(write=False)
    return table


def controlled_pvar(f, p):
    """Supremum over rectangle dissections of (sum |f(I_k)|^p)^{1/p}.

    Exact.  In 1-D every dissection is a sub-partition, so this is Vp.  In
    2-D (up to 4 breakpoints per axis) every grid-aligned tiling is scored
    from one corner-difference table of all rectangle increments.
    """
    f = _grid(f)
    if not p >= 1:
        raise DomainError("p must be >= 1")
    if f.ndim == 1:
        return Vp(f, p)
    if f.ndim != 2 or max(f.shape) > 4:
        raise CapacityError("exact dissection enumeration needs N<=2, <=4 points/axis")
    rows = f[None] - f[:, None]  # rows[i0, i1] = f[i1] - f[i0]
    rects = rows[:, :, None, :] - rows[:, :, :, None]  # [i0, i1, j0, j1]
    powers = np.append(np.abs(rects).ravel() ** p, 0.0)
    scores = powers[_tiling_table(*f.shape)].sum(axis=0)
    return float(scores.max()) ** (1.0 / p)


def discrete_young_integral(f, g):
    """Left-point sum of f against the rectangular increments of g."""
    f, g = _grid(f), _grid(g)
    if f.shape != g.shape:
        raise DomainError("integrand and integrator need the same grid shape")
    left = f[(slice(None, -1),) * f.ndim]
    return float(np.sum(left * _cell_increments(g)))


def _vanishes_on_base_faces(values):
    return all(np.all(np.take(values, 0, axis=ax) == 0.0)
               for ax in range(values.ndim))


def towghi_check(f, g, p, q):
    """Ratio report for |int f dg| against the variation-norm bound.

    Uses the face-augmented norm of f in general, or the plain sub-partition
    norm when f vanishes on every base face.  The constant in the inequality
    is not explicit, so the report carries the raw ratio for regression.
    """
    if 1.0 / p + 1.0 / q <= 1.0:
        raise DomainError("need 1/p + 1/q > 1")
    f = _grid(f)
    integral = discrete_young_integral(f, g)
    sharp = _vanishes_on_base_faces(f)
    fnorm = Vp(f, p) if sharp else bar_Vp(f, p)
    gnorm = Vp(g, q)
    denom = fnorm * gnorm
    if denom == 0.0:
        return {
            "integral": integral,
            "ratio": 0.0,
            "bound_kind": "degenerate",
            "note": "zero denominator; integral is necessarily zero",
            "finite": integral == 0.0,
        }
    return {
        "integral": integral,
        "f_norm": fnorm,
        "g_norm": gnorm,
        "ratio": abs(integral) / denom,
        "bound_kind": "V_p" if sharp else "barV_p",
        "finite": True,
    }


def towghi_fuzz_report(seed, cases=100, points=4, p=1.9, q=1.9):
    """Max Towghi ratio over a reproducible corpus of random grid pairs.

    The inequality's constant is implicit, so the regression target is the
    corpus maximum itself: reruns with the same seed must reproduce it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        f, g = rng.normal(size=(2, points, points))
        rep = towghi_check(f, g, p, q)
        if not rep["finite"]:
            raise ConsistencyError("nonzero Towghi integral, zero norm bound")
        worst = max(worst, rep["ratio"])
    return {"seed": seed, "cases": cases, "points": points, "p": p, "q": q,
            "max_ratio": worst}


def psi_path(s, t, H, grid):
    """u -> R([s,t] x [0,u]) sampled on a 1-D grid of [0,1]."""
    grid = np.asarray(grid, dtype=float)
    out = np.zeros_like(grid)
    pos = grid > 0
    out[pos] = cov_rect(((s, t), (0.0, grid[pos])), H)
    return out


def iterated_A(a_list, h_list):
    """Nested left-point integrals A_{a_1..a_r}[h_1..h_r] on a shared grid.

    a_list holds the integrand factors sampled at the breakpoints, h_list
    the integrators, all 1-D arrays of one length; returns the running
    value at every breakpoint.  Where the breakpoints lie does not enter.
    """
    if len(a_list) != len(h_list) or not a_list:
        raise DomainError("need matching non-empty integrand/integrator lists")
    acc = np.ones_like(np.asarray(a_list[0], dtype=float))
    for a, h in zip(a_list, h_list):
        a = np.asarray(a, dtype=float)
        h = np.asarray(h, dtype=float)
        if a.ndim != 1 or a.shape != acc.shape or h.shape != acc.shape:
            raise DomainError("all factors must live on the common grid")
        steps = acc[:-1] * a[:-1] * np.diff(h)
        acc = np.concatenate(([0.0], np.cumsum(steps)))
    return acc


def iterated_A_bound(a_list, boxes, H):
    """3^r prod ||a_i||_inf prod (t_i - s_i)^{2H} for increment integrators."""
    r = len(a_list)
    out = 3.0 ** r
    for a, (s, t) in zip(a_list, boxes):
        out *= float(np.max(np.abs(a))) * (t - s) ** (2 * H)
    return out


def product_pvar_check(f, g, p):
    """Check the product rule V_p(fg) <= V_p(f) V_p(g) for f and g of
    disjoint variables, whose product is the outer product of their values,
    and report the ratio."""
    f, g = _grid(f), _grid(g)
    lhs = Vp(np.multiply.outer(f, g), p)
    rhs = Vp(f, p) * Vp(g, p)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs else 0.0,
        "pass": lhs <= rhs * (1 + 1e-10),
    }
