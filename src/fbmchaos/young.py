"""Multidimensional discrete Young integration and variation functionals.

Grid-like partitions of boxes in [0,1]^N, rectangular increments, the three
variation functionals (plain grid sum, sub-partition maximum, face-augmented
sum), the controlled p-variation over rectangle dissections, left-point
discrete Young integrals, and checkers for the inequalities that control
them:

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
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .gaussian import cov_rect

__all__ = [
    "GridPartition",
    "GridFunction",
    "rect_increment",
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


@dataclass(frozen=True, eq=False)
class GridPartition:
    """Product of per-axis breakpoint sequences inside [0,1]."""

    axes: tuple

    def __eq__(self, other):
        if not isinstance(other, GridPartition):
            return NotImplemented
        return len(self.axes) == len(other.axes) and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        for a in axes:
            if a.ndim != 1 or a.shape[0] < 2:
                raise DomainError("each axis needs at least 2 breakpoints")
            if np.any(np.diff(a) <= 0):
                raise DomainError("axis breakpoints must strictly increase")
            if a[0] < 0 or a[-1] > 1:
                raise DomainError("breakpoints must lie in [0,1]")

    @property
    def N(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(a.shape[0] for a in self.axes)

    @classmethod
    def uniform(cls, n_points, N=1, lo=0.0, hi=1.0):
        ax = np.linspace(lo, hi, n_points)
        return cls(axes=(ax,) * N)


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at every node of a grid-like partition."""

    partition: GridPartition
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.partition.shape:
            raise DomainError("value array shape must match the partition")

    @classmethod
    def sample(cls, partition, func):
        grids = np.meshgrid(*partition.axes, indexing="ij")
        return cls(partition=partition, values=np.asarray(func(*grids), dtype=float))


def _cell_increments(values):
    out = values
    for ax in range(values.ndim):
        out = np.diff(out, axis=ax)
    return out


def rect_increment(f, box, fixed=None):
    """Alternating-corner sum of f over an index box, other axes pinned.

    ``box`` maps axis -> (i0, i1) breakpoint index interval; ``fixed`` maps
    axis -> breakpoint index.  The two maps must cover all axes exactly.
    """
    fixed = fixed or {}
    N = f.partition.N
    if sorted(list(box) + list(fixed)) != list(range(N)):
        raise DomainError("box and fixed axes must partition the axis set")
    vals = f.values
    shape = f.partition.shape
    idx = [None] * N
    for ax, i in fixed.items():
        if not 0 <= i < shape[ax]:
            raise DomainError("fixed index out of range")
        idx[ax] = np.array([i])
    for ax, (i0, i1) in box.items():
        if not 0 <= i0 < i1 < shape[ax]:
            raise DomainError("box indices out of range")
        idx[ax] = np.array([i0, i1])
    sub = vals[np.ix_(*idx)]
    for ax in sorted(box):
        sub = np.diff(sub, axis=ax)
    return float(sub.reshape(()))


def tilde_Vp(f, p):
    """(sum over grid cells of |rectangular increment|^p)^{1/p}."""
    if p < 1:
        raise DomainError("p must be >= 1")
    return float(
        np.sum(np.abs(_cell_increments(f.values)) ** p) ** (1.0 / p)
    )


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
    return _vp(f.values, p)


def _vp(values, p):
    if p < 1:
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
    N = f.partition.N
    total = 0.0
    for r in range(1, N + 1):
        for alive in itertools.combinations(range(N), r):
            total += _vp(_face_values(f.values, alive), p)
    return float(total + abs(f.values[(0,) * N]))


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
    if p < 1:
        raise DomainError("p must be >= 1")
    if f.partition.N == 1:
        return Vp(f, p)
    if f.partition.N != 2 or max(f.partition.shape) > 4:
        raise CapacityError("exact dissection enumeration needs N<=2, <=4 points/axis")
    rows = f.values[None] - f.values[:, None]  # rows[i0, i1] = f[i1] - f[i0]
    rects = rows[:, :, None, :] - rows[:, :, :, None]  # [i0, i1, j0, j1]
    powers = np.append(np.abs(rects).ravel() ** p, 0.0)
    scores = powers[_tiling_table(*f.partition.shape)].sum(axis=0)
    return float(scores.max()) ** (1.0 / p)


def discrete_young_integral(f, g):
    """Left-point sum of f against the rectangular increments of g."""
    if f.partition != g.partition:
        raise DomainError("integrand and integrator need the same partition")
    N = f.partition.N
    left = f.values[(slice(None, -1),) * N]
    return float(np.sum(left * _cell_increments(g.values)))


def _vanishes_on_base_faces(values, tol=0.0):
    return all(
        np.all(np.abs(np.take(values, 0, axis=ax)) <= tol)
        for ax in range(values.ndim)
    )


def towghi_check(f, g, p, q):
    """Ratio report for |int f dg| against the variation-norm bound.

    Uses the face-augmented norm of f in general, or the plain sub-partition
    norm when f vanishes on every base face.  The constant in the inequality
    is not explicit, so the report carries the raw ratio for regression.
    """
    if 1.0 / p + 1.0 / q <= 1.0:
        raise DomainError("need 1/p + 1/q > 1")
    integral = discrete_young_integral(f, g)
    sharp = _vanishes_on_base_faces(f.values)
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
        ax1 = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, points - 2))))
        ax2 = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, points - 2))))
        part = GridPartition(axes=(ax1, ax2))
        f = GridFunction(partition=part, values=rng.normal(size=(points, points)))
        g = GridFunction(partition=part, values=rng.normal(size=(points, points)))
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


def iterated_A(a_list, h_list, grid):
    """Nested left-point integrals A_{a_1..a_r}[h_1..h_r] on a shared grid.

    a_list holds the integrand factors sampled at the breakpoints, h_list
    the integrators; returns the running value at every breakpoint.
    """
    grid = np.asarray(grid, dtype=float)
    if len(a_list) != len(h_list) or not a_list:
        raise DomainError("need matching non-empty integrand/integrator lists")
    acc = np.ones_like(grid)
    for a, h in zip(a_list, h_list):
        a = np.asarray(a, dtype=float)
        h = np.asarray(h, dtype=float)
        if a.shape != grid.shape or h.shape != grid.shape:
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


def product_pvar_check(f, g, p, q=None):
    """Check the product rules for the sub-partition variation norm.

    With disjoint variables (f and g on separate partitions) verifies
    V_p(fg) <= V_p(f) V_p(g) exactly and reports the ratio.  With a shared
    partition and q > p, reports the ratio V_q(fg) / (barV_p(f) barV_p(g)),
    whose boundedness is the constant-free form of the general rule.
    """
    if f.partition != g.partition:
        prod = GridFunction(
            partition=GridPartition(axes=f.partition.axes + g.partition.axes),
            values=np.multiply.outer(f.values, g.values),
        )
        lhs = Vp(prod, p)
        rhs = Vp(f, p) * Vp(g, p)
        return {
            "kind": "disjoint",
            "lhs": lhs,
            "rhs": rhs,
            "ratio": lhs / rhs if rhs else 0.0,
            "pass": lhs <= rhs * (1 + 1e-10),
        }
    if q is None or not q > p:
        raise DomainError("shared-variable form needs q > p")
    prod = GridFunction(partition=f.partition, values=f.values * g.values)
    lhs = Vp(prod, q)
    denom = bar_Vp(f, p) * bar_Vp(g, p)
    return {
        "kind": "shared",
        "lhs": lhs,
        "denominator": denom,
        "ratio": lhs / denom if denom else 0.0,
        "pass": np.isfinite(lhs / denom) if denom else lhs == 0.0,
    }
