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
the level-3 shuffle identities also hold to machine precision.  Whole
interval summaries combine associatively via the Chen relation.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError

__all__ = [
    "RoughLift",
    "IntervalSignature",
    "lift2",
    "lift3",
    "chen_combine",
    "levy_areas",
    "level3_areas",
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


@dataclass(frozen=True)
class RoughLift:
    """Per-dyadic-cell lift of one FbmPath over its n = refine sub-steps."""

    path: object = field(repr=False, compare=False)
    m: int
    edges: np.ndarray = field(repr=False)
    level1: np.ndarray = field(repr=False)
    level2: np.ndarray = field(repr=False)
    level3: np.ndarray = field(default=None, repr=False)

    @property
    def cells(self):
        return self.level1.shape[0]

    def signature(self, i=None, j=None):
        """Chen-fold cells i..j-1 into one IntervalSignature (defaults: all)."""
        i = 0 if i is None else i
        j = self.cells if j is None else j
        sig = IntervalSignature.zero(
            self.edges[i], self.level1.shape[1], with_level3=self.level3 is not None
        )
        for k in range(i, j):
            l3 = None if self.level3 is None else self.level3[k]
            cell = IntervalSignature(
                s=self.edges[k],
                t=self.edges[k + 1],
                level1=self.level1[k],
                level2=self.level2[k],
                level3=l3,
            )
            sig = chen_combine(sig, cell)
        return sig


@dataclass(frozen=True)
class IntervalSignature:
    """Whole-interval lift summary: increments and iterated integrals on [s,t]."""

    s: float
    t: float
    level1: np.ndarray
    level2: np.ndarray
    level3: np.ndarray = None

    @staticmethod
    def zero(at, d, with_level3=False):
        return IntervalSignature(
            s=float(at),
            t=float(at),
            level1=np.zeros(d),
            level2=np.zeros((d, d)),
            level3=np.zeros((d, d, d)) if with_level3 else None,
        )


def _cell_increments(path):
    spec = path.spec
    return path.increments.reshape(path.increments.shape[0], 2 ** spec.m,
                                    spec.refine)


def lift2(path):
    """Level-2 lift of a path over all refine sub-steps of each cell."""
    spec = path.spec
    level1, level2 = levy_areas(_cell_increments(path))
    edges = np.arange(2 ** spec.m + 1) * 2.0 ** (-spec.m)
    return RoughLift(path=path, m=spec.m, edges=edges, level1=level1,
                     level2=level2)


def lift3(path, lift2_result):
    """Extend a level-2 lift with level-3 values from the same path."""
    if lift2_result.path is not path:
        raise DomainError("lift2 was computed from a different path")
    return replace(lift2_result, level3=level3_areas(_cell_increments(path)))


def chen_combine(a, b, tol=1e-12):
    """Chen relation for abutting interval signatures: [s,t] + [t,u] -> [s,u]."""
    if abs(a.t - b.s) > tol:
        raise DomainError(f"intervals [{a.s},{a.t}] and [{b.s},{b.t}] do not abut")
    level1 = a.level1 + b.level1
    level2 = a.level2 + b.level2 + np.outer(a.level1, b.level1)
    level3 = None
    if a.level3 is not None and b.level3 is not None:
        level3 = (
            a.level3
            + b.level3
            + np.einsum("a,bc->abc", a.level1, b.level2)
            + np.einsum("ab,c->abc", a.level2, b.level1)
        )
    return IntervalSignature(s=a.s, t=b.t, level1=level1, level2=level2, level3=level3)
