"""Covariance kernel of fractional Brownian motion and derived quantities.

Everything downstream is a function of the two-point covariance

    R(s,t) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2,

its rectangular increments, the unit-lag increment correlation sequence
rho(k), the Levy-area correlation sequence tilde_rho(i) (a two-parameter
Young integral of R against dR, evaluated by quadrature), the iterated
covariance recursion R^l_s, and the three series constants

    sigma2       = rho(0)^2 + 2 sum_k rho(k)^2
    sigma2_tilde = tilde_rho(0) + 2 sum_i tilde_rho(i)
    fclt_C       = sqrt(sigma2_tilde - sigma2 / 4)

which normalize the central limit behaviour of the antisymmetric sum
processes built in chaos.py.

One lag-table engine, ``_lag_tables``, serves every second moment computed
on sub-cell grids: for a vector of lags it builds, in chunks of bounded
size, the prefix and sub-cell covariance tables of the unit cells [0,1] and
[lag,lag+1].  The tilde_rho ladder sums its left-point table at each level,
and every finite-resolution cell-pair covariance in chaos.py reduces the
same tables over the lag axis.

Valid Hurst range is 1/3 < H <= 1/2.  H = 1/2 is the Brownian anchor where
everything has an elementary closed form (rho(k) = 0 for k >= 1,
tilde_rho(0) = 1/2, tilde_rho(i) = 0 for i >= 1) and is used as the exact
sanity case throughout the test-suite.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError, RefinementError

H_MIN = 1.0 / 3.0
H_MAX = 0.5


def _check_H(H):
    if not (H_MIN < H <= H_MAX):
        raise DomainError(f"H must lie in (1/3, 1/2], got {H}")


@dataclass(frozen=True)
class HurstModel:
    """Hurst parameter H in (1/3, 1/2] and driving dimension d >= 1."""

    H: float
    d: int = 2

    def __post_init__(self):
        _check_H(self.H)
        if int(self.d) != self.d or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d}")


def cov(s, t, H):
    """Two-point covariance R(s,t) = E[B_s B_t] of fBm; s, t >= 0.

    Accepts arrays (broadcasting).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = 0.5 * (
        np.abs(s) ** (2 * H) + np.abs(t) ** (2 * H) - np.abs(s - t) ** (2 * H)
    )
    if out.ndim == 0:
        return float(out)
    return out


def cov_rect(rect, H):
    """Rectangular increment R([s1,t1] x [s2,t2]) = E[B_{s1,t1} B_{s2,t2}].

    ``rect`` is ((s1, t1), (s2, t2)) with s1 <= t1 and s2 <= t2; endpoints may
    be arrays (broadcasting).  Additive over abutting rectangles.
    """
    (s1, t1), (s2, t2) = rect
    s1, t1 = np.asarray(s1, dtype=float), np.asarray(t1, dtype=float)
    s2, t2 = np.asarray(s2, dtype=float), np.asarray(t2, dtype=float)
    if np.any(t1 < s1) or np.any(t2 < s2):
        raise DomainError("reversed rectangle endpoints")
    out = cov(t1, t2, H) - cov(s1, t2, H) - cov(t1, s2, H) + cov(s1, s2, H)
    if np.ndim(out) == 0:
        return float(out)
    return out


def rho(k, H):
    """Unit-spacing increment correlation rho(k) = E[B_{0,1} B_{k,k+1}].

    Closed form (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) / 2; negative for all
    k >= 1 when H < 1/2 and identically zero there when H = 1/2.  Accepts
    integer arrays.
    """
    k = np.asarray(k, dtype=float)
    out = 0.5 * (
        np.abs(k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H) - 2 * np.abs(k) ** (2 * H)
    )
    if out.ndim == 0:
        return float(out)
    return out


def rho_tail_bound(K, H):
    """Upper bound on sum_{k>K} |rho(k)|, exact for the one-sided tail.

    rho(k) = g(k) - g(k-1) with g(k) = ((k+1)^{2H} - k^{2H}) / 2, and g is
    nonincreasing with limit 0 for H < 1/2, so the tail telescopes:
    sum_{k>K} |rho(k)| = g(K).  For H = 1/2 the tail is exactly zero.
    """
    _check_H(H)
    if K < 0:
        raise DomainError("K must be nonnegative")
    if H == 0.5:
        return 0.0
    return 0.5 * ((K + 1.0) ** (2 * H) - float(K) ** (2 * H))


def _rho_sq_tail_bound(K, H):
    # sum_{k>K} rho(k)^2 <= |rho(K+1)| * sum_{k>K} |rho(k)|  (|rho| decreasing)
    return abs(rho(K + 1, H)) * rho_tail_bound(K, H)


# ---------------------------------------------------------------------------
# unit-lattice lag tables

# entries in one (chunk, n+1, n+1) table: 512 KiB of float64
_TABLE_ELEMS = 2 ** 16


def _lag_tables(H, lags, n):
    """Yield cell-pair tables of cells [0,1] and [lag,lag+1], lags >= 0.

    Each cell has n sub-cells, u_k = k/n and v_l = lag + l/n.  One dict per
    chunk of at most max(1, 2^16 // (n+1)^2) lags, lag on axis 0:
      P   (L, n+1, n+1) prefix x prefix  R([0,u_k] x [lag,v_l]), closed grid
      F   (L, n, n)     P at the left points k, l < n
      g   (L, n, n)     sub x sub        R(sub_k x sub_l)
      pj  (L, n)        prefix_i x cell_j  R([0,u_k] x [lag,lag+1]) = P[:, k, n]
      pi  (L, n)        cell_i x prefix_j  R([0,1] x [lag,v_l]) = P[:, n, l]
      si  (L, n)        prefix variances u_k^{2H}, the same in both cells
      qi  (L, n)        prefix_i x cell_i  R([0,u_k] x [0,1]); qj alike in j
      r   (L,)          cell_i x cell_j    rho(lag)
    No (L, n+1, n+1) array exceeds 2^16 entries (512 KiB), or one lag's
    (n+1)^2 when that is larger, and fewer than ten are alive at once: under
    5 MiB per chunk however many lags there are.  An empty lag vector yields
    one empty chunk.
    """
    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    u = np.arange(n + 1) / n
    step = max(1, _TABLE_ELEMS // (n + 1) ** 2)
    for a in range(0, len(lags) or 1, step):
        lg = lags[a:a + step]
        P = cov(u[None, :, None], lg[:, None, None] + u[None, None, :], H)
        g = np.diff(np.diff(P, axis=1), axis=2)
        P -= cov(u[None, :], lg[:, None], H)[:, :, None]  # in place: R -> P
        si, q = (np.broadcast_to(x, (len(lg), n))
                 for x in (u[:-1] ** (2 * H), cov(u[:-1], 1.0, H)))
        yield {"P": P, "F": P[:, :-1, :-1], "g": g,
               "si": si, "pj": P[:, :-1, -1], "pi": P[:, -1, :-1],
               "qi": q, "qj": q, "r": rho(lg, H)}


def _transposed(t):
    """Tables of the mirrored pair at offset -lag: cells i and j swap roles."""
    return dict(t, P=t["P"].transpose(0, 2, 1), F=t["F"].transpose(0, 2, 1),
                g=t["g"].transpose(0, 2, 1), pi=t["pj"], pj=t["pi"],
                qi=t["qj"], qj=t["qi"])


class QuadValue(float):
    """A float carrying the achieved quadrature tolerance and final grid size."""

    def __new__(cls, value, achieved_tol, n):
        obj = super().__new__(cls, value)
        obj.achieved_tol = float(achieved_tol)
        obj.n = int(n)
        return obj


def _extrap_powers(H):
    # leading error exponents of the left-point double sum: multiples of
    # theta = 4H - 1 mixed with integer powers of 1/n; duplicates merge at
    # H = 1/2 where theta = 1
    th = 4 * H - 1
    powers = []
    for p in (th, 2 * th, 1.0, th + 1.0, 2.0):
        if all(abs(p - q) > 1e-9 for q in powers):
            powers.append(p)
    return powers


def tilde_rho(i, H, tol=1e-6, max_level=12):
    """Levy-area lag correlation tilde_rho(i) by refined left-point quadrature.

    Evaluates the two-parameter Young integral of R([0,u] x [i,v]) against
    dR(u,v) over [0,1] x [i,i+1] with left-point sums on dyadic n = 2^j grids,
    each the sum of F * g over the lag-i table of ``_lag_tables``.
    The raw ladder converges like a mixture of powers n^{-(4H-1)}, n^{-1},
    ... which is far too slow to certify small tolerances directly, so each
    new level re-fits the known-exponent error model
    a + sum_k b_k n^{-theta_k} and the stopping rule is two successive
    fitted limits within ``tol``.  At H = 1/2 the error is exactly
    proportional to 1/n and the fit is exact to rounding.

    Returns a QuadValue (a float with .achieved_tol and .n attached).
    Raises RefinementError, carrying the last two iterates, if the dyadic
    ladder is exhausted first.
    """
    _check_H(H)
    if i < 0:
        raise DomainError("lag must be nonnegative")
    if tol <= 0:
        raise DomainError("tol must be positive")
    powers = _extrap_powers(H)
    ns, vals = [], []
    best = None
    prev_best = None
    for j in range(3, max_level + 1):
        n = 2 ** j
        ns.append(float(n))
        # one chunk: the generator is used up here, so a level's tables are
        # freed before the next level builds its own
        vals.append(sum(float(np.sum(t["F"] * t["g"]))
                        for t in _lag_tables(H, [i], n)))
        prev_best = best
        best = vals[-1]
        if len(vals) >= 2 and vals[-1] == vals[-2]:
            # degenerate cases (Brownian disjoint lags) hit the limit exactly
            return QuadValue(vals[-1], 0.0, n)
        if len(vals) >= len(powers) + 2:
            use_n = np.array(ns[-7:])
            use_v = np.array(vals[-7:])
            A = np.column_stack(
                [np.ones_like(use_n)] + [use_n ** (-p) for p in powers]
            )
            coef, *_ = np.linalg.lstsq(A, use_v, rcond=None)
            best = float(coef[0])
        if prev_best is not None and len(vals) >= len(powers) + 3:
            gap = abs(best - prev_best)
            if gap < tol:
                return QuadValue(best, gap, n)
    raise RefinementError(
        f"tilde_rho({i}, H={H}) did not reach tol={tol} by n=2^{max_level}",
        last_two=(prev_best, best),
    )


def _tilde_rho_smooth(lags, H, nodes=32):
    """tilde_rho at integer lags >= 2 via the absolutely continuous density.

    Away from the diagonal the rectangular increments of R have the smooth
    density d2R/dudv = H(2H-1)(v-u)^{2H-2}, so

        tilde_rho(i) = int_0^1 int_i^{i+1} (R(u,v) - R(u,i))
                       * H(2H-1) (v-u)^{2H-2} dv du.

    For lags >= 2 the integrand is analytic on the closed rectangle and
    tensor Gauss-Legendre converges geometrically; vectorized over lags.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.size and lags.min() < 2:
        raise DomainError("smooth-density evaluation requires lag >= 2")
    if H == 0.5:
        return np.zeros_like(lags)
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)  # nodes on [0,1], weights w/2 per axis
    out = np.empty(lags.shape)
    chunk = 512
    for a in range(0, lags.size, chunk):
        lg = lags[a:a + chunk]               # (L,)
        v = lg[None, :] + u[:, None]         # (nodes, L)
        # f(u,v) = R(u,v) - R(u, lag), shape (nodes_u, nodes_v, L)
        f = cov(u[:, None, None], v[None, :, :], H) - cov(
            u[:, None], lg[None, :], H
        )[:, None, :]
        dens = H * (2 * H - 1) * (v[None, :, :] - u[:, None, None]) ** (2 * H - 2)
        out[a:a + chunk] = 0.25 * np.einsum("a,b,abl->l", w, w, f * dens)
    return out


@dataclass(frozen=True)
class SeriesConstants:
    """Truncated rho / tilde_rho tables and the limit constants."""

    H: float
    K: int
    rho: np.ndarray
    rho_tilde: np.ndarray
    tail_bound: float
    sigma2: float
    sigma2_tilde: float
    fclt_C: float
    quad_tol: float


def series_constants(H, tol=1e-6):
    """Compute sigma^2, sigma~^2 and the FCLT constant C by truncated series.

    The truncation K is chosen so the closed-form bound on the neglected
    rho^2 tail mass is below tol/10 (the tilde_rho tail is dominated by the
    same bound up to the lag-ratio factor folded into ``tail_bound``).
    tilde_rho(0) and tilde_rho(1) come from the refined left-point quadrature;
    lags >= 2 use the off-diagonal density with Gauss-Legendre, which agrees
    with the left-point route to quadrature tolerance (tested) and is cheap
    enough to evaluate tens of thousands of lags.

    fclt_C is assembled as sqrt(sigma2_tilde - (E[B_{0,1}^2])^2/4
    - (1/2) sum_{k>=1} rho(k)^2); the identity fclt_C^2 = sigma2_tilde
    - sigma2/4 is an algebraic consequence and is enforced to tolerance.

    Results are cached per (H, tol), at most 16 entries; the returned object
    is shared by callers, so its rho and rho_tilde arrays are read-only.
    """
    return _series_constants(H, tol)


@functools.lru_cache(maxsize=16)
def _series_constants(H, tol):
    _check_H(H)
    if tol <= 0:
        raise DomainError("tol must be positive")

    if H == 0.5:
        K = 2
    else:
        K = 4
        while _rho_sq_tail_bound(K, H) >= tol / 10.0 and K < 2 ** 22:
            K *= 2
        # binary search the smallest admissible K in (K/2, K]
        lo, hi = K // 2, K
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if _rho_sq_tail_bound(mid, H) < tol / 10.0:
                hi = mid
            else:
                lo = mid
        K = hi

    rho_tab = rho(np.arange(K + 1), H)
    t0 = tilde_rho(0, H, tol=tol)
    t1 = tilde_rho(1, H, tol=tol)
    achieved = max(t0.achieved_tol, t1.achieved_tol)
    tilde_tab = np.empty(K + 1)
    tilde_tab[0] = float(t0)
    tilde_tab[1] = float(t1)
    if K >= 2:
        tilde_tab[2:] = _tilde_rho_smooth(np.arange(2, K + 1), H)

    sigma2 = rho_tab[0] ** 2 + 2.0 * np.sum(rho_tab[1:] ** 2)
    sigma2_tilde = tilde_tab[0] + 2.0 * np.sum(tilde_tab[1:])
    # variance of the unit increment is cov(1,1,H) = 1 exactly
    var1 = cov(1.0, 1.0, H)
    c_sq = sigma2_tilde - 0.25 * var1 ** 2 - 0.5 * np.sum(rho_tab[1:] ** 2)
    # the expression above must coincide with sigma2_tilde - sigma2/4
    c_sq_alt = sigma2_tilde - sigma2 / 4.0
    if abs(c_sq - c_sq_alt) > 100 * max(tol, 1e-12):
        raise ConsistencyError(
            f"series bookkeeping mismatch: {c_sq} vs {c_sq_alt}"
        )
    if c_sq < -10 * tol:
        raise ConsistencyError(f"negative radicand {c_sq} for fclt_C")
    fclt_C = float(np.sqrt(max(c_sq, 0.0)))

    # tail accounting: rho^2 mass exactly bounded; tilde_rho tail dominated by
    # the same quantity times the observed |tilde_rho|/rho^2 ratio at the edge
    sq_tail = _rho_sq_tail_bound(K, H)
    if H == 0.5 or K < 16:
        ratio = 1.0
    else:
        edge = slice(max(2, K // 2), K + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(tilde_tab[edge]) / rho_tab[edge] ** 2
        r = r[np.isfinite(r)]
        ratio = float(max(1.0, r.max() if r.size else 1.0))
    tail_bound = sq_tail * (1.0 + 2.0 * ratio)

    rho_tab.flags.writeable = False
    tilde_tab.flags.writeable = False
    return SeriesConstants(
        H=H,
        K=K,
        rho=rho_tab,
        rho_tilde=tilde_tab,
        tail_bound=float(tail_bound),
        sigma2=float(sigma2),
        sigma2_tilde=float(sigma2_tilde),
        fclt_C=fclt_C,
        quad_tol=float(max(achieved, tol)),
    )


@dataclass(frozen=True)
class IteratedCov:
    """R^l_s on an n x n grid over [s,t]; values[i,j] = R^l_s(u_i, u_j)."""

    level: int
    s: float
    t: float
    n: int
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def corner(self):
        """R^l_s(t,t), the top-corner value used as a second-moment oracle."""
        return float(self.values[-1, -1])


def iterated_cov_Rl(l, interval, n, H, corner_average=False):
    """Iterated covariance R^l_s on a uniform n x n grid of [s,t]^2.

    Base case R^1_s(u,v) = R([s,u] x [s,v]); each further level is the
    left-point discrete double Young integral of the previous level against
    dR:  R^l(u_i, v_j) = sum_{k<=i, l<=j} R^{l-1}(u_{k-1}, v_{l-1})
    * R(cell_k x cell_l).  R^2_s(t,t) converges to the Levy-area second
    moment on [s,t] under refinement in n.

    With ``corner_average`` each cell contributes the average of the four
    corner values of the previous level instead of the lower-left one.  At
    level 2 this is exactly the second moment of the geometric (piecewise-
    linear signature) area at resolution n, matching the simulated lift.
    """
    _check_H(H)
    if l < 1:
        raise DomainError("level must be >= 1")
    if n < 2:
        raise DomainError("grid size must be >= 2")
    s, t = float(interval[0]), float(interval[1])
    if not (0.0 <= s < t):
        raise DomainError("interval must satisfy 0 <= s < t")
    grid = s + (t - s) * np.arange(n + 1) / n
    Rm = cov(grid[:, None], grid[None, :], H)
    base = Rm - cov(grid, s, H)[:, None] - cov(s, grid, H)[None, :] + cov(s, s, H)
    if l == 1:
        return IteratedCov(1, s, t, n, grid, base)
    g_cells = np.diff(np.diff(Rm, axis=0), axis=1)
    values = base
    for _ in range(l - 1):
        if corner_average:
            corner = 0.25 * (
                values[:-1, :-1] + values[1:, :-1] + values[:-1, 1:] + values[1:, 1:]
            )
        else:
            corner = values[:-1, :-1]
        inner = corner * g_cells
        acc = np.cumsum(np.cumsum(inner, axis=0), axis=1)
        nxt = np.zeros_like(values)
        nxt[1:, 1:] = acc
        values = nxt
    return IteratedCov(l, s, t, n, grid, values)
