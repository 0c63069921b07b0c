"""Covariance kernel of fractional Brownian motion and derived quantities.

Everything downstream is a function of the two-point covariance

    R(s,t) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2,

its rectangular increments, the unit-lag increment correlation sequence
rho(k), the Levy-area correlation sequence tilde_rho(i) (a two-parameter
Young integral, in closed form at lags 0 and 1 by the two-parameter
product rule and by Gauss-Legendre on its smooth density beyond), and the
three series constants

    sigma2       = rho(0)^2 + 2 sum_k rho(k)^2
    sigma2_tilde = tilde_rho(0) + 2 sum_i tilde_rho(i)
    fclt_C       = sqrt(sigma2_tilde - sigma2 / 4)

which normalize the central limit behaviour of the antisymmetric sum
processes built in chaos.py.

One lag-table engine, ``_lag_tables``, serves every second moment computed
on sub-cell grids: for a vector of lags it builds, in chunks of bounded
size, the prefix and sub-cell covariance tables of the unit cells [0,1] and
[lag,lag+1].  Every finite-resolution cell-pair covariance in chaos.py
reduces these tables over the lag axis.

Valid Hurst range is 1/3 < H <= 1/2.  H = 1/2 is the Brownian anchor where
everything has an elementary closed form (rho(k) = 0 for k >= 1,
tilde_rho(0) = 1/2, tilde_rho(i) = 0 for i >= 1) and is used as the exact
sanity case throughout the test-suite.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError

__all__ = [
    "HurstModel",
    "SeriesConstants",
    "cov",
    "cov_rect",
    "rho",
    "rho_tail_bound",
    "tilde_rho",
    "series_constants",
]

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


def tilde_rho(lags, H):
    """Levy-area lag correlation tilde_rho(i) at integer lags i >= 0.

    tilde_rho(i) is the two-parameter Young integral of
    f(u,v) = R([0,u] x [i,v]) against df over [0,1] x [i,i+1].  On a cell
    with lower-left value f, edge increments b, c and rectangular increment
    g, Delta(f^2) = 2fg + 2bc + 2(b+c)g + g^2.  Summed over any grid this is
    f(1,i+1)^2 = rho(i)^2; under refinement the 2fg sum tends to
    2 tilde_rho(i), the bc sum to the Lebesgue integral of d_u f d_v f, and
    the rest vanishes like n^{1-4H}.  So tilde_rho(i) = rho(i)^2/2
    - int int d_u f d_v f, which has a closed form at lags 0 and 1:

        tilde_rho(0) = 2H^2 Gamma(2H)^2 / Gamma(4H+1) + H / (2(4H-1))
        tilde_rho(1) = rho(1)^2/2 - (2^{4H}-2)/8 + H(2^{4H}-2)/(4(4H-1))
                       + (2^{2H}-1)/4 - 2F1(1-2H, 2H; 2H+1; -1)/4,

    exactly 1/2 and 0 at H = 1/2.  Lags >= 2 use the off-diagonal density
    (``_tilde_rho_smooth``).  Vectorized over lags; an integer lag returns a
    float.
    """
    from scipy.special import hyp2f1

    _check_H(H)
    lags = np.asarray(lags, dtype=float)
    if np.any(lags < 0) or np.any(lags % 1):
        raise DomainError("lags must be nonnegative integers")
    a = 2.0 ** (4 * H) - 2
    t0 = (2 * H * H * math.gamma(2 * H) ** 2 / math.gamma(4 * H + 1)
          + H / (2 * (4 * H - 1)))
    t1 = (0.5 * rho(1, H) ** 2 - a / 8 + H * a / (4 * (4 * H - 1))
          + (2.0 ** (2 * H) - 1) / 4
          - 0.25 * float(hyp2f1(1 - 2 * H, 2 * H, 2 * H + 1, -1.0)))
    out = np.where(lags == 0, t0, t1)
    far = lags >= 2
    out[far] = _tilde_rho_smooth(lags[far], H)
    if out.ndim == 0:
        return float(out)
    return out


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


# the longest series truncation; a tol that needs more lags is refused
K_MAX = 2 ** 22


def series_constants(H, tol=1e-6):
    """Compute sigma^2, sigma~^2 and the FCLT constant C by truncated series.

    The truncation K is chosen so the closed-form bound on the neglected
    rho^2 tail mass is below tol/10 (the tilde_rho tail is dominated by the
    same bound up to the lag-ratio factor folded into ``tail_bound``).  A
    tol whose bound is not met by K_MAX lags is refused with CapacityError
    before any table is built.  The tilde_rho table is one ``tilde_rho``
    call: closed forms at lags 0 and 1, the off-diagonal density with
    Gauss-Legendre beyond.

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
        while _rho_sq_tail_bound(K, H) >= tol / 10.0:
            if K >= K_MAX:
                raise CapacityError(f"tol={tol} at H={H} needs more than "
                                    f"K_MAX = {K_MAX} series lags")
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
    tilde_tab = tilde_rho(np.arange(K + 1), H)

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
    )
