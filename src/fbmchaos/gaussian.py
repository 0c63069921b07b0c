"""Covariance kernel of fractional Brownian motion and derived quantities.

Everything downstream is a function of the two-point covariance

    R(s,t) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2,

its rectangular increments, the unit-lag increment correlation sequence
rho(k), the Levy-area correlation sequence tilde_rho(i) (a two-parameter
Young integral, in closed form at lags 0 and 1 by the two-parameter
product rule and by an expansion in powers of 1/i beyond), and the three
series constants

    sigma2       = rho(0)^2 + 2 sum_k rho(k)^2
    sigma2_tilde = tilde_rho(0) + 2 sum_i tilde_rho(i)
    fclt_C       = sqrt(sigma2_tilde - sigma2 / 4)

which normalize the central limit behaviour of the antisymmetric sum
processes built in chaos.py; their series are summed term by term to lag
32 and in closed form, by Hurwitz zeta values, beyond.

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
    g, Delta(f^2) = 2fg + 2bc + 2(b+c)g + g^2 sums to rho(i)^2 over any
    grid; under refinement the 2fg sum tends to 2 tilde_rho(i), the bc sum
    to int int d_u f d_v f, and the rest vanishes like n^{1-4H}.  So
    tilde_rho(i) = rho(i)^2/2 - int int d_u f d_v f, in closed form at 0, 1:

        tilde_rho(0) = 2H^2 Gamma(2H)^2 / Gamma(4H+1) + H / (2(4H-1))
        tilde_rho(1) = rho(1)^2/2 - (2^{4H}-2)/8 + H(2^{4H}-2)/(4(4H-1))
                       + (2^{2H}-1)/4 - 2F1(1-2H, 2H; 2H+1; -1)/4,

    exactly 1/2 and 0 at H = 1/2.  Every lag i >= 2 reads the expansion
    i^{4H-2} sum_{n=2}^{J} c_n i^{-n} of ``_tilde_rho_coeffs``, which does
    not cancel however far the lag.  Vectorized over lags; an integer lag
    returns a float.
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
    flat = np.atleast_1d(lags)  # 0-d and array lags share one array loop
    out = np.where(flat == 0, t0, t1)
    far = flat[flat >= 2]
    out[flat >= 2] = far ** (4 * H - 2) * np.polynomial.polynomial.polyval(
        1.0 / far, _tilde_rho_coeffs(H))
    return float(out[0]) if lags.ndim == 0 else out


# highest power of 1/lag kept; at lag 2 (ratios <= 1/2) the rest is < 1e-16.
# Keep it >= 8: _remainder_bound's d_n bound holds only from n = J/2 + 1 >= 5
_J = 60


def _binom(a):  # C(a, j) for j = 0..J, any real a
    j = np.arange(_J)
    return np.concatenate([[1.0], np.cumprod((a - j) / (j + 1))])


@functools.lru_cache(maxsize=16)
def _tilde_rho_coeffs(H):
    """c_0..c_J with tilde_rho(i) = i^{4H-2} sum_n c_n i^{-n} at lags i >= 2.

    Off the diagonal R has the density H(2H-1)(v-u)^{2H-2}; with v = i + y,
    tilde_rho(i) is the integral over (u, y) in [0,1]^2 of f dens, where
    f = [(i+y)^{2H} - i^{2H} - (i+y-u)^{2H} + (i-u)^{2H}]/2 = i^{2H}/2
    sum_j C(2H,j) i^{-j} p_j with p_j = y^j - (y-u)^j + (-u)^j (p_0 = p_1 =
    0: those terms cancel exactly) and dens = H(2H-1) i^{2H-2} sum_l
    C(2H-2,l) i^{-l} (y-u)^l.  So c_n is H(2H-1)/2 times the moment of
    sum_{j+l=n} C(2H,j) C(2H-2,l) p_j (y-u)^l, of total degree n, which the
    tensor Gauss-Legendre rule of J/2 + 1 nodes integrates exactly.
    """
    x, w = np.polynomial.legendre.leggauss(_J // 2 + 1)
    u, y = np.repeat(0.5 * (x + 1), len(x)), np.tile(0.5 * (x + 1), len(x))
    wt = 0.25 * np.outer(w, w).ravel()
    j = np.arange(_J + 1)[:, None]
    d = (y - u) ** j
    p = y ** j - d + (-u) ** j
    p[:2] = 0.0
    moments = (_binom(2 * H)[:, None] * p * wt) @ (
        _binom(2 * H - 2)[:, None] * d).T               # [j, l]
    c = 0.5 * H * (2 * H - 1) * np.bincount((j + j.T).ravel(),
                                            weights=moments.ravel())[:_J + 1]
    c.flags.writeable = False
    return c


def _remainder_bound(H, K):
    """Proven bound on what the expansions drop beyond power J.

    |C(a,m)| <= a(1-a)/m for 0 < a <= 1, m >= 2, |C(2H-2,l)| <= l+1 and
    |p_j| <= 3 give, with h = (H(1-2H))^2, |c_n| <= (3/4) h n(n-1) and
    |d_n| <= h 2 H_{n-1} / n (d_n of rho(k)^2 = k^{4H} sum_n d_n k^{-2n},
    H_{n-1} the harmonic number), which is <= h (n-1)/4 for n >= 5 only
    (d_2 = h); the d_n sum starts at n = J/2 + 1, so J >= 8.  Summed over
    the lags >= 2 (tilde_rho) and > K (rho^2) by zeta(s, q) <= q^{-s}
    (1 + q/(s-1)), counted twice as sigma2 and sigma2_tilde count them.
    """
    def tail(A, a, b, q, n0):
        # sum_{n >= n0} A(n) zeta(a n + b, q), A(n+1)/A(n) falling in n
        s = a * n0 + b
        first = A(n0) * q ** -s * (1 + q / (s - 1))
        return first / (1 - A(n0 + 1) / A(n0) * q ** -a)

    h = (H * (1 - 2 * H)) ** 2
    return 2 * h * (tail(lambda n: 0.75 * n * (n - 1), 1, 2 - 4 * H, 2.0, _J + 1)
                    + tail(lambda n: 0.25 * (n - 1), 2, -4 * H, K + 1.0,
                           _J // 2 + 1))


@dataclass(frozen=True)
class SeriesConstants:
    """The limit constants, their series length K and proven tail bound."""

    H: float
    K: int
    tail_bound: float
    sigma2: float
    sigma2_tilde: float
    fclt_C: float


SERIES_K = 32  # lags summed term by term, the rest in closed form
_ROUNDING = 1e-14  # of sigma2 and sigma2_tilde, O(1) sums: about 50 ulp


def series_constants(H, tol=1e-6):
    """Compute sigma^2, sigma~^2 and the FCLT constant C.

    Lags 0..K (K = SERIES_K) are summed from the rho and tilde_rho tables,
    the rest in closed form by Hurwitz zeta values: rho(k) = k^{2H}
    sum_{j>=1} C(2H,2j) k^{-2j}, so with d the self-convolution of C(2H,2j)

        sum_{k>K} rho(k)^2     = sum_n d_n zeta(2n - 4H, K+1),
        sum_{k>K} tilde_rho(k) = sum_n c_n zeta(n + 2 - 4H, K+1).

    ``tail_bound`` is the proven bound of ``_remainder_bound`` on what the
    truncated expansions drop.  A tol that it plus a rounding allowance
    cannot certify is refused with CapacityError before any table is built;
    every other tol gets the same constants.

    fclt_C is assembled as sqrt(sigma2_tilde - (E[B_{0,1}^2])^2/4
    - (1/2) sum_{k>=1} rho(k)^2); the identity fclt_C^2 = sigma2_tilde
    - sigma2/4 is an algebraic consequence and is enforced to rounding.

    Results are cached per H, at most 16 entries, and shared by callers.
    """
    _check_H(H)
    if tol <= 0:
        raise DomainError("tol must be positive")
    tail_bound = _remainder_bound(H, SERIES_K)
    if tol < tail_bound + _ROUNDING:
        raise CapacityError(f"tol={tol} at H={H}: the series certify only "
                            f"{tail_bound + _ROUNDING:.1e} (bound + rounding)")
    return _series_constants(H)


def _series_tails(H, K):
    """sum_{k>K} rho(k)^2 and sum_{k>K} tilde_rho(k) as series_constants says."""
    from scipy.special import zeta

    a = _binom(2 * H)[2::2]                         # C(2H, 2j), j >= 1
    d = np.convolve(a, a)[:_J // 2 - 1]             # d_n, n = 2..J/2
    n = np.arange(2, _J + 1)
    return (float(d @ zeta(2 * n[:len(d)] - 4 * H, K + 1)),
            float(_tilde_rho_coeffs(H)[2:] @ zeta(n + 2 - 4 * H, K + 1)))


@functools.lru_cache(maxsize=16)
def _series_constants(H):
    rho_tab = rho(np.arange(SERIES_K + 1), H)
    tilde_tab = tilde_rho(np.arange(SERIES_K + 1), H)
    rho_sq_tail, tilde_tail = _series_tails(H, SERIES_K)

    rho_sq = np.sum(rho_tab[1:] ** 2) + rho_sq_tail
    sigma2 = rho_tab[0] ** 2 + 2.0 * rho_sq
    sigma2_tilde = tilde_tab[0] + 2.0 * (np.sum(tilde_tab[1:]) + tilde_tail)
    # variance of the unit increment is cov(1,1,H) = 1 exactly
    var1 = cov(1.0, 1.0, H)
    c_sq = sigma2_tilde - 0.25 * var1 ** 2 - 0.5 * rho_sq
    # the expression above must coincide with sigma2_tilde - sigma2/4
    c_sq_alt = sigma2_tilde - sigma2 / 4.0
    if abs(c_sq - c_sq_alt) > _ROUNDING:
        raise ConsistencyError(f"series bookkeeping mismatch: {c_sq} vs "
                               f"{c_sq_alt}")
    if c_sq < -_ROUNDING:
        raise ConsistencyError(f"negative radicand {c_sq} for fclt_C")
    fclt_C = float(np.sqrt(max(c_sq, 0.0)))
    return SeriesConstants(H, SERIES_K, float(_remainder_bound(H, SERIES_K)),
                           float(sigma2), float(sigma2_tilde), fclt_C)
