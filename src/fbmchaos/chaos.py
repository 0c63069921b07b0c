"""Weighted sum processes of chaos orders 2 and 3 and their exact moments.

Builds the discrete processes assembled from per-cell lift values on the
dyadic grid D_m:

  * weighted Levy-area sums      I^m_t(F)  = sum F_{tau_{i-1}} B^{a,b}_cell_i
  * weighted product sums        sum F_{tau_{i-1}} B^a_cell B^b_cell
  * the antisymmetric family     Qhat (half products), Qcheck (centered
    squares), Qtilde (areas), Q = Qhat - Qtilde
  * the order-3 family           level-3 values, area x increment,
    triple increment products

together with closed-form second-moment oracles for all of them.  The
oracles come in two flavours: converged (the continuum iterated-integral
covariances, built on rho and tilde_rho series) and finite-sub-step
(matching the geometric lift at resolution n exactly, so Monte Carlo
comparisons are unbiased).  Every hand-derived covariance formula is
cross-checked in the tests against the brute-force pairing (Isserlis)
oracle on the same discretization.

Every finite-resolution cell-pair covariance, of order 2 and 3, reads one
lag-table engine on the unit lattice (cells of width 1 at integer offsets):
for a vector of lags it builds, in chunks of bounded size, each cell pair's
prefix and sub-cell covariance tables, and each oracle reduces them over
the lag axis; offset -lag reads the transposed tables.  Increment
stationarity makes the covariances functions of the lag only, turning the
2^m x 2^m double sums into single sums over lags.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .gaussian import cov, rho, rho_tail_bound, series_constants, tilde_rho

__all__ = [
    "SumProcess",
    "QProcesses",
    "ThirdOrderSums",
    "weighted_levy_sum",
    "weighted_product_sum",
    "q_processes",
    "exact_second_moment_Q",
    "Q_PAIRS",
    "cov_Q_pair",
    "exact_cov_Q",
    "brute_cov_Q",
    "third_order_sums",
    "exact_cov_K",
    "cov_K_lags",
    "second_moment_K",
    "K_PATTERNS",
    "holder_norm",
    "isserlis_moment",
    "brute_cov_K",
    "rho_sum_bound_verify",
    "tilde_rho_finite",
    "cross_hat_tilde_finite",
]

HOLDER_MAX_M = 12
ISSERLIS_MAX_DEGREE = 12


# ---------------------------------------------------------------------------
# sum processes and Holder norms


@dataclass(frozen=True)
class SumProcess:
    """Partial sums on D_m; piecewise constant, evaluation via floor(2^m t)."""

    m: int
    values: np.ndarray = field(repr=False)  # length 2^m + 1, values[0] = 0
    norm_exponent: float = 0.0  # normalization is (2^m)^{norm_exponent}

    def __post_init__(self):
        if self.values.shape[0] != 2 ** self.m + 1:
            raise DomainError("values must have length 2^m + 1")

    @property
    def scale(self):
        return float(2 ** self.m) ** self.norm_exponent

    def at(self, t):
        """Value at time t (uses the dyadic floor), unnormalized."""
        idx = int(np.floor(2 ** self.m * t))
        return float(self.values[np.clip(idx, 0, 2 ** self.m)])

    def increment(self, s, t):
        return self.at(t) - self.at(s)


def _cells_from_values(m, cells):
    vals = np.zeros(2 ** m + 1)
    np.cumsum(cells, out=vals[1:])
    return vals


def _cell_range(m, s, t):
    if not (0.0 <= s <= t <= 1.0):
        raise DomainError("need 0 <= s <= t <= 1")
    return int(np.floor(2 ** m * s)), int(np.floor(2 ** m * t))


def _weights(F, m):
    w = np.asarray(F.values if hasattr(F, "values") else F, dtype=float)
    if w.ndim == 0:
        return np.full(2 ** m + 1, float(w))
    if w.shape[0] != 2 ** m + 1:
        raise DomainError("weight series length must be 2^m + 1")
    return w


def weighted_levy_sum(F, lift, alpha, beta, s=0.0, t=1.0):
    """sum_{i} F_{tau_{i-1}} B^{alpha,beta}_{cell_i} over cells of (s,t]."""
    if alpha == beta:
        raise DomainError("weighted Levy-area sums need distinct components")
    w = _weights(F, lift.m)
    i0, i1 = _cell_range(lift.m, s, t)
    areas = lift.level2[i0:i1, alpha, beta]
    return float(np.dot(w[i0:i1], areas))


def weighted_product_sum(F, path, alpha, beta, s=0.0, t=1.0):
    """sum_{i} F_{tau_{i-1}} B^alpha_{cell_i} B^beta_{cell_i}."""
    spec = path.spec
    m = spec.m
    w = _weights(F, m)
    i0, i1 = _cell_range(m, s, t)
    inc = path.increments.reshape(path.increments.shape[0], 2 ** m, spec.refine)
    cells = inc.sum(axis=2)
    prod = cells[alpha] * cells[beta]
    return float(np.dot(w[i0:i1], prod[i0:i1]))


def holder_norm(series, lam):
    """Exact discrete Holder norm sup_{s<t in D_m} |F_t - F_s| / (t-s)^lam.

    O(4^m) pairs; refuses m > 12.  ``series`` is a SumProcess, WeightSeries
    or plain value array on a dyadic grid.
    """
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda must lie in (0, 1)")
    vals = np.asarray(series.values if hasattr(series, "values") else series)
    npts = vals.shape[0]
    if npts < 2:
        raise DomainError("series needs at least 2 points")
    m = int(np.log2(npts - 1))
    if 2 ** m + 1 != npts:
        raise DomainError("series must live on a dyadic grid (2^m + 1 points)")
    if m > HOLDER_MAX_M:
        raise CapacityError(f"exact Holder sup needs m <= {HOLDER_MAX_M}")
    mesh = 2.0 ** -m
    best = 0.0
    # row blocks keep the O(4^m) scan within a bounded footprint
    for a in range(0, npts - 1, 512):
        b = min(a + 512, npts - 1)
        i = np.arange(a, b)[:, None]
        j = np.arange(1, npts)[None, :]
        mask = j > i
        gaps = np.where(mask, (j - i) * mesh, 1.0)
        diffs = np.abs(vals[None, 1:] - vals[a:b, None])
        best = max(best, float((np.where(mask, diffs, 0.0) / gaps ** lam).max()))
    return best


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
        Rm = cov(u[None, :, None], lg[:, None, None] + u[None, None, :], H)
        P = Rm - cov(u[None, :], lg[:, None], H)[:, :, None]
        si, q = (np.broadcast_to(x, (len(lg), n))
                 for x in (u[:-1] ** (2 * H), cov(u[:-1], 1.0, H)))
        yield {"P": P, "F": P[:, :-1, :-1],
               "g": np.diff(np.diff(Rm, axis=1), axis=2),
               "si": si, "pj": P[:, :-1, -1], "pi": P[:, -1, :-1],
               "qi": q, "qj": q, "r": rho(lg, H)}


def _transposed(t):
    """Tables of the mirrored pair at offset -lag: cells i and j swap roles."""
    return dict(t, P=t["P"].transpose(0, 2, 1), F=t["F"].transpose(0, 2, 1),
                g=t["g"].transpose(0, 2, 1), pi=t["pj"], pj=t["pi"],
                qi=t["qj"], qj=t["qi"])


# ---------------------------------------------------------------------------
# order-2 antisymmetric family


@dataclass(frozen=True)
class QProcesses:
    """Per-cell entries of the order-2 family for one lift."""

    m: int
    H: float
    qhat: np.ndarray = field(repr=False)    # (cells, d, d), symmetric, 0 diag
    qcheck: np.ndarray = field(repr=False)  # (cells, d), centered squares / 2
    qtilde: np.ndarray = field(repr=False)  # (cells, d, d) off-diagonal areas
    q: np.ndarray = field(repr=False)       # qhat - qtilde, skew-symmetric

    def process(self, which, alpha, beta=None):
        """SumProcess of one entry; which in {qhat, qcheck, qtilde, q}."""
        table = {"qhat": self.qhat, "qtilde": self.qtilde, "q": self.q}
        if which == "qcheck":
            cells = self.qcheck[:, alpha]
        elif which in table:
            cells = table[which][:, alpha, beta]
        else:
            raise DomainError(f"unknown family {which!r}")
        return SumProcess(
            m=self.m,
            values=_cells_from_values(self.m, cells),
            norm_exponent=2 * self.H - 0.5,
        )


def q_processes(lift, path=None):
    """Assemble Qhat, Qcheck, Qtilde, Q per cell from a level-2 lift.

    d^{m,alpha,beta} per cell is exactly the q entry (half product minus
    area), which by the shuffle identity is the antisymmetric part of the
    cell's level-2 value.
    """
    src = path if path is not None else lift.path
    H = src.spec.model.H
    B = lift.level1  # (cells, d)
    mesh2H = (2.0 ** -lift.m) ** (2 * H)
    qhat = 0.5 * np.einsum("ca,cb->cab", B, B)
    d = B.shape[1]
    ii = np.arange(d)
    qhat[:, ii, ii] = 0.0
    qcheck = 0.5 * (B ** 2 - mesh2H)
    qtilde = lift.level2.copy()
    qtilde[:, ii, ii] = 0.0
    return QProcesses(m=lift.m, H=H, qhat=qhat, qcheck=qcheck, qtilde=qtilde,
                      q=qhat - qtilde)


def tilde_rho_finite(lags, H, n):
    """E[Btilde_i Btilde_j] of geometric unit-cell areas at resolution n.

    Four-corner-average (tensor trapezoid) double sum of the prefix
    covariance against the cell measure: exact for the lift convention at
    any n, converging to tilde_rho(lag) as n grows.  Vectorized over lags.
    """
    def per_chunk(t):
        P = t["P"]
        corner = 0.25 * (P[:, :-1, :-1] + P[:, 1:, :-1]
                         + P[:, :-1, 1:] + P[:, 1:, 1:])
        return np.sum(corner * t["g"], axis=(1, 2))

    return np.concatenate([per_chunk(t) for t in _lag_tables(H, lags, n)])


def cross_hat_tilde_finite(lags, H, n):
    """E[Qhat-cell_i Qtilde-cell_j] / Delta^{4H} at resolution n, per lag.

    (1/2) sum_k (R(cell_i x prefix_k) + R(cell_i x sub_k)/2) R(cell_i x sub_k)
    on unit cells; equals rho(lag)^2/4 in the limit (exactly, for every n,
    when H = 1/2).
    """
    def per_chunk(t):
        hi = t["g"].sum(axis=1)  # R(cell_i x sub_l) by additivity
        return 0.5 * np.sum((t["pi"] + 0.5 * hi) * hi, axis=1)

    return np.concatenate([per_chunk(t) for t in _lag_tables(H, lags, n)])


def _lag_weighted_sum(count, per_lag):
    lags = np.arange(count)
    mult = np.where(lags == 0, count, 2.0 * (count - lags))
    return float(np.dot(mult, per_lag))


def exact_second_moment_Q(H, m, which, s=0.0, t=1.0, n_sub=None, tol=1e-6):
    """Closed-form E[(X^m_{s,t})^2] for the order-2 family (unnormalized).

    which in {"qhat", "qcheck", "qtilde", "q", "cross"}; "cross" is
    E[Qhat Qtilde].  Per cell pair at lag l the covariances are

        qhat:   (1/4) Delta^{4H} rho(l)^2        qcheck: (1/2) Delta^{4H} rho(l)^2
        qtilde: Delta^{4H} tilde_rho(l)          cross:  (1/4) Delta^{4H} rho(l)^2

    and Var(Q) = Var(Qtilde) - Var(Qhat) after the cross cancellation.
    With ``n_sub`` the area covariances switch to the finite-resolution
    geometric values so Monte Carlo on a lift with n_sub sub-steps is
    matched without discretization bias.
    """
    i0, i1 = _cell_range(m, s, t)
    count = i1 - i0
    if count == 0:
        return 0.0
    delta4h = (2.0 ** -m) ** (4 * H)
    lags = np.arange(count)
    rho_sq = rho(lags, H) ** 2
    if which in ("qtilde", "q"):
        if n_sub is None:
            sc = series_constants(H, tol=tol)
            if count - 1 > sc.K:
                raise DomainError("lag table too short for this range")
            tr = sc.rho_tilde[:count]
        else:
            tr = tilde_rho_finite(lags, H, n_sub)
    if which == "qhat":
        per = 0.25 * rho_sq
    elif which == "qcheck":
        per = 0.5 * rho_sq
    elif which == "cross":
        per = 0.25 * rho_sq if n_sub is None else cross_hat_tilde_finite(lags, H, n_sub)
    elif which == "qtilde":
        per = tr
    elif which == "q":
        cr = 0.25 * rho_sq if n_sub is None else cross_hat_tilde_finite(lags, H, n_sub)
        per = tr + 0.25 * rho_sq - 2.0 * cr
    else:
        raise DomainError(f"unknown family {which!r}")
    return delta4h * _lag_weighted_sum(count, per)


Q_PAIRS = ("qhat", "qcheck", "qtilde", "cross", "qhat_qcheck", "qtilde_qcheck")


def cov_Q_pair(H, which, lag, n_sub=None, tol=1e-6):
    """Unit-lattice cell-pair covariance for the order-2 family.

    ``which`` names the pair: the homogeneous ones ("qhat", "qcheck",
    "qtilde"), the hat/tilde cross ("cross") and the vanishing mixed pairs
    ("qhat_qcheck", "qtilde_qcheck" — odd in one component).  The dyadic
    scale (2^{-m})^{4H} is the caller's business.
    """
    lag = abs(int(lag))
    if which == "qhat" or (which == "cross" and n_sub is None):
        return 0.25 * rho(lag, H) ** 2
    if which == "qcheck":
        return 0.5 * rho(lag, H) ** 2
    if which == "qtilde":
        if n_sub is None:
            return float(tilde_rho(lag, H, tol=tol))
        return float(tilde_rho_finite([lag], H, n_sub)[0])
    if which == "cross":
        return float(cross_hat_tilde_finite([lag], H, n_sub)[0])
    if which in ("qhat_qcheck", "qtilde_qcheck"):
        return 0.0
    raise DomainError(f"unknown pair {which!r}")


def exact_cov_Q(H, m, which, i, j, n_sub=None):
    """E[X_cell_i Y_cell_j] for the order-2 family at dyadic level m."""
    if not (1 <= i <= 2 ** m and 1 <= j <= 2 ** m):
        raise DomainError("cell indices out of range")
    return (2.0 ** -m) ** (4 * H) * cov_Q_pair(H, which, j - i, n_sub=n_sub)


def _monomials_Q(kind, base, n):
    """One order-2 cell as Gaussian monomials in fine increments.

    Geometric convention throughout: areas carry the half-product
    compensator.  Component 0 plays alpha, component 1 beta; qcheck uses
    component 0 and carries a constant term (empty monomial).
    """
    A = [(0, base + k) for k in range(n)]
    B = [(1, base + k) for k in range(n)]
    if kind == "qhat":
        return [(0.5, [a, b]) for a in A for b in B]
    if kind == "qcheck":
        return [(0.5, [a, a2]) for a in A for a2 in A] + [(-0.5, [])]
    if kind == "qtilde":
        terms = [(1.0, [A[p], B[k]]) for k in range(n) for p in range(k)]
        terms += [(0.5, [A[k], B[k]]) for k in range(n)]
        return terms
    raise DomainError(f"unknown kind {kind!r}")


def brute_cov_Q(H, which, lag, n):
    """Pairing-enumeration oracle for the order-2 pair covariances.

    Unit cells, n fine sub-increments, geometric areas; matches
    cov_Q_pair(..., n_sub=n) exactly for the area entries and the
    n-independent closed forms for the rest.
    """
    kinds = {
        "qhat": ("qhat", "qhat"),
        "qcheck": ("qcheck", "qcheck"),
        "qtilde": ("qtilde", "qtilde"),
        "cross": ("qhat", "qtilde"),
        "qhat_qcheck": ("qhat", "qcheck"),
        "qtilde_qcheck": ("qtilde", "qcheck"),
    }
    if which not in kinds:
        raise DomainError(f"unknown pair {which!r}")
    ki, kj = kinds[which]
    return _pairing_cov(H, n, lag, 2, _monomials_Q(ki, 0, n),
                        _monomials_Q(kj, abs(lag) * n, n))


# ---------------------------------------------------------------------------
# order-3 family


@dataclass(frozen=True)
class ThirdOrderSums:
    """Per-cell order-3 entries from a level-3 lift."""

    m: int
    H: float
    level3: np.ndarray = field(repr=False)    # (cells, d, d, d)
    area_inc: np.ndarray = field(repr=False)  # (cells, d, d, d): B^{ab} B^g
    triple: np.ndarray = field(repr=False)    # (cells, d, d, d): B^a B^b B^g

    def cells(self, kind, a, b, g):
        table = {"level3": self.level3, "area_inc": self.area_inc,
                 "triple": self.triple}
        if kind not in table:
            raise DomainError(f"unknown kind {kind!r}")
        return table[kind][:, a, b, g]

    def process(self, kind, a, b, g):
        return SumProcess(
            m=self.m,
            values=_cells_from_values(self.m, self.cells(kind, a, b, g)),
            norm_exponent=2 * self.H - 0.5,
        )


def third_order_sums(lift, path=None):
    """Assemble the order-3 per-cell families from a level-3 lift."""
    if lift.level3 is None:
        raise DomainError("third-order sums need a level-3 lift")
    src = path if path is not None else lift.path
    H = src.spec.model.H
    B = lift.level1
    area_inc = np.einsum("cab,cg->cabg", lift.level2, B)
    triple = np.einsum("ca,cb,cg->cabg", B, B, B)
    return ThirdOrderSums(m=lift.m, H=H, level3=lift.level3,
                          area_inc=area_inc, triple=triple)


K_PATTERNS = (
    "prod_abc", "prod_aab", "prod_aaa",
    "area_cross", "area_own",
    "l3_abc", "l3_aab", "l3_aba", "l3_baa",
)


def _cov_area_own(t):
    # E[(B^{ab}B^a)_i (B^{ab}B^a)_j] = 6S + 6T + U  (left-point sums)
    g = t["g"]
    return (t["r"] * np.einsum("lkj,lkj->l", t["F"], g)
            + np.einsum("lk,lj,lkj->l", t["pj"], t["pi"], g)
            + np.einsum("lk,lj,lkj->l", t["qi"], t["qj"], g))


def _cov_l3_aab(t):
    # E[B^{aab}_i B^{aab}_j] = (1/2) sum F^2 g + (1/4) sum si sj g
    F, g = t["F"], t["g"]
    return (0.5 * np.einsum("lkj,lkj,lkj->l", F, F, g)
            + 0.25 * np.einsum("lk,lj,lkj->l", t["si"], t["si"], g))


def _cross_X_Z(t):
    # X = (B^{ab}B^a) on cell i, Z = B^{aab} on cell j:
    # E[X_i Z_j] = sum_{kl} (1/2)(qi_k sj_l + 2 F_kl pi_l) g_kl
    F, g = t["F"], t["g"]
    return (0.5 * np.einsum("lk,lj,lkj->l", t["qi"], t["si"], g)
            + np.einsum("lkj,lj,lkj->l", F, t["pi"], g))


def _cross_Y_X(t):
    # Y = (B^a)^2 B^b on cell i, X = (B^{ab}B^a) on cell j:
    # E[Y_i X_j] = sum_l (qj_l + 2 pi_l r) hi_l,  hi_l = R(cell_i x sub_l)
    hi = t["g"].sum(axis=1)  # R(cell_i x sub_l) by additivity
    return np.einsum("lj,lj->l", t["qj"] + 2.0 * t["pi"] * t["r"][:, None], hi)


def _cross_Y_Z(t):
    # Y = (B^a)^2 B^b on cell i, Z = B^{aab} on cell j:
    # E[Y_i Z_j] = (1/2) sum_l (sj_l + 2 pi_l^2) hi_l
    hi = t["g"].sum(axis=1)
    return 0.5 * np.einsum("lj,lj->l", t["si"] + 2.0 * t["pi"] ** 2, hi)


def _cov_K_tables(pattern, tb, tt):
    """One table pattern per lag: tb holds cell i against cell j at offset
    +lag, tt the mirrored pair (offset -lag)."""
    r, F, g = tb["r"], tb["F"], tb["g"]
    if pattern == "area_cross":
        return r * np.einsum("lkj,lkj->l", F, g)
    if pattern == "area_own":
        return _cov_area_own(tb)
    if pattern == "l3_abc":
        # double discrete Young sum over k < l, k' < l' of F g g
        acc = np.cumsum(np.cumsum(F * g, axis=1), axis=2)
        return np.einsum("lkj,lkj->l", acc[:, :-1, :-1], g[:, 1:, 1:])
    if pattern == "l3_aab":
        return _cov_l3_aab(tb)
    if pattern == "l3_aba":
        # B^{aba} = X - 2 Z with X = B^{ab}B^a, Z = B^{aab}
        return (
            _cov_area_own(tb)
            - 2.0 * _cross_X_Z(tb)
            - 2.0 * _cross_X_Z(tt)
            + 4.0 * _cov_l3_aab(tb)
        )
    # l3_baa: B^{baa} = Y/2 - X + Z with Y = (B^a)^2 B^b
    yy = 2.0 * r ** 3 + r
    return (
        0.25 * yy
        - 0.5 * _cross_Y_X(tb)
        - 0.5 * _cross_Y_X(tt)
        + 0.5 * _cross_Y_Z(tb)
        + 0.5 * _cross_Y_Z(tt)
        + _cov_area_own(tb)
        - _cross_X_Z(tb)
        - _cross_X_Z(tt)
        + _cov_l3_aab(tb)
    )


def _cov_K_unit(H, pattern, offset, n):
    """Unit-lattice covariance of one K pattern at signed cell offset."""
    return float(cov_K_lags(H, pattern, [offset], n, symmetrized=False)[0])


def exact_cov_K(H, m, pattern, i, j, n_quad=32):
    """E[K_cell_i K_cell_j] for one order-3 pattern at dyadic level m.

    Cells are 1-indexed.  The value is the explicit discrete inner-product
    sum on an n_quad x n_quad sub-grid of each cell (patterns without
    quadrature are closed forms), scaled by (2^{-m})^{6H}.
    """
    if n_quad < 2:
        raise DomainError("n_quad must be >= 2")
    if not (1 <= i <= 2 ** m and 1 <= j <= 2 ** m):
        raise DomainError("cell indices out of range")
    scale = (2.0 ** -m) ** (6 * H)
    return scale * _cov_K_unit(H, pattern, j - i, n_quad)


def cov_K_lags(H, pattern, lags, n_quad=32, symmetrized=True):
    """Unit-lattice pattern covariances per signed lag, vectorized.

    With ``symmetrized`` the value at lag l is (c(l) + c(-l)) / 2, which is
    what enters stationary double sums.  The product patterns are closed
    forms in rho; the others read the lag tables, with c(-l) taken from the
    transposed tables of |l|.
    """
    if pattern not in K_PATTERNS:
        raise DomainError(f"unknown pattern {pattern!r}")
    lags = np.atleast_1d(np.asarray(lags)).astype(int)
    if pattern.startswith("prod_"):
        # triple increment products: E[K_i K_j] = a rho^3 + b rho
        a, b = {"prod_abc": (1.0, 0.0), "prod_aab": (2.0, 1.0),
                "prod_aaa": (6.0, 9.0)}[pattern]
        r = rho(np.abs(lags), H)
        return a * r ** 3 + b * r

    def per_chunk(t):
        tt = _transposed(t)
        return np.stack([_cov_K_tables(pattern, t, tt),
                         _cov_K_tables(pattern, tt, t)])

    plus, minus = np.concatenate(
        [per_chunk(t) for t in _lag_tables(H, np.abs(lags), n_quad)], axis=1)
    if symmetrized:
        return np.where(lags == 0, plus, 0.5 * (plus + minus))
    return np.where(lags < 0, minus, plus)


def second_moment_K(H, m, pattern, s=0.0, t=1.0, n_quad=32):
    """E[(K^m_{s,t})^2] by lag-stationary summation of pair covariances."""
    i0, i1 = _cell_range(m, s, t)
    count = i1 - i0
    if count == 0:
        return 0.0
    per = cov_K_lags(H, pattern, np.arange(count), n_quad=n_quad)
    return (2.0 ** -m) ** (6 * H) * _lag_weighted_sum(count, per)


# ---------------------------------------------------------------------------
# Isserlis brute-force oracle


def isserlis_moment(cov_matrix, monomial):
    """E[prod_k X_{monomial[k]}] for centered jointly Gaussian X.

    Sum over perfect matchings of products of covariances; zero for odd
    degree.  Degree capped at 12 (10395 pairings).
    """
    idx = tuple(monomial)
    if len(idx) > ISSERLIS_MAX_DEGREE:
        raise CapacityError(f"monomial degree {len(idx)} exceeds cap")
    C = np.asarray(cov_matrix, dtype=float)

    def rec(ids):
        if not ids:
            return 1.0
        if len(ids) % 2:
            return 0.0
        head, rest = ids[0], ids[1:]
        total = 0.0
        for pos in range(len(rest)):
            c = C[head, rest[pos]]
            if c != 0.0:
                total += c * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(idx)


def _monomials_K(pattern, base, n, geometric=False):
    """K over one unit cell as Gaussian monomials in fine increments.

    Variables are indexed (component, global fine index); ``base`` is the
    cell's first fine index.  Components: 0 plays alpha, 1 plays beta.
    Returns a list of (coeff, [var, var, var]) triples.
    """
    A = [(0, base + k) for k in range(n)]
    B = [(1, base + k) for k in range(n)]
    terms = []
    if pattern == "prod_abc":
        # third component never repeats: model as component 2
        for a in A:
            for b in B:
                for c in [(2, base + k) for k in range(n)]:
                    terms.append((1.0, [a, b, c]))
    elif pattern == "prod_aab":
        for a1 in A:
            for a2 in A:
                for b in B:
                    terms.append((1.0, [a1, a2, b]))
    elif pattern == "prod_aaa":
        for a1 in A:
            for a2 in A:
                for a3 in A:
                    terms.append((1.0, [a1, a2, a3]))
    elif pattern in ("area_cross", "area_own"):
        for k in range(n):
            for p in range(k):  # prefix A_{k} = sum_{p<k}
                for q in range(n):
                    comp = 2 if pattern == "area_cross" else 0
                    terms.append((1.0, [A[p], B[k], (comp, base + q)]))
            if geometric:
                for q in range(n):
                    comp = 2 if pattern == "area_cross" else 0
                    terms.append((0.5, [A[k], B[k], (comp, base + q)]))
    elif pattern == "l3_aab":
        for k in range(n):
            for p in range(k):
                for q in range(k):
                    terms.append((0.5, [A[p], A[q], B[k]]))
    elif pattern == "l3_abc":
        for l in range(n):
            for k in range(l):
                for p in range(k):
                    terms.append((1.0, [A[p], B[k], (2, base + l)]))
    elif pattern == "l3_aba":
        x = _monomials_K("area_own", base, n, geometric)
        z = _monomials_K("l3_aab", base, n, geometric)
        terms = x + [(-2.0 * c, v) for c, v in z]
    elif pattern == "l3_baa":
        y = _monomials_K("prod_aab", base, n, geometric)
        x = _monomials_K("area_own", base, n, geometric)
        z = _monomials_K("l3_aab", base, n, geometric)
        terms = [(0.5 * c, v) for c, v in y] + [(-c, v) for c, v in x] + z
    else:
        raise DomainError(f"unknown pattern {pattern!r}")
    return terms


def brute_cov_K(H, pattern, lag, n, geometric=False):
    """Pairing-enumeration oracle for the unit-lattice pattern covariance.

    Discretizes each unit cell into n fine increments (mesh 1/n), expands
    K_i and K_j into Gaussian monomials, and sums Isserlis moments of all
    cross products.  O((n^3)^2) Isserlis calls of degree 6 — keep n small.
    """
    return _pairing_cov(H, n, lag, 3, _monomials_K(pattern, 0, n, geometric),
                        _monomials_K(pattern, lag * n, n, geometric))


def _pairing_cov(H, n, lag, comps, terms_i, terms_j):
    """E[X_i X_j] of two cells' monomial expansions by Isserlis pairing.

    Variables are (component, fine index) pairs on the mesh-1/n grid of
    cells 0..|lag|; the ``comps`` components are independent fBm copies.
    Sums the Isserlis moment of every cross product of the two lists.
    """
    size = n * (abs(lag) + 1)
    fine = (1.0 / n) ** (2 * H) * rho(
        np.abs(np.arange(size)[:, None] - np.arange(size)[None, :]), H
    )
    C = np.kron(np.eye(comps), fine)
    total = 0.0
    for ci, vi in terms_i:
        for cj, vj in terms_j:
            flat = [comp * size + pos for comp, pos in vi + vj]
            total += ci * cj * isserlis_moment(C, flat)
    return total


# ---------------------------------------------------------------------------
# rho-sum combinatorial bound


def rho_sum_bound_verify(p, q, assignment, m_range, s=0.0, t=1.0, H=0.4):
    """Exhaustively check the multiple-sum bound for one exponent assignment.

    ``assignment`` maps frozenset({i, j}) (0-based, i != j, i, j < p) to a
    non-negative integer a({i,j}); admissibility requires
    sum_{j != i} a({i,j}) <= q for every i.  The sequence is
    rho(n) = |rho_H(n)| / sum |rho_H| so that sum rho <= 1 = C, and the
    claim is  LHS <= count^{p - ceil(N/q)}  per m.  Returns a report dict
    with per-m rows and an overall flag.
    """
    if p < 2 or q < 1:
        raise DomainError("need p >= 2 and q >= 1")
    a = {frozenset(k): int(v) for k, v in assignment.items() if int(v) != 0}
    for key in a:
        if len(key) != 2 or not all(0 <= i < p for i in key):
            raise DomainError(f"bad pair {set(key)}")
        if a[key] < 0:
            raise DomainError("exponents must be non-negative")
    for i in range(p):
        if sum(v for k, v in a.items() if i in k) > q:
            raise DomainError(f"row sum at index {i} exceeds q={q}")
    N = sum(a.values())
    exponent = p - int(np.ceil(N / q)) if N else p

    # sum over all integer lags of the absolute correlations, in closed form
    # (2 for H < 1/2, 1 at H = 1/2): the normalized sequence then has unit
    # mass, so the lemma's C is 1
    total = 1.0 + 2.0 * rho_tail_bound(0, H)
    rows = []
    ok = True
    for m in m_range:
        i0, i1 = _cell_range(m, s, t)
        count = i1 - i0
        ks = np.arange(count)
        seq = np.abs(rho(np.abs(ks[:, None] - ks[None, :]), H)) / total
        operands = []
        subs = []
        letters = "abcdefgh"[:p]
        for key, e in a.items():
            i, j = sorted(key)
            operands.append(seq ** e)
            subs.append(letters[i] + letters[j])
        if operands:
            lhs = float(
                np.einsum(",".join(subs) + "->", *operands, optimize=True)
                * count ** (p - len(set("".join(subs))))
            )
        else:
            lhs = float(count) ** p
        bound = float(count) ** exponent
        passed = lhs <= bound * (1.0 + 1e-12)
        ok = ok and passed
        rows.append({"m": m, "count": count, "lhs": lhs, "bound": bound,
                     "pass": passed})
    return {"p": p, "q": q, "N": N, "exponent": exponent, "rows": rows,
            "pass": ok}


def admissible_assignments(p, q, max_exponent=3):
    """All exponent assignments on pairs of {0..p-1} with row sums <= q."""
    pairs = [frozenset(c) for c in itertools.combinations(range(p), 2)]
    out = []
    for combo in itertools.product(range(max_exponent + 1), repeat=len(pairs)):
        a = dict(zip(pairs, combo))
        if all(
            sum(v for k, v in a.items() if i in k) <= q for i in range(p)
        ):
            out.append({k: v for k, v in a.items() if v})
    return out
