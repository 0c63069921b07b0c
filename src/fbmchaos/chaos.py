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
covariances, built on the rho and tilde_rho tables of series_constants) and
finite-sub-step (matching the geometric lift at resolution n exactly, so
Monte Carlo comparisons are unbiased).  Every hand-derived covariance
formula is cross-checked in the tests against one brute-force pairing
(Isserlis) oracle, which expands both orders' cells into Gaussian monomials
with one builder, on the same discretization.

Each order has one per-lag table, vectorized over lags (cov_Q_pair,
cov_K_lags), a dyadic-scaled cell pair (exact_cov_Q, exact_cov_K) and a
stationary sum over lags (exact_second_moment_Q, second_moment_K):
increment stationarity makes the covariances functions of the lag only,
turning the 2^m x 2^m double sums into single sums over lags.  Every
finite-resolution table reads the lag-table engine of gaussian.py on the
unit lattice (cells of width 1 at integer offsets), reducing its prefix and
sub-cell covariance tables over the lag axis; offset -lag reads the
transposed tables.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
# _TABLE_ELEMS is re-exported: it bounds the chunks of the lag tables read here
from .gaussian import (_TABLE_ELEMS, _lag_tables, _transposed, rho,  # noqa: F401
                       rho_tail_bound, series_constants)

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


Q_PAIRS = ("qhat", "qcheck", "qtilde", "cross", "qhat_qcheck", "qtilde_qcheck")


def cov_Q_pair(H, which, lag, n_sub=None):
    """Unit-lattice cell-pair covariances of the order-2 family, per lag.

    ``which`` names the pair: the homogeneous ones ("qhat", "qcheck",
    "qtilde"), the hat/tilde cross ("cross") and the vanishing mixed pairs
    ("qhat_qcheck", "qtilde_qcheck" — odd in one component).  At lag l

        qhat:   (1/4) rho(l)^2        qcheck: (1/2) rho(l)^2
        qtilde: tilde_rho(l)          cross:  (1/4) rho(l)^2

    with tilde_rho read from the series_constants table, which refuses a
    lag beyond its K.  With ``n_sub`` the area entries (qtilde, cross) are
    the finite-resolution geometric values of tilde_rho_finite and
    cross_hat_tilde_finite, so Monte Carlo on a lift with n_sub sub-steps is
    matched without discretization bias.  ``lag`` is an integer or an
    integer array, sign ignored; an integer gives a float, evaluated on a
    0-d array as rho evaluates it.  The dyadic scale (2^{-m})^{4H} is the
    caller's business.
    """
    lags = np.abs(np.asarray(lag, dtype=int))
    if which in ("qhat", "qcheck") or (which == "cross" and n_sub is None):
        out = (0.5 if which == "qcheck" else 0.25) * rho(lags, H) ** 2
    elif which == "qtilde" and n_sub is None:
        sc = series_constants(H)
        if lags.max(initial=0) > sc.K:
            raise DomainError(f"lag beyond the tilde_rho table (K = {sc.K})")
        out = sc.rho_tilde[lags]
    elif which in ("qtilde", "cross"):
        finite = tilde_rho_finite if which == "qtilde" else cross_hat_tilde_finite
        out = finite(lags, H, n_sub).reshape(lags.shape)
    elif which in ("qhat_qcheck", "qtilde_qcheck"):
        out = np.zeros(lags.shape)
    else:
        raise DomainError(f"unknown pair {which!r}")
    return out if lags.ndim else float(out)


def exact_cov_Q(H, m, which, i, j, n_sub=None):
    """E[X_cell_i Y_cell_j] for the order-2 family at dyadic level m."""
    if not (1 <= i <= 2 ** m and 1 <= j <= 2 ** m):
        raise DomainError("cell indices out of range")
    return (2.0 ** -m) ** (4 * H) * cov_Q_pair(H, which, j - i, n_sub=n_sub)


def _lag_weighted_sum(count, per_lag):
    lags = np.arange(count)
    mult = np.where(lags == 0, count, 2.0 * (count - lags))
    return float(np.dot(mult, per_lag))


def exact_second_moment_Q(H, m, which, s=0.0, t=1.0, n_sub=None):
    """Closed-form E[X^m_{s,t} Y^m_{s,t}] for the order-2 family (unnormalized).

    ``which`` is a pair of Q_PAIRS, or "q" for Q = Qhat - Qtilde, whose
    per-lag covariance is qtilde + qhat - 2 cross.  Increment stationarity
    turns the double sum over the cells of (s, t] into a sum of cov_Q_pair
    over lags, scaled by Delta^{4H}; ``n_sub`` is passed on to cov_Q_pair.
    """
    i0, i1 = _cell_range(m, s, t)
    count = i1 - i0
    lags = np.arange(count)
    if which == "q":
        per = (cov_Q_pair(H, "qtilde", lags, n_sub)
               + cov_Q_pair(H, "qhat", lags, n_sub)
               - 2.0 * cov_Q_pair(H, "cross", lags, n_sub))
    else:
        per = cov_Q_pair(H, which, lags, n_sub)
    return (2.0 ** -m) ** (4 * H) * _lag_weighted_sum(count, per)


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


def _monomials(kind, base, n):
    """One unit cell's element as Gaussian monomials in fine increments.

    Variables are (component, global fine index); ``base`` is the cell's
    first fine index.  Component 0 plays alpha, 1 beta and 2 a third
    component that never repeats.  ``kind`` is an order-2 entry ("qhat",
    "qcheck", "qtilde") or a K pattern.  The order-2 area is geometric (the
    left-point area plus the half-product diagonal); the order-3 patterns
    use the left-point area, as their lag tables do.  Returns a list of
    (coeff, [var, ...]); qcheck carries a constant term (empty monomial).
    """
    A, B, C = ([(comp, base + k) for k in range(n)] for comp in range(3))
    area = [(1.0, [A[p], B[k]]) for k in range(n) for p in range(k)]
    if kind == "qhat":
        return [(0.5, [a, b]) for a in A for b in B]
    if kind == "qcheck":
        return [(0.5, [a, a2]) for a in A for a2 in A] + [(-0.5, [])]
    if kind == "qtilde":
        return area + [(0.5, [A[k], B[k]]) for k in range(n)]
    products = {"prod_abc": (A, B, C), "prod_aab": (A, A, B),
                "prod_aaa": (A, A, A)}
    if kind in products:
        return [(1.0, list(v)) for v in itertools.product(*products[kind])]
    if kind in ("area_cross", "area_own"):
        last = C if kind == "area_cross" else A
        return [(c, v + [x]) for c, v in area for x in last]
    if kind == "l3_aab":
        return [(0.5, [A[p], A[q], B[k]])
                for k in range(n) for p in range(k) for q in range(k)]
    if kind == "l3_abc":
        return [(1.0, [A[p], B[k], C[l]])
                for l in range(n) for k in range(l) for p in range(k)]
    # B^{aba} = X - 2Z and B^{baa} = Y/2 - X + Z, with X = B^{ab}B^a,
    # Y = (B^a)^2 B^b and Z = B^{aab}
    parts = {"l3_aba": ((1.0, "area_own"), (-2.0, "l3_aab")),
             "l3_baa": ((0.5, "prod_aab"), (-1.0, "area_own"),
                        (1.0, "l3_aab"))}
    if kind not in parts:
        raise DomainError(f"unknown kind {kind!r}")
    return [(w * c, v) for w, part in parts[kind]
            for c, v in _monomials(part, base, n)]


def _pairing_cov(H, n, lag, kind_i, kind_j):
    """E[X_i Y_j] of two unit cells at signed offset lag = j - i, by pairing.

    Each cell is expanded by ``_monomials`` into its n fine increments on the
    mesh-1/n grid spanning both cells; the three components are independent
    fBm copies.  Sums the Isserlis moment of every cross product of the two
    expansions.
    """
    size = n * (abs(lag) + 1)
    fine = (1.0 / n) ** (2 * H) * rho(
        np.abs(np.arange(size)[:, None] - np.arange(size)[None, :]), H
    )
    C = np.kron(np.eye(3), fine)
    total = 0.0
    for ci, vi in _monomials(kind_i, max(0, -lag) * n, n):
        for cj, vj in _monomials(kind_j, max(0, lag) * n, n):
            flat = [comp * size + pos for comp, pos in vi + vj]
            total += ci * cj * isserlis_moment(C, flat)
    return total


_Q_KINDS = {"cross": ("qhat", "qtilde"), "qhat_qcheck": ("qhat", "qcheck"),
            "qtilde_qcheck": ("qtilde", "qcheck")}


def brute_cov_Q(H, which, lag, n):
    """Pairing-enumeration oracle for the order-2 pair covariances.

    Unit cells, n fine sub-increments, geometric areas; matches
    cov_Q_pair(..., n_sub=n) exactly for the area entries and the
    n-independent closed forms for the rest.  Like cov_Q_pair it ignores the
    sign of the lag.
    """
    return _pairing_cov(H, n, abs(lag), *_Q_KINDS.get(which, (which, which)))


def brute_cov_K(H, pattern, lag, n):
    """Pairing-enumeration oracle for the unit-lattice pattern covariance.

    Discretizes each unit cell into n fine increments (mesh 1/n), expands
    K_i and K_j into Gaussian monomials, and sums Isserlis moments of all
    cross products; a negative lag puts cell j before cell i.  O((n^3)^2)
    Isserlis calls of degree 6 — keep n small.
    """
    return _pairing_cov(H, n, lag, pattern, pattern)


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
