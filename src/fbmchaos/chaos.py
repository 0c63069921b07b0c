"""Weighted sum processes of chaos orders 2 and 3 and their exact moments.

One batched path: q_processes and third_order_sums assemble cells X_i on
the dyadic grid D_m from the lift arrays, leading replica axes kept, and
sum_process reduces them to I^m_t(F) = sum_{i <= floor(2^m t)}
F_{tau_{i-1}} X_i, normalized by (2^m)^{q H - 1/2} at chaos order q
(normalization).  The cells are

  * the antisymmetric family     Qhat (half products), Qcheck (centered
    squares), Qtilde (Levy areas), Q = Qhat - Qtilde
  * the order-3 family           level-3 values, area x increment,
    triple increment products

together with closed-form second-moment oracles for all of them.  The
oracles come in two flavours: converged (the continuum iterated-integral
covariances, built on rho and tilde_rho of gaussian.py) and
finite-sub-step (matching the geometric lift at resolution n exactly, so
Monte Carlo comparisons are unbiased).  Every hand-derived covariance
formula is cross-checked in the tests against one brute-force pairing
(Isserlis) oracle, which expands both orders' cells into Gaussian monomials
with one builder, on the same discretization.

Each order has one per-lag table, vectorized over lags (cov_Q_pair,
cov_K_lags), and a stationary sum over lags (exact_second_moment_Q,
second_moment_K); order 2 also has a dyadic-scaled cell pair
(exact_cov_Q).  Increment stationarity makes the covariances functions of
the lag only, turning the 2^m x 2^m double sums into single sums over
lags.  Every finite-resolution table reads the lag-table engine of
gaussian.py on the unit lattice (cells of width 1 at integer offsets),
reducing its prefix and sub-cell covariance tables over the lag axis;
offset -lag reads the transposed tables.
"""

import functools
import itertools

import numpy as np

from .errors import CapacityError, DomainError
from .gaussian import (_check_H, _lag_tables, _transposed, rho,
                       rho_tail_bound, tilde_rho)

__all__ = [
    "sum_process",
    "normalization",
    "q_processes",
    "exact_second_moment_Q",
    "Q_PAIRS",
    "cov_Q_pair",
    "exact_cov_Q",
    "brute_cov_Q",
    "third_order_sums",
    "cov_K_lags",
    "second_moment_K",
    "K_PATTERNS",
    "isserlis_moment",
    "rho_sum_bound_verify",
    "tilde_rho_finite",
    "cross_hat_tilde_finite",
    "admissible_assignments",
]

ISSERLIS_MAX_DEGREE = 12


# ---------------------------------------------------------------------------
# sum processes


def sum_process(cells, times=1.0, weights=None):
    """I^m_t(F) = sum_{i <= floor(2^m t)} F_{tau_{i-1}} X_i, per replica.

    ``cells`` holds X_1..X_{2^m} on its last axis, after any leading replica
    axes; ``weights`` (default 1) broadcasts to ``cells`` and holds F at each
    cell's left point.  ``times`` is a time or an array of times in [0, 1],
    whose shape replaces the cell axis.  Each value is a slice sum: the last
    entry of a cumsum over the same cells has different bits.
    """
    cells = np.asarray(cells)
    count = cells.shape[-1] if cells.ndim else 0
    if count < 1 or count & (count - 1):
        raise DomainError(f"need 2^m cells on the last axis, got {count}")
    if weights is not None:
        try:
            cells = np.broadcast_to(weights, cells.shape) * cells
        except ValueError:
            raise DomainError("weights must broadcast to the cells") from None
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
        raise DomainError("times must lie in [0, 1]")
    sums = [cells[..., :k].sum(axis=-1)
            for k in np.floor(count * t).astype(int).ravel()]
    return np.stack(sums, axis=-1).reshape(cells.shape[:-1] + t.shape)


def normalization(m, H, order, power=1):
    """(2^m)^{order H - 1/2}, the scale of an order-``order`` sum process at
    level m, to the ``power``: one power of 2^m, since squaring the rounded
    scale drifts (8.000000000000002 at H = 1/2, m = 3, order 2)."""
    return float(2 ** m) ** (power * (order * H - 0.5))


# ---------------------------------------------------------------------------
# order-2 antisymmetric family


def q_processes(level1, level2, H):
    """Order-2 cells from levy_areas' (..., 2^m, d) and (..., 2^m, d, d).

    A dict keyed as the oracles' families: "qhat" (half products) and
    "qtilde" (areas), both with zero diagonals, "qcheck" (..., 2^m, d)
    (centered half squares) and "q" = qhat - qtilde, the antisymmetric
    part of level 2.
    """
    mesh2H = (1.0 / level1.shape[-2]) ** (2 * H)
    # pair by pair, in level2's memory layout: one long vector operation
    # each, where d x d broadcasting iterates over axes of length d
    qhat, qtilde = np.zeros_like(level2), np.zeros_like(level2)
    for a, b in itertools.permutations(range(level1.shape[-1]), 2):
        qhat[..., a, b] = 0.5 * level1[..., a] * level1[..., b]
        qtilde[..., a, b] = level2[..., a, b]
    return {"qhat": qhat, "qcheck": 0.5 * (level1 ** 2 - mesh2H),
            "qtilde": qtilde, "q": qhat - qtilde}


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

    with tilde_rho from gaussian.tilde_rho, which answers every lag.  With
    ``n_sub`` the area entries (qtilde, cross) are the finite-resolution
    geometric values of tilde_rho_finite and cross_hat_tilde_finite, so
    Monte Carlo on a lift with n_sub sub-steps is matched without
    discretization bias.  ``lag`` is an integer or an integer array, sign
    ignored; an integer gives a float, evaluated on a 0-d array as rho
    evaluates it.  The dyadic scale (2^{-m})^{4H} is the caller's business.
    """
    lags = np.abs(np.asarray(lag, dtype=int))
    if which in ("qhat", "qcheck") or (which == "cross" and n_sub is None):
        out = (0.5 if which == "qcheck" else 0.25) * rho(lags, H) ** 2
    elif which == "qtilde" and n_sub is None:
        out = tilde_rho(lags, H)
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


def _cell_range(m, s, t):
    if not (0.0 <= s <= t <= 1.0):
        raise DomainError("need 0 <= s <= t <= 1")
    return int(np.floor(2 ** m * s)), int(np.floor(2 ** m * t))


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


def third_order_sums(level1, level2, level3):
    """Per-cell order-3 cells from the arrays of levy_areas and level3_areas.

    Leading replica axes are kept.  Returns a dict of (..., 2^m, d, d, d)
    arrays: "level3", "area_inc" (B^{ab} B^g) and "triple" (B^a B^b B^g).
    """
    if level3 is None:
        raise DomainError("third-order sums need level-3 values")
    return {"level3": level3,
            "area_inc": np.einsum("...ab,...g->...abg", level2, level1),
            "triple": np.einsum("...a,...b,...g->...abg",
                                level1, level1, level1)}


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


# ---------------------------------------------------------------------------
# rho-sum combinatorial bound


@functools.lru_cache(maxsize=32)
def _seq_power(H, count, e):
    """seq^e on count x count cells, seq = |rho(|i-j|)| / sum_k |rho(k)| of
    unit mass (the lemma's C is 1); read-only, as callers share it."""
    ks = np.arange(count)
    out = (np.abs(rho(np.abs(ks[:, None] - ks[None, :]), H))
           / (1.0 + 2.0 * rho_tail_bound(0, H))) ** e
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1024)
def _class_sum(H, count, v, exponents):
    """Sum over count^v cell indices of prod S^e[k_i, k_j] for ``exponents``
    on the pairs of range(v), pair {v-2, v-1} first.  With A = S^e (all ones
    for an absent pair; each A is symmetric) and pair {c, d} absent, it is
    sum_ab A_ab (A_ac A_bc)_ab (A_ad A_bd)_ab in count x count matrix
    products; K4 loops over the rows of a, keeping memory O(count^2)."""
    A = dict(zip(list(itertools.combinations(range(v), 2))[::-1],
                 (_seq_power(H, count, e) for e in exponents)))
    if v == 4 and exponents[0]:  # no pair absent: K4
        return float(sum(A[0, 1][a] @ ((A[1, 2] * A[0, 2][a]) @ A[2, 3]
                                       * A[1, 3] * A[0, 3][a]).sum(axis=1)
                         for a in range(count)))
    out = A[0, 1]
    for c in range(2, v):
        out = out * (A[0, c] @ A[1, c])
    return float(out.sum())


def rho_sum_bound_verify(p, q, assignment, m_range, s=0.0, t=1.0, H=0.4):
    """Exhaustively check the multiple-sum bound for one exponent assignment.

    ``assignment`` maps frozenset({i, j}) (0-based, i != j, i, j < p <= 4)
    to a non-negative integer a({i,j}); admissibility requires
    sum_{j != i} a({i,j}) <= q for every i.  The sequence is
    rho(n) = |rho_H(n)| / sum |rho_H| so that sum rho <= 1 = C, and the
    claim is  LHS <= count^{p - ceil(N/q)}  per m.  The LHS depends on the
    assignment only up to relabelling, so each (H, count, class) is summed
    once, in a bounded cache; the 327 assignments at p <= 4, q <= 3 fall
    into 26 classes.  Returns a report dict with per-m rows and an overall
    flag; the experiments' results carry only the verdicts.
    """
    _check_H(H)  # before any rho runs
    if not 2 <= p <= 4 or q < 1:
        raise DomainError("need 2 <= p <= 4 and q >= 1")
    a = {frozenset(k): int(v) for k, v in assignment.items() if int(v) != 0}
    for key, e in a.items():
        if len(key) != 2 or not key <= set(range(p)) or e < 0:
            raise DomainError(f"bad pair {set(key)} or exponent {e}")
    for i in range(p):
        if sum(v for k, v in a.items() if i in k) > q:
            raise DomainError(f"row sum at index {i} exceeds q={q}")
    N = sum(a.values())
    exponent = p - int(np.ceil(N / q)) if N else p
    # the class: the least exponent tuple over relabellings pm of the
    # touched vertices, listing pair {v-2, v-1} first, so it is absent
    # whenever some pair is
    verts = set().union(*a)
    exponents = min(tuple(a.get(frozenset((pm[i], pm[j])), 0) for i, j in
                          itertools.combinations(range(len(verts)), 2))[::-1]
                    for pm in itertools.permutations(verts))
    rows = []
    for m in m_range:
        i0, i1 = _cell_range(m, s, t)
        count = i1 - i0
        lhs = ((_class_sum(H, count, len(verts), exponents) if a else 1.0)
               * count ** (p - len(verts)))
        bound = float(count) ** exponent
        rows.append({"m": m, "count": count, "lhs": lhs, "bound": bound,
                     "pass": lhs <= bound * (1.0 + 1e-12)})
    return {"p": p, "q": q, "N": N, "exponent": exponent, "rows": rows,
            "pass": all(row["pass"] for row in rows)}


def admissible_assignments(p, q, max_exponent=3):
    """All exponent assignments on pairs of {0..p-1} with row sums <= q."""
    pairs = [frozenset(c) for c in itertools.combinations(range(p), 2)]
    every = ({k: v for k, v in zip(pairs, combo) if v} for combo in
             itertools.product(range(max_exponent + 1), repeat=len(pairs)))
    return [a for a in every if all(
        sum(v for k, v in a.items() if i in k) <= q for i in range(p))]
