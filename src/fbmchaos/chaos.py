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
formula is checked against one Wick contraction (wick_cov) of the cells'
coefficient tensors over their sub-step increments, on the same
discretization and at any degree.

Each order has one per-lag table, vectorized over lags (cov_Q_pair,
cov_K_lags); order 2 also has a stationary sum over lags
(exact_second_moment_Q), while the order-3 sums over lags are taken by
their one caller, experiments.third_order_experiment, from one table for
every level.  Increment stationarity makes the covariances functions of
the lag only, turning the 2^m x 2^m double sums into single sums over
lags.  Every finite-resolution entry, the order-2 areas (qtilde, cross)
and the order-3 patterns alike, is a named pattern of one evaluator over
the lag tables of gaussian.py on the unit lattice (cells of width 1 at
integer offsets), and one sweep of those tables gives every pattern a
caller asks for; offset -lag reads the transposed tables.
"""

import functools
import itertools
import math

import numpy as np

from .errors import DomainError
from .gaussian import (_check_H, _lag_tables, _transposed, rho,
                       rho_tail_bound, tilde_rho)

__all__ = [
    "sum_process",
    "normalization",
    "q_processes",
    "exact_second_moment_Q",
    "Q_PAIRS",
    "cov_Q_pair",
    "q_pair_cells",
    "wick_cov",
    "third_order_sums",
    "cov_K_lags",
    "K_PATTERNS",
    "rho_sum_bound_verify",
    "admissible_assignments",
]

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
    geometric values, the "qtilde" and "cross" patterns of the lag tables,
    so Monte Carlo on a lift with n_sub sub-steps is matched without
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
        out = _lag_covs(H, (which,), lags, n_sub)[0].reshape(lags.shape)
    elif which in ("qhat_qcheck", "qtilde_qcheck"):
        out = np.zeros(lags.shape)
    else:
        raise DomainError(f"unknown pair {which!r}")
    return out if lags.ndim else float(out)


def _cell_range(m, s, t):
    if not (0.0 <= s <= t <= 1.0):
        raise DomainError("need 0 <= s <= t <= 1")
    return int(np.floor(2 ** m * s)), int(np.floor(2 ** m * t))


def _lag_weighted_sum(count, per_lag):
    """Sum of per_lag[|i - j|] over the count x count cell pairs, which
    weighs lag 0 by count and lag k >= 1 by 2 (count - k).  The sum of the
    weighted terms is correctly rounded (``math.fsum``), so it is the same
    float in any summation order and on any BLAS kernel."""
    lags = np.arange(count)
    mult = np.where(lags == 0, count, 2.0 * (count - lags))
    return math.fsum(mult * per_lag)


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
    if which != "q":
        per = cov_Q_pair(H, which, lags, n_sub)
    else:  # with n_sub, both area entries from one sweep of the lag tables
        areas = ("qtilde", "cross")
        qtilde, cross = ([cov_Q_pair(H, w, lags) for w in areas]
                         if n_sub is None else _lag_covs(H, areas, lags, n_sub))
        per = qtilde + cov_Q_pair(H, "qhat", lags, n_sub) - 2.0 * cross
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
            + np.einsum("lk,lj,lkj->l", t["q"], t["q"], g))


def _cov_l3_aab(t):
    # E[B^{aab}_i B^{aab}_j] = (1/2) sum F^2 g + (1/4) sum si sj g
    F, g = t["F"], t["g"]
    return (0.5 * np.einsum("lkj,lkj,lkj->l", F, F, g)
            + 0.25 * np.einsum("lk,lj,lkj->l", t["si"], t["si"], g))


def _cross_X_Z(t):
    # X = (B^{ab}B^a) on cell i, Z = B^{aab} on cell j:
    # E[X_i Z_j] = sum_{kl} (1/2)(q_k s_l + 2 F_kl pi_l) g_kl
    F, g = t["F"], t["g"]
    return (0.5 * np.einsum("lk,lj,lkj->l", t["q"], t["si"], g)
            + np.einsum("lkj,lj,lkj->l", F, t["pi"], g))


def _cross_Y_X(t):
    # Y = (B^a)^2 B^b on cell i, X = (B^{ab}B^a) on cell j:
    # E[Y_i X_j] = sum_l (q_l + 2 pi_l r) hi_l,  hi_l = R(cell_i x sub_l)
    hi = t["g"].sum(axis=1)  # R(cell_i x sub_l) by additivity
    return np.einsum("lj,lj->l", t["q"] + 2.0 * t["pi"] * t["r"][:, None], hi)


def _cross_Y_Z(t):
    # Y = (B^a)^2 B^b on cell i, Z = B^{aab} on cell j:
    # E[Y_i Z_j] = (1/2) sum_l (s_l + 2 pi_l^2) hi_l
    hi = t["g"].sum(axis=1)
    return 0.5 * np.einsum("lj,lj->l", t["si"] + 2.0 * t["pi"] ** 2, hi)


def _cov_tables(pattern, tb, tt, term):
    """One table pattern per lag: tb holds cell i against cell j at offset
    +lag, tt the mirrored pair (offset -lag).  ``term(f, tables)`` is
    f(tables) for the shared terms, formed once per chunk and orientation.
    The patterns are K_PATTERNS and the order-2 area entries of cov_Q_pair."""
    r, F, g = tb["r"], tb["F"], tb["g"]
    if pattern == "qtilde":
        # E[Btilde_i Btilde_j] of geometric areas: the four-corner average
        # (tensor trapezoid) of the prefix covariance against the cell
        # measure, exact at any n and tending to tilde_rho(lag)
        P = tb["P"]  # F = P[:, :-1, :-1]
        corner = 0.25 * (F + P[:, 1:, :-1] + P[:, :-1, 1:] + P[:, 1:, 1:])
        return np.sum(corner * g, axis=(1, 2))
    if pattern == "cross":
        # E[Qhat_i Qtilde_j] = (1/2) sum_l (pi_l + hi_l/2) hi_l, tending to
        # rho(lag)^2/4 (equal to it at every n when H = 1/2)
        hi = g.sum(axis=1)  # R(cell_i x sub_l) by additivity
        return 0.5 * np.sum((tb["pi"] + 0.5 * hi) * hi, axis=1)
    if pattern.startswith("prod_"):
        # triple increment products: E[K_i K_j] = a rho^3 + b rho
        a, b = {"prod_abc": (1.0, 0.0), "prod_aab": (2.0, 1.0),
                "prod_aaa": (6.0, 9.0)}[pattern]
        return a * r ** 3 + b * r
    if pattern == "area_cross":
        return r * np.einsum("lkj,lkj->l", F, g)
    if pattern == "area_own":
        return term(_cov_area_own, tb)
    if pattern == "l3_abc":
        # double discrete Young sum over k < l, k' < l' of F g g
        acc = np.cumsum(np.cumsum(F * g, axis=1), axis=2)
        return np.einsum("lkj,lkj->l", acc[:, :-1, :-1], g[:, 1:, 1:])
    if pattern == "l3_aab":
        return term(_cov_l3_aab, tb)
    if pattern == "l3_aba":
        # B^{aba} = X - 2 Z with X = B^{ab}B^a, Z = B^{aab}
        return (
            term(_cov_area_own, tb)
            - 2.0 * term(_cross_X_Z, tb)
            - 2.0 * term(_cross_X_Z, tt)
            + 4.0 * term(_cov_l3_aab, tb)
        )
    # l3_baa: B^{baa} = Y/2 - X + Z with Y = (B^a)^2 B^b
    yy = 2.0 * r ** 3 + r
    return (
        0.25 * yy
        - 0.5 * term(_cross_Y_X, tb)
        - 0.5 * term(_cross_Y_X, tt)
        + 0.5 * term(_cross_Y_Z, tb)
        + 0.5 * term(_cross_Y_Z, tt)
        + term(_cov_area_own, tb)
        - term(_cross_X_Z, tb)
        - term(_cross_X_Z, tt)
        + term(_cov_l3_aab, tb)
    )


def _lag_covs(H, names, lags, n, symmetrized=False):
    """The _cov_tables patterns ``names`` per signed lag at resolution n, a
    (names, lags) array from one sweep of the lag tables.  c(-l) reads the
    transposed tables of |l|, evaluated only when a negative lag or
    ``symmetrized`` ((c(l) + c(-l)) / 2 at l != 0) asks for them."""
    lags = np.asarray(lags).astype(int).ravel()
    mirrored = symmetrized or bool(np.any(lags < 0))

    def per_chunk(t):
        tt = _transposed(t)
        shared = {}

        def term(f, tb):
            key = (f, tb is tt)
            if key not in shared:
                shared[key] = f(tb)
            return shared[key]

        sides = ((t, tt), (tt, t)) if mirrored else ((t, tt),)
        return np.array([[_cov_tables(name, tb, tm, term) for name in names]
                         for tb, tm in sides])

    tables = np.concatenate(
        [per_chunk(t) for t in _lag_tables(H, np.abs(lags), n)], axis=2)
    plus, minus = tables[0], tables[-1]
    if symmetrized:
        return np.where(lags == 0, plus, 0.5 * (plus + minus))
    return np.where(lags < 0, minus, plus)


def cov_K_lags(H, pattern, lags, n_quad=32, symmetrized=True):
    """Unit-lattice pattern covariances per signed lag, vectorized.

    ``pattern`` is a name of K_PATTERNS, which gives one value per lag, or
    a tuple of names, which gives a (patterns, lags) array from one sweep
    of the lag tables.  With ``symmetrized`` the value at lag l is
    (c(l) + c(-l)) / 2, which is what enters stationary double sums.  The
    product patterns are closed forms in the tables' rho(|l|), even in l.
    """
    names = (pattern,) if isinstance(pattern, str) else tuple(pattern)
    if not names or not set(names) <= set(K_PATTERNS):
        raise DomainError(f"unknown pattern {pattern!r}")
    out = _lag_covs(H, names, lags, n_quad, symmetrized)
    return out[0] if isinstance(pattern, str) else out


# ---------------------------------------------------------------------------
# Wick contraction


def _area_kernel(n):
    """M[k, l] = [k < l] + [k = l] / 2 over a cell's n sub-steps: dA^T M dB
    is levy_areas' level-2 (geometric) area."""
    return np.triu(np.ones((n, n)), 1) + 0.5 * np.eye(n)


def q_pair_cells(which, n):
    """The two cells of the Q_PAIRS entry ``which`` for wick_cov, over n
    sub-steps: qhat is (1/2) ones on components (a, b), qcheck (1/2) ones on
    (a, a), qtilde the area kernel on (a, b); "cross" is qhat_qtilde."""
    if which not in Q_PAIRS:
        raise DomainError(f"unknown pair {which!r}")
    half = np.full((n, n), 0.5)
    cells = {"qhat": ((0, 1), half), "qcheck": ((0, 0), half),
             "qtilde": ((0, 1), _area_kernel(n))}
    kinds = {"cross": "qhat_qtilde"}.get(which, which).split("_")
    return cells[kinds[0]], cells[kinds[-1]]


def _matchings(slots, comps):
    """Perfect matchings of ``slots`` that pair equal components, each a
    list of (s, t) pairs with s < t."""
    if not slots:
        yield []
    for pos in range(1, len(slots)):
        if comps[slots[pos]] == comps[slots[0]]:
            for tail in _matchings(slots[1:pos] + slots[pos + 1:], comps):
                yield [(slots[0], slots[pos])] + tail


def wick_cov(H, n, lag, left, right):
    """Covariance of unit cells i and j = i + lag by Wick contraction.

    A cell is (components, T), sum_k T[k_1..k_p] prod_s dB^{c_s}_{k_s} over
    its n sub-step increments.  Each matching of both cells' slots that pairs
    equal components and pairs some slot across (the rest make E[X] E[Y])
    contracts T_i, T_j against S = n^{-2H} rho(l - k) within a cell and
    G = n^{-2H} rho(lag n + l - k) across, each side reduced by its own pairs
    first.  Any degree; an integer ``lag`` gives a float, an array an array.
    """
    lags = np.asarray(lag, dtype=int)
    step = np.arange(n) - np.arange(n)[:, None]  # l - k
    S = float(n) ** (-2 * H) * rho(step, H)
    G = float(n) ** (-2 * H) * rho(lags.reshape(-1, 1, 1) * n + step, H)

    def reduce(T, own, keep):  # T against S on its own pairs
        blocks = [x for st in own for x in (S, list(st))]
        return np.einsum(T, list(range(T.ndim)), *blocks, list(keep))

    (cx, X), (cy, Y) = left, right
    p = len(cx)
    total = np.zeros(len(G))
    for pairs in _matchings(tuple(range(p + len(cy))), tuple(cx) + tuple(cy)):
        cross = [(s, t - p) for s, t in pairs if s < p <= t]
        if cross:
            xs, ys = zip(*cross)
            a = reduce(X, [st for st in pairs if st[1] < p], xs)
            b = reduce(Y, [(s - p, t - p) for s, t in pairs if s >= p], ys)
            a = np.broadcast_to(a, (len(G),) + a.shape)
            for _ in xs:
                a = np.einsum("lk...,lkj->l...j", a, G)
            # a fixed-order reduction: BLAS kernels (tensordot, dot) each
            # round a dot product their own way
            total += (a * b).reshape(len(G), -1).sum(axis=1)
    return total.reshape(lags.shape) if lags.ndim else float(total[0])


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


@functools.lru_cache(maxsize=16)
def _relabellings(verts):
    """The pair keys of each relabelling pm of the vertex set ``verts``, in
    the order of _class_sum's exponent tuples: pair {pm[v-2], pm[v-1]}
    first, so the least tuple, the class, has that pair absent whenever
    some pair is."""
    pairs = list(itertools.combinations(range(len(verts)), 2))[::-1]
    return tuple(tuple(frozenset((pm[i], pm[j])) for i, j in pairs)
                 for pm in itertools.permutations(sorted(verts)))


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
    # the class: the least exponent tuple over relabellings of the
    # touched vertices
    verts = frozenset().union(*a)
    exponents = min(tuple(map(a.get, keys, itertools.repeat(0)))
                    for keys in _relabellings(verts))
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
    """All exponent assignments on pairs of {0..p-1} with row sums <= q, in
    the lexicographic order of their exponent tuples over the pairs."""
    pairs = list(itertools.combinations(range(p), 2))
    grid = np.array(list(itertools.product(range(max_exponent + 1),
                                           repeat=len(pairs))), dtype=int)
    # row sums: the grid against the pair-vertex incidence matrix
    incidence = np.array([[i in pair for i in range(p)] for pair in pairs],
                         dtype=int).reshape(len(pairs), p)
    keep = grid[(grid @ incidence <= q).all(axis=1)].tolist()
    keys = [frozenset(pair) for pair in pairs]
    return [{k: v for k, v in zip(keys, combo) if v} for combo in keep]
