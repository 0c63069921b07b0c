"""Reproducible desk-scale experiments tying the modules together.

Each runner returns a plain dict {experiment, params, rows, pass} ready for
JSON serialization.  ``_report`` alone sets the verdict: a report passes
when every row that carries a ``pass`` passes; a row without one only
reports.  Monte Carlo runners draw replicas from counter-based
per-replica streams and reduce chunk results in a fixed order, so the
numbers are identical for any --threads setting and any chunking.  By
default they run on every usable core, but streams shorter than
PARALLEL_STREAM_POINTS points run on one worker, which a second thread
would only slow down.  Chunks are sized in bytes: the
sampler's working set summed over all threads stays within
CHUNK_BUDGET_BYTES, at most MAX_CHUNK replicas per chunk.  The sampler's
spectrum is computed in the calling thread before any worker starts, so
the threads share one cached copy.

Every estimate row carries its standard error (Monte Carlo) or the
tolerance of its check; Monte Carlo rows are compared with exact lag tables,
and the series constants are closed-form up to their stated tail bound.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import stats

from . import chaos, young
from .errors import DomainError
from .fbm import SimSpec, _replica_bytes, _root_spectrum, simulate_batch
from .gaussian import HurstModel, rho, series_constants
from .lift import levy_areas, level3_areas
from .rde import jacobian_defect, linear_1d, taylor_steps

__all__ = [
    "default_threads",
    "constants_experiment",
    "constant_identity_experiment",
    "levy_area_mc_experiment",
    "moment_experiment",
    "fclt_experiment",
    "covariance_table_experiment",
    "third_order_experiment",
    "rho_sum_experiment",
    "young_suite_experiment",
    "rde_demo_experiment",
]


def _plain(obj):
    """Recursively coerce numpy scalars/arrays so json.dumps round-trips."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, range):
        return list(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _report(experiment, params, rows):
    """The report of a run; it passes when each row that checks passes."""
    return {
        "experiment": experiment,
        "params": _plain(params),
        "rows": _plain(rows),
        "pass": all(bool(row.get("pass", True)) for row in rows),
    }


def _mean_se(x):
    """Sample mean of ``x`` and its standard error (ddof = 1)."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def _ls_slope(x, y):
    """Least-squares slope of ``y`` on ``x``, as np.polyfit(x, y, 1)[0]
    gives it, from correctly rounded sums (``math.fsum``) instead of a
    LAPACK solve, so it is the same float on any BLAS kernel."""
    xc = np.asarray(x, dtype=float) - math.fsum(x) / len(x)
    yc = np.asarray(y, dtype=float) - math.fsum(y) / len(y)
    return math.fsum(xc * yc) / math.fsum(xc * xc)


# In-flight sampler bytes over all threads, and replicas per chunk at most.
CHUNK_BUDGET_BYTES = 2 ** 25
MAX_CHUNK = 250
# A stream shorter than this is a few microseconds of native work between
# interpreter steps, and each step hands the interpreter lock to the other
# thread: a second thread then adds waiting, not throughput.  Measured per
# replica, two threads against one took 1.1-1.5x the time at 64-128 points,
# the same at 256, and 0.5-0.65x from 512 points up.
PARALLEL_STREAM_POINTS = 512


def default_threads():
    """The usable core count, which Monte Carlo runners use by default."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _chunk_plan(d, size, threads):
    """(workers, replicas per chunk) keeping the sampler's working set over
    all workers within CHUNK_BUDGET_BYTES whenever one replica fits in it.
    Streams of fewer than PARALLEL_STREAM_POINTS points get one worker."""
    per_replica = _replica_bytes(d, size)
    workers = max(1, min(threads, CHUNK_BUDGET_BYTES // per_replica))
    if size < PARALLEL_STREAM_POINTS:
        workers = 1
    chunk = CHUNK_BUDGET_BYTES // (workers * per_replica)
    return workers, max(1, min(MAX_CHUNK, chunk))


def _chunked_replicas(spec, n_replicas, worker, chunk=None, threads=None):
    """Apply ``worker(increments)`` per replica chunk, reduced in order.

    ``threads`` defaults to ``default_threads()``; ``chunk`` defaults to the
    byte rule of ``_chunk_plan``.  Chunks are identified by absolute replica
    offsets, so the concatenated output does not depend on the chunk size or
    the thread count.
    """
    if n_replicas < 1:
        raise DomainError(f"n_replicas must be >= 1, got {n_replicas}")
    if threads is None:
        threads = default_threads()
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    workers, planned = _chunk_plan(spec.model.d, spec.size, threads)
    chunk = planned if chunk is None else chunk
    starts = list(range(0, n_replicas, chunk))

    def run(start):
        count = min(chunk, n_replicas - start)
        sub = SimSpec(
            model=spec.model, m=spec.m, refine=spec.refine,
            seed=spec.seed, replica=spec.replica + start,
        )
        return worker(simulate_batch(sub, count))

    # one spectrum for all threads: warm its cache before they start
    _root_spectrum(spec.model.H, spec.size)
    # a single worker runs in a pool thread too: on the calling thread its
    # buffers would grow the main malloc arena on top of the arenas that
    # earlier pool threads left grown (about 10 MiB more peak RSS)
    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        parts = list(pool.map(run, starts))
    return np.concatenate(parts, axis=0)


def _coarse_increments(inc, cells, n_sub):
    """(N, d, cells, n_sub) sub-step increments of a coarser grid from fine
    increments (N, d, size): each sums size / (cells * n_sub) consecutive
    fine increments, so the coarse path is the fine path at fewer points."""
    N, d, size = inc.shape
    return inc.reshape(N, d, cells, n_sub, size // (cells * n_sub)).sum(axis=4)


def _check_stderr_replicas(N):
    # a runner reporting a standard error (ddof = 1) needs two replicas
    if N < 2:
        raise DomainError(f"a standard error needs N >= 2 replicas, got {N}")


# ---------------------------------------------------------------------------
# series constants


def constants_experiment(tol=1e-6):
    """Limit-constant table; the Brownian row doubles as a closed-form anchor."""
    rows = []
    for H in (0.35, 0.4, 0.45, 0.5):
        sc = series_constants(H, tol=tol)
        row = {
            "H": H,
            "sigma2": sc.sigma2,
            "sigma2_tilde": sc.sigma2_tilde,
            "fclt_C": sc.fclt_C,
            "K": sc.K,
            "tol": tol,
        }
        if H == 0.5:
            row["pass"] = (
                abs(sc.sigma2 - 1.0) < 1e-6
                and abs(sc.sigma2_tilde - 0.5) < 1e-6
                and abs(sc.fclt_C - 0.5) < 1e-6
            )
        rows.append(row)
    return _report("constants", {"tol": tol}, rows)


def constant_identity_experiment(tol=1e-6):
    """fclt_C^2 vs sigma2_tilde - sigma2/4, the two assemblies evaluated
    separately, within twice the series tolerance plus tail bound."""
    rows = []
    for H in (0.35, 0.4, 0.45):
        sc = series_constants(H, tol=tol)
        lhs = sc.fclt_C ** 2
        rhs = sc.sigma2_tilde - sc.sigma2 / 4.0
        budget = 2.0 * (tol + sc.tail_bound)
        rows.append({
            "H": H, "fclt_C_sq": lhs, "identity_rhs": rhs,
            "diff": lhs - rhs, "tol": budget, "pass": abs(lhs - rhs) <= budget,
        })
    return _report("constant-identity", {"tol": tol}, rows)


# ---------------------------------------------------------------------------
# Monte Carlo vs exact lag tables


def levy_area_mc_experiment(H=0.4, N=10000, seed=101, threads=None):
    """E[(area over [0,1])^2] by simulation against the lag-0 qtilde entry
    of cov_Q_pair at 64 sub-steps (the geometric area the lift draws)."""
    _check_stderr_replicas(N)
    n_sub = 64
    spec = SimSpec(model=HurstModel(H, 2), m=1, refine=n_sub // 2, seed=seed)

    def worker(inc):
        l1, l2 = levy_areas(inc.reshape(inc.shape[0], 2, 1, n_sub))
        areas = chaos.q_processes(l1, l2, H)["qtilde"][..., 0, 1]
        return chaos.sum_process(areas)

    areas = _chunked_replicas(spec, N, worker, threads=threads)
    est, se = _mean_se(areas ** 2)
    oracle = chaos.cov_Q_pair(H, "qtilde", 0, n_sub=n_sub)
    z = (est - oracle) / se
    row = {"H": H, "N": N, "n_sub": n_sub, "estimate": est, "stderr": se,
           "oracle": oracle, "z": z, "pass": abs(z) < 5.0}
    return _report("levy-area-variance",
                   {"H": H, "N": N, "n_sub": n_sub, "seed": seed}, [row])


def moment_experiment(H=0.4, N=1000, seed=202, threads=None):
    """Weighted-sum moment growth over dyadic levels, all on one path.

    Each replica draws one path, at the finest level; every coarser level
    m takes its sub-steps as block sums of the fine increments, so all
    levels are functionals of the same path, as in the paper, and each is
    exact in law.  For each weight (constant, tanh of the first component)
    and p, tabulates the normalized p-th moment of the weighted area sum
    across levels; the estimate-bound shape demands the ratio to the
    coarsest level stays bounded (cap 3x).  The constant-weight p=2 column
    is compared to the exact second-moment oracle at matching
    sub-resolution.
    """
    _check_stderr_replicas(N)
    ps, m_range, n_sub, ratio_cap = (2, 4), list(range(4, 10)), 4, 3.0
    spec = SimSpec(model=HurstModel(H, 2), m=m_range[-1], refine=n_sub,
                   seed=seed)

    def worker(inc):
        sums = np.empty((inc.shape[0], len(m_range), 2))
        for k, m in enumerate(m_range):
            l1, l2 = levy_areas(_coarse_increments(inc, 2 ** m, n_sub))
            areas = chaos.q_processes(l1, l2, H)["qtilde"][..., 0, 1]
            left = np.zeros_like(l1[..., 0])  # B^0 at each cell's left point
            np.cumsum(l1[:, :-1, 0], axis=1, out=left[:, 1:])
            sums[:, k, 0] = chaos.sum_process(areas)
            sums[:, k, 1] = chaos.sum_process(areas, weights=np.tanh(left))
        return sums

    sums = _chunked_replicas(spec, N, worker, threads=threads)
    samples = {m: sums[:, k] * chaos.normalization(m, H, 2)
               for k, m in enumerate(m_range)}

    rows = []
    base = {}
    for widx, wname in ((0, "one"), (1, "tanh")):
        for p in ps:
            for m in m_range:
                est, se = _mean_se(np.abs(samples[m][:, widx]) ** p)
                key = (wname, p)
                base.setdefault(key, est)
                ratio = est / base[key]
                row = {"weight": wname, "p": p, "m": m, "estimate": est,
                       "stderr": se, "ratio_to_first": ratio,
                       "pass": ratio <= ratio_cap}
                if wname == "one" and p == 2:
                    oracle = chaos.exact_second_moment_Q(
                        H, m, "qtilde", n_sub=n_sub
                    ) * chaos.normalization(m, H, 2, power=2)
                    row["oracle"] = oracle
                    row["z"] = (est - oracle) / se
                    row["pass"] = row["pass"] and abs(row["z"]) < 4.0
                rows.append(row)
    return _report(
        "moment-ratio",
        {"H": H, "ps": list(ps), "m_range": m_range, "N": N,
         "n_sub": n_sub, "seed": seed, "ratio_cap": ratio_cap}, rows)


def fclt_experiment(H=0.4, m=10, N=2000, n_sub=8, seed=303, threads=None):
    """Gaussian-limit marginal checks for the normalized antisymmetric sum.

    Variance matching is against the exact finite-sub-resolution variance
    (the quantity the simulated areas actually carry); the converged exact
    variance is separately checked against the limit constant.  Normality
    via Kolmogorov-Smirnov on the standardized sample.
    """
    _check_stderr_replicas(N)
    ks_alpha, conv_tol = 0.01, 0.02
    spec = SimSpec(model=HurstModel(H, 2), m=m, refine=n_sub, seed=seed)

    def worker(inc):
        shaped = inc.reshape(inc.shape[0], 2, 2 ** m, n_sub)
        l1, l2 = levy_areas(shaped)
        return chaos.sum_process(chaos.q_processes(l1, l2, H)["q"][..., 0, 1])

    qsum = _chunked_replicas(spec, N, worker, threads=threads)
    x = qsum * chaos.normalization(m, H, 2)
    scale_sq = chaos.normalization(m, H, 2, power=2)
    var_fin = chaos.exact_second_moment_Q(H, m, "q", n_sub=n_sub) * scale_sq
    var_conv = chaos.exact_second_moment_Q(H, m, "q") * scale_sq
    c_sq = series_constants(H).fclt_C ** 2

    est, se = _mean_se(x ** 2)
    z = (est - var_fin) / se
    ks = stats.kstest(x / np.sqrt(var_fin), "norm")
    conv_dev = abs(var_conv - c_sq) / c_sq
    rows = [
        {"check": "variance", "estimate": est, "stderr": se,
         "oracle": var_fin, "z": z, "pass": abs(z) < 4.0},
        {"check": "converged-vs-limit", "estimate": var_conv, "oracle": c_sq,
         "rel_dev": conv_dev, "tol": conv_tol, "pass": conv_dev < conv_tol},
        {"check": "ks-normality", "statistic": float(ks.statistic),
         "p_value": float(ks.pvalue), "alpha": ks_alpha,
         "pass": ks.pvalue >= ks_alpha},
    ]
    return _report(
        "fclt-marginal",
        {"H": H, "m": m, "N": N, "n_sub": n_sub, "seed": seed}, rows)


def covariance_table_experiment(H=0.4, seed=404):
    """Closed-form order-2 pair covariances vs chaos.wick_cov on random
    (pair kind, cell i, cell j, level m <= 6) draws at matching resolution."""
    HurstModel(H)  # refuses H outside (1/3, 1/2]
    triples, n_sub, rel_tol = 20, 4, 1e-8
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(triples):
        which = chaos.Q_PAIRS[rng.integers(0, len(chaos.Q_PAIRS))]
        m = int(rng.integers(1, 7))
        i = int(rng.integers(1, 2 ** m + 1))
        j = int(rng.integers(1, 2 ** m + 1))
        scale = (2.0 ** -m) ** (4 * H)
        exact = scale * chaos.cov_Q_pair(H, which, j - i, n_sub=n_sub)
        oracle = scale * chaos.wick_cov(H, n_sub, j - i,
                                        *chaos.q_pair_cells(which, n_sub))
        err = abs(exact - oracle)
        tol = rel_tol * max(abs(oracle), 1.0e-12) + 1e-14
        rows.append({"which": which, "m": m, "i": i, "j": j,
                     "exact": exact, "oracle": oracle, "abs_err": err,
                     "pass": err <= tol})
    return _report(
        "covariance-table",
        {"H": H, "triples": triples, "n_sub": n_sub, "seed": seed,
         "rel_tol": rel_tol}, rows)


# ---------------------------------------------------------------------------
# third-order scaling


def third_order_experiment(H=0.4):
    """Per-pattern dyadic scaling of E[(K^m_{0,1})^2] and the lag-decay
    covariance bound with a per-pattern fitted constant."""
    HurstModel(H)  # refuses H outside (1/3, 1/2]
    m_range, n_quad, max_lag, slope_tol = list(range(4, 10)), 24, 32, 0.1
    target = -(6 * H - 1)
    rows = []
    decay = sum(np.abs(rho(np.arange(max_lag + 1), H)) ** k for k in (1, 2, 3))
    lags = np.arange(max(2 ** max(m_range), max_lag + 1))
    # one sweep of the lag tables serves every pattern, and each pattern's
    # table every level, whose stationary sum reads its first 2^m lags,
    # and the decay check, which reads its first max_lag + 1
    tables = chaos.cov_K_lags(H, chaos.K_PATTERNS, lags, n_quad=n_quad)
    for pattern, table in zip(chaos.K_PATTERNS, tables):
        vals = [
            (2.0 ** -m) ** (6 * H)
            * chaos._lag_weighted_sum(2 ** m, table[:2 ** m])
            for m in m_range
        ]
        # a second moment is positive: a level sum that is not (a wrong
        # lag table) has no log, so its row reports no slope and fails
        slope = _ls_slope(np.array(m_range) * np.log(2.0),
                          np.log(vals)) if min(vals) > 0 else None
        # C_fit is fitted where decay > 0; where decay vanishes (every lag
        # >= 1 at H = 1/2) the covariance must vanish to round-off
        per_lag = np.abs(table[:max_lag + 1])
        live = decay > 0
        C_fit = float((per_lag[live] / decay[live]).max())
        bound_ok = bool(np.all(per_lag <= np.where(
            live, C_fit * decay * (1 + 1e-12), 1e-12 * per_lag[0])))
        slope_ok = slope is not None and \
            abs(slope - target) <= slope_tol * abs(target)
        rows.append({
            "pattern": pattern, "slope": slope, "target": target,
            "slope_pass": slope_ok, "C_fit": C_fit,
            "bound_pass": bound_ok,
            "pass": slope_ok and bound_ok,
        })
    return _report(
        "third-order-scaling",
        {"H": H, "m_range": m_range, "n_quad": n_quad, "max_lag": max_lag,
         "slope_tol": slope_tol}, rows)


def rho_sum_experiment(H=0.4):
    """Exhaustive check of the correlation-sum bound over all admissible
    exponent assignments with p <= 4 and row sums q <= 3, at m = 1..6.

    The bound holds for a wrong class sum too, so an exact anchor row
    checks the complete graph K4, the one class summed row by row, against
    the literal sum over all count^4 index tuples at a few cells.
    """
    max_p, max_q, m_range = 4, 3, range(1, 7)
    cases = [(p, q, a) for p in range(2, max_p + 1) for q in range(1, max_q + 1)
             for a in chaos.admissible_assignments(p, q, max_exponent=q)]
    rows = [{"p": p, "q": q, "pass": False,
             "assignment": {str(sorted(k)): v for k, v in a.items()}}
            for p, q, a in cases
            if not chaos.rho_sum_bound_verify(p, q, a, m_range, H=H)["pass"]]
    violations = len(rows)
    count, rel_tol = 8, 1e-12
    seq = chaos._seq_power(H, count, 1)
    k = np.indices((count,) * 4).reshape(4, -1)
    terms = np.prod([seq[k[i], k[j]] for i in range(4)
                     for j in range(i + 1, 4)], axis=0)
    exact = math.fsum(terms)
    class_sum = chaos._class_sum(H, count, 4, (1,) * 6)
    rel_err = abs(class_sum - exact) / exact
    rows.append({"check": "k4-anchor", "count": count,
                 "class_sum": class_sum, "brute_force": exact,
                 "rel_err": rel_err, "tol": rel_tol,
                 "pass": rel_err <= rel_tol})
    rows.append({"assignments": len(cases), "violations": violations,
                 "pass": not violations})
    return _report("rho-sum-bound", {"max_p": max_p, "max_q": max_q,
                                     "m_range": list(m_range), "H": H}, rows)


# ---------------------------------------------------------------------------
# Young-integration suite


def young_suite_experiment(seed=2024, cases=100, H=0.4):
    """The four integration checks: variation-norm sandwich, Towghi ratio
    corpus, disjoint-product rule, and the nested-integral bound."""
    HurstModel(H)  # refuses H outside (1/3, 1/2]
    if cases < 1:
        raise DomainError(f"cases must be >= 1, got {cases}")
    rng = np.random.default_rng(seed)
    rows = []

    sandwich_ok = True
    for _ in range(cases):
        pts = int(rng.integers(3, 5))
        f = rng.normal(size=(pts, pts))
        p = float(rng.uniform(1, 3))
        v = float(young.Vp(f, p))
        c = float(young.controlled_pvar(f, p))
        sandwich_ok = sandwich_ok and v <= c + 1e-10
    rows.append({"check": "fv-sandwich", "cases": cases, "pass": sandwich_ok})

    towghi = young.towghi_fuzz_report(seed=seed, cases=cases)
    # towghi_fuzz_report raises on a non-finite ratio: this row only reports
    rows.append({"check": "towghi-ratio", "max_ratio": towghi["max_ratio"],
                 "cases": cases})

    product_ok = True
    for _ in range(cases):
        f = rng.normal(size=int(rng.integers(3, 6)))
        g = rng.normal(size=int(rng.integers(3, 6)))
        rep = young.product_pvar_check(f, g, float(rng.uniform(1, 2.5)))
        product_ok = product_ok and rep["pass"]
    rows.append({"check": "product-rule", "cases": cases, "pass": product_ok})

    grid = np.linspace(0, 1, 65)
    bound_ok = True
    for _ in range(cases):
        r = int(rng.integers(1, 4))
        a_list, h_list, boxes = [], [], []
        for _ in range(r):
            s, t = np.sort(rng.uniform(0, 1, 2))
            a_list.append(rng.uniform(-2, 2) * np.cos(rng.uniform(0, 7) * grid))
            h_list.append(young.psi_path(s, t, H, grid))
            boxes.append((s, t))
        vals = young.iterated_A(a_list, h_list)
        bound_ok = bound_ok and (
            np.max(np.abs(vals)) <= young.iterated_A_bound(a_list, boxes, H)
        )
    rows.append({"check": "iterated-bound", "cases": cases, "pass": bound_ok})

    return _report("young-suite", {"seed": seed, "cases": cases, "H": H}, rows)


# ---------------------------------------------------------------------------
# differential-equation demo

# replicas 0..7 of the demo's seed, whatever N is, carry the Jacobian defect
DEFECT_REPLICAS = 8


def rde_demo_experiment(H=0.5, N=400, seed=12):
    """Step-halving self-convergence of the linear benchmark plus the
    forward/inverse Jacobian product defect.

    The convergence statistic is the root-mean-square over replicas of the
    change in the terminal value under step halving; the Jacobian defect at
    the finest level must stay within 10x the finest halving RMS.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    m_range = [5, 6, 7, 8, 9]
    m_max = m_range[-1]
    spec = SimSpec(model=HurstModel(H, 1), m=m_max, refine=1, seed=seed)
    # one draw: its first N replicas give the halving statistic, its first
    # DEFECT_REPLICAS the Jacobian defect
    inc_all = simulate_batch(spec, max(N, DEFECT_REPLICAS))
    inc_f = inc_all[:N]
    ends = {}
    for m in m_range:
        inc = _coarse_increments(inc_f, 2 ** m, 1)
        l1, l2 = levy_areas(inc)
        l3 = level3_areas(inc)
        Y = taylor_steps(linear_1d(), np.array([1.0]), l1, l2, l3)
        ends[m] = Y[:, -1, 0]
    pairs = list(zip(m_range[:-1], m_range[1:]))
    rms = [float(np.sqrt(np.mean((ends[a] - ends[b]) ** 2))) for a, b in pairs]
    slope = -_ls_slope(np.array([a for a, _ in pairs]) * np.log(2.0),
                       np.log(rms))

    inc = inc_all[:DEFECT_REPLICAS, ..., None]
    _, J, Jinv = taylor_steps(linear_1d(), np.array([1.0]), *levy_areas(inc),
                              level3_areas(inc), with_jacobian=True)
    defect = jacobian_defect(J, Jinv)
    estimate = rms[-1]
    rows = [
        {"check": "order", "halving_rms": rms, "levels": m_range,
         "slope": slope, "pass": slope > 1.0},
        {"check": "jacobian", "defect": defect, "estimate": estimate,
         "bound": 10.0 * estimate, "pass": defect <= 10.0 * estimate},
    ]
    return _report(
        "rde-demo",
        {"H": H, "N": N, "m_range": m_range, "seed": seed,
         "defect_replicas": DEFECT_REPLICAS}, rows)
