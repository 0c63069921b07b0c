"""Reproducible desk-scale experiments tying the modules together.

Each runner returns a plain dict {experiment, params, rows, pass} ready for
JSON serialization.  Monte Carlo runners draw replicas from counter-based
per-replica streams and reduce chunk results in a fixed order, so the
numbers are identical for any --threads setting and any chunking.  By
default they run on every usable core.  Chunks are sized in bytes: the
sampler's working set summed over all threads stays within
CHUNK_BUDGET_BYTES, at most MAX_CHUNK replicas per chunk.  The sampler's
spectrum is computed in the calling thread before any worker starts, so
the threads share one cached copy.

Every estimate row carries its standard error (Monte Carlo) or the
tolerance of its oracle (series truncation, quadrature).
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import stats

from . import chaos, young
from .errors import DomainError
from .fbm import (SimSpec, _replica_bytes, _root_spectrum, simulate,
                  simulate_batch)
from .gaussian import HurstModel, rho, series_constants
from .lift import levy_areas, level3_areas, lift2, lift3
from .rde import linear_1d, solve, taylor_steps

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


def _report(experiment, params, rows, ok):
    return {
        "experiment": experiment,
        "params": _plain(params),
        "rows": _plain(rows),
        "pass": bool(ok),
    }


# In-flight sampler bytes over all threads, and replicas per chunk at most.
CHUNK_BUDGET_BYTES = 2 ** 25
MAX_CHUNK = 250


def default_threads():
    """The usable core count, which Monte Carlo runners use by default."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _chunk_plan(d, size, threads):
    """(workers, replicas per chunk) keeping the sampler's working set over
    all workers within CHUNK_BUDGET_BYTES whenever one replica fits in it."""
    per_replica = _replica_bytes(d, size)
    workers = max(1, min(threads, CHUNK_BUDGET_BYTES // per_replica))
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

    workers = min(workers, len(starts))
    if workers > 1:
        # one spectrum for all threads: warm its cache before they start
        _root_spectrum(spec.model.H, spec.size)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, starts))
    else:
        parts = [run(s) for s in starts]
    return np.concatenate(parts, axis=0)


def _check_stderr_replicas(N):
    # a runner reporting a standard error (ddof = 1) needs two replicas
    if N < 2:
        raise DomainError(f"a standard error needs N >= 2 replicas, got {N}")


# ---------------------------------------------------------------------------
# series constants


def constants_experiment(H_list=(0.35, 0.4, 0.45, 0.5), tol=1e-6):
    """Limit-constant table; the Brownian row doubles as a closed-form anchor."""
    rows = []
    ok = True
    for H in H_list:
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
            ok = ok and row["pass"]
        rows.append(row)
    return _report("constants", {"tol": tol}, rows, ok)


def constant_identity_experiment(H_list=(0.35, 0.4, 0.45), tol=1e-6):
    """fclt_C^2 vs sigma2_tilde - sigma2/4, the two assemblies evaluated
    separately, within twice the series tolerance plus tail bound."""
    rows = []
    ok = True
    for H in H_list:
        sc = series_constants(H, tol=tol)
        lhs = sc.fclt_C ** 2
        rhs = sc.sigma2_tilde - sc.sigma2 / 4.0
        budget = 2.0 * (tol + sc.tail_bound)
        passed = abs(lhs - rhs) <= budget
        ok = ok and passed
        rows.append({
            "H": H, "fclt_C_sq": lhs, "identity_rhs": rhs,
            "diff": lhs - rhs, "tol": budget, "pass": passed,
        })
    return _report("constant-identity", {"tol": tol}, rows, ok)


# ---------------------------------------------------------------------------
# Monte Carlo vs quadrature


def levy_area_mc_experiment(H=0.4, N=10000, n_sub=64, seed=101,
                            threads=None):
    """E[(area over [0,1])^2] by simulation against the lag-0 qtilde entry
    of cov_Q_pair at n_sub sub-steps (the geometric area the lift draws)."""
    _check_stderr_replicas(N)
    spec = SimSpec(model=HurstModel(H, 2), m=1, refine=n_sub // 2, seed=seed)

    def worker(inc):
        _, l2 = levy_areas(inc.reshape(inc.shape[0], 2, 1, n_sub))
        return l2[:, 0, 0, 1]

    areas = _chunked_replicas(spec, N, worker, threads=threads)
    sq = areas ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(N))
    oracle = chaos.cov_Q_pair(H, "qtilde", 0, n_sub=n_sub)
    z = (est - oracle) / se
    row = {"H": H, "N": N, "n_sub": n_sub, "estimate": est, "stderr": se,
           "oracle": oracle, "z": z, "pass": abs(z) < 5.0}
    return _report("levy-area-variance",
                   {"H": H, "N": N, "n_sub": n_sub, "seed": seed},
                   [row], row["pass"])


def moment_experiment(H=0.4, ps=(2, 4), m_range=range(4, 10), N=1000,
                      n_sub=4, seed=202, threads=None, ratio_cap=3.0):
    """Weighted-sum moment growth over dyadic levels.

    For each weight (constant, tanh of the first component) and p, tabulates
    the normalized p-th moment of the weighted area sum across levels; the
    estimate-bound shape demands the ratio to the coarsest level stays
    bounded (cap 3x).  The constant-weight p=2 column is compared to the
    exact second-moment oracle at matching sub-resolution.
    """
    _check_stderr_replicas(N)
    m_range = list(m_range)
    samples = {}
    for m in m_range:
        spec = SimSpec(model=HurstModel(H, 2), m=m, refine=n_sub, seed=seed)

        def worker(inc, m=m):
            shaped = inc.reshape(inc.shape[0], 2, 2 ** m, n_sub)
            l1, l2 = levy_areas(shaped)
            areas = l2[:, :, 0, 1]
            pre = np.cumsum(l1[:, :, 0], axis=1)
            left = np.concatenate(
                [np.zeros((inc.shape[0], 1)), pre[:, :-1]], axis=1
            )
            return np.stack(
                [areas.sum(axis=1), (np.tanh(left) * areas).sum(axis=1)],
                axis=1,
            )

        sums = _chunked_replicas(spec, N, worker, threads=threads)
        samples[m] = sums * float(2 ** m) ** (2 * H - 0.5)

    rows = []
    ok = True
    base = {}
    for widx, wname in ((0, "one"), (1, "tanh")):
        for p in ps:
            for m in m_range:
                x = np.abs(samples[m][:, widx]) ** p
                est = float(np.mean(x))
                se = float(np.std(x, ddof=1) / np.sqrt(N))
                key = (wname, p)
                base.setdefault(key, est)
                ratio = est / base[key]
                row = {"weight": wname, "p": p, "m": m, "estimate": est,
                       "stderr": se, "ratio_to_first": ratio,
                       "pass": ratio <= ratio_cap}
                if wname == "one" and p == 2:
                    oracle = chaos.exact_second_moment_Q(
                        H, m, "qtilde", n_sub=n_sub
                    ) * float(2 ** m) ** (4 * H - 1)
                    row["oracle"] = oracle
                    row["z"] = (est - oracle) / se
                    row["pass"] = row["pass"] and abs(row["z"]) < 4.0
                ok = ok and row["pass"]
                rows.append(row)
    return _report(
        "moment-ratio",
        {"H": H, "ps": list(ps), "m_range": m_range, "N": N,
         "n_sub": n_sub, "seed": seed, "ratio_cap": ratio_cap},
        rows, ok,
    )


def fclt_experiment(H=0.4, m=10, N=2000, n_sub=8, seed=303, threads=None,
                    ks_alpha=0.01, conv_tol=0.02):
    """Gaussian-limit marginal checks for the normalized antisymmetric sum.

    Variance matching is against the exact finite-sub-resolution variance
    (the quantity the simulated areas actually carry); the converged exact
    variance is separately checked against the limit constant.  Normality
    via Kolmogorov-Smirnov on the standardized sample.
    """
    _check_stderr_replicas(N)
    spec = SimSpec(model=HurstModel(H, 2), m=m, refine=n_sub, seed=seed)

    def worker(inc):
        shaped = inc.reshape(inc.shape[0], 2, 2 ** m, n_sub)
        l1, l2 = levy_areas(shaped)
        q = 0.5 * l1[:, :, 0] * l1[:, :, 1] - l2[:, :, 0, 1]
        return q.sum(axis=1)

    qsum = _chunked_replicas(spec, N, worker, threads=threads)
    scale = float(2 ** m) ** (2 * H - 0.5)
    x = qsum * scale
    # scale squared, by one power: scale ** 2 rounds (8.000000000000002 at
    # H = 1/2, m = 3)
    scale_sq = float(2 ** m) ** (4 * H - 1)
    var_fin = chaos.exact_second_moment_Q(H, m, "q", n_sub=n_sub) * scale_sq
    var_conv = chaos.exact_second_moment_Q(H, m, "q") * scale_sq
    c_sq = series_constants(H).fclt_C ** 2

    sq = x ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(N))
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
    ok = all(r["pass"] for r in rows)
    return _report(
        "fclt-marginal",
        {"H": H, "m": m, "N": N, "n_sub": n_sub, "seed": seed},
        rows, ok,
    )


def covariance_table_experiment(H=0.4, triples=20, n_sub=4, seed=404,
                                rel_tol=1e-8):
    """Closed-form order-2 pair covariances vs the pairing oracle on random
    (pair kind, cell i, cell j, level m <= 6) draws at matching resolution."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for _ in range(triples):
        which = chaos.Q_PAIRS[rng.integers(0, len(chaos.Q_PAIRS))]
        m = int(rng.integers(1, 7))
        i = int(rng.integers(1, 2 ** m + 1))
        j = int(rng.integers(1, 2 ** m + 1))
        exact = chaos.exact_cov_Q(H, m, which, i, j, n_sub=n_sub)
        brute = (2.0 ** -m) ** (4 * H) * chaos.brute_cov_Q(
            H, which, j - i, n_sub
        )
        err = abs(exact - brute)
        passed = err <= rel_tol * max(abs(brute), 1.0e-12) + 1e-14
        ok = ok and passed
        rows.append({"which": which, "m": m, "i": i, "j": j,
                     "exact": exact, "oracle": brute, "abs_err": err,
                     "pass": passed})
    return _report(
        "covariance-table",
        {"H": H, "triples": triples, "n_sub": n_sub, "seed": seed,
         "rel_tol": rel_tol},
        rows, ok,
    )


# ---------------------------------------------------------------------------
# third-order scaling


def third_order_experiment(H=0.4, m_range=range(4, 10), n_quad=24,
                           max_lag=32, slope_tol=0.1):
    """Per-pattern dyadic scaling of E[(K^m_{0,1})^2] and the lag-decay
    covariance bound with a per-pattern fitted constant."""
    HurstModel(H)  # refuses H outside (1/3, 1/2]
    m_range = list(m_range)
    target = -(6 * H - 1)
    rows = []
    ok = True
    decay = sum(np.abs(rho(np.arange(max_lag + 1), H)) ** k for k in (1, 2, 3))
    lags = np.arange(max(2 ** max(m_range), max_lag + 1))
    for pattern in chaos.K_PATTERNS:
        # one lag table serves every level, as second_moment_K would sum
        # its first 2^m lags, and the decay check its first max_lag + 1
        table = chaos.cov_K_lags(H, pattern, lags, n_quad=n_quad)
        vals = [
            (2.0 ** -m) ** (6 * H)
            * chaos._lag_weighted_sum(2 ** m, table[:2 ** m])
            for m in m_range
        ]
        slope = float(np.polyfit(
            np.array(m_range) * np.log(2.0), np.log(vals), 1
        )[0])
        # C_fit is fitted where decay > 0; where decay vanishes (every lag
        # >= 1 at H = 1/2) the covariance must vanish to round-off
        per_lag = np.abs(table[:max_lag + 1])
        live = decay > 0
        C_fit = float((per_lag[live] / decay[live]).max())
        bound_ok = bool(np.all(per_lag <= np.where(
            live, C_fit * decay * (1 + 1e-12), 1e-12 * per_lag[0])))
        slope_ok = abs(slope - target) <= slope_tol * abs(target)
        ok = ok and bound_ok and slope_ok
        rows.append({
            "pattern": pattern, "slope": slope, "target": target,
            "slope_pass": slope_ok, "C_fit": C_fit,
            "bound_pass": bound_ok,
            "pass": slope_ok and bound_ok,
        })
    return _report(
        "third-order-scaling",
        {"H": H, "m_range": m_range, "n_quad": n_quad, "max_lag": max_lag,
         "slope_tol": slope_tol},
        rows, ok,
    )


def rho_sum_experiment(max_p=4, max_q=3, m_range=range(1, 7), H=0.4):
    """Exhaustive check of the correlation-sum bound over all admissible
    exponent assignments up to the given sizes."""
    rows = []
    ok = True
    total = 0
    for p in range(2, max_p + 1):
        for q in range(1, max_q + 1):
            for a in chaos.admissible_assignments(p, q, max_exponent=q):
                rep = chaos.rho_sum_bound_verify(p, q, a, m_range, H=H)
                total += 1
                ok = ok and rep["pass"]
                if not rep["pass"]:
                    rows.append({
                        "p": p, "q": q,
                        "assignment": {str(sorted(k)): v for k, v in a.items()},
                        "pass": False,
                    })
    rows.append({"assignments": total, "violations": len(rows), "pass": ok})
    return _report(
        "rho-sum-bound",
        {"max_p": max_p, "max_q": max_q, "m_range": list(m_range), "H": H},
        rows, ok,
    )


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
        axes = tuple(
            np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, pts - 2))))
            for _ in range(2)
        )
        f = young.GridFunction(
            partition=young.GridPartition(axes=axes),
            values=rng.normal(size=(pts, pts)),
        )
        p = float(rng.uniform(1, 3))
        v = float(young.Vp(f, p))
        c = float(young.controlled_pvar(f, p))
        sandwich_ok = sandwich_ok and v <= c + 1e-10
    rows.append({"check": "fv-sandwich", "cases": cases, "pass": sandwich_ok})

    towghi = young.towghi_fuzz_report(seed=seed, cases=cases)
    rows.append({"check": "towghi-ratio", "max_ratio": towghi["max_ratio"],
                 "cases": cases, "pass": np.isfinite(towghi["max_ratio"])})

    product_ok = True
    for _ in range(cases):
        pts = int(rng.integers(3, 6))
        ax = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, pts - 2))))
        f = young.GridFunction(
            partition=young.GridPartition(axes=(ax,)),
            values=rng.normal(size=pts),
        )
        pts2 = int(rng.integers(3, 6))
        ax2 = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, pts2 - 2))))
        g = young.GridFunction(
            partition=young.GridPartition(axes=(ax2,)),
            values=rng.normal(size=pts2),
        )
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
        vals = young.iterated_A(a_list, h_list, grid)
        bound_ok = bound_ok and (
            np.max(np.abs(vals)) <= young.iterated_A_bound(a_list, boxes, H)
        )
    rows.append({"check": "iterated-bound", "cases": cases, "pass": bound_ok})

    ok = all(r["pass"] for r in rows)
    return _report("young-suite", {"seed": seed, "cases": cases, "H": H},
                   rows, ok)


# ---------------------------------------------------------------------------
# differential-equation demo


def rde_demo_experiment(H=0.5, N=400, m_range=(5, 6, 7, 8, 9), seed=12,
                        defect_replicas=8):
    """Step-halving self-convergence of the linear benchmark plus the
    forward/inverse Jacobian product defect.

    The convergence statistic is the root-mean-square over replicas of the
    change in the terminal value under step halving; the Jacobian defect at
    the finest level must stay within 10x the finest halving RMS.
    """
    m_range = list(m_range)
    m_max = m_range[-1]
    spec = SimSpec(model=HurstModel(H, 1), m=m_max, refine=1, seed=seed)
    inc_f = simulate_batch(spec, N)
    size = 2 ** m_max
    ends = {}
    for m in m_range:
        n = 2 ** m
        inc = inc_f.reshape(N, 1, n, size // n).sum(axis=3)[..., None]
        l1, l2 = levy_areas(inc)
        l3 = level3_areas(inc)
        Y = taylor_steps(linear_1d(), np.array([1.0]), 2.0 ** -m, l1, l2, l3)
        ends[m] = Y[:, -1, 0]
    pairs = list(zip(m_range[:-1], m_range[1:]))
    rms = [float(np.sqrt(np.mean((ends[a] - ends[b]) ** 2))) for a, b in pairs]
    slope = float(-np.polyfit(
        np.array([a for a, _ in pairs]) * np.log(2.0), np.log(rms), 1
    )[0])

    defect = 0.0
    for r in range(defect_replicas):
        p = simulate(SimSpec(model=HurstModel(H, 1), m=m_max, refine=1,
                             seed=seed, replica=r))
        sol = solve(lift3(p, lift2(p)), linear_1d(), np.array([1.0]))
        defect = max(defect, sol.jacobian_defect())
    estimate = rms[-1]
    rows = [
        {"check": "order", "halving_rms": rms, "levels": m_range,
         "slope": slope, "pass": slope > 1.0},
        {"check": "jacobian", "defect": defect, "estimate": estimate,
         "bound": 10.0 * estimate, "pass": defect <= 10.0 * estimate},
    ]
    ok = all(r["pass"] for r in rows)
    return _report(
        "rde-demo",
        {"H": H, "N": N, "m_range": m_range, "seed": seed,
         "defect_replicas": defect_replicas},
        rows, ok,
    )
