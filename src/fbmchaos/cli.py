"""Command-line front end.

Every run writes a results JSON ({experiment, params, rows}) plus a
manifest (config, library versions, seed) beside it; an optional CSV
projection flattens the rows.  Results are deterministic for a given
config: identical inputs give byte-identical results files (only the
manifest carries a timestamp).

Exit codes: 0 success, 1 a verification invariant failed (the failing
invariant is named on stderr), 2 the run was refused or could not finish:
a configuration, domain, capacity or consistency error, or a numerical
failure (a refinement that did not converge, a stepper that diverged).
Code 2 prints one line on stderr and no traceback.
"""

import argparse
import csv
import datetime
import io
import json
import os
import sys
from importlib import metadata

import numpy as np
import scipy

from . import experiments, young
from .errors import (
    ConsistencyError,
    DivergenceError,
    DomainError,
    FbmchaosError,
    RefinementError,
)
from .fbm import SimSpec, dump_csv, simulate
from .gaussian import HurstModel
from .lift import lift2, lift3

OUT_ENV = "FBMCHAOS_OUT"


def _versions():
    try:
        own = metadata.version("fbmchaos")
    except metadata.PackageNotFoundError:
        own = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fbmchaos": own,
    }


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _read_config(path):
    """key=value per line; '#' comments and blank lines ignored."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    f"config line {ln}: expected key=value, got {line!r}"
                )
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _coerce(val.strip())
    return out


def _merge(args, defaults):
    """Resolve each option: explicit flag > config file > built-in default."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = default
    return merged


def _rows_csv(rows):
    header = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                         else v for k, v in row.items()})
    return buf.getvalue()


def _emit(report, args, merged):
    outdir = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, args.command)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.csv:
        with open(stem + ".csv", "w") as fh:
            fh.write(_rows_csv(report["rows"]))
    manifest = {
        "config": dict(merged, command=args.command),
        "versions": _versions(),
        "seed": merged.get("seed"),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(stem + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in report["rows"]:
        if row.get("pass") is False:
            label = row.get("check") or row.get("pattern") or row.get("which") \
                or ",".join(f"{k}={row[k]}" for k in list(row)[:3])
            print(f"FAILED invariant {report['experiment']}/{label}",
                  file=sys.stderr)
    print(f"{report['experiment']}: "
          f"{'pass' if report['pass'] else 'FAIL'} "
          f"({len(report['rows'])} rows) -> {stem}.json")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_constants(args):
    defaults = {"tol": 1e-6, "identity": False, "seed": None}
    merged = _merge(args, defaults)
    if merged["identity"]:
        report = experiments.constant_identity_experiment(tol=merged["tol"])
    else:
        report = experiments.constants_experiment(tol=merged["tol"])
    return _emit(report, args, merged)


def _cmd_simulate(args):
    defaults = {"hurst": 0.4, "d": 2, "m": 8, "refine": 1, "seed": 0,
                "replica": 0}
    merged = _merge(args, defaults)
    spec = SimSpec(model=HurstModel(merged["hurst"], merged["d"]),
                   m=merged["m"], refine=merged["refine"],
                   seed=merged["seed"], replica=merged["replica"])
    path = simulate(spec)
    outdir = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "path.csv"), "w") as fh:
        dump_csv(path, fh)
    rows = [
        {"component": c,
         "terminal": float(path.values[c, -1]),
         "increment_std": float(np.std(path.increments[c], ddof=1)),
         "pass": True}
        for c in range(merged["d"])
    ]
    report = {"experiment": "simulate", "params": merged, "rows": rows,
              "pass": True}
    return _emit(report, args, merged)


def _cmd_lift(args):
    defaults = {"hurst": 0.4, "d": 2, "m": 6, "refine": 4, "seed": 0,
                "replica": 0, "level3": False}
    merged = _merge(args, defaults)
    spec = SimSpec(model=HurstModel(merged["hurst"], merged["d"]),
                   m=merged["m"], refine=merged["refine"],
                   seed=merged["seed"], replica=merged["replica"])
    path = simulate(spec)
    lifted = lift2(path)
    if merged["level3"]:
        lifted = lift3(path, lifted)
    sig = lifted.signature()
    rows = [{"level": 1, "values": sig.level1.tolist(), "pass": True},
            {"level": 2, "values": sig.level2.tolist(), "pass": True}]
    if merged["level3"]:
        rows.append({"level": 3, "values": sig.level3.tolist(), "pass": True})
    report = {"experiment": "lift", "params": merged, "rows": rows,
              "pass": True}
    return _emit(report, args, merged)


def _cmd_verify_moment(args):
    defaults = {"which": "levy-area", "hurst": 0.4, "replicas": None,
                "seed": None, "threads": 1}
    merged = _merge(args, defaults)
    which = merged["which"]
    if which == "levy-area":
        report = experiments.levy_area_mc_experiment(
            H=merged["hurst"],
            N=10000 if merged["replicas"] is None else merged["replicas"],
            seed=merged["seed"] if merged["seed"] is not None else 101,
            threads=merged["threads"],
        )
    elif which == "growth":
        report = experiments.moment_experiment(
            H=merged["hurst"],
            N=1000 if merged["replicas"] is None else merged["replicas"],
            seed=merged["seed"] if merged["seed"] is not None else 202,
            threads=merged["threads"],
        )
    elif which == "covariance":
        report = experiments.covariance_table_experiment(
            H=merged["hurst"],
            seed=merged["seed"] if merged["seed"] is not None else 404,
        )
    else:
        raise DomainError(
            f"--which must be levy-area, growth, or covariance, got {which!r}"
        )
    return _emit(report, args, merged)


def _cmd_verify_fclt(args):
    defaults = {"hurst": 0.4, "m": 10, "replicas": 2000, "n_sub": 8,
                "seed": 303, "threads": 1}
    merged = _merge(args, defaults)
    report = experiments.fclt_experiment(
        H=merged["hurst"], m=merged["m"], N=merged["replicas"],
        n_sub=merged["n_sub"], seed=merged["seed"],
        threads=merged["threads"],
    )
    return _emit(report, args, merged)


def _cmd_verify_third_order(args):
    defaults = {"which": "scaling", "hurst": 0.4, "seed": None}
    merged = _merge(args, defaults)
    if merged["which"] == "scaling":
        report = experiments.third_order_experiment(H=merged["hurst"])
    elif merged["which"] == "rho-sum":
        report = experiments.rho_sum_experiment(H=merged["hurst"])
    else:
        raise DomainError(
            f"--which must be scaling or rho-sum, got {merged['which']!r}"
        )
    return _emit(report, args, merged)


def _cmd_pvar(args):
    defaults = {"p": 2.0, "points": 4, "seed": 0}
    merged = _merge(args, defaults)
    rng = np.random.default_rng(merged["seed"])
    pts = merged["points"]
    axes = tuple(np.linspace(0.0, 1.0, pts) for _ in range(2))
    f = young.GridFunction(partition=young.GridPartition(axes=axes),
                           values=rng.normal(size=(pts, pts)))
    p = merged["p"]
    tilde = float(young.tilde_Vp(f, p))
    vp = float(young.Vp(f, p))
    ctrl = float(young.controlled_pvar(f, p))
    bar = float(young.bar_Vp(f, p))
    ok = tilde <= vp + 1e-12 and vp <= ctrl + 1e-12
    rows = [{"norm": "tilde_Vp", "value": tilde, "pass": True},
            {"norm": "Vp", "value": vp, "pass": vp >= tilde - 1e-12},
            {"norm": "pvar", "value": ctrl, "pass": ctrl >= vp - 1e-12},
            {"norm": "bar_Vp", "value": bar, "pass": True}]
    report = {"experiment": "pvar", "params": merged, "rows": rows,
              "pass": ok}
    return _emit(report, args, merged)


def _cmd_young_check(args):
    defaults = {"seed": 2024, "cases": 100, "hurst": 0.4}
    merged = _merge(args, defaults)
    report = experiments.young_suite_experiment(
        seed=merged["seed"], cases=merged["cases"], H=merged["hurst"])
    return _emit(report, args, merged)


def _cmd_rde_demo(args):
    defaults = {"hurst": 0.5, "replicas": 400, "seed": 12}
    merged = _merge(args, defaults)
    report = experiments.rde_demo_experiment(
        H=merged["hurst"], N=merged["replicas"], seed=merged["seed"])
    return _emit(report, args, merged)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--out", help=f"output directory (default ${OUT_ENV} "
                    "or the working directory)")
    sp.add_argument("--csv", action="store_true",
                    help="also write a CSV projection of the rows")
    sp.add_argument("--config", help="key=value config file; explicit flags "
                    "take precedence")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbmchaos",
        description="Rough-path simulation and verification experiments "
        "for fractional Brownian motion.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="limit-constant table")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--identity", action="store_true", default=None,
                    help="check the variance-identity assembly instead")
    sp.set_defaults(func=_cmd_constants)
    _add_common(sp)

    sp = sub.add_parser("simulate", help="sample paths to CSV")
    for flag, typ in (("--hurst", float), ("--d", int), ("--m", int),
                      ("--refine", int), ("--seed", int), ("--replica", int)):
        sp.add_argument(flag, type=typ)
    sp.set_defaults(func=_cmd_simulate)
    _add_common(sp)

    sp = sub.add_parser("lift", help="signature of one sampled path")
    for flag, typ in (("--hurst", float), ("--d", int), ("--m", int),
                      ("--refine", int), ("--seed", int), ("--replica", int)):
        sp.add_argument(flag, type=typ)
    sp.add_argument("--level3", action="store_true", default=None)
    sp.set_defaults(func=_cmd_lift)
    _add_common(sp)

    sp = sub.add_parser("verify-moment",
                        help="second-moment and moment-growth checks")
    sp.add_argument("--which", choices=["levy-area", "growth", "covariance"])
    sp.add_argument("--hurst", type=float)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int)
    sp.set_defaults(func=_cmd_verify_moment)
    _add_common(sp)

    sp = sub.add_parser("verify-fclt",
                        help="Gaussian-limit marginal verification")
    sp.add_argument("--hurst", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--n-sub", dest="n_sub", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int)
    sp.set_defaults(func=_cmd_verify_fclt)
    _add_common(sp)

    sp = sub.add_parser("verify-third-order",
                        help="order-3 scaling and correlation-sum bounds")
    sp.add_argument("--which", choices=["scaling", "rho-sum"])
    sp.add_argument("--hurst", type=float)
    sp.set_defaults(func=_cmd_verify_third_order)
    _add_common(sp)

    sp = sub.add_parser("pvar", help="variation norms of a random grid "
                        "function, with the sandwich check")
    sp.add_argument("--p", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_pvar)
    _add_common(sp)

    sp = sub.add_parser("young-check", help="Young-integration check suite")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--cases", type=int)
    sp.add_argument("--hurst", type=float)
    sp.set_defaults(func=_cmd_young_check)
    _add_common(sp)

    sp = sub.add_parser("rde-demo",
                        help="differential-equation self-convergence demo")
    sp.add_argument("--hurst", type=float)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_rde_demo)
    _add_common(sp)
    return parser


# the stderr label of an error that exits 2; any other is "config error"
_ERROR_LABELS = {RefinementError: "numerical error",
                 DivergenceError: "numerical error",
                 ConsistencyError: "consistency error"}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FbmchaosError, OSError) as exc:
        label = _ERROR_LABELS.get(type(exc), "config error")
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
