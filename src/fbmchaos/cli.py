"""Command-line front end.

Each command's options, defaults and runner are declared once, in
``COMMANDS``; ``fbmchaos <command> --help`` lists its flags.  An option
resolves as explicit flag > ``--config`` file (key=value lines) > default.

Every run writes a results JSON ({experiment, params, rows}) plus a
manifest (config, library versions, seed) beside it; an optional CSV
projection flattens the rows.  Results are deterministic for a given
config: identical inputs give byte-identical results files (only the
manifest carries a timestamp).

Exit codes: 0 success, 1 a verification invariant failed (the failing
invariant is named on stderr), 2 the run was refused or could not finish:
a configuration, domain, capacity or consistency error, or a numerical
failure (a stepper that diverged).
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

from . import experiments, young
from .errors import (
    CapacityError,
    ConsistencyError,
    DivergenceError,
    DomainError,
    FbmchaosError,
)
from .fbm import SimSpec, dump_csv, simulate
from .gaussian import HurstModel
from .lift import lift2, lift3

OUT_ENV = "FBMCHAOS_OUT"


def _versions():
    out = {"python": sys.version.split()[0], "numpy": np.__version__}
    for dist in ("scipy", "fbmchaos"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = "unknown"
    return out


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
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_value(key, kind, text):
    """A config-file value, converted and checked as its flag would be."""
    if isinstance(kind, list) and text in kind:
        return text
    if kind is bool and text.lower() in ("true", "false"):
        return text.lower() == "true"
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    wanted = "|".join(kind) if isinstance(kind, list) else kind.__name__
    raise DomainError(f"{key}={text}: expected {wanted}")


def _merge(args, options):
    """Resolve each option: explicit flag > config file > built-in default."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(options)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (kind, default, *_) in options.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in config:
            merged[key] = _config_value(key, kind, config[key])
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
    stem = os.path.join(args.out, args.command)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.csv:
        with open(stem + ".csv", "w") as fh:
            fh.write(_rows_csv(report["rows"]))
    manifest = {
        "config": dict(merged, command=args.command),
        "versions": _versions(),
        # a runner may resolve the seed itself (verify-moment's per-which one)
        "seed": report["params"].get("seed", merged.get("seed")),
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
# runners: (resolved options, parsed args) -> report


def _experiment(name, **kwargs):
    # looked up at call time, so a patched or traced experiment is the one run
    return getattr(experiments, name)(**kwargs)


# option -> keyword of the experiment functions, where the two differ
_KEYWORDS = {"hurst": "H", "replicas": "N"}


def _forward(name):
    """The runner that passes every option on to ``experiments.<name>``."""
    return lambda o, args: _experiment(
        name, **{_KEYWORDS.get(key, key): val for key, val in o.items()})


def _resolve_threads(o):
    """Replace an unset ``threads`` by the usable core count, in place, so
    the manifest records the count the run used."""
    if o["threads"] is None:
        o["threads"] = experiments.default_threads()
    return o


def _sampled(o):
    return simulate(SimSpec(model=HurstModel(o["hurst"], o["d"]), m=o["m"],
                            refine=o["refine"], seed=o["seed"],
                            replica=o["replica"]))


def _simulate(o, args):
    path = _sampled(o)
    with open(os.path.join(args.out, "path.csv"), "w") as fh:
        dump_csv(path, fh)
    return {"experiment": "simulate", "params": o, "pass": True, "rows": [
        {"component": c,
         "terminal": float(path.values[c, -1]),
         "increment_std": float(np.std(path.increments[c], ddof=1)),
         "pass": True}
        for c in range(o["d"])
    ]}


def _lift(o, args):
    path = _sampled(o)
    lifted = lift2(path)
    if o["level3"]:
        lifted = lift3(path, lifted)
    sig = lifted.signature()
    levels = (sig.level1, sig.level2) + ((sig.level3,) if o["level3"] else ())
    return {"experiment": "lift", "params": o, "pass": True, "rows": [
        {"level": k, "values": v.tolist(), "pass": True}
        for k, v in enumerate(levels, 1)
    ]}


# --which -> (experiment, default replicas or None if unsampled, default seed)
_MOMENT = {"levy-area": ("levy_area_mc_experiment", 10000, 101),
           "growth": ("moment_experiment", 1000, 202),
           "covariance": ("covariance_table_experiment", None, 404)}


def _verify_moment(o, args):
    name, replicas, seed = _MOMENT[o["which"]]
    if replicas is None and (o["replicas"] is not None
                             or o["threads"] not in (None, 1)):
        raise DomainError(f"--which {o['which']} draws no samples: "
                          "--replicas and --threads do not apply")
    kwargs = {"H": o["hurst"],
              "seed": seed if o["seed"] is None else o["seed"]}
    if replicas is not None:
        kwargs.update(N=replicas if o["replicas"] is None else o["replicas"],
                      threads=_resolve_threads(o)["threads"])
    return _experiment(name, **kwargs)


def _pvar(o, args):
    rng = np.random.default_rng(o["seed"])
    pts, p = o["points"], o["p"]
    axes = tuple(np.linspace(0.0, 1.0, pts) for _ in range(2))
    f = young.GridFunction(partition=young.GridPartition(axes=axes),
                           values=rng.normal(size=(pts, pts)))
    tilde = float(young.tilde_Vp(f, p))
    vp = float(young.Vp(f, p))
    ctrl = float(young.controlled_pvar(f, p))
    bar = float(young.bar_Vp(f, p))
    ok = tilde <= vp + 1e-12 and vp <= ctrl + 1e-12
    return {"experiment": "pvar", "params": o, "pass": ok, "rows": [
        {"norm": "tilde_Vp", "value": tilde, "pass": True},
        {"norm": "Vp", "value": vp, "pass": vp >= tilde - 1e-12},
        {"norm": "pvar", "value": ctrl, "pass": ctrl >= vp - 1e-12},
        {"norm": "bar_Vp", "value": bar, "pass": True},
    ]}


# ---------------------------------------------------------------------------
# the command table

_SIMULATE = {"hurst": (float, 0.4), "d": (int, 2), "m": (int, 8),
             "refine": (int, 1), "seed": (int, 0), "replica": (int, 0)}

_THREADS = (int, None, "worker threads (default: the usable cores); "
            "never changes the numbers")

# command -> (help, {option: (type or choices, default[, help])}, runner)
COMMANDS = {
    "constants": (
        "limit-constant table",
        {"tol": (float, 1e-6),
         "identity": (bool, False,
                      "check the variance-identity assembly instead")},
        lambda o, args: _experiment(
            "constant_identity_experiment" if o["identity"]
            else "constants_experiment", tol=o["tol"])),
    "simulate": ("sample paths to CSV", _SIMULATE, _simulate),
    "lift": (
        "signature of one sampled path",
        dict(_SIMULATE, m=(int, 6), refine=(int, 4), level3=(bool, False)),
        _lift),
    "verify-moment": (
        "second-moment and moment-growth checks",
        {"which": (list(_MOMENT), "levy-area"), "hurst": (float, 0.4),
         "replicas": (int, None), "seed": (int, None), "threads": _THREADS},
        _verify_moment),
    "verify-fclt": (
        "Gaussian-limit marginal verification",
        {"hurst": (float, 0.4), "m": (int, 10), "replicas": (int, 2000),
         "n_sub": (int, 8), "seed": (int, 303), "threads": _THREADS},
        lambda o, args: _forward("fclt_experiment")(_resolve_threads(o),
                                                    args)),
    "verify-third-order": (
        "order-3 scaling and correlation-sum bounds",
        {"which": (["scaling", "rho-sum"], "scaling"), "hurst": (float, 0.4)},
        lambda o, args: _experiment(
            {"scaling": "third_order_experiment",
             "rho-sum": "rho_sum_experiment"}[o["which"]], H=o["hurst"])),
    "pvar": (
        "variation norms of a random grid function, with the sandwich check",
        {"p": (float, 2.0), "points": (int, 4), "seed": (int, 0)},
        _pvar),
    "young-check": (
        "Young-integration check suite",
        {"seed": (int, 2024), "cases": (int, 100), "hurst": (float, 0.4)},
        _forward("young_suite_experiment")),
    "rde-demo": (
        "differential-equation self-convergence demo",
        {"hurst": (float, 0.5), "replicas": (int, 400), "seed": (int, 12)},
        _forward("rde_demo_experiment")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbmchaos",
        description="Rough-path simulation and verification experiments "
        "for fractional Brownian motion.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for key, (kind, _, *doc) in options.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                kw = {"action": "store_true", "default": None}
            elif isinstance(kind, list):
                kw = {"choices": kind}
            else:
                kw = {"type": kind}
            sp.add_argument(flag, help=doc[0] if doc else None, **kw)
        sp.add_argument("--out", help=f"output directory (default "
                        f"${OUT_ENV} or the working directory)")
        sp.add_argument("--csv", action="store_true",
                        help="also write a CSV projection of the rows")
        sp.add_argument("--config", help="key=value config file; explicit "
                        "flags take precedence")
    return parser


# the stderr label of an error that exits 2; any other is "config error"
_ERROR_LABELS = {DivergenceError: "numerical error",
                 ConsistencyError: "consistency error",
                 CapacityError: "capacity error"}


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.out = args.out or os.environ.get(OUT_ENV) or "."
    _, options, runner = COMMANDS[args.command]
    try:
        merged = _merge(args, options)
        os.makedirs(args.out, exist_ok=True)
        return _emit(runner(merged, args), args, merged)
    except (FbmchaosError, OSError) as exc:
        label = _ERROR_LABELS.get(type(exc), "config error")
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
