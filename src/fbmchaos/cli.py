"""Command-line front end.

Each command's options and runner are declared once, in ``COMMANDS``;
``fbmchaos <command> --help`` lists its flags.  An option resolves as
explicit flag > ``--config`` file (key=value lines) > default.  Defaults
live in the runner: an option passed on to an ``experiments`` runner
defaults to None, which means unset and not passed.

Every run writes a results JSON ({experiment, params, rows, pass}) plus a
manifest (the options as given, library versions, seed) beside it; the
results' params record the values used.  Every runner builds its results
with ``experiments._report``: the run passes when each row that carries a
``pass`` passes, and a row without one only reports.  An optional CSV
projection flattens the rows.  Results are deterministic for a given config:
identical inputs give byte-identical results files (only the manifest
carries a timestamp).

Exit codes: 0 success, 1 a verification invariant failed (the failing
invariant is named on stderr), 2 the run was refused or could not finish:
a configuration, domain, capacity or consistency error, or a numerical
failure (a stepper that diverged).
Code 2 prints one line on stderr and no traceback.
"""

import argparse
import csv
import datetime
import functools
import io
import json
import os
import sys
from importlib import metadata

import numpy as np

from . import __version__, experiments, young
from .errors import (
    CapacityError,
    ConsistencyError,
    DivergenceError,
    DomainError,
    FbmchaosError,
)
from .fbm import SimSpec, dump_csv, simulate_batch
from .gaussian import HurstModel
from .lift import chen_fold, level3_areas, levy_areas

OUT_ENV = "FBMCHAOS_OUT"


@functools.cache
def _versions():
    """Library versions for the manifest, read once per process: the scipy
    lookup scans sys.path.  fbmchaos reports its own ``__version__``, which
    a source checkout has too, where no installed distribution is found."""
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy, "fbmchaos": __version__}


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
    """Resolve each option: explicit flag > config file > its ``COMMANDS``
    default, None for an option whose runner holds the default.  A float
    option must resolve to a finite value."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(options)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (kind, default, *_) in options.items():
        val = getattr(args, key)
        if val is None:
            val = (_config_value(key, kind, config[key]) if key in config
                   else default)
        if kind is float and val is not None and not np.isfinite(val):
            raise DomainError(f"{key}={val}: expected a finite float")
        merged[key] = val
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
        "versions": dict(_versions()),
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


# option -> keyword of the experiment functions, where the two differ
_KEYWORDS = {"hurst": "H", "replicas": "N"}


def _experiment(name, o, skip=()):
    """``experiments.<name>`` called with every set option of ``o`` outside
    ``skip``; an unset option leaves the experiment's default."""
    # looked up at call time, so a patched or traced experiment is the one run
    return getattr(experiments, name)(**{
        _KEYWORDS.get(key, key): val for key, val in o.items()
        if val is not None and key not in skip})


def _resolve_threads(o):
    """Replace an unset ``threads`` by the usable core count, in place, so
    the manifest records the count the run used."""
    if o["threads"] is None:
        o["threads"] = experiments.default_threads()


def _forward(name, selector=None):
    """The runner that passes the set options on to ``experiments.<name>``,
    or, given a selector option, to ``experiments.<name[o[selector]]>``."""
    def run(o, args):
        if "threads" in o:
            _resolve_threads(o)
        return _experiment(name[o[selector]] if selector else name, o,
                           skip=(selector,))
    return run


def _sampled(o):
    """The one replica the options name: its spec and increments (d, size)."""
    spec = SimSpec(model=HurstModel(o["hurst"], o["d"]), m=o["m"],
                   refine=o["refine"], seed=o["seed"], replica=o["replica"])
    return spec, simulate_batch(spec, 1)[0]


def _simulate(o, args):
    spec, inc = _sampled(o)
    values = np.zeros((o["d"], spec.size + 1))
    np.cumsum(inc, axis=1, out=values[:, 1:])
    with open(os.path.join(args.out, "path.csv"), "w") as fh:
        dump_csv(spec.times, values, fh)
    return experiments._report("simulate", o, [
        {"component": c,
         "terminal": values[c, -1],
         "increment_std": np.std(inc[c], ddof=1)}
        for c in range(o["d"])
    ])


def _lift(o, args):
    spec, inc = _sampled(o)
    cells = inc.reshape(o["d"], 2 ** spec.m, spec.refine)
    level3 = level3_areas(cells) if o["level3"] else None
    levels = [v for v in chen_fold(*levy_areas(cells), level3) if v is not None]
    return experiments._report("lift", o, [
        {"level": k, "values": v}
        for k, v in enumerate(levels, 1)
    ])


# --which -> (experiment, whether it draws samples)
_MOMENT = {"levy-area": ("levy_area_mc_experiment", True),
           "growth": ("moment_experiment", True),
           "covariance": ("covariance_table_experiment", False)}


def _verify_moment(o, args):
    name, sampled = _MOMENT[o["which"]]
    if sampled:
        _resolve_threads(o)
    elif o["replicas"] is not None or o["threads"] not in (None, 1):
        raise DomainError(f"--which {o['which']} draws no samples: "
                          "--replicas and --threads do not apply")
    return _experiment(name, o, skip=("which",) if sampled
                       else ("which", "threads"))


def _pvar(o, args):
    pts, p = o["points"], o["p"]
    if pts < 2:  # before the draw, which refuses a negative size its own way
        raise DomainError(f"points must be >= 2, got {pts}")
    f = np.random.default_rng(o["seed"]).normal(size=(pts, pts))
    tilde = float(young.tilde_Vp(f, p))
    vp = float(young.Vp(f, p))
    ctrl = float(young.controlled_pvar(f, p))
    bar = float(young.bar_Vp(f, p))
    return experiments._report("pvar", o, [
        {"norm": "tilde_Vp", "value": tilde},
        {"norm": "Vp", "value": vp, "pass": vp >= tilde - 1e-12},
        {"norm": "pvar", "value": ctrl, "pass": ctrl >= vp - 1e-12},
        {"norm": "bar_Vp", "value": bar, "pass": bar >= vp - 1e-12},
    ])


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
        {"tol": (float, None),
         "identity": (bool, False,
                      "check the variance-identity assembly instead")},
        _forward({False: "constants_experiment",
                  True: "constant_identity_experiment"}, "identity")),
    "simulate": ("sample paths to CSV", _SIMULATE, _simulate),
    "lift": (
        "signature of one sampled path",
        dict(_SIMULATE, m=(int, 6), refine=(int, 4), level3=(bool, False)),
        _lift),
    "verify-moment": (
        "second-moment and moment-growth checks",
        {"which": (list(_MOMENT), "levy-area"), "hurst": (float, None),
         "replicas": (int, None), "seed": (int, None), "threads": _THREADS},
        _verify_moment),
    "verify-fclt": (
        "Gaussian-limit marginal verification",
        {"hurst": (float, None), "m": (int, None), "replicas": (int, None),
         "n_sub": (int, None), "seed": (int, None), "threads": _THREADS},
        _forward("fclt_experiment")),
    "verify-third-order": (
        "order-3 scaling and correlation-sum bounds",
        {"which": (["scaling", "rho-sum"], "scaling"), "hurst": (float, None)},
        _forward({"scaling": "third_order_experiment",
                  "rho-sum": "rho_sum_experiment"}, "which")),
    "pvar": (
        "variation norms of a random grid function, with the sandwich check",
        {"p": (float, 2.0), "points": (int, 4), "seed": (int, 0)},
        _pvar),
    "young-check": (
        "Young-integration check suite",
        {"seed": (int, None), "cases": (int, None), "hurst": (float, None)},
        _forward("young_suite_experiment")),
    "rde-demo": (
        "differential-equation self-convergence demo",
        {"hurst": (float, None), "replicas": (int, None), "seed": (int, None)},
        _forward("rde_demo_experiment")),
}


@functools.cache
def build_parser():
    """The parser of every command, built on first use and kept for the
    process: parsing does not change it."""
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
