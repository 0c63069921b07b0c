"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 passrun.py SPEC.json

SPEC holds {src, mode ("setup" or "pass"), trace, commands, out, result,
spans}.  The pass times the import of ``fbmchaos.cli`` (numpy and scipy
included), then calls ``fbmchaos.cli.main`` for each command in order with
``--out`` set to its own directory, and writes timings, exit codes, peak RSS
and (when tracing) the tracer summary to SPEC["result"].
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import fbmchaos.cli as cli
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "origin": os.path.dirname(os.path.abspath(cli.__file__)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(numpy),
        "commands": [],
    }
    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        for cmd in spec["commands"]:
            out = os.path.join(spec["out"], cmd["label"])
            if tracer:
                tracer.command = cmd["label"]
            error = None
            c0 = time.perf_counter()
            try:
                code = cli.main(cmd["argv"] + ["--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, error = None, traceback.format_exc()
            result["commands"].append({
                "label": cmd["label"], "exit": code, "error": error,
                "wall_s": time.perf_counter() - c0, "out": out})
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            summary = tracer.summary()
            summary["times"].update({f"cli.{c['label']}.wall_s": c["wall_s"]
                                     for c in result["commands"]})
            result["trace"] = summary
            tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
