"""fbmchaos benchmark: CLI verification workloads timed from outside the package.

Usage (from any directory; the package is taken from ``src/`` beside this
directory):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is a fresh interpreter (``passrun.py``) that imports
``fbmchaos.cli`` and runs the workload's commands in order.  Passes run one
at a time: at least two, a third while it fits in 1.6*S seconds, and more
while they fit in S seconds.  With ``--trace 0`` the last stdout line reports wall_s, the
time from the first command's start to the last one's end, with each
command counted at its fastest pass (other load on the machine comes in
bursts of seconds that only add time); the median setup_s (import of
fbmchaos.cli, also probed in import-only processes so every run has at
least five samples); and the median peak_rss_mib (the pass process's
ru_maxrss).  With ``--trace 1`` one untraced reference pass is followed by
traced passes (see ``layertrace.py``) and the line reports the per-layer
metrics, medians over the traced passes; the spans of the last go to
``.perfbench/traces/``.

A command fails when it raises, exits non-zero or reports "pass": false.
The run is correct when no command raises or errors, exit codes agree with
the results' verdicts, only Monte Carlo verdicts fail, results files are
byte-identical across the run's passes (traced or not) and traced counts
repeat exactly.  A line of run context precedes the result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import layer_metric
from workloads import END_TO_END, PER_LAYER, WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5
# One second of two-threaded BLAS before the first pass: on a virtual
# machine an idle core wakes slowly, which otherwise slows the first pass's
# BLAS calls by up to a second.
WARMUP = """import time, numpy
a = numpy.ones((400, 400))
end = time.perf_counter() + 1.0
while time.perf_counter() < end:
    a @ a
"""


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def run_child(rundir, tag, spec, timeout):
    """Run passrun.py with ``spec`` in a fresh interpreter; return its result."""
    spec = dict(spec, src=str(SRC), result=str(rundir / f"{tag}.result.json"))
    spec_path = rundir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    log_path = rundir / f"{tag}.log"
    with open(log_path, "w") as log:
        try:
            subprocess.run([sys.executable, str(HERE / "passrun.py"),
                            str(spec_path)], stdout=log, stderr=log,
                           cwd=rundir, timeout=max(timeout, 1.0), check=False)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{tag} did not finish in {timeout:.0f} s")
    result_path = Path(spec["result"])
    if not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise HarnessError(f"{tag} wrote no result:\n{tail}")
    result = json.loads(result_path.read_text())
    if Path(result["origin"]).resolve() != (SRC / "fbmchaos").resolve():
        raise HarnessError(f"fbmchaos imported from {result['origin']}")
    return result


def check_outputs(result, cmds):
    """Verdicts and content hashes of one pass; problems make it incorrect."""
    problems, verdicts, hashes = [], [], {}
    for cmd, rec in zip(cmds, result["commands"]):
        label, out = cmd["label"], Path(rec["out"])
        verdict = None
        try:
            verdict = json.loads(
                (out / f"{cmd['argv'][0]}.json").read_text())["pass"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{label}: unreadable results ({exc})")
        if rec["error"] or rec["exit"] not in (0, 1):
            problems.append(f"{label}: exit {rec['exit']} {rec['error'] or ''}")
        elif rec["exit"] != (0 if verdict is True else 1):
            problems.append(f"{label}: exit {rec['exit']} vs pass={verdict}")
        failed = rec["exit"] != 0 or verdict is not True
        if failed and not cmd["statistical"]:
            problems.append(f"{label}: verdict FAIL on an exact check")
        verdicts.append(failed)
        if out.is_dir():
            for f in sorted(out.iterdir()):
                if not f.name.endswith(".manifest.json"):
                    hashes[f"{label}/{f.name}"] = \
                        hashlib.sha256(f.read_bytes()).hexdigest()
    return problems, verdicts, hashes


def source_context():
    """Commit (when the tree is a git checkout), source digest, line counts."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else None
    digest, lines = hashlib.sha256(), {}
    for path in sorted((SRC / "fbmchaos").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def describe(values):
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "max": max(values)}


def run(workload, seed, seconds, trace):
    cmds = commands(workload, seed)
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    begin = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - begin)

    passes, traced, setup = [], [], []
    problems, failed, hashes = [], [], set()
    try:
        subprocess.run([sys.executable, "-c", WARMUP], cwd=rundir,
                       timeout=30, check=False)
        while True:
            traced_pass = trace and bool(passes)
            tag = f"pass{len(passes) + len(traced)}"
            p0 = time.perf_counter()
            result = run_child(rundir, tag, {
                "mode": "pass", "trace": traced_pass, "commands": cmds,
                "out": str(rundir / tag),
                "spans": str(rundir / f"{tag}.spans.csv")}, remaining())
            bad, verdicts, digest = check_outputs(result, cmds)
            problems += bad
            failed += verdicts
            hashes.add(json.dumps(digest, sort_keys=True))
            setup.append(result["setup_s"])
            (traced if traced_pass else passes).append(result)
            shutil.rmtree(rundir / tag)
            done = len(passes) + len(traced)
            if done < 2:
                continue
            # another pass like the last must fit: a third (for the
            # per-command minimum) in 1.6 times the run time, later ones in it
            last = time.perf_counter() - p0
            limit = 1.6 * seconds if done < 3 else seconds
            if time.perf_counter() - begin + last > limit or \
                    last > remaining() - 30:
                break
        while len(setup) < MIN_SETUP_SAMPLES and remaining() > 30:
            result = run_child(rundir, f"setup{len(setup)}",
                               {"mode": "setup"}, remaining())
            setup.append(result["setup_s"])
        if trace:
            spans = rundir / f"pass{len(passes) + len(traced) - 1}.spans.csv"
            keep = WORK / "traces"
            keep.mkdir(exist_ok=True)
            shutil.move(spans, keep / f"{workload}-seed{seed}.spans.csv")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if len(hashes) != 1:
        problems.append("results differ between passes of one seed")
    summaries = [p["trace"] for p in traced]
    if any(s["counts"] != summaries[0]["counts"] for s in summaries):
        problems.append("traced counts differ between passes")
    first = passes[0]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commands": [c["argv"] for c in cmds],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": first["blas_threads"],
        "python": first["python"], "numpy": first["numpy"],
        "scipy": first["scipy"], **source_context(),
        "passes": len(passes) + len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes + traced],
        "wall_s": describe([p["wall_s"] for p in passes]),
        "setup_s": describe(setup),
        "fail_rate": sum(failed) / len(failed),
        "command_wall_s": {c["label"]: c["wall_s"]
                           for c in first["commands"]},
        "problems": problems,
    }
    if trace:
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        context["trace_overhead_s"] = traced_wall - first["wall_s"]
        context["spans"] = summaries[0]["spans"]
        count_names = [n for n, u in PER_LAYER.items() if u == "count"]
        context["per_command_counts"] = {
            label: {n: c for n, c in counts.items() if n in count_names}
            for label, counts in summaries[0]["per_command"].items()}
        metrics = {
            name: {"value": statistics.median(
                layer_metric(name, s) for s in summaries) if unit == "s"
                else layer_metric(name, summaries[0]), "unit": unit}
            for name, unit in PER_LAYER.items()}
    else:
        # Other load on the machine comes in bursts of seconds that only
        # add time, so each command counts at its fastest pass.
        values = {
            "wall_s": sum(min(p["commands"][i]["wall_s"] for p in passes)
                          for i in range(len(cmds))),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"]
                                              for p in passes)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"context": context}))
    return {"correct": not problems, "attempted": len(failed),
            "failed": sum(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fbmchaos" / "cli.py").is_file():
        print(f"no fbmchaos sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
