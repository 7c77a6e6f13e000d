"""End-to-end benchmark of the reebspec command line, one workload per run.

    python3 reebbench/run.py --workload tamura-scan --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; reebspec is imported from its
`src/`.  The seed draws an m = 3 weight family (see workloads.py; seed 0 is
W3 = (1; sqrt 2; 1+sqrt 2), seed 1 is held out for confirming claims).

Every main() call runs in a fresh child interpreter, one child at a time.
With --trace 0 the run first starts import-only children, then calls
main() in children until --seconds have passed (at least three calls), and
reports the end-to-end metrics: `setup_s`, the median time to import
reebspec.cli over every child; `items_per_ref_s`, the median of items /
main() time; `peak_rss_mb`, the median ru_maxrss of the main() children.
Both times are in reference seconds (child.SpeedProbe: a time at the speed
the machine ran a fixed reference loop while it was measured, so that a
busy neighbour slowing both does not move it).  The plain seconds are in
the record, as `import_s` and `items_per_s`.  With --trace 1 it alternates
traced and untraced children (at least two traced, one untraced) and
reports the per-layer metrics of the traced ones: medians for times, and
counts that must repeat exactly.

Every output is checked against the theorem (workloads.check), and every
child of a run must print the same stdout bytes (sha256).  A failed item
counts in `failed`.  The line before the result holds the run's record:
versions, seed, weights, argv, each child's numbers, quartiles and, for a
traced run, the self time of every span name and the tracing overhead.
The last line is the result that BENCHMARK.json describes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from reebbench import workloads  # noqa: E402
from reebbench.spans import EXACT_COUNTS  # noqa: E402

SETUP_PROBES = 6        # import-only children per --trace 0 run
MIN_RUN_CHILDREN = 3    # untraced main() calls in a --trace 0 run
MIN_TRACED = 2          # traced main() calls in a --trace 1 run
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170       # the whole run, children included


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(mode, workload, argv, deadline):
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    cmd = [sys.executable, str(ROOT / "reebbench" / "child.py"), mode,
           workload, *argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["mode"] = mode
    result["wall_s"] = time.monotonic() - start
    if proc.stderr:
        result["stderr"] = proc.stderr[-500:]
    return result


def _children(workload, argv, seconds, trace):
    """Run children until `seconds` have passed and the minimum is met."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    children = []
    if trace:
        need = {"trace": MIN_TRACED, "run": 1}
    else:
        need = {"run": MIN_RUN_CHILDREN}
        children += [_spawn("import", workload, argv, deadline)
                     for _ in range(SETUP_PROBES)]
    while True:
        done = {mode: sum(c["mode"] == mode for c in children) for mode in need}
        if all(done[mode] >= n for mode, n in need.items()):
            walls = [c["wall_s"] for c in children if c["mode"] in need]
            if time.monotonic() - start + statistics.median(walls) > seconds:
                return children
        # alternate traced and untraced calls, the traced one first
        mode = "trace" if trace and done["trace"] <= done["run"] else "run"
        children.append(_spawn(mode, workload, argv, deadline))


def _spread(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload_name, seed, seconds, trace):
    if not (ROOT / "src" / "reebspec" / "cli.py").is_file():
        raise BenchError(f"no reebspec sources under {ROOT / 'src'}")
    declared = _declared_metrics(trace)
    workload = workloads.WORKLOADS[workload_name]
    d, weights = workloads.family(seed)
    argv = workload.argv(d, weights)

    children = _children(workload_name, argv, seconds, trace)
    work = [c for c in children if c["mode"] != "import"]
    problems = []
    reference = work[0]["sha256"]
    for c in work:
        if c["sha256"] != reference:
            c["failed"] = c["items"]
            c["problems"].append("stdout differs from the run's first call")
        problems += c["problems"]
    attempted = sum(c["items"] for c in work)
    failed = sum(c["failed"] for c in work)

    timed = [c for c in work if c["mode"] == "run"]
    summary = {
        "setup_s": _spread([c["setup_s"] for c in children]),
        "import_s": _spread([c["import_s"] for c in children]),
        "items_per_ref_s": _spread([c["items"] / c["main_ref_s"]
                                    for c in timed]),
        "items_per_s": _spread([c["items"] / c["main_s"] for c in timed]),
        "peak_rss_mb": _spread([c["peak_rss_mb"] for c in timed]),
        "main_s": _spread([c["main_s"] for c in timed]),
    }
    record = {
        "workload": workload_name, "seed": seed,
        "held_out": seed == workloads.HELD_OUT_SEED,
        "d": d, "weights": list(weights), "argv": argv,
        "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": _version("numpy"), "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "stdout_sha256": reference,
        "failed_ratio": failed / attempted,
        "summary": summary,
    }

    if trace:
        traced = [c for c in work if c["mode"] == "trace"]
        metrics = {}
        for name in traced[0]["layers"]:
            values = [c["layers"][name] for c in traced]
            if name in EXACT_COUNTS:
                if len(set(values)) != 1:
                    problems.append(f"count {name} drifted: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (
            statistics.median(c["main_s"] for c in traced)
            - summary["main_s"]["median"])
    else:
        metrics = {name: s["median"] for name, s in summary.items()}
    record["children"] = children
    record["problems"] = problems

    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
