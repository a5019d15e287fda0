"""hsgt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The run generates the workload's
configs from the seed under .perfbench_work/, measures setup time in fresh
processes, then drives ``hsgt.cli.main`` in one workload process, checks
every output against the benchmark's own oracles, and prints the metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workload processes run one at a time with numpy/BLAS pools pinned to one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env, timeout: float) -> str:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def judge(plan: workloads.Plan, passes: list, workdir: str):
    """Failed invocations over all passes, and the problems found."""
    problems = []
    oracle_bad = []
    for i, inv in enumerate(plan.invocations):
        found = oracles.check(inv.check, os.path.join(workdir, "pass0"), inv.outputs, inv.params)
        oracle_bad.append(bool(found))
        problems += [f"{inv.command} #{i}: {p}" for p in found]
    first = passes[0]["hashes"]
    failed = 0
    for k, p in enumerate(passes):
        for i, (inv, rec) in enumerate(zip(plan.invocations, p["invocations"])):
            bad = oracle_bad[i]
            if rec["error"] is not None:
                problems.append(f"pass {k} {inv.command} #{i}: raised {rec['error']}")
                bad = True
            elif rec["rc"] != inv.expect_rc:
                problems.append(f"pass {k} {inv.command} #{i}: exit {rec['rc']}, "
                                f"expected {inv.expect_rc}: {rec['stderr_tail'].strip()[-200:]}")
                bad = True
            changed = [o for o in inv.outputs if p["hashes"].get(o) != first.get(o)]
            if changed:
                problems.append(f"pass {k} {inv.command} #{i}: {changed} differ from pass 0")
                bad = True
            failed += bad
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hsgt", "__init__.py")):
        print(f"error: no hsgt sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = workloads.generate(args.workload, args.seed, workdir, root)
    except OSError as exc:
        print(f"error: cannot generate the workload: {exc}", file=sys.stderr)
        return 2
    env = child_env(src)

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                out = run_child(["setup", "--workdir", workdir, "--src", src], env, 60.0)
                setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        run_child(["run", "--workdir", workdir, "--src", src, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], env, remaining)
        with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    failed, problems = judge(plan, passes, workdir)
    attempted = sum(len(p["invocations"]) for p in passes)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    units = metrics.units()

    if args.trace:
        values = result["per_layer"]
        print(f"# {args.workload} seed {args.seed}: traced pass, {result['spans']} spans")
    else:
        # A pass repeats deterministic work, so the spread between passes is
        # interference from other tenants of a shared host.  On a shared
        # 2-vCPU VM a fixed pure-Python loop switched between a fast and a
        # 1.5x slower speed every fraction of a second, so the fastest pass
        # depended on the luck of one short phase and moved by a quarter from
        # run to run.  wall_s is the mean pass, the run's measured time over
        # its passes: it averages over those phases and, unlike the median,
        # uses all of a run that holds only three long passes.  The median
        # and fastest pass are printed alongside.
        walls = [p["wall_s"] for p in passes]
        values = {"wall_s": sum(walls) / len(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        detail = dict(values)
        detail["wall_median_s"] = statistics.median(walls)
        detail["wall_min_s"] = min(walls)
        detail.update(metrics.command_times(passes))
        detail["failed_frac"] = failed / attempted
        print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
              f"wall_s min {min(walls):.4f} max {max(walls):.4f}; "
              f"setup_s over {len(setup)} processes")
        for name, value in detail.items():
            print(f"#   {name:<20} {value:.6g} {units[name]}")
        print("# detail " + json.dumps({k: {"value": v, "unit": units[k]} for k, v in detail.items()}))
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
