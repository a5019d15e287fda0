"""Workload process of the hsgt benchmark.

    python3 perfbench/child.py setup --workdir DIR --src SRC
    python3 perfbench/child.py run --workdir DIR --src SRC --seconds S --trace 0|1

``setup`` times importing hsgt and loading the plan's configs in this fresh
process and prints ``{"setup_s": ...}``.  ``run`` drives ``hsgt.cli.main``
through the plan's invocations, pass after pass, and writes ``result.json``
into the work dir.  Untraced, it keeps starting passes while the next one is
expected to end within S seconds, with at least MIN_PASSES passes, and moves
to the next allowed CPU before each pass.  Traced, it makes one untraced pass
and then one pass under the tracer.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MIN_PASSES = 2
USAGE = 2


def _plan(workdir: str) -> dict:
    with open(os.path.join(workdir, "plan.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup(workdir: str, src: str) -> None:
    sys.path.insert(0, src)
    from hsgt.config import load_config
    for name in _plan(workdir)["configs"]:
        load_config(os.path.join(workdir, name))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, plan: dict, index: int, tracer=None) -> dict:
    """One pass over the plan; outputs land in out/ and are hashed afterwards.

    The first pass's outputs are kept as pass0/ for the oracles.
    """
    os.makedirs("out")
    records = []
    start = time.perf_counter()
    for i, inv in enumerate(plan["invocations"]):
        if tracer is not None:
            tracer.run_id = i
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(list(inv["argv"]))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else USAGE
        except Exception as exc:  # an exception escaping cli.main is a failed invocation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append({"command": inv["command"], "seconds": seconds, "rc": rc,
                        "error": error, "stderr_tail": sink.getvalue()[-400:]})
    wall = time.perf_counter() - start
    hashes = {}
    for inv in plan["invocations"]:
        for name in inv["outputs"]:
            path = os.path.join("out", name)
            hashes[name] = _sha256(path) if os.path.exists(path) else None
    if index == 0:
        os.rename("out", "pass0")
    else:
        shutil.rmtree("out")
    return {"wall_s": wall, "invocations": records, "hashes": hashes}


def run(workdir: str, src: str, seconds: float, trace: bool) -> None:
    sys.path.insert(0, src)
    import hsgt.cli as cli
    plan = _plan(workdir)
    os.chdir(workdir)
    result = {}
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import metrics
        from tracer import Tracer, install
        untraced = run_pass(cli, plan, 0)
        tracer = Tracer()
        install(tracer)
        traced = run_pass(cli, plan, 1, tracer)
        tracer.write_spans("spans.csv")
        result["passes"] = [untraced, traced]
        result["per_layer"] = metrics.per_layer(tracer.layer_times(), dict(tracer.counts),
                                                traced["wall_s"], untraced["wall_s"])
        result["spans"] = len(tracer.names)
    else:
        # On a shared 2-vCPU VM each vCPU slowed down by up to half in phases
        # of its own, so passes rotate over the CPUs this process may use and
        # run.py averages over passes.
        cpus = sorted(os.sched_getaffinity(0))
        passes = []
        begin = time.perf_counter()
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(run_pass(cli, plan, len(passes)))
            expected = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() - begin + expected > seconds:
                break
        result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workdir, args.src)
    else:
        run(args.workdir, args.src, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
