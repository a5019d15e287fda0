#!/usr/bin/env python3
"""Digest manifest of the command-line outputs of one checkout.

Runs check-gains, build-lyapunov, verify --which subsystem|composite|wform,
simulate and check-traj through ``hsgt.cli.main`` on every configs/*.json,
and with --seeds every invocation of the three benchmark workloads whose
configs ``perfbench/workloads.generate`` writes for those seeds.  Each call
runs in a scratch directory with an empty out/ and a relative config path.
Prints a sorted JSON manifest of sha256 digests: every file the call wrote
under out/ (the --out file, and check-traj's .gain.csv and .delta_eps.csv),
stdout together with the exit code, and stderr.  Two checkouts produce the
same outputs when their manifests are equal:

    python scripts/output_digest.py --seeds 1 2 3 > after.json
    python scripts/output_digest.py --repo ../parent --seeds 1 2 3 > before.json
    diff before.json after.json
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings

COMMANDS = (["check-gains"], ["build-lyapunov"], ["verify", "--which", "subsystem"],
            ["verify", "--which", "composite"], ["verify", "--which", "wform"],
            ["simulate"], ["check-traj"])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_call(main, argv, workdir: str, src: str) -> dict:
    """One CLI call in ``workdir``: its exit code and the digests of what it wrote."""
    out_dir = os.path.join(workdir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # a fresh catch_warnings shows each warning once per call, as a new process would
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    finally:
        os.chdir(cwd)
    # warnings name the source file; the checkout's own path is not an output
    text = {k: v.getvalue().replace(src, "<src>") for k, v in
            (("stdout", stdout), ("stderr", stderr))}
    entry = {"exit": rc,
             "stdout": _sha256(f"exit {rc}\n{text['stdout']}".encode()),
             "stderr": _sha256(text["stderr"].encode())}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            entry["out/" + name] = _sha256(fh.read())
    return entry


def manifest(repo: str, seeds) -> dict:
    src = os.path.join(repo, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(repo, "perfbench"))
    from hsgt.cli import main
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob(os.path.join(repo, "configs", "*.json"))):
            name = os.path.basename(path)
            workdir = os.path.join(tmp, name)
            os.makedirs(workdir)
            shutil.copy(path, workdir)
            for cmd in COMMANDS:
                label = "-".join(cmd[:1] + cmd[2:])
                argv = cmd + ["--config", name, "--out", f"out/{label}.out"]
                out[f"configs/{name} {' '.join(cmd)}"] = run_call(main, argv, workdir, src)
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                workdir = os.path.join(tmp, f"{workload}-{seed}")
                plan = workloads.generate(workload, seed, workdir, repo)
                for k, inv in enumerate(plan.invocations):
                    key = f"{workload} seed {seed} #{k:02d} {inv.command}"
                    out[key] = run_call(main, inv.argv, workdir, src)
    return out


def parse_args(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=here,
                        help="checkout whose src/, configs/ and perfbench/ are used "
                             "(default: the one holding this script)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="also run the benchmark workloads for these seeds")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    print(json.dumps(manifest(os.path.abspath(args.repo), args.seeds), indent=1,
                     sort_keys=True))
