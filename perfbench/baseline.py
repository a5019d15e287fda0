"""Record the benchmark's baseline: ten seeds per workload plus one traced run.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads certify,traj-sim]
                                  [--out perfbench/BASELINE.json]

Run from the root of a source checkout.  Runs ``run.py`` one process at a
time.  For each workload it records every end-to-end value, the median and
the quartile spread (IQR over median, from ``statistics.quantiles(n=4)``),
the per-command detail medians and failed fraction, and the traced per-layer
metrics with each layer's self time as a share of the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next((l for l in lines if l.startswith("# detail ")), None)
    return json.loads(lines[-1]), json.loads(detail[len("# detail "):]) if detail else {}


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def layer_shares(values: dict) -> dict:
    """Self time of each layer as a share of the traced pass's wall time."""
    wall = values["trace.wall_s"]
    shares = {}
    for name, _unit, source in metrics.PER_LAYER:
        if source is not None and source[0] == "span" and source[2] == "self_s":
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + values[name] / wall
    return shares


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = _seeds(args.seeds)
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out["layer_map"] = metrics.LAYER_MAP
    out["workloads"] = {k: v for k, v in out.get("workloads", {}).items()
                        if k in workloads.WORKLOADS}
    for wl in args.workloads.split(","):
        runs, details = [], []
        for seed in seeds:
            result, detail = run_once(wl, seed, seconds, 0)
            runs.append(result)
            details.append(detail)
            print(wl, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        traced, _ = run_once(wl, seeds[0], seconds, 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        rec = {"seeds": seeds, "end_to_end": {}, "detail_median": {},
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "correct": all(r["correct"] for r in runs) and traced["correct"],
               "traced_seed": seeds[0], "per_layer": per_layer,
               "layer_self_share": layer_shares(per_layer)}
        for name, unit in metrics.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            rec["end_to_end"][name] = {"unit": unit, "median": med, "iqr_over_median": iqr,
                                       "values": values}
        for name in details[0]:
            rec["detail_median"][name] = statistics.median(d[name]["value"] for d in details)
        rec["failed_frac"] = rec["failed"] / rec["attempted"]
        rec["trace_overhead_s"] = per_layer["trace.overhead_s"]
        out["workloads"][wl] = rec
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(wl, {k: (round(v["median"], 4), round(v["iqr_over_median"], 4))
                   for k, v in rec["end_to_end"].items()}, flush=True)


if __name__ == "__main__":
    main()
