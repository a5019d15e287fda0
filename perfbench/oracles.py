"""Output checks for the benchmark's CLI invocations.

Each check reads the files one invocation wrote and compares them with what
the benchmark derives from the generated parameters alone.  A check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from typing import List, Optional, Sequence

from workloads import HOLD_MCM, max_cycle_mean

TOL = 1e-9


# ---------------------------------------------------------------------------
# gain oracles


_LIN = re.compile(r"^\s*([0-9.eE+-]+)\s*\*\s*s\s*$")
_SAT = re.compile(r"^\s*([0-9.eE+-]+)\s*\*\s*s\s*/\s*\(\s*1\s*\+\s*s\s*\)\s*\+\s*([0-9.eE+-]+)\s*\*\s*s\s*$")


def parse_gain(text: Optional[str]):
    """Entry tuple for the two gain shapes the benchmark generates."""
    if text is None:
        return None
    m = _LIN.match(text)
    if m:
        return ("lin", float(m.group(1)))
    m = _SAT.match(text)
    if m:
        return ("sat", float(m.group(1)), float(m.group(2)))
    raise ValueError(f"gain {text!r} is neither c*s nor a*s/(1+s) + b*s")


def gain_value(entry, s: float) -> float:
    if entry is None:
        return 0.0
    if entry[0] == "lin":
        return entry[1] * s
    return entry[1] * s / (1.0 + s) + entry[2] * s


def classify_network(lo: Sequence[Sequence[float]], hi: Sequence[Sequence[float]]) -> str:
    """"holds", "violated" or "between", from slope bounds alone."""
    if max_cycle_mean(hi) <= HOLD_MCM:
        return "holds"
    if max_cycle_mean(lo) > 1.0:
        return "violated"
    return "between"


def max_cycle_product(m: Sequence[Sequence[float]]) -> float:
    """Upper bound on the product around any simple cycle: the max closed
    walk weight over lengths 2..n (every simple cycle is such a walk)."""
    n = len(m)
    power = [list(row) for row in m]
    best = 0.0
    for k in range(2, n + 1):
        power = [[max(power[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
        best = max(best, max(power[i][i] for i in range(n)))
    return best


def two_cycle_floor(lo: Sequence[Sequence[float]]) -> float:
    n = len(lo)
    return max((lo[i][j] * lo[j][i] for i in range(n) for j in range(n) if i != j),
               default=0.0)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_gains_hold(files: List[str], params: dict) -> List[str]:
    sg = _load_json(files[0]).get("small_gain", {})
    out = []
    if classify_network(params["lo"], params["hi"]) != "holds":
        out.append("generator produced a network that does not hold")
    if sg.get("holds") is not True or sg.get("inconclusive"):
        out.append(f"small-gain verdict {sg.get('holds')!r}, expected holds")
    margin = sg.get("margin", math.nan)
    lo_b, hi_b = two_cycle_floor(params["lo"]), max_cycle_product(params["hi"])
    if not (lo_b - TOL <= margin <= hi_b + TOL):
        out.append(f"cycle margin {margin!r} outside [{lo_b!r}, {hi_b!r}]")
    return out


def check_gains_violated(files: List[str], params: dict) -> List[str]:
    sg = _load_json(files[0]).get("small_gain", {})
    out = []
    if classify_network(params["lo"], params["hi"]) != "violated":
        out.append("generator produced a network that is not violated")
    if sg.get("holds") is not False:
        out.append(f"small-gain verdict {sg.get('holds')!r}, expected violated")
    entries = params["entries"]
    if "witness_cycle" in sg:
        w = sg["witness_cycle"]
        nodes = [i - 1 for i in w["cycle"]]
        v = w["radius"]
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            v = gain_value(entries[b][a], v)
        if v < w["radius"] * (1.0 - TOL):
            out.append(f"witness cycle {w['cycle']} does not grow at r={w['radius']!r}")
    elif "witness_vector" in sg:
        s = sg["witness_vector"]
        image = [max(gain_value(entries[i][j], s[j]) for j in range(len(s)))
                 for i in range(len(s))]
        if any(g < x * (1.0 - TOL) for g, x in zip(image, s)) or max(s) <= 0.0:
            out.append("witness vector is not a non-decrease of the gain operator")
    else:
        out.append("violated verdict without a witness")
    return out


def check_certificate(files: List[str], params: dict) -> List[str]:
    report = _load_json(files[0])
    out = []
    if report.get("small_gain", {}).get("holds") is not True:
        out.append("certificate report without a holding small-gain verdict")
    cert = report.get("certificate")
    if not isinstance(cert, dict):
        return out + ["no certificate in the report"]
    missing = {"sigma", "phi", "gamma", "lambda", "psi1", "psi2", "alpha"} - set(cert)
    if missing:
        out.append(f"certificate lacks {sorted(missing)}")
    sigma = cert.get("sigma", {})
    if len(sigma.get("sigma", [])) != params["n"]:
        out.append("certificate path has the wrong number of components")
    if not sigma.get("margin", math.inf) < 1.0:
        out.append(f"scaling path margin {sigma.get('margin')!r} is not a strict decrease")
    return out


# ---------------------------------------------------------------------------
# verification


def check_verify_pass(files: List[str], params: dict) -> List[str]:
    reports = _load_json(files[0]).get("reports", [])
    verdicts = [r for r in reports if "verdict" in r]
    expected = {"subsystem": params["n"], "composite": 2, "wform": 2}[params["which"]]
    out = []
    if len(verdicts) != expected:
        out.append(f"{len(verdicts)} verification reports, expected {expected}")
    for r in verdicts:
        if r["verdict"] != "pass":
            out.append(f"{r.get('condition')}: verdict {r['verdict']}")
        if not 0 <= r.get("samples_checked", -1) <= r.get("samples_tested", -1) \
                or r.get("samples_tested", 0) <= 0:
            out.append(f"{r.get('condition')}: inconsistent sample counts")
    return out


# ---------------------------------------------------------------------------
# trajectories


def _read_csv(path: str) -> List[List[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_traj_batch(files: List[str], params: dict) -> List[str]:
    report = _load_json(files[0])
    out = []
    batch = report.get("batch", {})
    labels = {r["label"] for r in batch.get("results", [])}
    want = {f"ic{a}-in{b}-{part}" for a in range(params["ics"]) for b in range(params["levels"])
            for part in ("sub1", "sub2", "composed")}
    if labels != want:
        out.append(f"batch results {len(labels)} labels, expected {len(want)}")
    if batch.get("passed") is not True:
        out.append("pre-GS batch failed")

    table = report.get("gain_table", [])
    levels = [row["level"] for row in table]
    values = [row["tail_max"] for row in table]
    if levels != params["gain_levels"] or any(v is None for v in values):
        out.append("gain table levels or values missing")
    elif any(b < a for a, b in zip(values, values[1:])):
        out.append("gain table is not monotone")
    gain_rows = _read_csv(files[1])[1:]
    if [[float(a), float(b)] for a, b in gain_rows] != [[lvl, v] for lvl, v in zip(levels, values)]:
        out.append("gain CSV disagrees with the report")

    # Zero input: max|x| never grows (flow contracts the leading component and
    # jumps halve the state), so a run from radius d has supremum d.
    zi = report.get("zero_input", {})
    table = zi.get("metadata", {}).get("table", [])
    want_rows = [{"bound": e, "radius": max([d for d in params["deltas"] if d <= e], default=None)}
                 for e in params["eps"]]
    if table != want_rows:
        out.append(f"zero-input table {table!r}, expected {want_rows!r}")
    if zi.get("passed") is not True:
        out.append("zero-input table failed")
    de_rows = _read_csv(files[2])[1:]
    if [[float(b), float(r)] for b, r in de_rows] != [[row["bound"], row["radius"]] for row in want_rows]:
        out.append("delta/eps CSV disagrees with the expected table")
    return out


def jump_count_bounds(u: float, horizon: float) -> tuple:
    """Bracket on the jump count of the e1 network under a large constant input.

    Inside the flow set |x| <= 1 each x_i' = -x_i + x_j/4 + u/4 lies in
    [u/4 - 5/4, u/4 + 5/4].  A jump halves the state, so the leading component
    climbs from 1/2 back to 1 in between 0.5/(u/4 + 5/4) and 0.5/(u/4 - 5/4);
    the first climb, from x0 in [-1, 1], takes at most 2/(u/4 - 5/4).
    """
    slow, fast = u / 4.0 - 1.25, u / 4.0 + 1.25
    lo = math.floor((horizon - 2.0 / slow) / (0.5 / slow))
    hi = math.ceil(horizon / (0.5 / fast)) + 1
    return lo, hi


def check_sim_events(files: List[str], params: dict) -> List[str]:
    rows = _read_csv(files[0])
    out = []
    if rows[0] != ["t", "k", "x_1", "x_2", "u_1", "phase"]:
        return [f"unexpected CSV header {rows[0]!r}"]
    body = [(float(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]), r[5]) for r in rows[1:]]
    u = params["u"]
    if [body[0][2], body[0][3]] != params["x0"]:
        out.append("first row is not the initial state")
    if any(r[4] != u for r in body):
        out.append("input column differs from the constant input")
    jumps = 0
    for a, b in zip(body, body[1:]):
        if b[1] == a[1] + 1:
            jumps += 1
            if a[5] != "jump" or b[5] != "jump" or b[0] != a[0]:
                out.append(f"jump at t={a[0]!r} is not a pre/post jump row pair")
                break
            if max(abs(a[2]), abs(a[3])) < 1.0 - 1e-6 or (b[2], b[3]) != (0.5 * a[2], 0.5 * a[3]):
                out.append(f"jump at t={a[0]!r} does not halve a state on the jump set")
                break
        elif b[1] != a[1] or b[0] < a[0]:
            out.append(f"hybrid time goes backwards after t={a[0]!r}")
            break
        if b[5] == "flow" and max(abs(b[2]), abs(b[3])) > 1.0 + 1e-6:
            out.append(f"flow row outside the flow set at t={b[0]!r}")
            break
    if abs(body[-1][0] - params["horizon"]) > 1e-9:
        out.append(f"run ends at t={body[-1][0]!r}, not at the horizon")
    lo, hi = jump_count_bounds(u, params["horizon"])
    if not lo <= jumps <= hi:
        out.append(f"{jumps} jumps, expected between {lo} and {hi}")
    return out


CHECKS = {"gains_hold": check_gains_hold, "gains_violated": check_gains_violated,
          "certificate": check_certificate, "verify_pass": check_verify_pass,
          "traj_batch": check_traj_batch, "sim_events": check_sim_events}


def check(name: str, pass_dir: str, outputs: List[str], params: dict) -> List[str]:
    files = [os.path.join(pass_dir, f) for f in outputs]
    missing = [f for f in outputs if not os.path.exists(os.path.join(pass_dir, f))]
    if missing:
        return [f"missing output {missing}"]
    try:
        return CHECKS[name](files, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
