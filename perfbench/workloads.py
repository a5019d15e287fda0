"""Seeded workload generators for the hsgt benchmark.

Each generator is a pure function of the workload seed.  It writes the config
files the program will read and returns a plan: the CLI invocations of one
workload pass, each with the outcome the benchmark expects.  The expected
outcomes are worked out here and in ``oracles.py`` from the generated
parameters, never by asking ``hsgt``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("certify", "traj-sim", "gains-dense")

# Exit codes of the README contract.
PASS, FAIL = 0, 1

# gains-dense: a network "holds" when the max cycle geometric mean of the
# upper slopes is at most HOLD_MCM; it is "violated" when a planted 2-cycle
# has a lower-slope product above 1.
HOLD_MCM = 0.85
DENSE_SIZES = (6, 7)

# traj-sim's long simulate: the e1 state flows toward u/3 and is halved at
# max|x| = 1.
SIM_HORIZON = 30.0
SIM_STEP = 0.004
SIM_U_RANGE = (39.5, 40.5)
SIM_X0_RADIUS = 0.9


@dataclass
class Invocation:
    """One CLI call of a workload pass and what the benchmark expects of it."""

    command: str
    argv: List[str]
    expect_rc: int
    outputs: List[str]            # files the call writes into out/
    check: str                    # oracle name in oracles.py
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    configs: List[str]            # config paths, relative to the work dir
    invocations: List[Invocation]

    def to_json(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, "configs": self.configs,
                "invocations": [vars(inv) for inv in self.invocations]}


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the e1 reference network (two coupled scalar subsystems, shared jump set)


def e1_network() -> dict:
    guard = "max(abs(x_1), abs(x_2))"
    return {"input_dim": 1, "subsystems": [
        {"name": "sub1", "dim": 1, "flow": ["-x_1 + 0.25*x_2 + 0.25*u_1"],
         "jump": ["0.5*x_1"], "flow_guard": f"{guard} - 1", "jump_guard": f"1 - {guard}"},
        {"name": "sub2", "dim": 1, "flow": ["-x_2 + 0.25*x_1 + 0.25*u_1"],
         "jump": ["0.5*x_2"], "flow_guard": f"{guard} - 1", "jump_guard": f"1 - {guard}"},
    ]}


# ---------------------------------------------------------------------------
# certify: the shipped e1 config, the seed passed on the command line

def gen_certify(seed: int, workdir: str, repo: str) -> Plan:
    with open(os.path.join(repo, "configs", "e1.json"), "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(workdir, "e1.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    base = ["--config", "e1.json", "--seed", str(seed)]
    invs = [
        Invocation("check-gains", ["check-gains", *base, "--out", "out/gains.json"], PASS,
                   ["gains.json"], "gains_hold", {"lo": [[0, 0.5], [0.5, 0]],
                                                  "hi": [[0, 0.5], [0.5, 0]]}),
        Invocation("build-lyapunov", ["build-lyapunov", *base, "--out", "out/cert.json"], PASS,
                   ["cert.json"], "certificate", {"n": 2}),
    ]
    for which in ("subsystem", "composite", "wform"):
        invs.append(Invocation(f"verify-{which}",
                               ["verify", *base, "--which", which, "--out", f"out/verify-{which}.json"],
                               PASS, [f"verify-{which}.json"], "verify_pass",
                               {"which": which, "n": 2}))
    return Plan("certify", seed, ["e1.json"], invs)


# ---------------------------------------------------------------------------
# traj-sim: a pre-GS batch on e1 with gain fit and zero-input table, then one
# long simulate that reaches the jump set every few steps.  The batch makes
# many short simulates with almost no events; the long simulate is the
# single-trajectory path of the CLI simulate command, with event bisection
# and CSV export.  They share one workload because the benchmark's time
# budget is split over its workloads, and fewer workloads make longer, steadier
# runs on a noisy host.

TRAJ_IC_COUNT = 3
# The shipped pregs batch runs to t=40; a quarter of that keeps one
# check-traj invocation near a second, so a run holds many passes.
TRAJ_HORIZON = 10.0
TRAJ_LEVELS = [0.0, 0.5, 1.0]
TRAJ_GAIN_LEVELS = [0.5, 1.0, 2.0]
TRAJ_DELTAS = [0.25, 0.5, 1.0, 1.5]
TRAJ_EPS = [0.3, 0.75, 1.2, 2.0]


def traj_initial_conditions(seed: int) -> List[List[float]]:
    """Seeded directions of unit max norm at radii 2/3, 4/3 and 2, as in the
    shipped pregs grid.  Listed explicitly: the config's grid form takes its
    first 2*dim directions from the axes, so three points would ignore the seed."""
    rng = random.Random(f"traj-batch/{seed}")
    points = []
    for k in range(TRAJ_IC_COUNT):
        d = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        scale = 2.0 * (k + 1) / TRAJ_IC_COUNT / max(abs(v) for v in d)
        points.append([round(v * scale, 6) for v in d])
    return points


def traj_config(seed: int) -> dict:
    return {
        "network": e1_network(),
        "analysis": {
            "seed": seed, "priority": "jump",
            "trajectories": {
                "kind": "pre-gs",
                "sigmas": ["s", "s"],
                "internal_gains": [[None, "0.5*s"], ["0.5*s", None]],
                "external_gains": ["0.5*s", "0.5*s"],
                "composite_sigma": "s",
                "composite_gamma": "0.5*s",
                "initial_conditions": traj_initial_conditions(seed),
                "input_levels": TRAJ_LEVELS,
                "horizon": TRAJ_HORIZON, "max_jumps": 20, "step": 0.004,
                "tail_fraction": 0.2, "record_every": 4,
                "gain_fit": {"levels": TRAJ_GAIN_LEVELS},
                "zero_input": {"delta_grid": TRAJ_DELTAS, "eps_grid": TRAJ_EPS,
                               "horizon": 1.0},
            },
        },
    }


def gen_traj_sim(seed: int, workdir: str, repo: str) -> Plan:
    _write_json(os.path.join(workdir, "traj.json"), traj_config(seed))
    p = sim_params(seed)
    _write_json(os.path.join(workdir, "sim.json"), sim_config(seed, p))
    invs = [
        Invocation("check-traj", ["check-traj", "--config", "traj.json", "--out", "out/traj-report.json"],
                   PASS, ["traj-report.json", "traj-report.json.gain.csv",
                          "traj-report.json.delta_eps.csv"],
                   "traj_batch", {"ics": TRAJ_IC_COUNT, "levels": len(TRAJ_LEVELS),
                                  "gain_levels": TRAJ_GAIN_LEVELS,
                                  "deltas": TRAJ_DELTAS, "eps": TRAJ_EPS}),
        Invocation("simulate", ["simulate", "--config", "sim.json", "--out", "out/traj.csv"],
                   PASS, ["traj.csv"], "sim_events", p),
    ]
    return Plan("traj-sim", seed, ["traj.json", "sim.json"], invs)


# ---------------------------------------------------------------------------
# gains-dense: dense scalar networks with linear and saturating gains


def _gain_text(entry: Tuple) -> str:
    if entry[0] == "lin":
        return f"{entry[1]!r}*s"
    _kind, a, b = entry
    return f"{a!r}*s/(1 + s) + {b!r}*s"


def slope_bounds(entry: Optional[Tuple]) -> Tuple[float, float]:
    """(lo, hi) with lo*s <= g(s) <= hi*s for every s >= 0."""
    if entry is None:
        return 0.0, 0.0
    if entry[0] == "lin":
        return entry[1], entry[1]
    return entry[2], entry[1] + entry[2]


def max_cycle_mean(m: List[List[float]]) -> float:
    """Max geometric mean over the simple cycles of a nonnegative matrix.

    Closed walks of length k through i have max-times weight (A^k)_ii, and
    every closed walk splits into simple cycles, so the max over k <= n of
    ((A^k)_ii)^(1/k) is the max cycle geometric mean.
    """
    n = len(m)
    power = [row[:] for row in m]
    best = 0.0
    for k in range(1, n + 1):
        if k > 1:
            power = [[max(power[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                     for i in range(n)]
        for i in range(n):
            if power[i][i] > 0.0:
                best = max(best, power[i][i] ** (1.0 / k))
    return best


def planted_pair(n: int) -> Tuple[int, int]:
    """The planted 2-cycle sits on the last two nodes for every seed, so the
    work a violated network costs does not depend on the seed."""
    return n - 2, n - 1


def draw_dense(seed: int, n: int, violated: bool):
    """Entries (None on the diagonal) and the planted pair (or None).

    Exactly half of the off-diagonal entries are saturating.  A draw whose
    upper slopes do not meet the holding rule is drawn again from the same
    stream, so the result depends only on the seed.
    """
    rng = random.Random(f"gains-dense/{seed}/{n}/{int(violated)}")
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    while True:
        saturating = set(rng.sample(cells, len(cells) // 2))
        entries = [[None] * n for _ in range(n)]
        for i, j in cells:
            if (i, j) in saturating:
                entries[i][j] = ("sat", round(rng.uniform(0.05, 0.4), 6),
                                 round(rng.uniform(0.05, 0.3), 6))
            else:
                entries[i][j] = ("lin", round(rng.uniform(0.1, 0.7), 6))
        hi = [[slope_bounds(e)[1] for e in row] for row in entries]
        if max_cycle_mean(hi) <= HOLD_MCM:
            break
    pair = None
    if violated:
        i, j = planted_pair(n)
        entries[i][j] = ("lin", round(rng.uniform(1.05, 1.3), 6))
        entries[j][i] = ("lin", round(rng.uniform(1.05, 1.3), 6))
        pair = (i, j)
    return entries, pair


def dense_config(entries, seed: int) -> dict:
    n = len(entries)
    subs = [{"name": f"s{i + 1}", "dim": 1, "flow": [f"-x_{i + 1}"], "jump": [f"0.5*x_{i + 1}"]}
            for i in range(n)]
    cands = [{"v": f"abs(x_{i + 1})", "psi1": "s", "psi2": "s", "alpha": "0.5*s",
              "lambda": "0.5*s"} for i in range(n)]
    return {
        "network": {"input_dim": 1, "subsystems": subs},
        "gains": {"internal": [[None if e is None else _gain_text(e) for e in row]
                               for row in entries]},
        "lyapunov": {"subsystems": cands},
        "analysis": {"seed": seed, "anchor": [1.0] * n, "priority": "jump"},
    }


def gen_gains_dense(seed: int, workdir: str, repo: str) -> Plan:
    configs, invs = [], []
    for n in DENSE_SIZES:
        for violated in (False, True):
            entries, pair = draw_dense(seed, n, violated)
            name = f"dense{n}-{'violated' if violated else 'holds'}"
            _write_json(os.path.join(workdir, name + ".json"), dense_config(entries, seed))
            configs.append(name + ".json")
            bounds = [[slope_bounds(e) for e in row] for row in entries]
            params = {"lo": [[b[0] for b in row] for row in bounds],
                      "hi": [[b[1] for b in row] for row in bounds],
                      "entries": entries, "pair": pair}
            rc = FAIL if violated else PASS
            check = "gains_violated" if violated else "gains_hold"
            base = ["--config", name + ".json"]
            invs.append(Invocation("check-gains", ["check-gains", *base, "--out", "out/" + name + ".gains.json"],
                                   rc, [name + ".gains.json"], check, params))
            invs.append(Invocation("build-lyapunov", ["build-lyapunov", *base, "--out", "out/" + name + ".cert.json"],
                                   rc, [name + ".cert.json"],
                                   "gains_violated" if violated else "certificate",
                                   params if violated else {"n": n}))
    return Plan("gains-dense", seed, configs, invs)


# ---------------------------------------------------------------------------
# traj-sim's long simulate


def sim_params(seed: int) -> Dict[str, object]:
    rng = random.Random(f"sim-events/{seed}")
    u = round(rng.uniform(*SIM_U_RANGE), 6)
    x0 = [round(rng.uniform(-SIM_X0_RADIUS, SIM_X0_RADIUS), 6) for _ in range(2)]
    return {"u": u, "x0": x0, "horizon": SIM_HORIZON, "step": SIM_STEP}


def sim_config(seed: int, p: Dict[str, object]) -> dict:
    return {"network": e1_network(),
            "analysis": {"seed": seed, "priority": "jump",
                         "simulation": {"x0": p["x0"],
                                        "input": {"type": "constant", "value": [p["u"]]},
                                        "horizon": p["horizon"], "max_jumps": 1000000,
                                        "step": p["step"]}}}


GENERATORS = {"certify": gen_certify, "traj-sim": gen_traj_sim,
              "gains-dense": gen_gains_dense}


def generate(workload: str, seed: int, workdir: str, repo: str) -> Plan:
    os.makedirs(workdir, exist_ok=True)
    plan = GENERATORS[workload](seed, workdir, repo)
    _write_json(os.path.join(workdir, "plan.json"), plan.to_json())
    return plan
