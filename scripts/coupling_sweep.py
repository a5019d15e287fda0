#!/usr/bin/env python3
"""Sweep the coupling strength of the two-subsystem network.

For each coupling value the natural linear gains are twice the coupling
coefficient (the flow loses state at unit rate and gains coupling times the
neighbor).  The sweep reports the small-gain margin, whether the certificate
machinery accepts the network, and the measured tail response, showing where
the analysis flips from accept to reject.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from hsgt import expr as ex
from hsgt.gains import GainMatrix, small_gain_check
from hsgt.hybrid import InputSignal, SimOptions, SubsystemSpec, compose_network, simulate
from hsgt.kfun import KFun
from hsgt.lyapunov import SubsystemLyapunov, verify_subsystem
from hsgt.sampling import SamplerSpec


def build_network(coupling: float):
    allowed = ("x_1", "x_2", "u_1")
    subs = []
    for i in (1, 2):
        j = 3 - i
        subs.append(SubsystemSpec(
            dim=1,
            flow=[ex.parse(f"-x_{i} + {coupling}*x_{j} + 0.25*u_1", allowed)],
            jump=[ex.parse(f"0.5*x_{i}", allowed)],
            c_guard=ex.Const(-1.0),
            d_guard=ex.Const(1.0),
            name=f"sub{i}"))
    return compose_network(subs, input_dim=1)


def candidates(gain: float):
    out = []
    for i in (0, 1):
        out.append(SubsystemLyapunov(
            v=ex.parse(f"abs(x_{i + 1})", (f"x_{i + 1}",)),
            psi1=KFun.identity(), psi2=KFun.identity(),
            alpha=KFun.linear(0.5), lam=KFun.linear(0.5),
            gamma_internal={1 - i: KFun.linear(gain)},
            gamma_external=KFun.linear(0.5)))
    return out


def tail_response(net, horizon=30.0) -> float:
    sol = simulate(net, [1.0, 0.5], InputSignal.zero(1), horizon, 0,
                   SimOptions(step=0.01, record_every=5))
    if sol.termination == "numerical_failure":
        return float("inf")
    tail = np.concatenate(sol.x.times) >= 0.8 * horizon
    states = np.concatenate(sol.x.values)[tail]
    return float(np.max(np.abs(states))) if len(states) else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--couplings", type=float, nargs="+",
                        default=[0.1, 0.25, 0.4, 0.49, 0.6, 1.0, 1.5])
    args = parser.parse_args()
    sampler = SamplerSpec(n_samples=1200, box_radius=2.0, seed=0)
    print(f"{'coupling':>9} {'gain':>6} {'margin':>8} {'small-gain':>10} "
          f"{'subsystem':>10} {'tail':>10}")
    for kappa in args.couplings:
        gain = 2.0 * kappa
        gm = GainMatrix.from_rows([[None, KFun.linear(gain)],
                                   [KFun.linear(gain), None]])
        verdict = small_gain_check(gm)
        net = build_network(kappa)
        report = verify_subsystem(candidates(gain), 0, net, sampler)
        tail = tail_response(net)
        print(f"{kappa:9.2f} {gain:6.2f} {verdict.margin:8.3f} "
              f"{str(verdict.holds):>10} {report.verdict:>10} {tail:10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
