#!/usr/bin/env python3
"""Full analysis pipeline on the reference two-subsystem network.

Runs the small-gain check, builds the composite certificate, verifies the
subsystem and composite conditions, converts to the norm-threshold form and
back, and finishes with the trajectory-level batch.  Prints one line per
stage; exits nonzero on the first failing stage.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hsgt.config import load_config
from hsgt.equiv import to_v_form, to_w_form
from hsgt.gains import small_gain_check
from hsgt.hybrid import InputSignal, SimOptions
from hsgt.kfun import KFun
from hsgt.lyapunov import (build_composite, verify_composite_flow,
                           verify_composite_jump, verify_subsystem)
from hsgt.trajectories import (PreGSEstimate, TrajectoryGains,
                               initial_condition_grid, run_estimate_batch)

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "e1.json")


def main() -> int:
    cfg = load_config(CONFIG)

    verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
    print(f"small gain: holds={verdict.holds} margin={verdict.margin:.3f}")
    if not verdict.holds:
        return 1

    for i in range(cfg.network.n):
        report = verify_subsystem(cfg.candidates, i, cfg.network, cfg.sampler,
                                  cfg.tolerances)
        print(report.summary_line())
        if not report.passed:
            return 1

    cert = build_composite(cfg.candidates, cfg.gain_matrix, cfg.network,
                           anchor=cfg.anchor, verdict=verdict, options=cfg.sg_options)
    print(f"certificate: lambda(1)={cert.lam(1.0):.4f} gamma(1)={cert.gamma(1.0):.4f} "
          f"alpha(1)={cert.alpha(1.0):.4f}")
    for report in (verify_composite_flow(cert, cfg.network, cfg.sampler, cfg.tolerances),
                   verify_composite_jump(cert, cfg.network, cfg.sampler, cfg.tolerances)):
        print(report.summary_line())
        if not report.passed:
            return 1

    wf, report_w = to_w_form(cert, cfg.network, cfg.sampler, tolerances=cfg.tolerances)
    print(report_w.summary_line())
    print(f"threshold gain at 1: {wf.gamma_bar(1.0):.6f}")
    gamma2, lam2, report_v = to_v_form(wf, cfg.sampler, tolerances=cfg.tolerances)
    print(report_v.summary_line())
    print(f"recovered lambda(1)={lam2(1.0):.4f} gamma(1)={gamma2(1.0):.4f}")
    if not (report_w.passed and report_v.passed):
        return 1

    gains = TrajectoryGains.uniform(2, KFun.linear(0.5), KFun.linear(0.5))
    estimate = PreGSEstimate(sigmas=[KFun.identity()] * 2, gains=gains,
                             composite_sigma=KFun.identity(),
                             composite_gamma=KFun.linear(0.5))
    batch = run_estimate_batch(
        cfg.network, estimate,
        initial_condition_grid(10, 2.0, cfg.network.state_dim, seed=1),
        [InputSignal.zero(1), InputSignal.constant([1.0])],
        horizon=30.0, max_jumps=20, opts=SimOptions(step=0.004, record_every=4))
    print(f"trajectory batch: passed={batch.passed} ({len(batch.results)} checks)")
    return 0 if batch.passed else 1


if __name__ == "__main__":
    sys.exit(main())
