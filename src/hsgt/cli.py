"""Command-line entry point.

    hsgt check-gains     --config cfg.json [--out report.json] [--seed N]
    hsgt build-lyapunov  --config cfg.json [--out certificate.json] [--seed N]
    hsgt verify          --config cfg.json [--which subsystem|composite|wform]
    hsgt simulate        --config cfg.json [--out trajectory.csv]
    hsgt check-traj      --config cfg.json [--out report.json]

Exit codes: 0 when the requested condition holds, 1 when an analysis fails
(a condition is violated, or an expression, comparison function, scaling path
or simulation cannot be evaluated), 2 on configuration or usage errors.  Reports are
deterministic for a fixed config and seed, and strict JSON: a non-finite
number is written as the string "NaN", "Infinity" or "-Infinity".
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Optional

from .config import ConfigError, ProjectConfig, load_config
from .equiv import TransformError, to_v_form, to_w_form
from .expr import EvalDomainError
from .gains import OmegaPathError, SmallGainError, small_gain_check
from .hybrid import HybridError, InputSignal, simulate, trajectory_csv_header, \
    write_trajectory_csv
from .kfun import KFunError, kfun_to_json
from .lyapunov import (CertificateError, build_composite, verify_composite_flow,
                       verify_composite_jump, verify_subsystem)
from .sampling import SampleMemo
from .trajectories import (TrajectoryError, check_zero_input_prestability,
                           fit_empirical_gain, run_estimate_batch)

PASS, FAIL, USAGE = 0, 1, 2


def _emit(report: dict, out: Optional[str]) -> None:
    # Strict JSON (RFC 8259) has no NaN or infinities: each becomes the string of
    # its token.  A finite float's repr reads back as the same float, and the
    # keys keep the order of the first, sorting pass.
    strict = json.loads(json.dumps(report, sort_keys=True), parse_constant=str)
    _write(json.dumps(strict, indent=2, allow_nan=False) + "\n", out)


def _write(text: str, out: Optional[str]) -> None:
    """``text`` as it is, into the file ``out`` or else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ProjectConfig:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be at least 0, got {args.seed}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.apply_seed(args.seed)
    return cfg


def cmd_check_gains(args) -> int:
    cfg = _load(args)
    if cfg.gain_matrix is None:
        raise ConfigError("config has no gains section")
    verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
    report = {"command": "check-gains", "seed": cfg.seed,
              "small_gain": verdict.to_json()}
    _emit(report, args.out)
    return PASS if verdict.holds else FAIL


def _certify(cfg: ProjectConfig, head: dict, out: Optional[str]) -> tuple:
    """The small-gain verdict of ``cfg`` and the composite certificate built on
    it; where the condition fails, ``head`` is written with the verdict as the
    report, and the certificate is None."""
    if cfg.gain_matrix is None:
        raise ConfigError("config has no gains section")
    if cfg.candidates is None:
        raise ConfigError("config has no lyapunov section")
    verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
    if not verdict.holds:
        _emit({**head, "small_gain": verdict.to_json()}, out)
        return verdict, None
    return verdict, build_composite(cfg.candidates, cfg.gain_matrix, cfg.network,
                                    anchor=cfg.anchor, verdict=verdict, options=cfg.sg_options)


def cmd_build_lyapunov(args) -> int:
    cfg = _load(args)
    head = {"command": "build-lyapunov", "seed": cfg.seed}
    verdict, cert = _certify(cfg, head, args.out)
    if cert is None:
        return FAIL
    _emit({**head, "small_gain": verdict.to_json(), "certificate": cert.to_json(),
           "warnings": list(cfg.network.warnings)}, args.out)
    return PASS


def cmd_verify(args) -> int:
    cfg = _load(args)
    if cfg.candidates is None:
        raise ConfigError("config has no lyapunov section")
    reports = []
    ok = True
    memo = SampleMemo()  # this command's sample sets, each drawn once
    if args.which == "subsystem":
        for i in range(cfg.network.n):
            rep = verify_subsystem(cfg.candidates, i, cfg.network, cfg.sampler,
                                   cfg.tolerances, memo)
            reports.append(rep.to_json())
            print(rep.summary_line())
            ok = ok and rep.passed
    else:
        _verdict, cert = _certify(cfg, {"command": "verify", "which": args.which,
                                        "seed": cfg.seed}, args.out)
        if cert is None:
            return FAIL
        if args.which == "composite":
            for rep in (verify_composite_flow(cert, cfg.network, cfg.sampler, cfg.tolerances,
                                              memo),
                        verify_composite_jump(cert, cfg.network, cfg.sampler, cfg.tolerances,
                                              memo)):
                reports.append(rep.to_json())
                print(rep.summary_line())
                ok = ok and rep.passed
        else:  # wform
            wf, rep_w = to_w_form(cert, cfg.network, cfg.sampler, cfg.tolerances, memo)
            gamma2, lam2, rep_v = to_v_form(wf, cfg.sampler, cfg.tolerances, memo)
            reports.append(rep_w.to_json())
            reports.append(rep_v.to_json())
            reports.append({"wform": wf.to_json(),
                            "recovered_gamma": kfun_to_json(gamma2),
                            "recovered_lambda": kfun_to_json(lam2)})
            print(rep_w.summary_line())
            print(rep_v.summary_line())
            ok = rep_w.passed and rep_v.passed
    _emit({"command": "verify", "which": args.which, "seed": cfg.seed,
           "reports": reports}, args.out)
    return PASS if ok else FAIL


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.simulation is None:
        raise ConfigError("config has no analysis.simulation section")
    sim = cfg.simulation
    if sim.horizon <= 0.0 and sim.max_jumps <= 0:
        _write(trajectory_csv_header(cfg.network.state_dim, cfg.network.input_dim), args.out)
        print("domain: 0 intervals, 0 jumps", file=sys.stderr)
        return PASS
    sol = simulate(cfg.network, sim.x0, sim.input_signal, sim.horizon,
                   sim.max_jumps, sim.options)
    buffer = io.StringIO()
    rows = write_trajectory_csv(sol, buffer)
    _write(buffer.getvalue(), args.out)
    summary = (f"domain: {len(sol.domain.intervals)} intervals, "
               f"{sol.jumps_applied} jumps, termination={sol.termination}, rows={rows}")
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    for w in cfg.network.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return PASS


def cmd_check_traj(args) -> int:
    cfg = _load(args)
    if cfg.trajectories is None:
        raise ConfigError("config has no analysis.trajectories section")
    traj = cfg.trajectories
    if not traj.initial_conditions or not traj.input_levels:
        raise ConfigError("empty batch: need initial conditions and input levels")
    inputs = [InputSignal.constant([lvl] * cfg.network.input_dim)
              for lvl in traj.input_levels]
    batch = run_estimate_batch(cfg.network, traj.estimate, traj.initial_conditions,
                               inputs, traj.horizon, traj.max_jumps, traj.options)
    report = {"command": "check-traj", "kind": traj.kind, "seed": cfg.seed,
              "batch": batch.to_json()}
    ok = batch.passed

    if traj.gain_fit_levels:
        table = fit_empirical_gain(cfg.network, traj.gain_fit_levels, traj.horizon,
                                   traj.max_jumps, traj.tail_fraction, traj.options)
        report["gain_table"] = [{"level": lvl, "tail_max": val} for lvl, val in table]
        if args.out:
            _write_csv(args.out, ".gain.csv", ["level", "tail_max"],
                       [[lvl, val] for lvl, val in table])
    if traj.zero_input:
        zi = traj.zero_input
        zbatch = check_zero_input_prestability(
            cfg.network, zi["delta_grid"], zi["eps_grid"], zi["horizon"], zi["max_jumps"],
            traj.options, seed=cfg.seed)
        report["zero_input"] = zbatch.to_json()
        ok = ok and zbatch.passed
        if args.out:
            _write_csv(args.out, ".delta_eps.csv", ["bound", "radius"],
                       [[row["bound"], row["radius"]]
                        for row in zbatch.metadata["table"]])
    _emit(report, args.out)
    return PASS if ok else FAIL


def _write_csv(out_path: str, suffix: str, header, rows):
    import csv as _csv
    path = out_path + suffix
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsgt",
                                     description="small-gain analysis for hybrid networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON project config")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="override the analysis seed")

    common(sub.add_parser("check-gains", help="small-gain condition for the gain matrix"))
    common(sub.add_parser("build-lyapunov", help="construct the interconnection certificate"))
    p_verify = sub.add_parser("verify", help="sampled verification of certificate conditions")
    common(p_verify)
    p_verify.add_argument("--which", choices=("subsystem", "composite", "wform"),
                          default="composite")
    common(sub.add_parser("simulate", help="simulate and export a trajectory CSV"))
    common(sub.add_parser("check-traj", help="trajectory-level estimate checks"))
    return parser


_HANDLERS = {
    "check-gains": cmd_check_gains,
    "build-lyapunov": cmd_build_lyapunov,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "check-traj": cmd_check_traj,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (SmallGainError, CertificateError, TransformError, OmegaPathError, KFunError,
            HybridError, EvalDomainError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
