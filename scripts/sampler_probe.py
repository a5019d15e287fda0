#!/usr/bin/env python3
"""Time the stratified sampler on the reference network's flow and jump sets.

Draws each set of ``configs/e1.json`` at --n samples (the config's sampler
settings otherwise), the best of --repeat draws, and prints the samples
returned and the microseconds per accepted sample.  A last line times the tie
stratum's decoder alone on a fresh generator: --n attempts over --n inside
rows, in microseconds per attempt:

    python scripts/sampler_probe.py --n 10000 --repeat 5
"""

import argparse
import dataclasses
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from hsgt.config import load_config
from hsgt.sampling import _TieDecoder, flow_set_samples, jump_set_samples

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "e1.json")


def best_of(repeat: int, fn):
    """``fn()``'s result and its fastest time in seconds over ``repeat`` calls."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return out, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10000, help="samples per set")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3, help="draws per set; the best is kept")
    args = parser.parse_args(argv)
    if args.n < 1 or args.repeat < 1:
        parser.error("need --n and --repeat of at least 1")
    cfg = load_config(CONFIG)
    net = cfg.network
    spec = dataclasses.replace(cfg.sampler, n_samples=args.n, seed=args.seed)
    for name, draw in (("flow", flow_set_samples), ("jump", jump_set_samples)):
        samples, seconds = best_of(args.repeat, lambda: draw(net, spec))
        print(f"{name} samples={len(samples)} us_per_sample={seconds * 1e6 / len(samples):.3f}")

    def ties():
        decoder = _TieDecoder(np.random.default_rng(args.seed), args.n, net)
        decoder.take(args.n)
        decoder.close()
    _none, seconds = best_of(args.repeat, ties)
    print(f"tie attempts={args.n} us_per_attempt={seconds * 1e6 / args.n:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
