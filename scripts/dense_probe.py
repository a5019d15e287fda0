#!/usr/bin/env python3
"""Time the small-gain check on dense networks of saturating gains.

For each n, a seeded draw gives a complete n-node gain network whose entries
are all ``a*s/(1 + s) + b*s`` with a in [0.05, 0.4] and b in [0.05, 0.3].
Every gain is then below 0.7*s, so every cycle composes to below the
identity and the network holds.  Prints one line per n: the number of simple
cycles, the verdict, the margin and the seconds of one ``small_gain_check``
call (the best of --repeat calls):

    python scripts/dense_probe.py --n 7 8 9
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hsgt.gains import GainMatrix, small_gain_check
from hsgt.kfun import KFun


def dense_network(n: int, seed: int) -> GainMatrix:
    rng = random.Random(f"dense-probe/{seed}/{n}")
    rows = [[None if i == j else
             KFun.from_text(f"{round(rng.uniform(0.05, 0.4), 6)!r}*s/(1 + s) + "
                            f"{round(rng.uniform(0.05, 0.3), 6)!r}*s")
             for j in range(n)] for i in range(n)]
    return GainMatrix.from_rows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", required=True, help="network sizes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1, help="calls per size; the best is kept")
    args = parser.parse_args(argv)
    if min(args.n) < 2 or args.repeat < 1:
        parser.error("need --n of at least 2 and --repeat of at least 1")
    for n in args.n:
        gm = dense_network(n, args.seed)
        best = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            verdict = small_gain_check(gm)
            seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
        holds = "holds" if verdict.holds else "inconclusive" if verdict.inconclusive else "violated"
        cycles = "not enumerated" if verdict.cycles is None else len(verdict.cycles)
        print(f"n={n} cycles={cycles} verdict={holds} margin={float(verdict.margin)!r} "
              f"small_gain_check_s={best:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
