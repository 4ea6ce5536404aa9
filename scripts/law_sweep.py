#!/usr/bin/env python3
"""Run the three algebraic law suites and print a per-group summary.

Useful for eyeballing skip rates and overflow (truncation) pressure at
different sample sizes and seeds.  The laws run one at a time, each with
the RNG of its own that ``run_all`` gives it, so each report is the one a
whole run makes; ``--verbose`` prints each law's seconds.  A law samples
with the cyclic garbage collector paused, and the collections its own
allocations make due run as the pause ends, inside its timer.  A full
collection runs before each law's timer starts, so a law's seconds hold
no collection that earlier laws left due.
"""

import argparse
import gc
import sys
import time
from collections import defaultdict

from relrew.laws import SampleConfig, catalog, run_all


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--density", type=float, default=0.15)
    ap.add_argument("--verbose", action="store_true",
                    help="one line per law instead of per group")
    args = ap.parse_args()

    cfg = SampleConfig(seed=args.seed, samples=args.samples,
                       density=args.density)
    reports, seconds = [], []
    for law_id in (i for ids in catalog().values() for i in ids):
        gc.collect()
        t0 = time.perf_counter()
        reports += run_all(cfg, [law_id])
        seconds.append(time.perf_counter() - t0)
    elapsed = sum(seconds)

    if args.verbose:
        for r, s in zip(reports, seconds):
            print(f"{r.law_id:34} {r.verdict:5} {s:7.3f}s skips={r.skips:4} "
                  f"unconfirmed={r.unconfirmed:3} dropped={r.overflow_dropped}")
    else:
        groups = defaultdict(lambda: [0, 0, 0, 0])
        for r in reports:
            g = groups[r.group]
            g[0] += 1
            g[1] += r.verdict == "pass"
            g[2] += r.skips
            g[3] += r.overflow_dropped
        print(f"{'group':20} {'laws':>5} {'pass':>5} {'skips':>7} {'dropped':>9}")
        for name in sorted(groups):
            n, p, s, d = groups[name]
            print(f"{name:20} {n:>5} {p:>5} {s:>7} {d:>9}")

    failing = [r.law_id for r in reports if r.verdict != "pass"]
    print(f"\n{len(reports)} laws, {len(failing)} failing, {elapsed:.1f}s")
    if failing:
        print("failing:", ", ".join(failing))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
