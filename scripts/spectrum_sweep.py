#!/usr/bin/env python3
"""Sweep the reduction spectrum of a rewrite system over seed depths.

For each depth: size of the reachable closure, pointwise step inclusions,
star equality, and the gap between the one-step full relation and the
sequential star (the full step is strictly coarser than a single parallel
step but strictly finer than the star).
"""

import argparse
import sys
import time

from relrew.analysis import seed_terms, spectrum_survey
from relrew.rewrite import ground_instances, parse_trs, reduction_graph
from relrew.syntax import Universe
from relrew.termrel import full_closure, sequential_closure


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file",
                    help="rewrite-system file, e.g. perfbench/data/arith.trs")
    ap.add_argument("--max-depth", type=int, default=3)
    args = ap.parse_args()

    with open(args.file) as f:
        trs = parse_trs(f.read())

    print(f"{'depth':>5} {'nodes':>7} {'ok':>3} {'full':>8} {'seq-star':>9} "
          f"{'gap':>6} {'time':>7}")
    for depth in range(1, args.max_depth + 1):
        t0 = time.time()
        seeds = seed_terms(trs, depth)
        report = spectrum_survey(trs, seeds)

        nodes = reduction_graph(trs, seeds, kind="full").nodes
        u = Universe.from_terms(trs.signature, trs.variables, nodes)
        g = ground_instances(trs, u)
        gh = full_closure(g)
        star = sequential_closure(g).kleene_star()
        gap = len(star.pairs - gh.pairs)
        print(f"{depth:>5} {report.nodes:>7} {'y' if report.ok else 'N':>3} "
              f"{len(gh.pairs):>8} {len(star.pairs):>9} {gap:>6} "
              f"{time.time() - t0:>6.1f}s")
        if not report.ok:
            print("  violations:", report.inclusion_violations[:5])
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
