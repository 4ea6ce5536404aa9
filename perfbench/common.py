"""Definitions shared by run.py and its child processes.

This module never imports relrew: it holds the workload sizes, the input
generators and the digest used to compare large result sets across the
process boundary.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Iterable, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(BENCH_DIR, "data")
ARITH_TRS = os.path.join(DATA_DIR, "arith.trs")
NONCONFLUENT_TRS = os.path.join(DATA_DIR, "nonconfluent.trs")
LAW_MANIFEST = os.path.join(ROOT, "tests", "data", "law_manifest.json")

WORKLOADS = ("closure-d3", "laws", "analyze-arith")

# Workload sizes.  "full" is what the benchmark measures; "tiny" is the
# self-test configuration.  The seed never changes how much work a run
# does, only the order of its inputs, so runs with different seeds can be
# compared.  Seed subsets are therefore fixed strides of the sorted seed
# population: the time of the confluence checks depends strongly on which
# seeds are present (a 196-seed stride took 37 s where this 207-seed one
# takes 1.2 s).  For the same reason the law workload does not use the run
# seed: it runs the catalog in order, cycling through a fixed set of
# sampler seeds.  One law-suite repetition varies by about 15% in time and
# RSS from one sampler seed to the next, and a shuffled law order moved
# peak RSS by 7%.
SCALES = {
    "full": {
        "closure-d3": {"depth": 3, "stride": 12},
        # The relation and fixpoint suites are cheap, and some fixpoint laws
        # skip about half their samples, so they keep 20 samples to stay
        # non-vacuous; the termrel suite carries the cost.
        "laws": {"cheap_samples": 20, "termrel_samples": 3, "sampler_seeds": 4},
        "analyze-arith": {"depth": 3, "stride": 19, "join_depth": 12,
                          "nc_depth": 3, "relations": 1000, "max_carrier": 8},
    },
    "tiny": {
        "closure-d3": {"depth": 2, "stride": 24},
        "laws": {"cheap_samples": 20, "termrel_samples": 2, "sampler_seeds": 2},
        "analyze-arith": {"depth": 2, "stride": 24, "join_depth": 12,
                          "nc_depth": 2, "relations": 50, "max_carrier": 8},
    },
}


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def law_sampler_seed(cfg: dict, rnd: int) -> int:
    """The ``SampleConfig.seed`` of the laws repetition in round ``rnd``."""
    return rnd % cfg["sampler_seeds"]


def seed_order(seed: int, rnd: int) -> random.Random:
    """The RNG that orders the seed terms of the repetition in round
    ``rnd``; every round sees another order."""
    return random.Random(f"order:{seed}:{rnd}")


def gen_relations(seed: int, count: int, max_carrier: int
                  ) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """Random abstract relations as (carrier size, pairs)."""
    rng = random.Random(f"relations:{seed}")
    out = []
    for _ in range(count):
        n = rng.randint(1, max_carrier)
        density = rng.uniform(0.05, 0.5)
        pairs = tuple((i, j) for i in range(n) for j in range(n)
                      if rng.random() < density)
        out.append((n, pairs))
    return out


def pairs_mask(n: int, pairs: Iterable[Tuple[int, int]]) -> int:
    """A relation on {0..n-1} as one integer with bit i*n+j per pair."""
    m = 0
    for i, j in pairs:
        m |= 1 << (i * n + j)
    return m


def _h(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


class Digest:
    """Order-independent digest of a set of strings: count and hash sum.

    Removing one element gives exactly the digest of the set without it,
    which lets the self-test corrupt a result faithfully.
    """

    __slots__ = ("count", "total")

    def __init__(self, count: int = 0, total: int = 0):
        self.count = count
        self.total = total

    @classmethod
    def of(cls, items: Iterable[str]) -> "Digest":
        d = cls()
        for s in items:
            d.add(s)
        return d

    def add(self, s: str) -> None:
        self.count += 1
        self.total = (self.total + _h(s)) & 0xFFFFFFFFFFFFFFFF

    def remove(self, s: str) -> None:
        self.count -= 1
        self.total = (self.total - _h(s)) & 0xFFFFFFFFFFFFFFFF

    def to_json(self) -> list:
        return [self.count, format(self.total, "016x")]

    @classmethod
    def from_json(cls, v) -> "Digest":
        return cls(int(v[0]), int(v[1], 16))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Digest) and self.count == other.count
                and self.total == other.total)

    def __repr__(self) -> str:
        return f"Digest({self.count}, {self.total:016x})"


def pair_key(p: str, q: str) -> str:
    return f"{p} {q}"
