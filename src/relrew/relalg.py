"""Binary relations over a finite carrier, with quantale structure.

A ``Rel`` is a set of index pairs over an ordered carrier.  The module
provides the complete-lattice operations, relational composition and
converse, both residuals of composition, closure operators, and a generic
least-fixed-point iterator for monotone maps on this lattice.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Tuple

Pair = Tuple[int, int]

_corrupt_compose = False


@contextmanager
def corrupted_compose():
    """Deliberately break composition (drops one pair).  Used by the law
    suite's mutation self-test: with this active, at least one algebraic
    law must fail."""
    global _corrupt_compose
    _corrupt_compose = True
    try:
        yield
    finally:
        _corrupt_compose = False


@dataclass(frozen=True)
class Rel:
    """A binary relation on {0, ..., n-1} for a fixed carrier size n."""

    n: int
    pairs: FrozenSet[Pair]

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"pair {(i, j)} outside carrier of size {self.n}")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_pairs(n: int, pairs: Iterable[Pair]) -> "Rel":
        return Rel(n, frozenset(pairs))

    @staticmethod
    def bottom(n: int) -> "Rel":
        return Rel(n, frozenset())

    @staticmethod
    def top(n: int) -> "Rel":
        return Rel(n, frozenset((i, j) for i in range(n) for j in range(n)))

    @staticmethod
    def identity(n: int) -> "Rel":
        return Rel(n, frozenset((i, i) for i in range(n)))

    # -- lattice ------------------------------------------------------------
    def join(self, other: "Rel") -> "Rel":
        return Rel(self.n, self.pairs | other.pairs)

    def meet(self, other: "Rel") -> "Rel":
        return Rel(self.n, self.pairs & other.pairs)

    def leq(self, other: "Rel") -> bool:
        return self.pairs <= other.pairs

    def __or__(self, other: "Rel") -> "Rel":
        return self.join(other)

    def __and__(self, other: "Rel") -> "Rel":
        return self.meet(other)

    # -- monoid and converse --------------------------------------------------
    def compose(self, other: "Rel") -> "Rel":
        """x (a;b) y iff x a z and z b y for some z."""
        succ = {}
        for i, j in other.pairs:
            succ.setdefault(i, []).append(j)
        out = set()
        for i, j in self.pairs:
            for k in succ.get(j, ()):
                out.add((i, k))
        if _corrupt_compose and out:
            out.discard(min(out))
        return Rel(self.n, frozenset(out))

    def converse(self) -> "Rel":
        return Rel(self.n, frozenset((j, i) for i, j in self.pairs))

    def is_coreflexive(self) -> bool:
        return all(i == j for i, j in self.pairs)

    # -- residuals ------------------------------------------------------------
    def residual_right(self, b: "Rel") -> "Rel":
        """c/b: the largest x with x;b <= c (self is c)."""
        out = set()
        for i in range(self.n):
            for j in range(self.n):
                if all((i, k) in self.pairs for (j2, k) in b.pairs if j2 == j):
                    out.add((i, j))
        return Rel(self.n, frozenset(out))

    def residual_left(self, c: "Rel") -> "Rel":
        """self\\c: the largest x with self;x <= c."""
        out = set()
        for i in range(self.n):
            for j in range(self.n):
                if all((k, j) in c.pairs for (k, i2) in self.pairs if i2 == i):
                    out.add((i, j))
        return Rel(self.n, frozenset(out))

    # -- closures --------------------------------------------------------------
    def refl_closure(self) -> "Rel":
        return self.join(Rel.identity(self.n))

    def sym_closure(self) -> "Rel":
        return self.join(self.converse())

    def trans_closure(self) -> "Rel":
        """a+ as the least fixed point of x |-> a join a;x."""
        return lfp(lambda x: self.join(self.compose(x)), Rel.bottom(self.n))

    def kleene_star(self) -> "Rel":
        """a* as the least fixed point of x |-> id join a;x."""
        return lfp(
            lambda x: Rel.identity(self.n).join(self.compose(x)),
            Rel.bottom(self.n),
        )

    def power(self, k: int) -> "Rel":
        out = Rel.identity(self.n)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __len__(self) -> int:
        return len(self.pairs)


def lfp(f: Callable[[Rel], Rel], bottom: Rel, max_iter: int = 10_000) -> Rel:
    """Least fixed point of a monotone f by iteration from bottom."""
    x = bottom
    for _ in range(max_iter):
        y = f(x)
        if y.pairs == x.pairs:
            return x
        x = y
    raise RuntimeError("fixed-point iteration did not converge")


def random_rel(n: int, density: float, rng: random.Random) -> Rel:
    pairs = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < density
    )
    return Rel(n, pairs)


def random_coreflexive(n: int, density: float, rng: random.Random) -> Rel:
    pairs = frozenset((i, i) for i in range(n) if rng.random() < density)
    return Rel(n, pairs)
