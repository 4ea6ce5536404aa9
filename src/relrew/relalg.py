"""Binary relations over a finite carrier, with quantale structure.

A ``Rel`` is a set of pairs over a carrier: ``range(n)`` for abstract
relations, or a term ``Universe`` for relations on terms.  The module
provides the complete-lattice operations, relational composition and
converse, both residuals of composition, the transitive and reflexive-
transitive closures by the graph search ``reach``, the row kernels
``below_compose`` and ``below_star``, which decide ``x <= y;z`` and
``x <= y*`` source by source of x without building the right side,
``star_witness``, the least pair that breaks ``x <= y*`` or ``x* = y*``,
read from rows in the same way, and
``lfp``, the naive Kleene iteration for monotone maps on any lattice whose
elements compare with ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Hashable,
                    Iterable, Mapping, Optional, Set, Tuple, TypeVar, Union)

if TYPE_CHECKING:  # only the annotations name it; a caller brings its own
    import random

X = TypeVar("X")
# range(n) or a term Universe: iterable, with membership by ``in``
Carrier = Iterable[Hashable]
Pair = Tuple[Hashable, Hashable]
Succ = Dict[Hashable, Set[Hashable]]

# iteration cap shared by lfp and the term closures' semi-naive loop
MAX_LFP_ITER = 10_000

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


def _carrier(c: Union[int, Carrier]) -> Carrier:
    return range(c) if isinstance(c, int) else c


class Rel:
    """A binary relation on a finite carrier: ``range(n)`` or a term
    ``Universe``.  The constructors take an int ``n`` for ``range(n)``.

    Only ``from_pairs`` checks that the pairs lie in the carrier; the
    operations cannot leave it, so they build their results unchecked.
    A relation is a value, never changed after construction: ``lfp``
    compares relations with ``==``, which compares carriers and pairs."""

    __slots__ = ("carrier", "pairs")

    def __init__(self, carrier: Carrier, pairs: FrozenSet[Pair]):
        self.carrier = carrier
        self.pairs = pairs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.pairs) == (other.carrier, other.pairs)

    def __hash__(self) -> int:
        return hash((self.carrier, self.pairs))

    @property
    def n(self) -> int:
        """The size of a ``range(n)`` carrier."""
        return len(self.carrier)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_pairs(carrier: Union[int, Carrier],
                   pairs: Iterable[Pair]) -> "Rel":
        carrier = _carrier(carrier)
        pairs = frozenset(pairs)
        for p, q in pairs:
            if p not in carrier or q not in carrier:
                raise ValueError(f"pair {(p, q)} outside the carrier")
        return Rel(carrier, pairs)

    @staticmethod
    def bottom(carrier: Union[int, Carrier]) -> "Rel":
        return Rel(_carrier(carrier), frozenset())

    @staticmethod
    def top(carrier: Union[int, Carrier]) -> "Rel":
        c = _carrier(carrier)
        return Rel(c, frozenset((p, q) for p in c for q in c))

    @staticmethod
    def identity(carrier: Union[int, Carrier]) -> "Rel":
        c = _carrier(carrier)
        return Rel(c, frozenset((p, p) for p in c))

    # -- lattice ------------------------------------------------------------
    def join(self, other: "Rel") -> "Rel":
        return Rel(self.carrier, self.pairs | other.pairs)

    def meet(self, other: "Rel") -> "Rel":
        return Rel(self.carrier, self.pairs & other.pairs)

    def leq(self, other: "Rel") -> bool:
        return self.pairs <= other.pairs

    def __or__(self, other: "Rel") -> "Rel":
        return self.join(other)

    def __and__(self, other: "Rel") -> "Rel":
        return self.meet(other)

    # -- monoid and converse --------------------------------------------------
    def compose(self, other: "Rel") -> "Rel":
        """x (a;b) y iff x a z and z b y for some z."""
        succ = successors(other.pairs)
        out = set()
        for p, q in self.pairs:
            for r in succ.get(q, ()):
                out.add((p, r))
        if _corrupt_compose and out:
            out.discard(min(out))
        return Rel(self.carrier, frozenset(out))

    def converse(self) -> "Rel":
        return Rel(self.carrier, frozenset((q, p) for p, q in self.pairs))

    # -- residuals ------------------------------------------------------------
    def residual_right(self, b: "Rel") -> "Rel":
        """c/b: the largest x with x;b <= c (self is c)."""
        out = set()
        for i in self.carrier:
            for j in self.carrier:
                if all((i, k) in self.pairs for (j2, k) in b.pairs if j2 == j):
                    out.add((i, j))
        return Rel(self.carrier, frozenset(out))

    def residual_left(self, c: "Rel") -> "Rel":
        """self\\c: the largest x with self;x <= c."""
        out = set()
        for i in self.carrier:
            for j in self.carrier:
                if all((k, j) in c.pairs for (k, i2) in self.pairs if i2 == i):
                    out.add((i, j))
        return Rel(self.carrier, frozenset(out))

    # -- closures --------------------------------------------------------------
    def trans_closure(self) -> "Rel":
        """a+: each source paired with everything its successors reach."""
        succ = successors(self.pairs)
        return Rel(self.carrier, frozenset(
            (p, q) for p, qs in succ.items() for q in reach(succ, qs)))

    def kleene_star(self) -> "Rel":
        """a* = id | a+ over the whole carrier."""
        return Rel.identity(self.carrier) | self.trans_closure()

    def power(self, k: int) -> "Rel":
        out = Rel.identity(self.carrier)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __len__(self) -> int:
        return len(self.pairs)


def successors(pairs: Iterable[Pair]) -> Succ:
    succ: Succ = {}
    for p, q in pairs:
        s = succ.get(p)
        if s is None:
            succ[p] = {q}
        else:
            s.add(q)
    return succ


def reach(succ: Mapping[Any, Iterable[Any]], seeds: Iterable[Any]) -> Set[Any]:
    """The elements reachable from ``seeds``, seeds included."""
    seen = set(seeds)
    work = list(seen)
    while work:
        for s in succ.get(work.pop(), ()):
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def below_compose(x: Rel, y: Rel, z: Rel) -> bool:
    """Whether x <= y;z, without building y;z: each source's row of x
    loses z's rows over that source's y-successors until it is empty.
    Under ``corrupted_compose`` y;z lacks its least pair, as it does in
    ``Rel.compose``."""
    ysucc, zsucc = successors(y.pairs), successors(z.pairs)
    if _corrupt_compose:
        for p in sorted(ysucc):
            row = set().union(*(zsucc.get(m, ()) for m in ysucc[p]))
            if row:
                if (p, min(row)) in x.pairs:
                    return False
                break
    for p, want in successors(x.pairs).items():
        for m in ysucc.get(p, ()):
            want.difference_update(zsucc.get(m, ()))
            if not want:
                break
        if want:
            return False
    return True


def below_star(x: Rel, y: Rel) -> bool:
    """Whether x <= y*, without building y*.  y* holds y, and relates each
    element of the carrier, where x's pairs lie, to itself; for the other
    pairs of x, y is searched from each source only until that source's
    row is reached."""
    rows = successors((p, q) for p, q in x.pairs - y.pairs if p != q)
    ysucc = successors(y.pairs) if rows else {}
    for p, want in rows.items():
        seen, work = {p}, [p]
        while want and work:
            for s in ysucc.get(work.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    want.discard(s)
                    work.append(s)
        if want:
            return False
    return True


def star_witness(x: Rel, y: Rel, equal: bool = False) -> Optional[Pair]:
    """The least pair in x but not in y*, or with ``equal`` the least pair
    in one of x* and y* but not the other; None if there is none.  Neither
    star is built, so a carrier too large to enumerate gives a witness too.
    Both stars relate each element to itself, so only a pair (p, q) with
    p != q can differ, and p is then a source of x (or of y, with
    ``equal``).  The sources are taken in order, and the first with such a
    pair gives the least one."""
    xsucc, ysucc = successors(x.pairs), successors(y.pairs)
    for p in sorted(xsucc.keys() | ysucc.keys() if equal else xsucc):
        yrow = reach(ysucc, ysucc.get(p, ()))
        if equal:
            bad = reach(xsucc, xsucc.get(p, ())) ^ yrow
        else:
            bad = xsucc[p] - yrow
        bad.discard(p)
        if bad:
            return p, min(bad)
    return None


def lfp(f: Callable[[X], X], bottom: X) -> X:
    """Least fixed point of a monotone f by iteration from bottom."""
    x = bottom
    for _ in range(MAX_LFP_ITER):
        y = f(x)
        if y == x:
            return x
        x = y
    raise RuntimeError("fixed-point iteration did not converge")


def random_rel(n: int, density: float, rng: random.Random) -> Rel:
    pairs = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < density
    )
    return Rel(range(n), pairs)


def random_coreflexive(n: int, density: float, rng: random.Random) -> Rel:
    pairs = frozenset((i, i) for i in range(n) if rng.random() < density)
    return Rel(range(n), pairs)
