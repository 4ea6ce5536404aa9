"""Reference implementations the benchmark checks relrew's results against.

Nothing here imports relrew.  Terms are plain tuples, and the parser, the
seed enumeration, the three steppers, reachability and the Floyd-Warshall
closure are written from their definitions, so a defect in the library
cannot hide inside its own oracle.

A term is ``(name, args)`` with ``args`` a tuple of terms; a variable is
``(name, None)``.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Term = tuple

_TOKEN = re.compile(r"\s*([A-Za-z0-9_'+\-]+|[(),])")


def parse_term(text: str, arities: Dict[str, int], variables: Sequence[str]) -> Term:
    toks = _TOKEN.findall(text)
    pos = 0

    def go() -> Term:
        nonlocal pos
        name = toks[pos]
        pos += 1
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            args = [go()]
            while toks[pos] == ",":
                pos += 1
                args.append(go())
            if toks[pos] != ")":
                raise ValueError(f"bad term {text!r}")
            pos += 1
            if arities.get(name) != len(args):
                raise ValueError(f"arity mismatch in {text!r}")
            return (name, tuple(args))
        if name in variables:
            return (name, None)
        if arities.get(name) != 0:
            raise ValueError(f"unknown name {name!r} in {text!r}")
        return (name, ())

    t = go()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return t


class Trs:
    """A rewrite system read from the ``sig``/``var``/``rule`` text format."""

    def __init__(self, text: str):
        self.arities: Dict[str, int] = {}
        self.variables: List[str] = []
        rules = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "sig":
                for tok in rest.split():
                    name, _, ar = tok.partition("/")
                    self.arities[name] = int(ar)
            elif head == "var":
                self.variables.extend(rest.split())
            elif head == "rule":
                lhs, _, rhs = rest.partition("->")
                rules.append((lhs, rhs))
            else:
                raise ValueError(f"unknown directive {head!r}")
        self.rules = [(self.parse(l), self.parse(r)) for l, r in rules]

    def parse(self, text: str) -> Term:
        return parse_term(text, self.arities, self.variables)


def fmt(t: Term) -> str:
    name, args = t
    if not args:
        return name
    return f"{name}({','.join(fmt(a) for a in args)})"


def depth(t: Term) -> int:
    args = t[1]
    return 1 + max(depth(a) for a in args) if args else 0


def sort_key(t: Term):
    """Depth, then variables after operators, then name, then arguments."""
    name, args = t
    return (depth(t), args is None, name, tuple(sort_key(a) for a in args or ()))


def all_terms(trs: Trs, variables: Sequence[str], d: int) -> Set[Term]:
    """Every well-formed term of depth <= d."""
    leaves = {(v, None) for v in variables}
    leaves |= {(n, ()) for n, a in trs.arities.items() if a == 0}
    level = set(leaves)
    for _ in range(d):
        below = tuple(level)
        level = set(leaves)
        for name, ar in trs.arities.items():
            if ar:
                level.update((name, combo) for combo in product(below, repeat=ar))
    return level


def seed_terms(trs: Trs, d: int, open_depth: int = 2) -> List[Term]:
    """Closed terms of depth <= d plus open terms of depth <= open_depth,
    in sort_key order."""
    seeds = all_terms(trs, (), d) | all_terms(trs, trs.variables, min(d, open_depth))
    return sorted(seeds, key=sort_key)


def _match(p: Term, t: Term, subst: Dict[str, Term]) -> bool:
    if p[1] is None:
        bound = subst.setdefault(p[0], t)
        return bound == t
    if t[1] is None or p[0] != t[0] or len(p[1]) != len(t[1]):
        return False
    return all(_match(a, b, subst) for a, b in zip(p[1], t[1]))


def _instantiate(t: Term, subst: Dict[str, Term]) -> Term:
    if t[1] is None:
        return subst[t[0]]
    return (t[0], tuple(_instantiate(a, subst) for a in t[1]))


class Rewriter:
    """Memoised one-step reducts of a TRS, by definition of each step."""

    def __init__(self, trs: Trs):
        self.trs = trs
        self._root: Dict[Term, FrozenSet[Term]] = {}
        self._seq: Dict[Term, FrozenSet[Term]] = {}
        self._par: Dict[Term, FrozenSet[Term]] = {}
        self._full: Dict[Term, FrozenSet[Term]] = {}

    def root(self, t: Term) -> FrozenSet[Term]:
        out = self._root.get(t)
        if out is None:
            found = set()
            for lhs, rhs in self.trs.rules:
                subst: Dict[str, Term] = {}
                if _match(lhs, t, subst):
                    found.add(_instantiate(rhs, subst))
            out = self._root[t] = frozenset(found)
        return out

    def seq(self, t: Term) -> FrozenSet[Term]:
        """Contract exactly one redex occurrence."""
        out = self._seq.get(t)
        if out is None:
            found = set(self.root(t))
            name, args = t
            for i, a in enumerate(args or ()):
                for r in self.seq(a):
                    found.add((name, args[:i] + (r,) + args[i + 1:]))
            out = self._seq[t] = frozenset(found)
        return out

    def par(self, t: Term) -> FrozenSet[Term]:
        """Contract any set of disjoint redexes, including none."""
        out = self._par.get(t)
        if out is None:
            name, args = t
            if args is None:
                found = {t}
            else:
                found = {(name, combo)
                         for combo in product(*(self.par(a) for a in args))}
                found |= self.root(t)
            out = self._par[t] = frozenset(found)
        return out

    def full(self, t: Term) -> FrozenSet[Term]:
        """Full-step the arguments, then optionally contract the root."""
        out = self._full.get(t)
        if out is None:
            name, args = t
            if args is None:
                found = {t}
            else:
                found = set()
                for combo in product(*(self.full(a) for a in args)):
                    mid = (name, combo)
                    found.add(mid)
                    found |= self.root(mid)
            out = self._full[t] = frozenset(found)
        return out

    def reachable(self, seeds: Sequence[Term], step) -> Set[Term]:
        seen = set(seeds)
        todo = list(seen)
        while todo:
            for s in step(todo.pop()):
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        return seen

    def normal_forms(self, t: Term) -> Set[Term]:
        return {s for s in self.reachable([t], self.seq) if not self.seq(s)}


def subterm_closure(terms) -> Set[Term]:
    out: Set[Term] = set()
    todo = list(terms)
    while todo:
        t = todo.pop()
        if t not in out:
            out.add(t)
            todo.extend(t[1] or ())
    return out


# ---------------------------------------------------------------------------
# abstract relations, as rows of reachability bitmasks

def star_rows(n: int, pairs) -> List[int]:
    """Floyd-Warshall reflexive-transitive closure; row i has bit j set
    iff i reaches j."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                rk = reach[k]
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return [sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)]


def rows_mask(n: int, rows: List[int]) -> int:
    m = 0
    for i, row in enumerate(rows):
        m |= row << (i * n)
    return m


def is_confluent(n: int, rows: List[int]) -> bool:
    """Every two elements reachable from a common element reach a common
    element."""
    for a in range(n):
        peaks = [b for b in range(n) if rows[a] >> b & 1]
        for b in peaks:
            for c in peaks:
                if not rows[b] & rows[c]:
                    return False
    return True


def is_church_rosser(n: int, pairs, rows: List[int]) -> bool:
    """Every two convertible elements reach a common element."""
    sym = set(pairs) | {(j, i) for i, j in pairs}
    conv = star_rows(n, sym)
    return all(rows[b] & rows[c] for b in range(n) for c in range(n)
               if conv[b] >> c & 1)
