"""Relations on a finite term universe and their differential operators.

A ``TermRel`` is a sparse set of term pairs drawn from a fixed universe.
On top of the usual relation-algebra structure this module implements the
term-specific operators:

* ``i_eta`` / ``i_sigma0``     identity on variables / on constants
* ``tilde``                    compatible refinement (same outermost operator,
                               all arguments related)
* ``hat``                      ``i_eta | tilde``
* ``check_refine``             sequential refinement (exactly one argument
                               position rewritten, siblings identical)
* ``derivative``               one position by ``b``, siblings by ``a``
* ``taylor``                   the arity-n slice of ``tilde``
* ``subst_rel``                relational substitution ``a[b]``
* sequential / parallel / full closures as least fixed points
* ``reach``                    breadth-first reachability, optionally bounded

Everything is computed inside the universe: constructed pairs that would
leave it are dropped and counted in an ``OpStats`` so callers can tell an
exact answer from a truncated one.

``tilde``, ``check_refine``, ``derivative``, ``taylor`` and the closures'
steps are one congruence lift, ``_lift``: one argument position related by
a "hot" relation, the positions before and after it by sibling relations
(or kept identical).  Over a materialisable universe the hot pairs are
placed into their parents through the universe's occurrence index; over a
larger one the applications are assembled backward from the pairs that
fit one level down.

The closures are evaluated semi-naively, as in Datalog: each generation
lifts only the pairs the previous generation added.  In ``tilde``'s step
the older pairs relate the positions before the new one and all pairs
those after it, so each argument combination is built once.  That is
sound because the steps distribute over joins: ``check_refine`` does,
``tilde(x | d) == tilde(x) | derivative(x | d, d)``, and composing with
the root step distributes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
                    Tuple)

from .syntax import Term, Universe, app, term_key

TPair = Tuple[Term, Term]
Succ = Dict[Term, Set[Term]]

# forward enumeration over the carrier is used when it fits under this cap
FORWARD_CAP = 200_000


@dataclass
class OpStats:
    """Counts pairs discarded because they left the working universe.

    An operator notes one drop for each construction it enumerates whose
    result would leave the universe and, on the backward path, for each
    input pair too deep to be an argument.  A closure notes each such drop
    once per round in which the naive iteration (re-applying the step to
    the whole relation until nothing changes) would meet it: every round
    after the one that added the newest pair it uses, up to and including
    the round that confirms the fixed point.  The semi-naive evaluation
    reproduces that count exactly.
    """

    dropped: int = 0

    def note(self, k: int = 1) -> None:
        self.dropped += k


@dataclass(frozen=True)
class TermRel:
    universe: Universe
    pairs: FrozenSet[TPair]

    # -- constructors -------------------------------------------------------
    @staticmethod
    def make(u: Universe, pairs: Iterable[TPair],
             stats: Optional[OpStats] = None) -> "TermRel":
        """Build a relation, clipping pairs that fall outside the universe."""
        kept = set()
        dropped = 0
        for p, q in pairs:
            if p in u and q in u:
                kept.add((p, q))
            else:
                dropped += 1
        if stats is not None and dropped:
            stats.note(dropped)
        return TermRel(u, frozenset(kept))

    @staticmethod
    def bottom(u: Universe) -> "TermRel":
        return TermRel(u, frozenset())

    # -- lattice ------------------------------------------------------------
    def join(self, other: "TermRel") -> "TermRel":
        return TermRel(self.universe, self.pairs | other.pairs)

    def meet(self, other: "TermRel") -> "TermRel":
        return TermRel(self.universe, self.pairs & other.pairs)

    def leq(self, other: "TermRel") -> bool:
        return self.pairs <= other.pairs

    def __or__(self, other: "TermRel") -> "TermRel":
        return self.join(other)

    def __and__(self, other: "TermRel") -> "TermRel":
        return self.meet(other)

    def compose(self, other: "TermRel") -> "TermRel":
        succ = successors(other)
        out = set()
        for p, q in self.pairs:
            for r in succ.get(q, ()):
                out.add((p, r))
        return TermRel(self.universe, frozenset(out))

    def converse(self) -> "TermRel":
        return TermRel(self.universe, frozenset((q, p) for p, q in self.pairs))

    def restricted(self, depth: int) -> "TermRel":
        return TermRel(
            self.universe,
            frozenset((p, q) for p, q in self.pairs
                      if p.depth <= depth and q.depth <= depth),
        )

    def sorted_pairs(self) -> List[TPair]:
        return sorted(self.pairs, key=lambda pq: (term_key(pq[0]), term_key(pq[1])))

    def __len__(self) -> int:
        return len(self.pairs)


def successors(a: TermRel) -> Succ:
    return _successors(a.pairs)


def _successors(pairs: Iterable[TPair]) -> Succ:
    succ: Succ = {}
    for p, q in pairs:
        succ.setdefault(p, set()).add(q)
    return succ


# ---------------------------------------------------------------------------
# identities

def delta(u: Universe) -> TermRel:
    return TermRel(u, frozenset((t, t) for t in u.terms()))


def i_eta(u: Universe) -> TermRel:
    return TermRel(u, frozenset((v, v) for v in u.var_terms()))


def i_sigma0(u: Universe) -> TermRel:
    return TermRel(u, frozenset((c, c) for c in u.constant_terms()))


def _materializable(u: Universe) -> bool:
    return u.explicit is not None or u.size() <= FORWARD_CAP


# ---------------------------------------------------------------------------
# the congruence lift and its instances

def _lift(u: Universe, before: Optional[Succ], hot: Succ,
          after: Optional[Succ], stats: Optional[OpStats],
          arity: Optional[int] = None) -> Set[TPair]:
    """The pairs (f(s1..sk), f(t1..tk)) at operators of arity k >= 1 (or
    exactly ``arity``) with one argument position i related by ``hot``, the
    positions before i by ``before`` and those after i by ``after``.  With
    ``before`` and ``after`` both ``None`` the siblings stay identical.

    Over a materialisable universe each pair of ``hot`` is placed into its
    parents through the occurrence index, and each construction that leaves
    the universe is noted as a drop.  Over a larger one the applications are
    assembled backward from the pairs that fit one level down, and the
    ``hot`` pairs too deep for that are noted instead.  Identical siblings
    always take the first path: assembling them backward would enumerate
    the universe anyway."""
    out: Set[TPair] = set()
    if before is None or _materializable(u):
        occurrences = u.occurrences
        for p, qs in hot.items():
            for t, i in occurrences.get(p, ()):
                args = t.args
                if arity is not None and len(args) != arity:
                    continue
                if before is None:
                    # built in place: a tuple per target costs the
                    # sequential closure about a tenth of its time
                    head, tail = args[:i], args[i + 1:]
                    for q in qs:
                        s = app(t.name, *head, q, *tail)
                        if s in u:
                            out.add((t, s))
                        elif stats is not None:
                            stats.note()
                    continue
                pools = [before.get(x) for x in args[:i]]
                pools.append(qs)
                pools.extend(after.get(x) for x in args[i + 1:])
                if not all(pools):
                    continue
                for combo in product(*pools):
                    s = app(t.name, *combo)
                    if s in u:
                        out.add((t, s))
                    elif stats is not None:
                        stats.note()
        return out

    def pool(succ: Succ) -> List[TPair]:
        return [(p, q) for p, qs in succ.items() if p.depth < u.depth
                for q in qs if q.depth < u.depth]
    before_pool, hot_pool, after_pool = pool(before), pool(hot), pool(after)
    if stats is not None:
        stats.note(sum(map(len, hot.values())) - len(hot_pool))
    for name, ar in u.signature.operators():
        if arity is not None and ar != arity:
            continue
        for i in range(ar):
            pools = [before_pool] * i + [hot_pool] + [after_pool] * (ar - i - 1)
            for combo in product(*pools):
                out.add((app(name, *(p for p, _ in combo)),
                         app(name, *(q for _, q in combo))))
    return out


def tilde(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """Same outermost operator, all arguments related by ``a``.
    Relates every constant of the universe to itself."""
    succ = successors(a)
    out = _lift(a.universe, {}, succ, succ, stats)
    return TermRel(a.universe, frozenset(out) | i_sigma0(a.universe).pairs)


def hat(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    return i_eta(a.universe) | tilde(a, stats)


def check_refine(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """Exactly one argument position rewritten by ``a``, all siblings
    identical.  Only defined at operators of arity >= 1."""
    return TermRel(a.universe, frozenset(
        _lift(a.universe, None, successors(a), None, stats)))


def derivative(a: TermRel, b: TermRel,
               stats: Optional[OpStats] = None) -> TermRel:
    """One argument position rewritten by ``b``, siblings componentwise by
    ``a``.  ``check_refine(b) == derivative(delta(u), b)`` and
    ``tilde(a) == derivative(a, a) | i_sigma0(u)``.  Assembled backward,
    the pairs of ``a`` too deep to be siblings are noted as drops too."""
    u = a.universe
    if stats is not None and not _materializable(u):
        stats.note(sum(1 for p, q in a.pairs
                       if max(p.depth, q.depth) >= u.depth))
    asucc = successors(a)
    return TermRel(u, frozenset(_lift(u, asucc, successors(b), asucc, stats)))


def taylor(n: int, a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """The arity-n slice of ``tilde``: pairs at operators of arity exactly n
    with all arguments related by ``a``.  ``taylor(0, a) == i_sigma0(u)``."""
    if n == 0:
        return i_sigma0(a.universe)
    succ = successors(a)
    return TermRel(a.universe, frozenset(
        _lift(a.universe, {}, succ, succ, stats, arity=n)))


# ---------------------------------------------------------------------------
# relational substitution

@lru_cache(maxsize=None)
def _var_occurrence_depths(t: Term) -> Dict[str, int]:
    """Maximum nesting depth at which each variable occurs in t."""
    out: Dict[str, int] = {}

    def go(s: Term, d: int) -> None:
        if s.is_var:
            out[s.name] = max(out.get(s.name, 0), d)
        else:
            for a in s.args:
                go(a, d + 1)

    go(t, 0)
    return out


def subst_rel(a: TermRel, b: TermRel,
              stats: Optional[OpStats] = None,
              strict: bool = False) -> TermRel:
    """a[b]: instantiate each pair of ``a`` at its occurring variables with
    pairs of ``b``.  A pair (t, s) of ``a`` contributes (t^sigma, s^rho)
    whenever sigma(x) b rho(x) for every variable x occurring in t or s.

    With ``strict=True`` the quantification ranges over *all* declared
    variables instead of only the occurring ones.  The two readings differ
    exactly when ``b`` is empty but the universe declares variables: then
    no substitution is b-related to any other, so the strict result is
    empty.  (Images of non-occurring variables never show up in the result,
    so this is the only divergence.)"""
    u = a.universe
    if strict and not b.pairs and u.variables:
        return TermRel.bottom(u)
    bpairs = list(b.pairs)
    explicit = u.explicit is not None
    out: Set[TPair] = set()
    for t0, s0 in a.pairs:
        occ_t = _var_occurrence_depths(t0)
        occ_s = _var_occurrence_depths(s0)
        vs = sorted(set(occ_t) | set(occ_s))
        if not vs:
            out.add((t0, s0))
            continue
        pools: List[List[TPair]] = []
        full = 1
        kept = 1
        for v in vs:
            # images must keep the instantiated terms inside the universe
            lb = u.depth - occ_t.get(v, 0)
            rb = u.depth - occ_s.get(v, 0)
            pool = [(l, r) for l, r in bpairs if l.depth <= lb and r.depth <= rb]
            pools.append(pool)
            full *= len(bpairs)
            kept *= len(pool)
        if stats is not None:
            stats.note(full - kept)
        if kept == 0:
            continue
        for combo in product(*pools):
            sigma = {v: l for v, (l, _) in zip(vs, combo)}
            rho = {v: r for v, (_, r) in zip(vs, combo)}
            t = _instantiate(t0, sigma)
            s = _instantiate(s0, rho)
            if explicit:
                if t in u and s in u:
                    out.add((t, s))
                elif stats is not None:
                    stats.note()
            else:
                out.add((t, s))
    return TermRel(u, frozenset(out))


def _instantiate(t: Term, subst: Dict[str, Term]) -> Term:
    if t.is_var:
        return subst[t.name]
    if not t.args:
        return t
    return app(t.name, *(_instantiate(a, subst) for a in t.args))


# ---------------------------------------------------------------------------
# reflexive-transitive machinery (sparse: never materializes Delta unless
# asked for the full relation)

def reach(succ: Mapping[Term, Iterable[Term]], seeds: Iterable[Term],
          bound: Optional[int] = None) -> Tuple[Set[Term], bool]:
    """The terms within ``bound`` steps of ``seeds`` (all of them when
    ``bound`` is None), seeds included, by breadth-first search; and whether
    the search ran out of frontier, so that the set is the whole reach
    set."""
    seen = set(seeds)
    frontier = list(seen)
    steps = 0
    while frontier and (bound is None or steps < bound):
        steps += 1
        nxt = []
        for t in frontier:
            for s in succ.get(t, ()):
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen, not frontier


def trans_closure(a: TermRel) -> TermRel:
    succ = successors(a)
    return TermRel(a.universe, frozenset(
        (p, q) for p, qs in succ.items() for q in reach(succ, qs)[0]))


def rt_closure(a: TermRel) -> TermRel:
    """a* = Delta | a+ over the whole universe."""
    return delta(a.universe) | trans_closure(a)


def star_contains(a: TermRel, p: Term, q: Term) -> bool:
    return p is q or q in reach(successors(a), (p,))[0]


# ---------------------------------------------------------------------------
# closures of reductions

MAX_LFP_ITER = 10_000


def _semi_naive(u: Universe, seed: Set[TPair], increment,
                stats: Optional[OpStats]) -> TermRel:
    """Least fixed point of a join-distributive step by semi-naive
    evaluation.  ``seed`` is the step applied to the empty relation, and
    ``increment(old, new, every, gen_stats)`` returns what the step adds
    for the argument combinations that use at least one pair of the last
    generation ``new``.

    Generation k enumerates exactly the constructions whose newest pair was
    added in generation k; the naive iteration would enumerate them again
    in every later round up to the fixed point.  Adding the running sum of
    the drops found so far after each generation therefore notes the same
    total as the naive iteration."""
    x = set(seed)
    new = _successors(seed)
    every = _successors(seed)
    old: Succ = {}
    running = 0
    for _ in range(MAX_LFP_ITER):
        if not new:
            return TermRel(u, frozenset(x))
        gen = OpStats()
        produced = increment(old, new, every, gen)
        running += gen.dropped
        if stats is not None:
            stats.note(running)
        _merge(old, new)
        fresh = produced - x
        x |= fresh
        new = _successors(fresh)
        _merge(every, new)
    raise RuntimeError("fixed-point iteration did not converge")


def _merge(into: Succ, succ: Succ) -> None:
    for p, qs in succ.items():
        into.setdefault(p, set()).update(qs)


def sequential_closure(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """a^s = lfp x. a | check_refine(x): one rewrite somewhere in a context."""
    u = a.universe
    return _semi_naive(
        u, set(a.pairs),
        lambda old, new, every, st: _lift(u, None, new, None, st), stats)


def parallel_closure(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """a^p = lfp x. a | hat(x): simultaneous rewrites of disjoint subterms."""
    u = a.universe
    seed = set(a.pairs) | i_eta(u).pairs | i_sigma0(u).pairs
    return _semi_naive(
        u, seed,
        lambda old, new, every, st: _lift(u, old, new, every, st), stats)


def full_closure(a: TermRel, stats: Optional[OpStats] = None,
                 reflexive: bool = True) -> TermRel:
    """a^h = lfp x. hat(x);(a | Delta): rewrite all arguments in parallel,
    then optionally contract the root.

    With ``reflexive=False`` the root step is mandatory (lfp x. hat(x);a),
    which yields a strictly smaller, non-reflexive relation.
    """
    u = a.universe
    asucc = successors(a)
    hats = set(i_eta(u).pairs | i_sigma0(u).pairs)  # hat(x) so far

    def contract(h: Set[TPair]) -> Set[TPair]:
        out = set(h) if reflexive else set()
        for p, q in h:
            for r in asucc.get(q, ()):
                out.add((p, r))
        return out

    def increment(old: Succ, new: Succ, every: Succ,
                  st: OpStats) -> Set[TPair]:
        fresh = _lift(u, old, new, every, st) - hats
        hats.update(fresh)
        return contract(fresh)

    return _semi_naive(u, contract(hats), increment, stats)
