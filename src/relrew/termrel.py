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

Everything is computed inside the universe: constructed pairs that would
leave it are dropped and counted in an ``OpStats`` so callers can tell an
exact answer from a truncated one.

The closures are evaluated semi-naively, as in Datalog: each generation is
built only from the argument combinations that use a pair the previous
generation added.  That is sound because the steps distribute over joins:
``check_refine`` does, ``tilde(x | d) == tilde(x) | derivative(x | d, d)``,
and composing with the root step distributes too.  Over a materialisable
universe the new pairs are placed into their parents through the
universe's occurrence index; over a larger one the combinations are
assembled backward from the pairs that fit one level down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .syntax import (
    Signature,
    Term,
    Universe,
    app,
    free_vars,
    term_key,
    universe,
    var,
)

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
# compatible refinement and friends

def tilde(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """Same outermost operator, all arguments related by ``a``.
    Relates every constant of the universe to itself."""
    u = a.universe
    succ = successors(a)
    out = _tilde_increment(u, {}, succ, succ, stats)
    out.update((c, c) for c in u.constant_terms())
    return TermRel(u, frozenset(out))


def _tilde_increment(u: Universe, old: Succ, new: Succ, every: Succ,
                     stats: Optional[OpStats]) -> Set[TPair]:
    """The pairs of ``tilde`` at operators of arity >= 1 whose argument
    combinations use at least one pair of ``new``, each combination built
    once: positions before the first ``new`` pair take pairs of ``old``,
    positions after it pairs of ``every``.  ``old`` and ``new`` are
    disjoint and ``every`` is their union."""
    out: Set[TPair] = set()
    if not _materializable(u):
        # backward: assemble applications from pairs that fit one level down
        def pool(succ: Succ) -> List[TPair]:
            return [(p, q) for p, qs in succ.items() if p.depth < u.depth
                    for q in qs if q.depth < u.depth]
        old_pool, new_pool = pool(old), pool(new)
        if stats is not None:
            stats.note(sum(map(len, new.values())) - len(new_pool))
        every_pool = old_pool + new_pool
        for name, ar in u.signature.operators():
            for i in range(ar):
                pools = [old_pool] * i + [new_pool] + [every_pool] * (ar - i - 1)
                for combo in product(*pools):
                    out.add((app(name, *(p for p, _ in combo)),
                             app(name, *(q for _, q in combo))))
        return out
    occurrences = u.occurrences
    for p, qs in new.items():
        for t, i in occurrences.get(p, ()):
            args = t.args
            pools = [old.get(x) for x in args[:i]]
            pools.append(qs)
            pools.extend(every.get(x) for x in args[i + 1:])
            if not all(pools):
                continue
            for combo in product(*pools):
                s = app(t.name, *combo)
                if s in u:
                    out.add((t, s))
                elif stats is not None:
                    stats.note()
    return out


def hat(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    return i_eta(a.universe) | tilde(a, stats)


def check_refine(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """Exactly one argument position rewritten by ``a``, all siblings
    identical.  Only defined at operators of arity >= 1."""
    return TermRel(a.universe,
                   frozenset(_check_increment(a.universe, successors(a), stats)))


def _check_increment(u: Universe, succ: Succ,
                     stats: Optional[OpStats]) -> Set[TPair]:
    """``check_refine`` of the pairs in ``succ``, found through the
    universe's occurrence index."""
    out: Set[TPair] = set()
    occurrences = u.occurrences
    for p, rs in succ.items():
        for t, i in occurrences.get(p, ()):
            head, tail = t.args[:i], t.args[i + 1:]
            for r in rs:
                s = app(t.name, *head, r, *tail)
                if s in u:
                    out.add((t, s))
                elif stats is not None:
                    stats.note()
    return out


def derivative(a: TermRel, b: TermRel,
               stats: Optional[OpStats] = None) -> TermRel:
    """One argument position rewritten by ``b``, siblings componentwise by
    ``a``.  ``check_refine(b) == derivative(delta(u), b)`` and
    ``tilde(a) == derivative(a, a) | i_sigma0(u)``."""
    u = a.universe
    if not _materializable(u):
        apool = [(p, q) for p, q in a.pairs
                 if p.depth < u.depth and q.depth < u.depth]
        bpool = [(p, q) for p, q in b.pairs
                 if p.depth < u.depth and q.depth < u.depth]
        if stats is not None:
            stats.note(len(a.pairs) - len(apool))
            stats.note(len(b.pairs) - len(bpool))
        out: Set[TPair] = set()
        for name, ar in u.signature.operators():
            for i in range(ar):
                for hot in bpool:
                    for sibs in product(apool, repeat=ar - 1):
                        combo = sibs[:i] + (hot,) + sibs[i:]
                        out.add((app(name, *(p for p, _ in combo)),
                                 app(name, *(q for _, q in combo))))
        return TermRel(u, frozenset(out))
    asucc = successors(a)
    bsucc = successors(b)
    out = set()
    for t in u.terms():
        if t.is_var or not t.args:
            continue
        for i, arg in enumerate(t.args):
            hot = bsucc.get(arg)
            if not hot:
                continue
            pools = [asucc.get(x) for j, x in enumerate(t.args) if j != i]
            if not all(pools):
                continue
            for r in hot:
                for combo in product(*pools):
                    args = list(combo[:i]) + [r] + list(combo[i:])
                    s = app(t.name, *args)
                    if s in u:
                        out.add((t, s))
                    elif stats is not None:
                        stats.note()
    return TermRel(u, frozenset(out))


def taylor(n: int, a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """The arity-n slice of ``tilde``: pairs at operators of arity exactly n
    with all arguments related by ``a``.  ``taylor(0, a) == i_sigma0(u)``."""
    u = a.universe
    if n == 0:
        return i_sigma0(u)
    if not _materializable(u):
        pool = [(p, q) for p, q in a.pairs
                if p.depth < u.depth and q.depth < u.depth]
        if stats is not None:
            stats.note(len(a.pairs) - len(pool))
        out: Set[TPair] = set()
        for name, ar in u.signature.operators():
            if ar != n:
                continue
            for combo in product(pool, repeat=ar):
                out.add((app(name, *(p for p, _ in combo)),
                         app(name, *(q for _, q in combo))))
        return TermRel(u, frozenset(out))
    succ = successors(a)
    out = set()
    for t in u.terms():
        if t.is_var or len(t.args) != n:
            continue
        pools = [succ.get(arg) for arg in t.args]
        if not all(pools):
            continue
        for combo in product(*pools):
            s = app(t.name, *combo)
            if s in u:
                out.add((t, s))
            elif stats is not None:
                stats.note()
    return TermRel(u, frozenset(out))


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

def trans_closure(a: TermRel) -> TermRel:
    succ = successors(a)
    reach: Dict[Term, Set[Term]] = {}
    for src in succ:
        seen: Set[Term] = set()
        frontier = list(succ[src])
        while frontier:
            t = frontier.pop()
            if t in seen:
                continue
            seen.add(t)
            frontier.extend(succ.get(t, ()))
        reach[src] = seen
    return TermRel(
        a.universe,
        frozenset((p, q) for p, qs in reach.items() for q in qs),
    )


def rt_closure(a: TermRel) -> TermRel:
    """a* = Delta | a+ over the whole universe."""
    return delta(a.universe) | trans_closure(a)


def reachable_from(a: TermRel, seed: Term) -> Set[Term]:
    succ = successors(a)
    seen = {seed}
    frontier = [seed]
    while frontier:
        t = frontier.pop()
        for s in succ.get(t, ()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def star_contains(a: TermRel, p: Term, q: Term) -> bool:
    return p is q or q in reachable_from(a, p)


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
        lambda old, new, every, st: _check_increment(u, new, st), stats)


def parallel_closure(a: TermRel, stats: Optional[OpStats] = None) -> TermRel:
    """a^p = lfp x. a | hat(x): simultaneous rewrites of disjoint subterms."""
    u = a.universe
    seed = set(a.pairs) | i_eta(u).pairs | i_sigma0(u).pairs
    return _semi_naive(
        u, seed,
        lambda old, new, every, st: _tilde_increment(u, old, new, every, st),
        stats)


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
        fresh = _tilde_increment(u, old, new, every, st) - hats
        hats.update(fresh)
        return contract(fresh)

    return _semi_naive(u, contract(hats), increment, stats)


# ---------------------------------------------------------------------------
# conversion to an abstract relation (for the small-carrier algebra)

def to_rel(a: TermRel, carrier: Optional[Tuple[Term, ...]] = None):
    from .relalg import Rel

    if carrier is None:
        carrier = a.universe.terms()
    index = {t: i for i, t in enumerate(carrier)}
    return carrier, Rel(
        len(carrier),
        frozenset((index[p], index[q]) for p, q in a.pairs),
    )
