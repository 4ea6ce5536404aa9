"""Differential operators on relations over a finite term universe.

A term relation is a :class:`relrew.relalg.Rel` whose carrier is a
``Universe``: a sparse set of term pairs, with the relation algebra (join,
compose, converse, stars by ``reach``) of that class.  This module
implements the term-specific operators:

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

``tilde``, ``check_refine``, ``derivative``, ``taylor`` and the closures'
steps are one congruence lift, ``_lift``: one argument position related by
a "hot" relation, the positions before and after it by sibling relations
(or kept identical).  Over an explicit universe the hot pairs are placed
into their parents through the universe's occurrence index; over a depth
universe the applications are assembled backward from the pairs that fit
one level down, whatever the universe's size.

A closure's step builds a pair at a parent only from pairs at the parent's
arguments, so a term's row of the least fixed point depends only on its
arguments' rows.  Over an explicit universe, which is subterm-closed, the
closures therefore take its terms once, by increasing depth, and build
each row from the finished rows of its arguments (``_by_depth``).  They
stop at the first built term outside the universe, and the closure is then
evaluated like one over a depth universe.

There the closures are evaluated semi-naively, as in Datalog: each
generation lifts only the pairs the previous generation added.  In
``tilde``'s step the older pairs relate the positions before the new one
and all pairs those after it, so each argument combination is built once.
That is sound because the steps distribute over joins: ``check_refine``
does, ``tilde(x | d) == tilde(x) | derivative(x | d, d)``, and composing
with the root step distributes too.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from math import prod
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from . import relalg
from .relalg import Rel, successors
from .syntax import Term, Universe, gc_paused, make, make_all

TPair = Tuple[Term, Term]
Succ = Dict[Term, Set[Term]]
Column = Tuple[Tuple[Term, ...], int, int]  # (pool, inner, outer); see _columns
Row = Tuple[Term, ...]  # one term's distinct targets; see _by_depth


class OpStats:
    """Counts pairs discarded because they left the working universe.

    An operator notes one drop for each construction it enumerates whose
    result would leave the universe.  For a lift that is a construction
    from a parent inside the universe (the left sides of its argument
    pairs) whose right side is outside, on either kind of universe; over a
    depth universe such constructions are counted, not built.  A closure
    notes each such drop once per round in which the naive iteration
    (re-applying the step to the whole relation until nothing changes)
    would meet it: every round after the one that added the newest pair it
    uses, up to and including the round that confirms the fixed point.  The
    semi-naive evaluation reproduces that count exactly, and only it gives
    it: a closure over an explicit universe taken in one pass by depth
    builds no drop, and its first construction outside the universe hands
    the closure to the generations.
    """

    __slots__ = ("dropped",)

    def __init__(self, dropped: int = 0):
        self.dropped = dropped

    def note(self, k: int = 1) -> None:
        self.dropped += k


# ---------------------------------------------------------------------------
# identities

def delta(u: Universe) -> Rel:
    return Rel.identity(u)


def i_eta(u: Universe) -> Rel:
    return Rel(u, frozenset((v, v) for v in u.var_terms()))


def i_sigma0(u: Universe) -> Rel:
    return Rel(u, frozenset((c, c) for c in u.constant_terms()))


# ---------------------------------------------------------------------------
# the congruence lift and its instances

def _sides(pairs: Sequence[TPair]) -> Tuple[Tuple[Term, ...], Tuple[Term, ...]]:
    """The left sides and the right sides of ``pairs``, aligned."""
    return tuple(zip(*pairs)) or ((), ())


def _lift(u: Universe, before: Optional[Succ], hot: Succ,
          after: Optional[Succ], stats: Optional[OpStats],
          arity: Optional[int] = None) -> Set[TPair]:
    """The pairs (f(s1..sk), f(t1..tk)) at operators of arity k >= 1 (or
    exactly ``arity``) with one argument position i related by ``hot``, the
    positions before i by ``before`` and those after i by ``after``.  With
    ``before`` and ``after`` both ``None`` the siblings stay identical.

    Over an explicit universe each pair of ``hot`` is placed into its
    parents through the occurrence index.  Over a depth-d universe the
    applications are assembled backward from the pairs whose sides both
    have depth < d; identical siblings range over the terms of depth < d.
    Each pool is split once into its left and right sides; per operator
    and position the product of the left sides and the aligned product of
    the right sides are interned in bulk by ``make_all`` and zipped into
    pairs, so no combination is handled in Python.
    Either way a drop is a construction from a parent inside the universe
    whose result leaves it.  Backward, those are counted without building
    them: per operator and position, the product of the pools' pairs whose
    left side has depth < d, less the product of the pools themselves.

    Membership holds by construction: each constructed term takes its
    operator from the signature and its arguments from relations over the
    universe, so it stays in a depth universe exactly when its arguments
    have depth < d, and in an explicit one exactly when it is in
    ``u.explicit``; the full ``Universe.__contains__`` walk is never
    needed here."""
    out: Set[TPair] = set()
    if u.explicit is not None:
        occurrences, explicit = u.occurrences, u.explicit
        for p, qs in hot.items():
            for t, i in occurrences.get(p, ()):
                args = t.args
                if arity is not None and len(args) != arity:
                    continue
                if before is None:
                    head, tail = args[:i], args[i + 1:]
                    for q in qs:
                        s = make(t.name, head + (q,) + tail)
                        if s in explicit:
                            out.add((t, s))
                        elif stats is not None:
                            stats.note()
                    continue
                pools = [before.get(x) for x in args[:i]]
                pools.append(qs)
                pools.extend(after.get(x) for x in args[i + 1:])
                if not all(pools):
                    continue
                for s in make_all(t.name, product(*pools)):
                    if s in explicit:
                        out.add((t, s))
                    elif stats is not None:
                        stats.note()
        return out

    d = u.depth

    # the pairs that fit below an operator, split into their left and right
    # sides, and how many pairs have a left side that does (and so sit in a
    # parent inside the universe)
    def pool(succ: Succ) -> Tuple[Tuple[Term, ...], Tuple[Term, ...], int]:
        below = [(p, q) for p, qs in succ.items() if p.depth < d for q in qs]
        return _sides([pq for pq in below if pq[1].depth < d]) + (len(below),)

    hot_ls, hot_rs, hot_n = pool(hot)
    if not hot_n:  # no hot pair sits in a parent, as always at depth 0
        return out
    if before is None:
        before_ls = before_rs = after_ls = after_rs = u.terms_up_to(d - 1)
        before_n = after_n = len(before_ls)
    else:
        before_ls, before_rs, before_n = pool(before)
        after_ls, after_rs, after_n = pool(after)
    for name, ar in u.signature.operators():
        if arity is not None and ar != arity:
            continue
        for i in range(ar):
            j = ar - i - 1
            lefts = [before_ls] * i + [hot_ls] + [after_ls] * j
            if stats is not None:
                stats.note(before_n ** i * hot_n * after_n ** j
                           - prod(map(len, lefts)))
            rights = [before_rs] * i + [hot_rs] + [after_rs] * j
            out.update(zip(make_all(name, product(*lefts)),
                           make_all(name, product(*rights))))
    return out


def tilde(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """Same outermost operator, all arguments related by ``a``.
    Relates every constant of the universe to itself."""
    succ = successors(a.pairs)
    out = _lift(a.carrier, {}, succ, succ, stats)
    return Rel(a.carrier, frozenset(out) | i_sigma0(a.carrier).pairs)


def hat(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    return i_eta(a.carrier) | tilde(a, stats)


def check_refine(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """Exactly one argument position rewritten by ``a``, all siblings
    identical.  Only defined at operators of arity >= 1."""
    return Rel(a.carrier, frozenset(
        _lift(a.carrier, None, successors(a.pairs), None, stats)))


def derivative(a: Rel, b: Rel, stats: Optional[OpStats] = None) -> Rel:
    """One argument position rewritten by ``b``, siblings componentwise by
    ``a``.  ``check_refine(b) == derivative(delta(u), b)`` and
    ``tilde(a) == derivative(a, a) | i_sigma0(u)``."""
    u = a.carrier
    asucc = successors(a.pairs)
    return Rel(u, frozenset(_lift(u, asucc, successors(b.pairs), asucc, stats)))


def taylor(n: int, a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """The arity-n slice of ``tilde``: pairs at operators of arity exactly n
    with all arguments related by ``a``.  ``taylor(0, a) == i_sigma0(u)``."""
    if n == 0:
        return i_sigma0(a.carrier)
    succ = successors(a.pairs)
    return Rel(a.carrier, frozenset(
        _lift(a.carrier, {}, succ, succ, stats, arity=n)))


# ---------------------------------------------------------------------------
# relational substitution

def _var_occurrence_depths(t: Term) -> Dict[str, int]:
    """Maximum nesting depth at which each variable occurs in t."""
    out: Dict[str, int] = {}
    todo = [(t, 0)]
    while todo:
        s, d = todo.pop()
        if s.is_var:
            out[s.name] = max(out.get(s.name, 0), d)
        else:
            todo.extend((a, d + 1) for a in s.args)
    return out


def _columns(vs: Sequence[str], pools: Sequence[Tuple[Term, ...]]
             ) -> Dict[str, Column]:
    """The transpose of ``product(*pools)`` over non-empty pools, one column
    per variable of ``vs``.  Column j repeats each image of pool j ``inner``
    times in a row (the product of the later pools' sizes) and that block
    ``outer`` times (the earlier pools'); it is given as ``(pool, inner,
    outer)`` and read by ``_column``."""
    cols, inner, outer = {}, prod(map(len, pools)), 1
    for v, pool in zip(vs, pools):
        inner //= len(pool)
        cols[v] = (pool, inner, outer)
        outer *= len(pool)
    return cols


def _column(pool: Tuple[Term, ...], inner: int, outer: int) -> Iterable[Term]:
    """One column of ``_columns``, lazily: its block is materialised only
    when it both repeats images and is repeated itself."""
    if inner == 1:
        block = pool
    else:
        block = chain.from_iterable(map(repeat, pool, repeat(inner)))
        if outer > 1:
            block = tuple(block)
    return block if outer == 1 else chain.from_iterable(repeat(block, outer))


def _instantiate(t: Term, columns: Dict[str, Column], n: int) -> Iterable[Term]:
    """The n instances of t under n substitutions given column-wise by
    ``_columns``, in order.  Each application node of t is built for all n
    at once by ``make_all``."""
    if t.is_var:
        return _column(*columns[t.name])
    if not t.args:
        return repeat(t, n)
    return make_all(t.name, zip(*[_instantiate(a, columns, n)
                                  for a in t.args]))


def subst_rel(a: Rel, b: Rel, stats: Optional[OpStats] = None) -> Rel:
    """a[b]: a pair (t, s) of ``a`` contributes (t^sigma, s^rho) whenever
    sigma b rho, that is sigma(x) b rho(x) for every declared variable x.

    Only the variables occurring in t or s show up in (t^sigma, s^rho), so
    when ``b`` is non-empty the pair is instantiated at those alone; when
    ``b`` is empty and the universe declares a variable, no substitution
    is b-related to any other and a[b] is empty.  A variable's images are
    the pairs of ``b`` that fit the depths its occurrences leave; each
    pair of bounds gets its pool, split into left and right sides, once
    per call.  A pair of ``a`` is instantiated column-wise: the product of
    its variables' pools, transposed (``_columns``), gives each variable
    one column of left images and one of right images, and t and s are
    instantiated from those columns node by node (``_instantiate``)."""
    u = a.carrier
    if not b.pairs and u.variables:
        return Rel.bottom(u)
    bpairs = list(b.pairs)
    explicit = u.explicit
    by_bound: Dict[Tuple[int, int], Tuple[Tuple[Term, ...], ...]] = {}
    out: Set[TPair] = set()
    for t0, s0 in a.pairs:
        occ_t = _var_occurrence_depths(t0)
        occ_s = occ_t if s0 is t0 else _var_occurrence_depths(s0)
        vs = sorted(set(occ_t) | set(occ_s))
        if not vs:
            out.add((t0, s0))
            continue
        lpools: List[Tuple[Term, ...]] = []
        rpools: List[Tuple[Term, ...]] = []
        for v in vs:
            # images must keep the instantiated terms inside the universe
            lb = u.depth - occ_t.get(v, 0)
            rb = u.depth - occ_s.get(v, 0)
            pool = by_bound.get((lb, rb))
            if pool is None:
                pool = by_bound[lb, rb] = _sides(
                    [(l, r) for l, r in bpairs if l.depth <= lb and r.depth <= rb])
            lpools.append(pool[0])
            rpools.append(pool[1])
        kept = prod(map(len, lpools))
        if stats is not None:
            stats.note(len(bpairs) ** len(vs) - kept)
        if kept == 0:
            continue
        ts = _instantiate(t0, _columns(vs, lpools), kept)
        ss = _instantiate(s0, _columns(vs, rpools), kept)
        if explicit is None:
            out.update(zip(ts, ss))
            continue
        for t, s in zip(ts, ss):
            if t in explicit and s in explicit:
                out.add((t, s))
            elif stats is not None:
                stats.note()
    return Rel(u, frozenset(out))


# ---------------------------------------------------------------------------
# closures of reductions

def _semi_naive(u: Universe, seed: Set[TPair], increment,
                stats: Optional[OpStats]) -> Rel:
    """Least fixed point of a join-distributive step by semi-naive
    evaluation (``relalg.lfp`` is the naive iteration).  It evaluates every
    closure over a depth universe, and one over an explicit universe when
    the one pass by depth built a term outside it.  ``seed`` is the step
    applied to the empty relation, and ``increment(old, new, every,
    gen_stats)`` returns what the step adds for the argument combinations
    that use at least one pair of the last generation ``new``.  Always
    ``every = old | new``: each generation builds ``every`` once, and it is
    the next ``old``; no successor map changes after an increment sees it.
    The three maps hold only the pairs that can sit in a parent inside the
    universe (on a depth universe, a left side of depth < d; on an explicit
    one, a left side with an occurrence): no other pair is ever lifted.
    The result ``x`` keeps every pair.

    Generation k enumerates exactly the constructions whose newest pair was
    added in generation k; the naive iteration would enumerate them again
    in every later round up to the fixed point.  Adding the running sum of
    the drops found so far after each generation, up to the one that adds
    nothing, therefore notes the same total as the naive iteration."""
    if u.explicit is None:
        d = u.depth

        def liftable(pairs: Set[TPair]) -> Succ:
            return successors(pq for pq in pairs if pq[0].depth < d)
    else:
        occurrences = u.occurrences

        def liftable(pairs: Set[TPair]) -> Succ:
            return successors(pq for pq in pairs if pq[0] in occurrences)

    x = set(seed)
    old: Succ = {}
    new = liftable(x)
    running = 0
    for _ in range(relalg.MAX_LFP_ITER):
        every = dict(old)
        for p, qs in new.items():
            every[p] = old[p] | qs if p in old else qs
        gen = OpStats()
        produced = increment(old, new, every, gen)
        running += gen.dropped
        if stats is not None:
            stats.note(running)
        fresh = produced - x
        if not fresh:
            return Rel(u, frozenset(x))
        x |= fresh
        old, new = every, liftable(fresh)
    raise RuntimeError("fixed-point iteration did not converge")


def _by_depth(u: Universe, row: Callable[[Term, Dict[Term, Row]],
                                         Optional[Row]]) -> Optional[Rel]:
    """The closure over an explicit universe in one pass: ``row(t, rows)``
    gives t's row of the closure, a tuple of distinct targets, from its
    arguments' finished ``rows``, or ``None`` at a built term outside the
    universe.  A step builds a pair at a parent only from pairs at the
    parent's arguments, so over a subterm-closed universe taking the terms
    by increasing depth reaches the least fixed point in one visit per
    term.  Returns ``None``, having noted nothing, at the first term left
    outside."""
    rows: Dict[Term, Row] = {}
    for t in sorted(u.explicit, key=attrgetter("depth")):
        r = row(t, rows)
        if r is None:
            return None
        rows[t] = r
    return Rel(u, frozenset(chain.from_iterable(
        zip(repeat(t), r) for t, r in rows.items())))


@gc_paused
def sequential_closure(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """a^s = lfp x. a | check_refine(x): one rewrite somewhere in a context.
    Over an explicit universe t's row is a's row of t plus t with one
    argument replaced by a member of that argument's row."""
    u = a.carrier
    if u.explicit is not None:
        explicit, asucc = u.explicit, successors(a.pairs)

        def row(t: Term, rows: Dict[Term, Row]) -> Optional[Row]:
            args, name, built = t.args, t.name, []
            for i, x in enumerate(args):
                qs = rows[x]
                if qs:
                    head, tail = args[:i], args[i + 1:]
                    for q in qs:
                        built.append(make(name, head + (q,) + tail))
            if not explicit.issuperset(built):
                return None
            own = asucc.get(t)
            if own:
                return tuple(own.union(built))
            # two positions build the same term only if both build t itself
            return tuple(set(built) if built.count(t) > 1 else built)

        closed = _by_depth(u, row)
        if closed is not None:
            return closed
    return _semi_naive(
        u, set(a.pairs),
        lambda old, new, every, st: _lift(u, None, new, None, st), stats)


@gc_paused
def parallel_closure(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """a^p = lfp x. a | hat(x): simultaneous rewrites of disjoint subterms.
    Over an explicit universe t's row is its seed row (a, ``i_eta``,
    ``i_sigma0``) plus the product of its arguments' rows."""
    u = a.carrier
    seed = set(a.pairs) | i_eta(u).pairs | i_sigma0(u).pairs
    if u.explicit is not None:
        explicit, ssucc = u.explicit, successors(seed)

        def row(t: Term, rows: Dict[Term, Row]) -> Optional[Row]:
            own = ssucc.get(t, ())
            if not t.args:
                return tuple(own)
            built = list(make_all(t.name, product(*map(rows.__getitem__,
                                                       t.args))))
            if not explicit.issuperset(built):
                return None
            return tuple(own.union(built)) if own else tuple(built)

        closed = _by_depth(u, row)
        if closed is not None:
            return closed
    return _semi_naive(
        u, seed,
        lambda old, new, every, st: _lift(u, old, new, every, st), stats)


@gc_paused
def full_closure(a: Rel, stats: Optional[OpStats] = None) -> Rel:
    """a^h = lfp x. hat(x);(a | Delta): rewrite all arguments in parallel,
    then optionally contract the root.  Over an explicit universe t's row
    is the product of its arguments' rows, or t itself at a leaf, each
    member then optionally contracted by a."""
    u = a.carrier
    asucc = successors(a.pairs)

    def contract(h: Set[TPair]) -> Set[TPair]:
        out = set(h)
        for p, q in h:
            for r in asucc.get(q, ()):
                out.add((p, r))
        return out

    leaves = i_eta(u).pairs | i_sigma0(u).pairs
    if u.explicit is not None:
        explicit = u.explicit

        def row(t: Term, rows: Dict[Term, Row]) -> Optional[Row]:
            if t.args:
                built = list(make_all(t.name, product(*map(rows.__getitem__,
                                                           t.args))))
                if not explicit.issuperset(built):
                    return None
            elif (t, t) in leaves:
                built = [t]
            else:
                return ()
            reducts = filter(None, map(asucc.get, built))
            return tuple(set(built).union(*reducts))

        closed = _by_depth(u, row)
        if closed is not None:
            return closed
    return _semi_naive(
        u, contract(leaves),
        lambda old, new, every, st: contract(_lift(u, old, new, every, st)),
        stats)
