"""Confluence-family property checks and the critical-pair machinery.

Abstract checks (diamond, confluence, weak confluence, Church-Rosser) work
on finite :class:`relrew.relalg.Rel` values and are exact.  Each is one
inclusion peaks°;peaks <= valleys;valleys°, decided on bitset rows over the
relation's field (the elements of its pairs), with stars by Warshall's
closure; an element outside the field pairs at most with itself on either
side, so the carrier is never enumerated.  Term-level
checks run either on the reachable closure of a set of seeds or on a
truncated working universe.

Every report takes its verdict from one rule, ``_verdict``: ``fails`` needs
a definitive counterexample; a check without one that was cut short is
``unconfirmed``; otherwise the property ``holds``.  A closure cut off after
``bound`` layers is cut short.  An inclusion over a working universe that
dropped pairs is cut short only where it has failing pairs, which are then
not definitive: its ``holds`` means that no pair fails among the relations
restricted to the universe.

The reachable closure is a finite graph, so every join question and the
spectrum's ``full ⊆ seq-star`` test are decided on the condensation of its
sequential step graph into strongly connected components (iterative
Tarjan, linear time).  The spectrum's star equality follows from its
inclusions by fixed-point induction, so only a failing inclusion condenses
the parallel and full step graphs too, to compare the stars.  A bottom
SCC is one that no step leaves.  Two nodes are joinable iff they reach a
common bottom SCC (Huet 1980), so the closure is confluent iff every node
reaches exactly one, and Church-Rosser iff every weakly connected
component contains exactly one.  Their witnesses are the
``term_key``-least members of two bottom SCCs, which cannot be joined;
every check walks the closure in ``term_key`` order, so its witnesses do
not depend on where terms were allocated.

The closure is a full-step reduction graph, which keeps its nodes and
frontier only; its ``steps`` reads the steps of each kind from the
steppers.  A closure cut off after ``bound`` full-step layers gives its
unexpanded frontier nodes no steps and the OPEN bit in place of a bottom
SCC.  Witnesses in closed bottom SCCs are definitive, because those are
bottom SCCs of the whole closure too.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .relalg import Rel, reach, successors
from .rewrite import TRS, ReductionGraph, ground_instances, reduction_graph
from .syntax import Term, format_term, gc_paused, term_key, universe
from .termrel import (
    OpStats,
    check_refine,
    delta,
    full_closure,
    sequential_closure,
    subst_rel,
)

HOLDS = "holds"
FAILS = "fails"
UNCONFIRMED = "unconfirmed"


def _verdict(failed: object, cut: object) -> str:
    """The one verdict rule: ``fails`` iff there is a definitive
    counterexample, else ``unconfirmed`` iff the check was cut short,
    else ``holds``.  An inclusion over a working universe is cut short by
    its drops only if it has failing pairs (``_failures``)."""
    return FAILS if failed else UNCONFIRMED if cut else HOLDS


class PropertyReport:
    __slots__ = ("property", "verdict", "witnesses", "overflow_dropped")

    def __init__(self, property: str, verdict: str,
                 witnesses: Optional[List[Tuple[str, str]]] = None,
                 overflow_dropped: int = 0):
        self.property = property
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.overflow_dropped = overflow_dropped

    @property
    def ok(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witnesses": [list(w) for w in self.witnesses],
            "overflow_dropped": self.overflow_dropped,
        }


MAX_WITNESSES = 5


def _failures(name: str, bad: Iterable[Tuple], dropped: int = 0
              ) -> PropertyReport:
    """The report of an inclusion whose failing pairs are ``bad``: the
    least ``MAX_WITNESSES`` of them are its witnesses, and they are
    definitive iff its evaluation dropped no pairs.  Without a failing pair
    it holds, drops or not: no pair fails among the relations restricted
    to the working universe."""
    bad = sorted(bad)
    return PropertyReport(name, _verdict(bad and not dropped, bad),
                          [(str(p), str(q)) for p, q in bad[:MAX_WITNESSES]],
                          dropped)


# ---------------------------------------------------------------------------
# abstract (finite-carrier) checks

def _bits(bits: int) -> List[int]:
    """The positions of the set bits of ``bits``, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _field_rows(a: Rel) -> Tuple[List, List[int]]:
    """The field of ``a`` (the elements of its pairs, not its carrier),
    numbered, and each element's successor row as a bitset."""
    elems = list({t for pair in a.pairs for t in pair})
    index = {t: i for i, t in enumerate(elems)}
    rows = [0] * len(elems)
    for p, q in a.pairs:
        rows[index[p]] |= 1 << index[q]
    return elems, rows


def _star_rows(rows: Sequence[int]) -> List[int]:
    """The reflexive-transitive closure of bitset rows (Warshall): after
    pivot ``k``, each row holds what it reaches through elements up to
    ``k``."""
    star = [row | 1 << i for i, row in enumerate(rows)]
    for k, pivot in enumerate(star):
        bit = 1 << k
        for i, row in enumerate(star):
            if row & bit:
                star[i] = row | pivot
    return star


def _peaks_unjoined(name: str, elems: Sequence, peaks: Sequence[int],
                    valleys: Sequence[int]) -> PropertyReport:
    """peaks°;peaks <= valleys;valleys° on the rows of ``elems``: the
    failing pairs are the (x, y) in one row ``peaks[z]`` whose rows
    ``valleys[x]`` and ``valleys[y]`` share no element."""
    shared = [0] * len(elems)
    for row in peaks:
        for x in _bits(row):
            shared[x] |= row
    return _failures(name, {(elems[x], elems[y])
                            for x, row in enumerate(shared)
                            for y in _bits(row) if not valleys[x] & valleys[y]})


def has_diamond(a: Rel) -> PropertyReport:
    """a°;a <= a;a°: one-step peaks close in one step."""
    elems, rows = _field_rows(a)
    return _peaks_unjoined("diamond", elems, rows, rows)


def is_confluent(a: Rel) -> PropertyReport:
    """a*°;a* <= a*;a*°: star peaks are joinable."""
    elems, rows = _field_rows(a)
    star = _star_rows(rows)
    return _peaks_unjoined("confluence", elems, star, star)


def is_weakly_confluent(a: Rel) -> PropertyReport:
    """a°;a <= a*;a*°: one-step peaks are joinable."""
    elems, rows = _field_rows(a)
    return _peaks_unjoined("weak-confluence", elems, rows, _star_rows(rows))


def is_church_rosser(a: Rel) -> PropertyReport:
    """(a | a°)* = a*;a*°: convertible elements are joinable.

    a*;a*° <= (a | a°)* always holds, so the sides differ just on the left
    side's pairs missing from the right.  The left side is an equivalence,
    so its pairs are those that share one of its rows."""
    elems, rows = _field_rows(a)
    sym = list(rows)
    for p, row in enumerate(rows):
        for q in _bits(row):
            sym[q] |= 1 << p
    return _peaks_unjoined("church-rosser", elems, _star_rows(sym),
                           _star_rows(rows))


# ---------------------------------------------------------------------------
# exhaustive checks on reachable closures

class _Condensation:
    """Strongly connected components of a step graph on numbered nodes
    (in ``term_key`` order where witnesses are reported).

    ``adj[i]`` lists node ``i``'s successors in increasing order and
    ``comp[i]`` is its component.  Components are numbered in reverse
    topological order: every edge leaving component ``c`` enters a
    component below ``c``, and ``succ[c]`` is the set of those.  A
    component without successors is a bottom SCC."""

    __slots__ = ("adj", "comp", "succ")

    def __init__(self, adj: List[List[int]], comp: List[int],
                 succ: List[Set[int]]):
        self.adj = adj
        self.comp = comp
        self.succ = succ

    def joins(self, open_nodes: Set[int]) -> Tuple[List[int], List[int], int]:
        """``(reps, bits, open_bit)``: ``reps[rank]`` is the least node of
        each closed bottom SCC, by least node, and ``bits[c]`` has bit
        ``rank`` for each one component ``c`` reaches, plus ``open_bit`` if
        it reaches a node of ``open_nodes``, which were never expanded.
        Two nodes are joinable iff their bitsets share a closed bit."""
        reps: List[int] = []
        base = [0] * len(self.succ)
        for i, c in enumerate(self.comp):
            if not self.succ[c] and not base[c] and i not in open_nodes:
                base[c] = 1 << len(reps)
                reps.append(i)
        open_bit = 1 << len(reps)
        for i in open_nodes:
            base[self.comp[i]] = open_bit
        return reps, self.reach_bits(base), open_bit

    def reach_bits(self, base: Sequence[int]) -> List[int]:
        """Per component, the union of ``base`` over every component it
        reaches, itself included (one pass, successors first)."""
        out: List[int] = []
        for c, succ in enumerate(self.succ):
            bits = base[c]
            for d in succ:
                bits |= out[d]
            out.append(bits)
        return out

    def node_stars(self) -> List[int]:
        """Per node, the bitset of the nodes it reaches (its star)."""
        members = [0] * len(self.succ)
        for i, c in enumerate(self.comp):
            members[c] |= 1 << i
        reach = self.reach_bits(members)
        return [reach[c] for c in self.comp]


def _condense(order: Sequence[Term],
              succs: Sequence[Iterable[Term]]) -> _Condensation:
    """Iterative Tarjan over ``order``, where ``succs[i]`` are the step
    successors of ``order[i]``.  The node set must be closed under the
    step: a successor outside it raises, because treating it as a normal
    form would invent a bottom SCC."""
    index = {t: i for i, t in enumerate(order)}
    adj: List[List[int]] = []
    for t, ss in zip(order, succs):
        row = []
        for s in ss:
            i = index.get(s)
            if i is None:
                raise RuntimeError(
                    f"successor {format_term(s)} of {format_term(t)} is "
                    "outside the closure")
            row.append(i)
        row.sort()
        adj.append(row)

    n = len(order)
    num = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: List[int] = []
    counter = ncomp = 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if num[w] < 0:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0 and num[w] < low[v]:  # w is still on the stack
                    low[v] = num[w]
            else:
                work.pop()
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]

    succ: List[Set[int]] = [set() for _ in range(ncomp)]
    for v, row in enumerate(adj):
        c = comp[v]
        for w in row:
            if comp[w] != c:
                succ[c].add(comp[w])
    return _Condensation(adj, comp, succ)


def _bottom_witnesses(order: Sequence[Term], reps: Sequence[int],
                      groups: Iterable[int]) -> List[Tuple[str, str]]:
    """Witness pairs from bitsets of bottom-SCC ranks: every bitset with two
    or more bits yields the pairs of their representatives
    ``order[reps[rank]]`` in rank order, up to ``MAX_WITNESSES`` in all."""
    witnesses: List[Tuple[str, str]] = []
    seen_groups: Set[int] = set()
    seen_pairs: Set[Tuple[int, int]] = set()
    for bits in groups:
        if bits in seen_groups:
            continue
        seen_groups.add(bits)
        ranks = _bits(bits)
        for i, r1 in enumerate(ranks):
            for r2 in ranks[i + 1:]:
                if (r1, r2) not in seen_pairs:
                    seen_pairs.add((r1, r2))
                    witnesses.append((format_term(order[reps[r1]]),
                                      format_term(order[reps[r2]])))
                    if len(witnesses) == MAX_WITNESSES:
                        return witnesses
    return witnesses


@gc_paused
def seed_terms(trs: TRS, depth: int) -> Tuple[Term, ...]:
    """The seed population for exhaustive analyses: all closed terms of depth
    <= depth, plus all open terms of depth <= min(depth, 2) (the full open
    universe grows too fast for exhaustive sweeps beyond that)."""
    ground = universe(trs.signature, (), depth).terms()
    if not trs.variables:
        return ground
    open_depth = min(depth, 2)
    open_terms = universe(trs.signature, trs.variables, open_depth).terms()
    # both are sorted by term_key, which orders by depth first, and the open
    # universe holds every ground term up to its depth: the deeper ground
    # terms follow it, in their own order
    return open_terms + tuple(t for t in ground if t.depth > open_depth)


def _closure(trs: TRS, seeds: Sequence[Term], bound: Optional[int]
             ) -> Tuple[ReductionGraph, List[Term], Set[int]]:
    """The full-step graph of the closure within ``bound`` layers (all of
    it when ``bound`` is None), its nodes in ``term_key`` order, and its
    frontier's indices."""
    g = reduction_graph(trs, seeds, kind="full", bound=bound)
    order = sorted(g.nodes, key=term_key)
    return g, order, {i for i, t in enumerate(order) if t in g.frontier}


class SpectrumReport(PropertyReport):
    __slots__ = ("nodes", "inclusion_violations", "stars_equal")

    def __init__(self, property: str, verdict: str,
                 witnesses: Optional[List[Tuple[str, str]]] = None,
                 overflow_dropped: int = 0, nodes: int = 0,
                 inclusion_violations: Optional[
                     List[Tuple[str, str, str]]] = None,
                 stars_equal: bool = True):
        super().__init__(property, verdict, witnesses, overflow_dropped)
        self.nodes = nodes
        self.inclusion_violations = ([] if inclusion_violations is None
                                     else inclusion_violations)
        self.stars_equal = stars_equal

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "nodes": self.nodes,
            "inclusion_violations": [list(v) for v in self.inclusion_violations],
            "stars_equal": self.stars_equal,
        }


@gc_paused
def spectrum_survey(trs: TRS, seeds: Sequence[Term],
                    bound: Optional[int] = None) -> SpectrumReport:
    """Check seq ⊆ par ⊆ full ⊆ seq-star pointwise on the reachable closure,
    and that the three reflexive-transitive closures coincide.

    Only the sequential step graph is condensed: a node's seq-star is the
    bitset of nodes its component reaches, so ``full ⊆ seq-star`` is a bit
    test on every full edge.  Without a violation the stars are equal by
    fixed-point induction (if F(a) ≤ a then μF ≤ a): seq ⊆ par ⊆ full
    gives seq* ⊆ par* ⊆ full*, and full ⊆ seq* makes seq* closed under
    x ↦ Δ | full;x, whose least fixed point is full*, so full* ⊆ seq*.
    Only a violation condenses the parallel and full graphs too, and
    compares each node's three stars.  On a closure cut off by ``bound``
    the stars are partial, so only a ``seq<=par`` or ``par<=full``
    violation is definitive."""
    g, order, open_nodes = _closure(trs, seeds, bound)
    index = {t: i for i, t in enumerate(order)}
    seq_rows = [g.steps(t, "seq") for t in order]
    par_rows = [g.steps(t, "par") for t in order]
    full_rows = [g.steps(t) for t in order]
    bad: List[Tuple[str, Term, Term]] = []
    for t, sq, pr, fl in zip(order, seq_rows, par_rows, full_rows):
        bad += [("seq<=par", t, s)
                for s in sorted(set(sq).difference(pr), key=term_key)]
        bad += [("par<=full", t, s)
                for s in sorted(set(pr).difference(fl), key=term_key)]
    # on a cut-off closure only these violations are definitive
    definitive = bool(bad)
    seq_star = _condense(order, seq_rows).node_stars()
    for t, fl, star in zip(order, full_rows, seq_star):
        try:
            row = sorted(index[s] for s in fl)
        except KeyError as e:  # the full graph must be closed, as in _condense
            raise RuntimeError(f"successor {format_term(e.args[0])} of "
                               f"{format_term(t)} is outside the closure"
                               ) from None
        bad += [("full<=seq-star", t, order[j])
                for j in row if not star >> j & 1]
    unequal: List[Term] = []  # the nodes whose three stars differ
    if bad:
        par_star = _condense(order, par_rows).node_stars()
        full_star = _condense(order, full_rows).node_stars()
        unequal = [t for t, s, p, f in zip(order, seq_star, par_star,
                                           full_star) if p != s or f != s]
    return SpectrumReport(
        "spectrum", _verdict(definitive or not open_nodes and bad, open_nodes),
        [(format_term(t), "star-mismatch") for t in unequal[:MAX_WITNESSES]],
        nodes=len(order), stars_equal=not unequal,
        inclusion_violations=[(k, format_term(t), format_term(s))
                              for k, t, s in bad[:MAX_WITNESSES * 4]])


def _seq_condensation(trs: TRS, seeds: Sequence[Term], bound: Optional[int]
                      ) -> Tuple[List[Term], _Condensation, Set[int]]:
    """The closure within ``bound`` full-step layers in ``term_key`` order,
    its sequential-step condensation and its frontier's indices."""
    g, order, open_nodes = _closure(trs, seeds, bound)
    cond = _condense(order, [g.steps(t, "seq") for t in order])
    return order, cond, open_nodes


@gc_paused
def exhaustive_weak_confluence(trs: TRS, seeds: Sequence[Term],
                               bound: Optional[int] = None) -> PropertyReport:
    """Every one-step peak on the reachable closure is joinable: its two
    reducts reach a common bottom SCC.

    A peak whose reducts share no closed bottom SCC is a counterexample
    if neither reaches the frontier of a closure cut off by ``bound``, and
    cuts the check short otherwise, as a cut-off closure does.  The
    witnesses are the counterexamples, or else the unconfirmed peaks."""
    order, cond, open_nodes = _seq_condensation(trs, seeds, bound)
    _, bits, open_bit = cond.joins(open_nodes)
    failing: List[Tuple[str, str]] = []
    unsure: List[Tuple[str, str]] = []
    for row in cond.adj:
        for k, i in enumerate(row):
            for j in row[k + 1:]:
                b1, b2 = bits[cond.comp[i]], bits[cond.comp[j]]
                if not b1 & b2 & (open_bit - 1):
                    (unsure if (b1 | b2) & open_bit else failing).append(
                        (format_term(order[i]), format_term(order[j])))
    return PropertyReport("weak-confluence",
                          _verdict(failing, unsure or open_nodes),
                          (failing or unsure)[:MAX_WITNESSES])


@gc_paused
def exhaustive_confluence(trs: TRS, seeds: Sequence[Term],
                          bound: Optional[int] = None) -> PropertyReport:
    """Every star peak on the reachable closure is joinable.

    On a finite graph this holds iff every node reaches exactly one bottom
    SCC (Huet 1980): two bottom SCCs reached from one node are closed under
    the step, so their members cannot be joined, and a node whose reducts
    all reach the same bottom SCC joins them there.  A witness pairs the
    ``term_key``-least members of two closed bottom SCCs reachable from one
    node."""
    order, cond, open_nodes = _seq_condensation(trs, seeds, bound)
    reps, bits, open_bit = cond.joins(open_nodes)
    # nodes, and so their components, in term_key order
    closed = (bits[c] & (open_bit - 1) for c in cond.comp)
    groups = (b for b in closed if b & (b - 1))
    witnesses = _bottom_witnesses(order, reps, groups)
    return PropertyReport("confluence", _verdict(witnesses, open_nodes),
                          witnesses)


@gc_paused
def exhaustive_church_rosser(trs: TRS, seeds: Sequence[Term],
                             bound: Optional[int] = None) -> PropertyReport:
    """Convertible nodes of the reachable closure are joinable.

    On a finite graph this holds iff every weakly connected component
    contains exactly one bottom SCC: two bottom SCCs in one component are
    convertible but cannot be joined, and a node reaches only bottom SCCs
    of its own component.  The weak components are what ``reach`` finds
    over the condensation's edges taken both ways.  A witness pairs the
    ``term_key``-least members of two closed bottom SCCs in one weak
    component."""
    order, cond, open_nodes = _seq_condensation(trs, seeds, bound)
    reps, _, _ = cond.joins(open_nodes)
    bit = {cond.comp[i]: 1 << rank for rank, i in enumerate(reps)}
    links = dict(enumerate(map(set, cond.succ)))
    for c, succ in enumerate(cond.succ):
        for d in succ:
            links[d].add(c)
    seen: Set[int] = set()
    groups = []
    # weak components in the order of their term_key-least nodes
    for c in cond.comp:
        if c not in seen:
            weak = reach(links, (c,))
            seen |= weak
            groups.append(sum(bit.get(d, 0) for d in weak))
    witnesses = _bottom_witnesses(order, reps, groups)
    return PropertyReport("church-rosser", _verdict(witnesses, open_nodes),
                          witnesses)


# ---------------------------------------------------------------------------
# critical pairs, relationally

class ChecksReport:
    """A property checked as several inclusions, one report each; it fails
    if one of them fails, and is unconfirmed if one of them is."""

    __slots__ = ("property", "checks", "overflow_dropped")

    def __init__(self, property: str, checks: Tuple[PropertyReport, ...],
                 overflow_dropped: int):
        self.property = property
        self.checks = checks
        self.overflow_dropped = overflow_dropped

    @property
    def verdict(self) -> str:
        verdicts = {c.verdict for c in self.checks}
        return _verdict(FAILS in verdicts, UNCONFIRMED in verdicts)

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "overflow_dropped": self.overflow_dropped,
            "checks": [c.to_json() for c in self.checks],
        }


def _joins(step: Rel, *peaks: Rel) -> Callable[[Term, Term], bool]:
    """Whether two terms of ``peaks`` join under step*;step*°: they reach a
    common bottom SCC of the step graph, condensed where they reach."""
    succ = successors(step.pairs)
    nodes = list(reach(succ, {t for r in peaks for pair in r.pairs
                              for t in pair}))
    cond = _condense(nodes, [succ.get(t, ()) for t in nodes])
    _, bits, _ = cond.joins(set())
    mask = {t: bits[c] for t, c in zip(nodes, cond.comp)}
    return lambda p, q: bool(mask[p] & mask[q])


def _unjoined(name: str, peaks: Rel, joins: Callable[[Term, Term], bool],
              dropped: int) -> PropertyReport:
    """peaks <= step*;step*°, with ``joins`` the step's join predicate."""
    return _failures(name, {(p, q) for p, q in peaks.pairs if not joins(p, q)},
                     dropped)


@gc_paused
def check_cp(trs: TRS, depth: int = 2) -> ChecksReport:
    """Evaluate the relational critical-pair conditions for the rule
    relation of ``trs`` over the depth-bounded working universe:

    * CP-1   ⊳°;⊳ ≤ ⊳ˢ*;⊳ˢ*°      (root peaks join sequentially)
    * CP-2   ⊳°;∂_Δ(⊳ˢ) ≤ Δ[⊳ˢ];⊳ʰ°  (root/inner peaks close)
    * CP-1'  ⊳°;⊳ ≤ Δ               (root steps are deterministic)
    """
    u = universe(trs.signature, trs.variables, depth)
    stats = OpStats()
    g = ground_instances(trs, u, stats)
    gs = sequential_closure(g, stats)
    gh = full_closure(g, stats)

    root_peaks = g.converse().compose(g)
    cp1 = _unjoined("cp-1", root_peaks, _joins(gs, root_peaks), stats.dropped)

    inner = g.converse().compose(check_refine(gs, stats))
    dgs_succ = successors(subst_rel(delta(u), gs, stats).pairs)
    gh_succ = successors(gh.pairs)
    cp2 = _failures("cp-2", {
        (p, q) for p, q in inner.pairs
        if not dgs_succ.get(p, set()) & gh_succ.get(q, set())}, stats.dropped)

    # CP-1' is a universally quantified statement about root steps; within
    # the universe it is checked exactly (every lhs instance is present)
    cp1_prime = _failures("cp-1-prime",
                          {(p, q) for p, q in root_peaks.pairs if p is not q})
    return ChecksReport("critical-pairs", (cp1, cp2, cp1_prime),
                        stats.dropped)


def check_weak_confluence_technique(a: Rel) -> ChecksReport:
    """The weak-confluence proof technique, instantiated: if root peaks
    join and root-vs-inner peaks join, then all one-step peaks of the
    sequential closure join.  The checks are the two premises and the
    conclusion:

    * a°;a ≤ aˢ*;aˢ*°
    * a°;∂_Δ(aˢ) ≤ aˢ*;aˢ*°
    * aˢ°;aˢ ≤ aˢ*;aˢ*°

    Each check reports the pairs dropped up to its own evaluation."""
    stats = OpStats()
    aseq = sequential_closure(a, stats)
    root, root_dropped = a.converse().compose(a), stats.dropped
    inner = a.converse().compose(check_refine(aseq, stats))
    one_step = aseq.converse().compose(aseq)
    joins = _joins(aseq, root, inner, one_step)
    return ChecksReport("weak-confluence-technique", (
        _unjoined("root-peaks-join", root, joins, root_dropped),
        _unjoined("root-vs-inner-peaks-join", inner, joins, stats.dropped),
        _unjoined("one-step-peaks-join", one_step, joins, stats.dropped)),
        stats.dropped)
