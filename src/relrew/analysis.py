"""Confluence-family property checks and the critical-pair machinery.

Abstract checks (diamond, confluence, weak confluence, Church-Rosser) work
on finite :class:`relrew.relalg.Rel` values and are exact.  Term-level
checks run either on the exhaustive reachable closure of a terminating
system (definitive verdicts) or on a truncated working universe, in which
case a failing inequality whose evaluation dropped pairs is reported as
``unconfirmed`` rather than ``fails``.

The reachable closure is a finite graph, so confluence, Church-Rosser and
the spectrum's star equalities are decided on the condensation of its step
graph into strongly connected components (iterative Tarjan, linear time).
A bottom SCC is one that no step leaves.  The closure is confluent iff
every node reaches exactly one bottom SCC, and Church-Rosser iff every
weakly connected component contains exactly one; failing checks report the
``term_key``-least members of two bottom SCCs, which cannot be joined.
Every check walks the closure in ``term_key`` order, so its witnesses do
not depend on where terms were allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .relalg import Rel, reach, successors
from .rewrite import (
    TRS,
    full_step,
    ground_instances,
    parallel_step,
    reduction_graph,
    sequential_step,
)
from .syntax import Term, format_term, term_key, universe
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


@dataclass
class PropertyReport:
    property: str
    verdict: str
    witnesses: List[Tuple[str, str]] = field(default_factory=list)
    overflow_dropped: int = 0

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


def _verdict(ok: bool, dropped: int, exhaustive: bool) -> str:
    if ok:
        return HOLDS
    return FAILS if exhaustive or dropped == 0 else UNCONFIRMED


MAX_WITNESSES = 5


# ---------------------------------------------------------------------------
# abstract (finite-carrier) checks

def _rel_report(name: str, lhs: Rel, rhs: Rel,
                carrier: Optional[Sequence] = None,
                equality: bool = False) -> PropertyReport:
    if equality:
        bad = sorted((lhs.pairs ^ rhs.pairs))
    else:
        bad = sorted(lhs.pairs - rhs.pairs)
    label = (lambda i: str(carrier[i]) if carrier is not None else str(i))
    witnesses = [(label(i), label(j)) for i, j in bad[:MAX_WITNESSES]]
    return PropertyReport(name, HOLDS if not bad else FAILS, witnesses)


def has_diamond(a: Rel, carrier: Optional[Sequence] = None) -> PropertyReport:
    """a°;a <= a;a°: one-step peaks close in one step."""
    return _rel_report(
        "diamond", a.converse().compose(a), a.compose(a.converse()), carrier
    )


def is_confluent(a: Rel, carrier: Optional[Sequence] = None) -> PropertyReport:
    """a*°;a* <= a*;a*°: star peaks are joinable."""
    s = a.kleene_star()
    return _rel_report(
        "confluence", s.converse().compose(s), s.compose(s.converse()), carrier
    )


def is_weakly_confluent(a: Rel, carrier: Optional[Sequence] = None) -> PropertyReport:
    """a°;a <= a*;a*°: one-step peaks are joinable."""
    s = a.kleene_star()
    return _rel_report(
        "weak-confluence", a.converse().compose(a), s.compose(s.converse()), carrier
    )


def is_church_rosser(a: Rel, carrier: Optional[Sequence] = None) -> PropertyReport:
    """(a | a°)* = a*;a°*: convertible elements are joinable."""
    s = a.kleene_star()
    return _rel_report(
        "church-rosser",
        a.sym_closure().kleene_star(),
        s.compose(s.converse()),
        carrier,
        equality=True,
    )


# ---------------------------------------------------------------------------
# exhaustive checks on reachable closures

def _seq_adjacency(trs: TRS, nodes: Sequence[Term]) -> Dict[Term, Tuple[Term, ...]]:
    return {t: tuple(sorted(sequential_step(trs, t), key=term_key))
            for t in nodes}


@dataclass
class _Condensation:
    """Strongly connected components of a step graph whose nodes are
    numbered in ``term_key`` order.

    ``adj[i]`` lists node ``i``'s successors in increasing order and
    ``comp[i]`` is its component.  Components are numbered in reverse
    topological order: every edge leaving component ``c`` enters a
    component below ``c``, and ``succ[c]`` is the set of those.  A
    component without successors is a bottom SCC."""

    adj: List[List[int]]
    comp: List[int]
    succ: List[Set[int]]

    def bottoms(self) -> List[Tuple[int, int]]:
        """(component, least node) of every bottom SCC, by least node."""
        out = []
        seen: Set[int] = set()
        for i, c in enumerate(self.comp):
            if not self.succ[c] and c not in seen:
                seen.add(c)
                out.append((c, i))
        return out

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
    """Iterative Tarjan over ``order`` (sorted by ``term_key``), where
    ``succs[i]`` are the step successors of ``order[i]``.  The node set must
    be closed under the step: a successor outside it raises, because
    treating it as a normal form would invent a bottom SCC."""
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
        ranks = []
        while bits:
            low = bits & -bits
            ranks.append(low.bit_length() - 1)
            bits ^= low
        for i, r1 in enumerate(ranks):
            for r2 in ranks[i + 1:]:
                if (r1, r2) not in seen_pairs:
                    seen_pairs.add((r1, r2))
                    witnesses.append((format_term(order[reps[r1]]),
                                      format_term(order[reps[r2]])))
                    if len(witnesses) == MAX_WITNESSES:
                        return witnesses
    return witnesses


def seed_terms(trs: TRS, depth: int, open_depth: int = 2) -> Tuple[Term, ...]:
    """The seed population for exhaustive analyses: all closed terms of depth
    <= depth, plus all open terms up to ``open_depth`` (the full open universe
    grows too fast for exhaustive sweeps beyond that)."""
    ground = universe(trs.signature, (), depth).terms()
    if not trs.variables:
        return ground
    open_terms = universe(trs.signature, trs.variables, min(depth, open_depth)).terms()
    return tuple(sorted(set(ground) | set(open_terms), key=term_key))


def closure_nodes(trs: TRS, seeds: Sequence[Term]) -> Set[Term]:
    """Reachable closure of the seeds under full reduction (which contains
    both the sequential and the parallel step)."""
    g = reduction_graph(trs, seeds, kind="full")
    return g.nodes


def _ordered_closure(trs: TRS, seeds: Sequence[Term]) -> List[Term]:
    return sorted(closure_nodes(trs, seeds), key=term_key)


@dataclass
class SpectrumReport:
    nodes: int
    inclusion_violations: List[Tuple[str, str, str]]
    stars_equal: bool
    witnesses: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.inclusion_violations and self.stars_equal

    def to_json(self) -> dict:
        return {
            "property": "spectrum",
            "verdict": HOLDS if self.ok else FAILS,
            "nodes": self.nodes,
            "inclusion_violations": [list(v) for v in self.inclusion_violations],
            "stars_equal": self.stars_equal,
            "witnesses": [list(w) for w in self.witnesses],
            "overflow_dropped": 0,
        }


def spectrum_survey(trs: TRS, seeds: Sequence[Term]) -> SpectrumReport:
    """Check seq ⊆ par ⊆ full ⊆ seq-star pointwise on the reachable closure,
    and that the three reflexive-transitive closures coincide.

    Each of the three step graphs is condensed on its own; a node's star
    is the bitset of nodes its component reaches, so ``full ⊆ seq-star`` is
    a bit test and the star comparison an integer comparison."""
    order = _ordered_closure(trs, seeds)
    violations: List[Tuple[str, str, str]] = []
    seq_rows: List[FrozenSet[Term]] = []
    par_rows: List[FrozenSet[Term]] = []
    full_rows: List[FrozenSet[Term]] = []
    for t in order:
        sq = sequential_step(trs, t)
        pr = parallel_step(trs, t)
        fl = full_step(trs, t)
        seq_rows.append(sq)
        par_rows.append(pr)
        full_rows.append(fl)
        for bad in sorted(sq - pr, key=term_key):
            violations.append(("seq<=par", format_term(t), format_term(bad)))
        for bad in sorted(pr - fl, key=term_key):
            violations.append(("par<=full", format_term(t), format_term(bad)))
    full = _condense(order, full_rows)
    seq_star = _condense(order, seq_rows).node_stars()
    par_star = _condense(order, par_rows).node_stars()
    full_star = full.node_stars()
    stars_equal = True
    witnesses: List[Tuple[str, str]] = []
    for i, t in enumerate(order):
        star = seq_star[i]
        for j in full.adj[i]:
            if not star >> j & 1:
                violations.append(("full<=seq-star", format_term(t),
                                   format_term(order[j])))
        # seq ⊆ par ⊆ full makes the three stars coincide iff full ⊆ seq-star,
        # but we verify the reach sets directly as well
        if par_star[i] != star or full_star[i] != star:
            stars_equal = False
            witnesses.append((format_term(t), "star-mismatch"))
    return SpectrumReport(len(order), violations[:MAX_WITNESSES * 4],
                          stars_equal, witnesses[:MAX_WITNESSES])


def exhaustive_weak_confluence(trs: TRS, seeds: Sequence[Term],
                               join_depth: int = 12) -> PropertyReport:
    """Every one-step peak on the reachable closure joins within
    ``join_depth`` sequential steps (exhaustive BFS join search).

    A peak whose two bounded reach sets are disjoint is a counterexample
    only when both searches ran out of frontier within the bound; otherwise
    the bound may have cut the join off and the peak is unconfirmed.  The
    verdict is ``fails`` if any peak is a counterexample, else
    ``unconfirmed`` if any peak is unconfirmed, else ``holds``."""
    order = _ordered_closure(trs, seeds)
    adj = _seq_adjacency(trs, order)
    reach_cache: Dict[Term, Tuple[Set[Term], bool]] = {}

    def bounded(t: Term) -> Tuple[Set[Term], bool]:
        if t not in reach_cache:
            reach_cache[t] = reach(adj, (t,), join_depth)
        return reach_cache[t]

    failed: List[Tuple[str, str]] = []
    unconfirmed: List[Tuple[str, str]] = []
    for t in order:
        reducts = adj[t]
        for i, s1 in enumerate(reducts):
            for s2 in reducts[i + 1:]:
                (seen1, done1), (seen2, done2) = bounded(s1), bounded(s2)
                if not (seen1 & seen2):
                    (failed if done1 and done2 else unconfirmed).append(
                        (format_term(s1), format_term(s2)))
    if failed:
        return PropertyReport("weak-confluence", FAILS, failed[:MAX_WITNESSES])
    if unconfirmed:
        return PropertyReport("weak-confluence", UNCONFIRMED,
                              unconfirmed[:MAX_WITNESSES])
    return PropertyReport("weak-confluence", HOLDS)


def _seq_condensation(trs: TRS, seeds: Sequence[Term]
                      ) -> Tuple[List[Term], _Condensation, List[Tuple[int, int]]]:
    """The closure in ``term_key`` order, its sequential-step condensation
    and the condensation's bottom SCCs."""
    order = _ordered_closure(trs, seeds)
    cond = _condense(order, [sequential_step(trs, t) for t in order])
    return order, cond, cond.bottoms()


def exhaustive_confluence(trs: TRS, seeds: Sequence[Term]) -> PropertyReport:
    """Every star peak on the reachable closure is joinable.

    On a finite graph this holds iff every node reaches exactly one bottom
    SCC (Huet 1980): two bottom SCCs reached from one node are closed under
    the step, so their members cannot be joined, and a node whose reducts
    all reach the same bottom SCC joins them there.  The bottom SCCs each
    component reaches are one bitset, computed in one pass over the
    condensation.  A witness pairs the ``term_key``-least members of two
    bottom SCCs reachable from one node."""
    order, cond, bottoms = _seq_condensation(trs, seeds)
    base = [0] * len(cond.succ)
    for rank, (c, _) in enumerate(bottoms):
        base[c] = 1 << rank
    reached = cond.reach_bits(base)
    # components in the order of their term_key-least nodes
    groups = (reached[c] for c in cond.comp if reached[c] & (reached[c] - 1))
    witnesses = _bottom_witnesses(order, [i for _, i in bottoms], groups)
    return PropertyReport("confluence", FAILS if witnesses else HOLDS, witnesses)


def exhaustive_church_rosser(trs: TRS, seeds: Sequence[Term]) -> PropertyReport:
    """Convertible nodes of the reachable closure are joinable.

    On a finite graph this holds iff every weakly connected component
    contains exactly one bottom SCC: two bottom SCCs in one component are
    convertible but cannot be joined, and a node reaches only bottom SCCs
    of its own component.  The weak components come from union-find over
    the condensation's edges.  A witness pairs the ``term_key``-least
    members of two bottom SCCs in one weak component."""
    order, cond, bottoms = _seq_condensation(trs, seeds)
    parent = list(range(len(cond.succ)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c, succ in enumerate(cond.succ):
        for d in succ:
            parent[find(c)] = find(d)
    per_root: Dict[int, int] = {}
    for rank, (c, _) in enumerate(bottoms):
        root = find(c)
        per_root[root] = per_root.get(root, 0) | 1 << rank
    # weak components in the order of their term_key-least nodes
    groups = (per_root.pop(root) for root in map(find, cond.comp)
              if root in per_root)
    witnesses = _bottom_witnesses(order, [i for _, i in bottoms], groups)
    return PropertyReport("church-rosser", FAILS if witnesses else HOLDS,
                          witnesses)


# ---------------------------------------------------------------------------
# critical pairs, relationally

@dataclass
class CPReport:
    cp1: PropertyReport
    cp2: PropertyReport
    cp1_prime: PropertyReport
    overflow_dropped: int

    def to_json(self) -> dict:
        return {
            "property": "critical-pairs",
            "overflow_dropped": self.overflow_dropped,
            "checks": [
                self.cp1.to_json(),
                self.cp2.to_json(),
                self.cp1_prime.to_json(),
            ],
        }


def _joinable_pairs(lhs: Rel, step: Rel,
                    name: str, dropped: int) -> PropertyReport:
    """lhs <= step*;step*° checked via reachability joins."""
    succ = successors(step.pairs)
    cache: Dict[Term, Set[Term]] = {}

    def reach_set(t: Term) -> Set[Term]:
        if t not in cache:
            cache[t] = reach(succ, (t,))[0]
        return cache[t]

    witnesses = []
    for p, q in sorted(lhs.pairs):
        if not (reach_set(p) & reach_set(q)):
            witnesses.append((format_term(p), format_term(q)))
    ok = not witnesses
    return PropertyReport(name, _verdict(ok, dropped, exhaustive=False),
                          witnesses[:MAX_WITNESSES], dropped)


def check_cp(trs: TRS, depth: int = 2) -> CPReport:
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
    cp1 = _joinable_pairs(root_peaks, gs, "cp-1", stats.dropped)

    inner = g.converse().compose(check_refine(gs, stats))
    dgs = subst_rel(delta(u), gs, stats)
    dgs_succ = successors(dgs.pairs)
    gh_succ = successors(gh.pairs)
    cp2_witnesses = []
    for p, q in sorted(inner.pairs):
        if not (dgs_succ.get(p, set()) & gh_succ.get(q, set())):
            cp2_witnesses.append((format_term(p), format_term(q)))
    cp2 = PropertyReport(
        "cp-2",
        _verdict(not cp2_witnesses, stats.dropped, exhaustive=False),
        cp2_witnesses[:MAX_WITNESSES],
        stats.dropped,
    )

    cp1p_witnesses = [
        (format_term(p), format_term(q)) for p, q in sorted(root_peaks.pairs)
        if p is not q
    ]
    # CP-1' is a universally quantified statement about root steps; within
    # the universe it is checked exactly (every lhs instance is present)
    cp1_prime = PropertyReport(
        "cp-1-prime",
        HOLDS if not cp1p_witnesses else FAILS,
        cp1p_witnesses[:MAX_WITNESSES],
        0,
    )
    return CPReport(cp1, cp2, cp1_prime, stats.dropped)


@dataclass
class TechniqueReport:
    premise_root_peaks: PropertyReport       # a°;a ≤ aˢ*;aˢ*°
    premise_root_vs_inner: PropertyReport    # a°;∂_Δ(aˢ) ≤ aˢ*;aˢ*°
    conclusion: PropertyReport               # aˢ°;aˢ ≤ aˢ*;aˢ*°
    overflow_dropped: int

    @property
    def premises_hold(self) -> bool:
        return self.premise_root_peaks.ok and self.premise_root_vs_inner.ok

    def to_json(self) -> dict:
        return {
            "property": "weak-confluence-technique",
            "overflow_dropped": self.overflow_dropped,
            "checks": [
                self.premise_root_peaks.to_json(),
                self.premise_root_vs_inner.to_json(),
                self.conclusion.to_json(),
            ],
        }


def check_weak_confluence_technique(a: Rel) -> TechniqueReport:
    """The weak-confluence proof technique, instantiated: if root peaks
    join and root-vs-inner peaks join, then all one-step peaks of the
    sequential closure join."""
    stats = OpStats()
    aseq = sequential_closure(a, stats)
    p1 = _joinable_pairs(a.converse().compose(a), aseq,
                         "root-peaks-join", stats.dropped)
    p2 = _joinable_pairs(a.converse().compose(check_refine(aseq, stats)), aseq,
                         "root-vs-inner-peaks-join", stats.dropped)
    concl = _joinable_pairs(aseq.converse().compose(aseq), aseq,
                            "one-step-peaks-join", stats.dropped)
    return TechniqueReport(p1, p2, concl, stats.dropped)
