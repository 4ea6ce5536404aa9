"""Term rewriting systems: rules, single-step reduction in three flavours,
reduction graphs, and the induced relations on a term universe.

The three steppers implement, for a set of ground rules R:

* sequential step   rewrite exactly one redex occurrence;
* parallel step     rewrite any number of pairwise disjoint redexes at once
                    (reflexive by construction);
* full step         rewrite arguments in parallel, then optionally contract
                    the created root redex (reflexive, may develop redexes
                    created by the parallel part).

Each stepper is memoised per term, as a tuple of its distinct targets in
no fixed order, and builds a term's targets from its arguments' memoised
targets.  A tuple keeps a memo entry at a pointer per target, where a
frozenset keeps a hash table; a reader that needs set algebra builds a set
where it needs one.  A reduction graph keeps its nodes and its
frontier only; its steps are read from the steppers, whose memo already
holds them.  A DOT graph labels each sequential edge with the rules that
take it, read from the root reducts along the one path where its ends
differ.

``ground_instances`` turns the rule set into a relation on a finite
universe (all substitution instances of the rules that fit), so the
relational closures of :mod:`relrew.termrel` can be cross-validated against
the inductive steppers.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .relalg import Rel
from .syntax import (
    MAX_TERM_DEPTH,
    Signature,
    Term,
    TermError,
    Universe,
    apply_subst,
    format_term,
    free_vars,
    gc_paused,
    make_all,
    match,
    parse_term,
    subterms,
    term_key,
)
from .termrel import OpStats

# a root rewrite: (rule index, result)
Reduct = Tuple[int, Term]


class Rule:
    """A rewrite rule ``lhs -> rhs``: a value, equal and hashed by its two
    sides, since the steppers' memos hash the rules of their TRS."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        if lhs.is_var:
            raise TermError(f"rule left-hand side may not be a variable: {lhs}")
        if not free_vars(rhs) <= free_vars(lhs):
            raise TermError(
                f"rule {format_term(lhs)} -> {format_term(rhs)} "
                "introduces fresh variables on the right"
            )
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


class TRS:
    """A term rewriting system: a value, never changed after construction,
    equal and hashed by its signature, variables and rules.  The cached
    properties take no part."""

    def __init__(self, signature: Signature, variables: Tuple[str, ...],
                 rules: Tuple[Rule, ...]):
        self.signature = signature
        self.variables = variables
        self.rules = rules

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.signature, self.variables, self.rules)
                == (other.signature, other.variables, other.rules))

    def parse(self, text: str) -> Term:
        return parse_term(text, self.signature, self.variables)

    @cached_property
    def _hash(self) -> int:
        """The structural hash, once: the steppers' memo hashes it per call."""
        return hash((self.signature, self.variables, self.rules))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def head_index(self) -> Dict[str, Tuple[Tuple[int, Rule], ...]]:
        """The rules with their indices, grouped by the head symbol of the
        left side, each group in rule order."""
        index: Dict[str, List[Tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            index.setdefault(rule.lhs.name, []).append((i, rule))
        return {name: tuple(group) for name, group in index.items()}

    @cached_property
    def reduct_table(self) -> Dict[Term, Tuple[Reduct, ...]]:
        """``root_reducts``' memo for this instance, keyed by term alone:
        hashing the TRS itself would walk all its rules on every lookup."""
        return {}


def parse_trs(text: str) -> TRS:
    """Parse the line-oriented rewrite-system format::

        # comment
        sig 0/0 S/1 A/2 M/2
        var x y
        rule A(0,x) -> x

    ``sig`` and ``var`` lines accumulate; ``rule`` lines may only use
    previously declared names.
    """
    arities: Dict[str, int] = {}
    variables: List[str] = []
    pending_rules: List[Tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "sig":
            if not rest:
                raise TermError(f"line {lineno}: empty sig declaration")
            for tok in rest.split():
                name, slash, ar = tok.partition("/")
                if not slash or not ar.lstrip("-").isdigit():
                    raise TermError(f"line {lineno}: expected NAME/ARITY, got {tok!r}")
                if name in variables:
                    raise TermError(f"line {lineno}: {name!r} is already a variable")
                if name in arities and arities[name] != int(ar):
                    raise TermError(f"line {lineno}: conflicting arity for {name!r}")
                arities[name] = int(ar)
        elif head == "var":
            if not rest:
                raise TermError(f"line {lineno}: empty var declaration")
            for name in rest.split():
                if name in arities:
                    raise TermError(f"line {lineno}: {name!r} is already an operator")
                if name not in variables:
                    variables.append(name)
        elif head == "rule":
            lhs_text, arrow, rhs_text = rest.partition("->")
            if not arrow:
                raise TermError(f"line {lineno}: rule must contain '->'")
            pending_rules.append((lhs_text.strip(), rhs_text.strip(), lineno))
        else:
            raise TermError(f"line {lineno}: unknown directive {head!r}")
    signature = Signature(arities)
    rules = []
    for lhs_text, rhs_text, lineno in pending_rules:
        try:
            lhs = parse_term(lhs_text, signature, variables)
            rhs = parse_term(rhs_text, signature, variables)
            rules.append(Rule(lhs, rhs))
        except TermError as e:
            raise TermError(f"line {lineno}: {e}") from None
    return TRS(signature, tuple(variables), tuple(rules))


def format_trs(trs: TRS) -> str:
    lines = ["sig " + " ".join(f"{n}/{a}" for n, a in trs.signature)]
    if trs.variables:
        lines.append("var " + " ".join(trs.variables))
    lines.extend(f"rule {r}" for r in trs.rules)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# single steps

def root_reducts(trs: TRS, t: Term) -> Tuple[Reduct, ...]:
    """All rule applications at the root of t, in rule order: (rule index,
    result).  Only the rules whose left side has t's head symbol are tried,
    and the answer is kept in the TRS's ``reduct_table``."""
    table = trs.reduct_table
    out = table.get(t)
    if out is None:
        found = []
        if not t.is_var:
            for i, rule in trs.head_index.get(t.name, ()):
                sigma = match(rule.lhs, t)
                if sigma is not None:
                    found.append((i, apply_subst(rule.rhs, sigma)))
        out = table[t] = tuple(found)
    return out


@lru_cache(maxsize=None)
def sequential_step(trs: TRS, t: Term) -> Tuple[Term, ...]:
    """The distinct targets of the sequential step relation: t's root
    reducts, and t with one argument replaced by one of that argument's own
    (memoised) sequential step targets."""
    out = {r for _, r in root_reducts(trs, t)}
    args = t.args
    for k, a in enumerate(args):
        head, tail = args[:k], args[k + 1:]
        out.update(make_all(t.name, [head + (s,) + tail
                                     for s in sequential_step(trs, a)]))
    return tuple(out)


MAX_NODES = 200_000  # a reduction graph's node cap; no step builds more


class _TooWide(Exception):
    """A term's arguments give it more step targets than ``MAX_NODES``."""


def _arg_steps(step, trs: TRS, t: Term) -> List[Tuple[Term, ...]]:
    """The step targets of t's arguments, whose product gives t as many
    distinct targets, checked against ``MAX_NODES`` before it is built."""
    rows = [step(trs, a) for a in t.args]
    if prod(map(len, rows)) > MAX_NODES:
        raise _TooWide
    return rows


@lru_cache(maxsize=None)
def parallel_step(trs: TRS, t: Term) -> Tuple[Term, ...]:
    """The distinct targets of the parallel step relation (t among them)."""
    if t.is_var:
        return (t,)
    out = set(make_all(t.name, product(*_arg_steps(parallel_step, trs, t))))
    out.update(r for _, r in root_reducts(trs, t))
    return tuple(out)


@lru_cache(maxsize=None)
def full_step(trs: TRS, t: Term) -> Tuple[Term, ...]:
    """The distinct targets of the full step relation: parallel-rewrite the
    arguments, then optionally contract the root redex of the result.  Each
    result of the first part keeps t's head, so when no rule has that head
    there is no root redex to contract, and the product of the arguments'
    distinct targets is already distinct."""
    if t.is_var:
        return (t,)
    mids = tuple(make_all(t.name, product(*_arg_steps(full_step, trs, t))))
    if t.name not in trs.head_index:
        return mids
    out = set(mids)
    for mid in mids:
        for _, r in root_reducts(trs, mid):
            out.add(r)
    return tuple(out)


STEPPERS = {
    "seq": sequential_step,
    "par": parallel_step,
    "full": full_step,
}


def is_normal_form(trs: TRS, t: Term) -> bool:
    """No rule applies at any position of t."""
    return not any(root_reducts(trs, s) for s in subterms(t))


# ---------------------------------------------------------------------------
# reduction graphs

class ReductionGraph:
    """What a breadth-first search found: its nodes, the frontier of nodes
    it never expanded and the number of layers it ran.  ``steps`` reads the
    steps from the steppers."""

    __slots__ = ("trs", "kind", "seeds", "nodes", "frontier", "layers",
                 "__weakref__")

    def __init__(self, trs: TRS, kind: str, seeds: Tuple[Term, ...],
                 nodes: Optional[Set[Term]] = None,
                 frontier: Optional[Set[Term]] = None):
        self.trs = trs
        self.kind = kind
        self.seeds = seeds
        self.nodes = set() if nodes is None else nodes
        self.frontier = set() if frontier is None else frontier
        self.layers = 0

    @property
    def exhausted(self) -> bool:
        """Whether every node was expanded: the graph is the closure."""
        return not self.frontier

    def steps(self, t: Term, kind: Optional[str] = None) -> Tuple[Term, ...]:
        """The distinct targets of node t's steps under ``kind`` (the graph's
        own by default).  A frontier node was never expanded, so it has
        none."""
        if t in self.frontier:
            return ()
        return STEPPERS[kind or self.kind](self.trs, t)

    def normal_forms(self) -> List[Term]:
        return sorted(
            (t for t in self.nodes if is_normal_form(self.trs, t)), key=term_key
        )


@gc_paused
def reduction_graph(trs: TRS, seeds: Sequence[Term], kind: str = "seq",
                    bound: Optional[int] = None,
                    max_nodes: int = MAX_NODES) -> ReductionGraph:
    """Breadth-first closure of ``seeds`` under the chosen stepper.

    ``bound`` limits the number of BFS layers.  A layer that leaves the
    graph with more than ``max_nodes`` nodes is taken back, and so is a
    layer with a node of more than ``MAX_NODES`` targets, before they are
    built; the search then stops with the layers it finished, so the
    result does not depend on the order of a layer's nodes.  A node with a
    reduct deeper than ``MAX_TERM_DEPTH`` is left unexpanded, so every node
    stays within the depth the term functions handle.  The nodes left
    unexpanded make up ``frontier``, ``exhausted`` is then False, and the
    graph is the partial closure explored so far.  ``layers`` counts the
    layers the search ran, the last one included, so an exhausted graph is
    what any ``bound`` of at least ``layers`` gives.

    Each node's targets are tested against the seeds deeper than
    ``MAX_TERM_DEPTH``, and for depth only where they are new to the graph:
    every other node was a new target, and passed the test, when it was
    added.  A node whose targets the graph already holds adds nothing.
    """
    if kind not in STEPPERS:
        raise ValueError(f"unknown step kind {kind!r}")
    step = STEPPERS[kind]
    g = ReductionGraph(trs, kind, tuple(seeds))
    frontier = list(dict.fromkeys(seeds))
    g.nodes.update(frontier)
    deep_seeds = {t for t in frontier if t.depth > MAX_TERM_DEPTH}
    layer = 0
    while frontier and (bound is None or layer < bound):
        layer += 1
        next_frontier: List[Term] = []
        wide = False
        for t in frontier:
            if len(g.nodes) > max_nodes:
                break
            try:
                targets = step(trs, t)
            except _TooWide:
                wide = True
                break
            if deep_seeds and not deep_seeds.isdisjoint(targets):
                g.frontier.add(t)
                continue
            if g.nodes.issuperset(targets):
                continue
            new = [s for s in targets if s not in g.nodes]
            if any(s.depth > MAX_TERM_DEPTH for s in new):
                g.frontier.add(t)
                continue
            g.nodes.update(new)
            next_frontier.extend(new)
        if wide or len(g.nodes) > max_nodes:  # whatever order the layer came in
            g.nodes.difference_update(next_frontier)
            break
        frontier = next_frontier
    g.frontier.update(frontier)
    g.layers = layer
    return g


# ---------------------------------------------------------------------------
# the rule relation on a universe

@gc_paused
def ground_instances(trs: TRS, u: Universe,
                     stats: Optional[OpStats] = None) -> Rel:
    """All substitution instances of the rules that fit in the universe,
    as a relation (the root-step relation).  Instances whose left side is
    in the universe but whose right side escapes it are counted as dropped.
    The result is a set and a count, so an explicit universe's terms are
    taken as its set holds them, unsorted.
    """
    pairs: Set[Tuple[Term, Term]] = set()
    for t in u.terms() if u.explicit is None else u.explicit:
        for _, r in root_reducts(trs, t):
            if r in u:
                pairs.add((t, r))
            elif stats is not None:
                stats.note()
    return Rel(u, frozenset(pairs))


# ---------------------------------------------------------------------------
# export

def _ranked(g: ReductionGraph) -> Tuple[List[Term], List[Tuple[int, int]]]:
    """The nodes in ``term_key`` order, and the edges as pairs of their
    ranks: each node's step targets, sorted, node by node.  ``term_key`` is
    injective, so the pairs come in the order of their pairs of keys,
    without building two keys per edge."""
    nodes = sorted(g.nodes, key=term_key)
    rank = {t: i for i, t in enumerate(nodes)}
    return nodes, [(i, j) for i, p in enumerate(nodes)
                   for j in sorted(rank[q] for q in g.steps(p))]


def _rules_between(trs: TRS, p: Term, q: Term) -> Set[int]:
    """The indices of the rules of the sequential steps from p to q.  A
    sequential step rewrites one position, so below the root it leaves
    every argument but one as it is: the one in which p and q differ, or
    any of them when p is q."""
    out = {i for i, r in root_reducts(trs, p) if r is q}
    if p is q:
        for a in p.args:
            out |= _rules_between(trs, a, a)
    elif p.name == q.name:
        differ = [k for k, (a, b) in enumerate(zip(p.args, q.args))
                  if a is not b]
        if len(differ) == 1:
            k = differ[0]
            out |= _rules_between(trs, p.args[k], q.args[k])
    return out


def graph_to_dot(g: ReductionGraph) -> str:
    """DOT text of the graph; a seq graph labels each edge with the
    indices of the rules that take it, from ``_rules_between``."""
    nodes, edges = _ranked(g)
    names = [format_term(t) for t in nodes]
    lines = ["digraph reduction {"]
    lines.append('  rankdir=LR;')
    for t, name in zip(nodes, names):
        shape = "doublecircle" if is_normal_form(g.trs, t) else "ellipse"
        seed = " peripheries=2" if t in g.seeds and shape == "ellipse" else ""
        lines.append(f'  "{name}" [shape={shape}{seed}];')
    for i, j in edges:
        label = ""
        if g.kind == "seq":
            used = sorted(_rules_between(g.trs, nodes[i], nodes[j]))
            label = f' [label="r{",r".join(map(str, used))}"]'
        lines.append(f'  "{names[i]}" -> "{names[j]}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: ReductionGraph) -> str:
    nodes, edges = _ranked(g)
    names = [format_term(t) for t in nodes]
    payload = {
        "kind": g.kind,
        "seeds": [format_term(t) for t in g.seeds],
        "exhausted": g.exhausted,
        "nodes": names,
        "normal_forms": [format_term(t) for t in g.normal_forms()],
        "edges": [[names[i], names[j]] for i, j in edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
