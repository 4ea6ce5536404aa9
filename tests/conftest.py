from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

import relrew.analysis as an
import relrew.laws as laws
import relrew.relalg as relalg
import relrew.rewrite as rw
import relrew.termrel as tr
from relrew.relalg import Rel
from relrew.rewrite import parse_trs
from relrew.syntax import _Applications, app, term_key

ARITH_TEXT = """\
# Peano-style arithmetic
sig 0/0 S/1 A/2 M/2
var x y
rule A(0,x) -> x
rule A(S(x),y) -> S(A(x,y))
rule M(0,x) -> 0
rule M(S(x),y) -> A(M(x,y),y)
"""


@pytest.fixture(scope="session")
def arith():
    return parse_trs(ARITH_TEXT)


@pytest.fixture
def arith_file(tmp_path):
    p = tmp_path / "arith.trs"
    p.write_text(ARITH_TEXT)
    return str(p)


@pytest.fixture
def lossy_lift(monkeypatch):
    """A congruence lift that loses the least pair of each non-empty result;
    ``monkeypatch.undo()`` restores the real one."""
    lift = tr._lift

    def lossy(*args, **kwargs):
        out = lift(*args, **kwargs)
        if out:
            out.discard(min(out))
        return out

    monkeypatch.setattr(tr, "_lift", lossy)


@pytest.fixture
def lossy_subst(monkeypatch):
    """A relational substitution that loses the least pair of each
    non-empty result, patched in every module that imports it."""
    subst = tr.subst_rel

    def lossy(*args, **kwargs):
        out = subst(*args, **kwargs)
        if out.pairs:
            return Rel(out.carrier, out.pairs - {min(out.pairs)})
        return out

    for module in (tr, laws, an):
        monkeypatch.setattr(module, "subst_rel", lossy)


@pytest.fixture
def left_images_subst(monkeypatch):
    """A relational substitution that instantiates both sides of each pair
    from the left images: ``subst_rel`` seeds each layout's left and right
    instance memos with ``_columns(vs, lpools, rpools)``, and the patch
    hands it the left pools for both sides."""
    columns = tr._columns
    monkeypatch.setattr(tr, "_columns", lambda vs, lpools, rpools:
                        columns(vs, lpools, lpools))


@pytest.fixture
def shared_argument_table(monkeypatch):
    """Interning keyed by argument tuple alone, across operators: a miss in
    one operator's table takes the application of whichever operator was
    first built on the same arguments since the patch."""
    built, missing = {}, _Applications.__missing__

    def shared(self, args):
        t = built.get(args)
        if t is None:
            t = built[args] = missing(self, args)
        else:
            self[args] = t
        return t

    monkeypatch.setattr(_Applications, "__missing__", shared)


@pytest.fixture
def stale_old(monkeypatch):
    """Semi-naive evaluation whose ``old`` never takes the previous
    generation's ``every``: each increment sees an empty ``old``."""
    semi_naive = tr._semi_naive

    def stale(u, seed, increment, stats):
        return semi_naive(u, seed, lambda old, new, every, st:
                          increment({}, new, every, st), stats)

    monkeypatch.setattr(tr, "_semi_naive", stale)


@pytest.fixture
def one_node_bottoms(monkeypatch):
    """``_Condensation.joins`` counting only its one-node bottom SCCs, so a
    node that reaches only larger ones joins nothing.  The body is the real
    one's with the size test added."""

    def one_node(self, open_nodes):
        sizes = Counter(self.comp)
        reps, base = [], [0] * len(self.succ)
        for i, c in enumerate(self.comp):
            if (not self.succ[c] and not base[c] and i not in open_nodes
                    and sizes[c] == 1):
                base[c] = 1 << len(reps)
                reps.append(i)
        open_bit = 1 << len(reps)
        for i in open_nodes:
            base[self.comp[i]] = open_bit
        return reps, self.reach_bits(base), open_bit

    monkeypatch.setattr(an._Condensation, "joins", one_node)


def _patch_stepper(monkeypatch, real, step):
    """``step``, memoised afresh, in place of the stepper ``real``, both in
    ``rewrite.STEPPERS`` and under its module name.  Like the steppers, it
    returns a tuple of distinct targets."""
    step = lru_cache(maxsize=None)(step)
    kind = next(k for k, f in rw.STEPPERS.items() if f is real)
    monkeypatch.setitem(rw.STEPPERS, kind, step)
    monkeypatch.setattr(rw, real.__name__, step)


@pytest.fixture
def root_only_full(monkeypatch):
    """A full step that contracts only ``t``'s own root, not the root of
    each term ``mid`` built from its arguments' full steps."""

    def full(trs, t):
        if t.is_var:
            return (t,)
        out = {app(t.name, *combo)
               for combo in product(*(rw.full_step(trs, a) for a in t.args))}
        out.update(r for _, r in rw.root_reducts(trs, t))
        return tuple(out)

    _patch_stepper(monkeypatch, rw.full_step, full)


@pytest.fixture
def first_arg_par(monkeypatch):
    """A parallel step that steps only the first argument and keeps the
    others as they are."""

    def par(trs, t):
        out = {t}
        if t.args:
            out = {app(t.name, s, *t.args[1:])
                   for s in rw.parallel_step(trs, t.args[0])}
        out.update(r for _, r in rw.root_reducts(trs, t))
        return tuple(out)

    _patch_stepper(monkeypatch, rw.parallel_step, par)


@pytest.fixture
def no_last_arg_seq(monkeypatch):
    """A sequential step that never rewrites inside the last argument of a
    term, at any level: it recurses into the other arguments through
    itself."""

    def seq(trs, t):
        out = {r for _, r in rw.root_reducts(trs, t)}
        args = t.args
        for k, a in enumerate(args[:-1]):
            out.update(app(t.name, *args[:k], s, *args[k + 1:])
                       for s in rw.sequential_step(trs, a))
        return tuple(out)

    _patch_stepper(monkeypatch, rw.sequential_step, seq)


@pytest.fixture
def singleton_components(monkeypatch):
    """A condensation that never merges nodes: each node is its own
    component, numbered in depth-first post-order.  Components must be
    numbered so that every edge goes down, which a cycle's edges cannot
    all do, so an edge to a node still on the search path is lost."""
    condense = an._condense

    def singletons(order, succs):
        adj = condense(order, succs).adj
        comp = [-1] * len(adj)
        seen, ncomp = set(), 0
        for root in range(len(adj)):
            if root in seen:
                continue
            seen.add(root)
            work = [(root, iter(adj[root]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if w not in seen:
                        seen.add(w)
                        work.append((w, iter(adj[w])))
                        break
                else:
                    work.pop()
                    comp[v], ncomp = ncomp, ncomp + 1
        succ = [set() for _ in adj]
        for v, row in enumerate(adj):
            succ[comp[v]].update(comp[w] for w in row if comp[w] < comp[v])
        return an._Condensation(adj, comp, succ)

    monkeypatch.setattr(an, "_condense", singletons)


@pytest.fixture
def unexpanded_reach(monkeypatch):
    """A graph search that marks what the seeds step to but never expands
    it, patched in ``relalg`` and ``analysis``."""

    def shallow(succ, seeds):
        seen = set(seeds)
        for s in list(seen):
            seen.update(succ.get(s, ()))
        return seen

    for module in (relalg, an):
        monkeypatch.setattr(module, "reach", shallow)


@pytest.fixture
def last_row_dropped(monkeypatch):
    """A row check of x <= y;z that never reads z's row of its greatest
    source, patched in ``relalg`` and ``laws``."""
    below_compose = relalg.below_compose

    def dropped(x, y, z):
        last = max((p for p, _ in z.pairs), default=None)
        return below_compose(x, y, Rel(z.carrier, frozenset(
            (p, q) for p, q in z.pairs if p != last)))

    for module in (relalg, laws):
        monkeypatch.setattr(module, "below_compose", dropped)


@pytest.fixture
def one_step_stars(monkeypatch):
    """A row check of x <= y* whose search stops one step from each source:
    a pair of x is covered only if it is reflexive or in y, patched in
    ``relalg`` and ``laws``."""

    def one_step(x, y):
        return all(p == q or (p, q) in y.pairs for p, q in x.pairs)

    for module in (relalg, laws):
        monkeypatch.setattr(module, "below_star", one_step)


@pytest.fixture
def shallow_stars(monkeypatch):
    """Bitset star rows of the abstract checks that take at most one step:
    each row is the element's successor row plus the element itself."""
    monkeypatch.setattr(an, "_star_rows", lambda rows: [
        row | 1 << i for i, row in enumerate(rows)])


@pytest.fixture
def deepest_first(monkeypatch):
    """The one-pass closures taking the terms by decreasing depth, so each
    row is built before its arguments' rows, which it reads as empty."""

    class Unbuilt(dict):
        def __missing__(self, t):
            return ()

    def by_depth(u, row):
        rows = Unbuilt()
        for t in sorted(u.explicit, key=lambda t: t.depth, reverse=True):
            r = row(t, rows)
            if r is None:
                return None
            rows[t] = r
        return Rel(u, frozenset((t, q) for t, r in rows.items() for q in r))

    monkeypatch.setattr(tr, "_by_depth", by_depth)


@pytest.fixture
def least_seq_step_lost(monkeypatch):
    """``ReductionGraph.steps`` losing the ``term_key``-least target of each
    node's sequential step, in every graph."""
    steps = rw.ReductionGraph.steps

    def lossy(self, t, kind=None):
        out = steps(self, t, kind)
        if (kind or self.kind) != "seq" or not out:
            return out
        least = min(out, key=term_key)
        return tuple(s for s in out if s is not least)

    monkeypatch.setattr(rw.ReductionGraph, "steps", lossy)
