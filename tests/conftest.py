from collections import Counter

import pytest

import relrew.analysis as an
import relrew.laws as laws
import relrew.termrel as tr
from relrew.relalg import Rel
from relrew.rewrite import parse_trs

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
def stale_old(monkeypatch):
    """Semi-naive evaluation whose ``old`` never takes a generation: each
    increment sees an empty ``old``, as if no generation were merged."""
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
