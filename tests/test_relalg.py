"""Finite relation algebra, with independent oracles for the residuals and
the star."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relrew.relalg import Rel, corrupted_compose, lfp, random_rel
from relrew.syntax import Signature, app, universe


def rels(max_n=4):
    def build(n, mask_bits):
        slots = [(i, j) for i in range(n) for j in range(n)]
        return Rel(range(n), frozenset(p for k, p in enumerate(slots)
                                       if mask_bits >> k & 1))

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, 2 ** (n * n) - 1))
    )


def same_carrier_rels(n):
    return st.tuples(*(rels(n),))


# ---------------------------------------------------------------------------
# oracles

def floyd_warshall_star(a: Rel) -> Rel:
    """Independent reflexive-transitive closure."""
    n = a.n
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for i, j in a.pairs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return Rel(range(n), frozenset(
        (i, j) for i in range(n) for j in range(n) if reach[i][j]
    ))


def all_rels(n):
    slots = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(slots)):
        yield Rel(range(n), frozenset(p for k, p in enumerate(slots)
                                      if mask >> k & 1))


# ---------------------------------------------------------------------------
# basic structure

def test_compose_example():
    a = Rel.from_pairs(3, [(0, 1)])
    b = Rel.from_pairs(3, [(1, 2)])
    assert a.compose(b).pairs == frozenset({(0, 2)})
    assert b.compose(a).pairs == frozenset()


def test_identity_neutral():
    rng = random.Random(7)
    for _ in range(50):
        a = random_rel(4, 0.3, rng)
        i = Rel.identity(4)
        assert i.compose(a).pairs == a.pairs
        assert a.compose(i).pairs == a.pairs


def test_converse_involution():
    rng = random.Random(8)
    for _ in range(50):
        a = random_rel(4, 0.3, rng)
        assert a.converse().converse().pairs == a.pairs


def test_pair_out_of_carrier_rejected():
    with pytest.raises(ValueError):
        Rel.from_pairs(2, [(0, 2)])
    u = universe(Signature({"0": 0, "S": 1}), (), 1)
    zero = app("0")
    assert Rel.from_pairs(u, [(zero, app("S", zero))]).carrier is u
    with pytest.raises(ValueError):
        Rel.from_pairs(u, [(zero, app("S", app("S", zero)))])


# ---------------------------------------------------------------------------
# star against the Floyd-Warshall oracle

def test_star_against_floyd_warshall_random():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 8)
        a = random_rel(n, rng.uniform(0.05, 0.5), rng)
        assert a.kleene_star().pairs == floyd_warshall_star(a).pairs


def test_trans_closure_vs_star():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = random_rel(n, 0.3, rng)
        assert a.trans_closure().pairs == a.compose(a.kleene_star()).pairs


@given(rels())
@settings(max_examples=100, deadline=None)
def test_star_is_least_closure(a):
    s = a.kleene_star()
    assert Rel.identity(a.n).leq(s)
    assert a.leq(s)
    assert s.compose(s).leq(s)
    assert s.kleene_star().pairs == s.pairs


# ---------------------------------------------------------------------------
# residuals against exhaustive joins (the adjoint formula)

def test_residuals_exhaustive_n2():
    for c in all_rels(2):
        for b in all_rels(2):
            rr = c.residual_right(b)
            assert rr.compose(b).leq(c)
            best = Rel.bottom(2)
            for x in all_rels(2):
                if x.compose(b).leq(c):
                    best = best | x
            assert rr.pairs == best.pairs

            rl = b.residual_left(c)
            assert b.compose(rl).leq(c)
            best = Rel.bottom(2)
            for x in all_rels(2):
                if b.compose(x).leq(c):
                    best = best | x
            assert rl.pairs == best.pairs


def test_residual_galois_random():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(2, 5)
        x = random_rel(n, 0.3, rng)
        b = random_rel(n, 0.3, rng)
        c = random_rel(n, 0.4, rng)
        assert x.leq(c.residual_right(b)) == x.compose(b).leq(c)
        assert x.leq(b.residual_left(c)) == b.compose(x).leq(c)


# ---------------------------------------------------------------------------
# lfp and the mutation hook

def test_lfp_reaches_fixpoint():
    a = Rel.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    s = lfp(lambda x: Rel.identity(4) | a.compose(x), Rel.bottom(4))
    assert (0, 3) in s.pairs
    assert s.pairs == a.kleene_star().pairs


def test_corrupted_compose_restores():
    a = Rel.from_pairs(2, [(0, 1)])
    b = Rel.from_pairs(2, [(1, 0)])
    with corrupted_compose():
        assert a.compose(b).pairs != frozenset({(0, 0)})
    assert a.compose(b).pairs == frozenset({(0, 0)})


@given(rels(3))
@settings(max_examples=80, deadline=None)
def test_compose_assoc(a):
    rng = random.Random(len(a.pairs))
    b = random_rel(a.n, 0.4, rng)
    c = random_rel(a.n, 0.4, rng)
    assert a.compose(b).compose(c).pairs == a.compose(b.compose(c)).pairs
