"""Finite relation algebra, with independent oracles for the residuals and
the star."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relrew.relalg as relalg
from relrew.relalg import Rel, corrupted_compose, lfp, random_rel
from relrew.syntax import Signature, Universe, app, universe


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


def test_rel_value_semantics():
    """Relations on equal carriers with equal pairs are equal and hash
    alike, as ``lfp``'s ``==`` needs, also over two equal universes."""
    assert Rel.from_pairs(3, [(0, 1)]) == Rel(range(3), frozenset({(0, 1)}))
    assert hash(Rel.from_pairs(3, [(0, 1)])) == hash(Rel.from_pairs(3, [(0, 1)]))
    assert Rel.from_pairs(3, [(0, 1)]) != Rel.from_pairs(3, [(1, 0)])
    assert Rel.from_pairs(3, [(0, 1)]) != Rel.from_pairs(4, [(0, 1)])
    sig = Signature({"0": 0, "S": 1})
    zero, one = app("0"), app("S", app("0"))
    a, b = (Rel.from_pairs(Universe.from_terms(sig, (), [one]), [(one, zero)])
            for _ in range(2))
    assert a.carrier is not b.carrier
    assert a == b and hash(a) == hash(b)


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
# the row kernels against materialise-and-diff

def _row_samples(carrier, rng, count):
    """``count`` times three triples (x, y, z) over ``carrier``.  y and z
    each lie on a random part of the carrier, some empty.  x takes pairs of
    y;z, then of y*, each with or without a few pairs from anywhere and
    reflexive pairs; the third x lies between y and y*."""
    elems = list(carrier)

    def draw():
        part = [e for e in elems if rng.random() < 0.6]
        density = rng.choice([0.0, 0.1, 0.3, 0.6])
        return frozenset((p, q) for p in part for q in part
                         if rng.random() < density)

    def some(pairs, keep):
        return {pq for pq in sorted(pairs) if rng.random() < keep}

    out = []
    for _ in range(count):
        y, z = Rel(carrier, draw()), Rel(carrier, draw())
        ystar = y.kleene_star().pairs
        for near in (y.compose(z).pairs, ystar):
            x = some(near, rng.choice([0.3, 1.0]))
            if rng.random() < 0.5:
                x |= some(((p, q) for p in elems for q in elems), 0.03)
                x |= some(((p, p) for p in elems), 0.2)
            out.append((Rel(carrier, frozenset(x)), y, z))
        out.append((Rel(carrier, y.pairs | some(ystar, 0.5)), y, z))
    return out


def _row_mismatches(carrier, seed, count=200):
    """The samples on which a row kernel disagrees with building the right
    side and taking the difference, with and without the compose hook,
    and the cases the samples cover."""
    rng = random.Random(seed)
    bad, seen = [], set()
    for x, y, z in _row_samples(carrier, rng, count):
        ystar, xstar = y.kleene_star(), x.kleene_star()
        yfield = {p for pq in y.pairs for p in pq}
        seen.update(k for k, hit in (
            ("empty y", not y.pairs), ("empty z", not z.pairs),
            ("x source outside y", {p for p, _ in x.pairs} - yfield),
            ("reflexive x pair outside y", any(
                p == q and p not in yfield for p, q in x.pairs))) if hit)
        verdicts = {
            "x <= y;z": (relalg.below_compose(x, y, z),
                         x.leq(y.compose(z))),
            "x <= y*": (relalg.below_star(x, y), x.leq(ystar)),
            "y <= x*": (relalg.below_star(y, x), y.leq(xstar)),
            "x* = y*": (relalg.below_star(x, y) and relalg.below_star(y, x),
                        xstar.pairs == ystar.pairs)}
        with corrupted_compose():
            verdicts["x <= y;z, compose hook"] = (
                relalg.below_compose(x, y, z), x.leq(y.compose(z)))
        for name, (rows, built) in verdicts.items():
            seen.add((name, built))
            if rows != built:
                bad.append((name, sorted(x.pairs), sorted(y.pairs),
                            sorted(z.pairs)))
    return bad, seen


ROW_CARRIERS = {"range": range(5),
                "terms": universe(Signature({"0": 0, "S": 1, "A": 2}),
                                  ("x",), 1)}


@pytest.mark.parametrize("kind", sorted(ROW_CARRIERS))
def test_row_kernels_match_built_right_sides(kind):
    """``below_compose`` and ``below_star`` decide x <= y;z, x <= y* and,
    both ways, x* = y* as building the right side does, compose hook
    included, on samples with each verdict, empty relations, sources of x
    outside y's field and reflexive pairs under a star."""
    bad, seen = _row_mismatches(ROW_CARRIERS[kind], 26)
    assert not bad, bad[:3]
    assert {"empty y", "empty z", "x source outside y",
            "reflexive x pair outside y"} <= seen
    for name in ("x <= y;z", "x <= y*", "y <= x*", "x* = y*",
                 "x <= y;z, compose hook"):
        assert {(name, True), (name, False)} <= seen, name


@pytest.mark.parametrize("mutant", ["last_row_dropped", "one_step_stars"])
@pytest.mark.parametrize("kind", sorted(ROW_CARRIERS))
def test_row_kernel_mutants_caught(kind, mutant, request):
    """A compose kernel that never reads z's last row, or a star search
    that stops after one step, disagrees with the built right sides."""
    request.getfixturevalue(mutant)
    assert _row_mismatches(ROW_CARRIERS[kind], 26)[0]


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
