"""Differential operators on term relations, cross-validated against the
inductive steppers of the rewrite module and against each other."""

import random

import pytest

import relrew.termrel as tr
from relrew.rewrite import (
    full_step,
    ground_instances,
    parallel_step,
    sequential_step,
)
from relrew.syntax import Signature, app, universe, var
from relrew.termrel import (
    OpStats,
    TermRel,
    check_refine,
    delta,
    derivative,
    full_closure,
    hat,
    i_eta,
    i_sigma0,
    parallel_closure,
    rt_closure,
    sequential_closure,
    star_contains,
    subst_rel,
    taylor,
    tilde,
    trans_closure,
)

SIG = Signature({"0": 0, "S": 1, "A": 2, "M": 2})
VARS = ("x", "y")
U1 = universe(SIG, VARS, 1)
U2 = universe(SIG, VARS, 2)

X, Y, ZERO = var("x"), var("y"), app("0")


def rel(u, *pairs):
    return TermRel(u, frozenset(pairs))


def random_rel(u, support_depth, k, rng):
    sup = u.terms_up_to(support_depth)
    return TermRel(u, frozenset(
        (rng.choice(sup), rng.choice(sup)) for _ in range(k)
    ))


# ---------------------------------------------------------------------------
# identities

def test_identity_relations():
    assert len(delta(U1).pairs) == 24
    assert i_eta(U1).pairs == frozenset({(X, X), (Y, Y)})
    assert i_sigma0(U1).pairs == frozenset({(ZERO, ZERO)})


def test_make_clips_and_counts():
    st = OpStats()
    deep = app("S", app("S", app("S", ZERO)))
    r = TermRel.make(U1, [(ZERO, deep), (X, Y)], st)
    assert r.pairs == frozenset({(X, Y)})
    assert st.dropped == 1


# ---------------------------------------------------------------------------
# compatible / sequential refinement

def test_tilde_golden():
    a = rel(U1, (X, Y))
    t = tilde(a)
    assert (app("S", X), app("S", Y)) in t.pairs
    assert (app("A", X, X), app("A", Y, Y)) in t.pairs
    assert (ZERO, ZERO) in t.pairs            # constants relate to themselves
    assert (X, Y) not in t.pairs              # never relates variables
    assert (app("A", X, ZERO), app("A", Y, ZERO)) not in t.pairs  # 0 not in a


def test_hat_adds_variable_identity():
    a = rel(U1, (X, Y))
    h = hat(a)
    assert (X, X) in h.pairs and (Y, Y) in h.pairs
    assert h.pairs == (tilde(a) | i_eta(U1)).pairs


def test_check_refine_golden():
    a = rel(U1, (X, Y))
    c = check_refine(a)
    assert (app("S", X), app("S", Y)) in c.pairs
    assert (app("A", X, ZERO), app("A", Y, ZERO)) in c.pairs
    # exactly one position moves: the doubly-changed pair is not included
    assert (app("A", X, X), app("A", Y, Y)) not in c.pairs
    assert (app("A", X, X), app("A", Y, X)) in c.pairs
    assert (app("A", X, X), app("A", X, Y)) in c.pairs


def test_check_is_derivative_of_delta():
    rng = random.Random(5)
    for _ in range(20):
        a = random_rel(U2, 1, 4, rng)
        assert check_refine(a).pairs == derivative(delta(U2), a).pairs


def test_tilde_is_derivative():
    rng = random.Random(6)
    for _ in range(20):
        a = random_rel(U2, 1, 4, rng)
        assert tilde(a).pairs == (derivative(a, a) | i_sigma0(U2)).pairs


def test_taylor_slices():
    rng = random.Random(7)
    for _ in range(20):
        a = random_rel(U2, 1, 4, rng)
        assert taylor(0, a).pairs == i_sigma0(U2).pairs
        joined = TermRel.bottom(U2)
        for n in range(SIG.max_arity() + 1):
            joined = joined | taylor(n, a)
        assert joined.pairs == tilde(a).pairs


def test_forward_backward_agree(monkeypatch):
    """The sparse backward implementations must agree with forward
    enumeration whenever both apply."""
    rng = random.Random(8)
    samples = [(random_rel(U2, 1, 4, rng), random_rel(U2, 1, 4, rng))
               for _ in range(10)]
    forward = [
        (tilde(a).pairs, derivative(a, b).pairs, taylor(2, a).pairs)
        for a, b in samples
    ]
    monkeypatch.setattr(tr, "FORWARD_CAP", 0)
    for (a, b), (tf, df, yf) in zip(samples, forward):
        assert tilde(a).pairs == tf
        assert derivative(a, b).pairs == df
        assert taylor(2, a).pairs == yf


# ---------------------------------------------------------------------------
# substitution

def test_ieta_subst_is_identity_action():
    rng = random.Random(9)
    for _ in range(20):
        b = random_rel(U2, 1, 4, rng)
        assert subst_rel(i_eta(U2), b).pairs == b.pairs


def test_subst_instantiates():
    a = rel(U2, (app("A", ZERO, X), X))   # the first arithmetic rule
    b = rel(U2, (app("S", ZERO), app("S", ZERO)))
    out = subst_rel(a, b)
    assert (app("A", ZERO, app("S", ZERO)), app("S", ZERO)) in out.pairs


def test_subst_occurring_vs_strict():
    ground = (ZERO, app("S", ZERO))
    a = rel(U2, ground, (app("S", X), X))
    empty = TermRel.bottom(U2)
    # occurring-variables reading: ground pairs survive an empty image set
    assert subst_rel(a, empty).pairs == frozenset({ground})
    # all-variables reading: nothing survives
    assert subst_rel(a, empty, strict=True).pairs == frozenset()


def test_subst_depth_filtering_counts_drops():
    st = OpStats()
    a = rel(U2, (app("S", app("S", X)), X))  # x sits at depth 2 on the left
    b = rel(U2, (app("S", ZERO), ZERO))      # image too deep for that slot
    out = subst_rel(a, b, st)
    assert out.pairs == frozenset()
    assert st.dropped == 1


def test_subst_delta_is_identity_on_delta():
    d = delta(U1)
    assert subst_rel(d, d).pairs == d.pairs


# ---------------------------------------------------------------------------
# closures, cross-validated against the inductive steppers

def test_sequential_closure_matches_stepper(arith):
    g = ground_instances(arith, U2)
    gs = sequential_closure(g)
    oracle = frozenset(
        (t, s) for t in U2.terms() for s in sequential_step(arith, t) if s in U2
    )
    assert gs.pairs == oracle


def test_parallel_closure_matches_stepper(arith):
    g = ground_instances(arith, U2)
    gp = parallel_closure(g)
    oracle = frozenset(
        (t, s) for t in U2.terms() for s in parallel_step(arith, t) if s in U2
    )
    assert gp.pairs == oracle


def test_full_closure_matches_stepper(arith):
    g = ground_instances(arith, U2)
    gh = full_closure(g)
    oracle = frozenset(
        (t, s) for t in U2.terms() for s in full_step(arith, t) if s in U2
    )
    assert gh.pairs == oracle


def test_full_closure_nonreflexive_variant(arith):
    g = ground_instances(arith, U2)
    strict = full_closure(g, reflexive=False)
    assert strict.leq(full_closure(g))
    assert (ZERO, ZERO) not in strict.pairs


def test_spectrum_inclusions_on_u2(arith):
    g = ground_instances(arith, U2)
    gs = sequential_closure(g)
    gp = parallel_closure(g)
    gh = full_closure(g)
    star = rt_closure(gs)
    assert gs.leq(gp) and gp.leq(gh) and gh.leq(star)
    assert rt_closure(gp).pairs == star.pairs
    assert rt_closure(gh).pairs == star.pairs


def test_full_closure_is_strictly_below_seq_star(arith):
    """One full step cannot chain two nested root contractions, so the
    one-step full relation is a proper subset of the sequential star.
    Witness: A(S(0),0) -> S(A(0,0)) -> S(0) needs two steps."""
    g = ground_instances(arith, U2)
    gh = full_closure(g)
    star = rt_closure(sequential_closure(g))
    peak = app("A", app("S", ZERO), ZERO)
    target = app("S", ZERO)
    assert (peak, target) in star.pairs
    assert (peak, target) not in gh.pairs


def test_trans_closure_and_star_contains():
    u = U1
    a = rel(u, (app("S", ZERO), ZERO), (ZERO, X))
    plus = trans_closure(a)
    assert (app("S", ZERO), X) in plus.pairs
    assert (app("S", ZERO), app("S", ZERO)) not in plus.pairs
    assert star_contains(a, app("S", ZERO), X)
    assert star_contains(a, X, X)
    assert not star_contains(a, X, ZERO)


# ---------------------------------------------------------------------------
# semi-naive closures against the naive iteration

def _naive_lfp(step, u):
    x = frozenset()
    while True:
        y = step(x)
        if y == x:
            return TermRel(u, x)
        x = y


def naive_closure(name, a, st):
    """The closures as the naive iteration computes them: the whole step is
    re-applied to the whole relation every round."""
    u = a.universe
    asucc = tr.successors(a)

    def full_step(reflexive):
        def step(x):
            out = set()
            for p, q in hat(TermRel(u, x), st).pairs:
                if reflexive:
                    out.add((p, q))
                out.update((p, r) for r in asucc.get(q, ()))
            return frozenset(out)
        return step

    steps = {
        "seq": lambda x: (a | check_refine(TermRel(u, x), st)).pairs,
        "par": lambda x: (a | hat(TermRel(u, x), st)).pairs,
        "full": full_step(True),
        "full-nonreflexive": full_step(False),
    }
    return _naive_lfp(steps[name], u)


CLOSURES = {
    "seq": sequential_closure,
    "par": parallel_closure,
    "full": full_closure,
    "full-nonreflexive": lambda a, st: full_closure(a, st, reflexive=False),
}


def _assert_matches_naive(a, names=tuple(CLOSURES)):
    """Same pairs and the same drop count as the naive iteration; returns
    the drops seen."""
    dropped = 0
    for name in names:
        ref_st, st = OpStats(), OpStats()
        ref = naive_closure(name, a, ref_st)
        got = CLOSURES[name](a, st)
        assert got.pairs == ref.pairs, name
        assert st.dropped == ref_st.dropped, name
        dropped += st.dropped
    return dropped


def test_closures_match_naive_with_drops():
    rng = random.Random(12)
    dropped = sum(_assert_matches_naive(random_rel(U2, 2, 4, rng))
                  for _ in range(6))
    assert dropped > 0


def test_closures_match_naive_on_explicit_closure(arith):
    from relrew.analysis import seed_terms
    from relrew.rewrite import reduction_graph
    from relrew.syntax import Universe

    g = reduction_graph(arith, list(seed_terms(arith, 2)), kind="full")
    u = Universe.from_terms(arith.signature, arith.variables, g.nodes)
    _assert_matches_naive(ground_instances(arith, u))


def test_closures_match_naive_backward(monkeypatch):
    rng = random.Random(13)
    samples = [random_rel(U2, 2, 3, rng) for _ in range(4)]
    monkeypatch.setattr(tr, "FORWARD_CAP", 0)
    dropped = sum(_assert_matches_naive(a, ("par", "full", "full-nonreflexive"))
                  for a in samples)
    assert dropped > 0


def test_closure_iteration_cap(monkeypatch):
    a = rel(U1, (X, Y))   # S(x) -> S(y) needs a second generation
    monkeypatch.setattr(tr, "MAX_LFP_ITER", 1)
    for closure in CLOSURES.values():
        with pytest.raises(RuntimeError):
            closure(a, None)
    assert sequential_closure(TermRel.bottom(U1)).pairs == frozenset()
