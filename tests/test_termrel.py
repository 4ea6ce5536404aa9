"""Differential operators on term relations, cross-validated against the
inductive steppers of the rewrite module and against each other."""

import os
import random
from itertools import product

import pytest

import relrew.relalg as relalg
import relrew.termrel as tr
from relrew.analysis import seed_terms
from relrew.relalg import Rel, lfp, reach, successors
from relrew.rewrite import (
    full_step,
    ground_instances,
    parallel_step,
    parse_trs,
    reduction_graph,
    root_reducts,
    sequential_step,
)
from relrew.syntax import (
    DEFAULT_UNIVERSE_CAP,
    Signature,
    Universe,
    UniverseError,
    app,
    apply_subst,
    free_vars,
    term_key,
    universe,
    var,
)
from relrew.termrel import (
    OpStats,
    check_refine,
    delta,
    derivative,
    full_closure,
    hat,
    i_eta,
    i_sigma0,
    parallel_closure,
    sequential_closure,
    subst_rel,
    taylor,
    tilde,
)

SIG = Signature({"0": 0, "S": 1, "A": 2, "M": 2})
VARS = ("x", "y")
U1 = universe(SIG, VARS, 1)
U2 = universe(SIG, VARS, 2)
# the same terms as U2, so the lift takes its explicit path over them
U2_EXPLICIT = Universe.from_terms(SIG, VARS, U2.terms())

X, Y, ZERO = var("x"), var("y"), app("0")


def rel(u, *pairs):
    return Rel(u, frozenset(pairs))


def random_rel(u, support_depth, k, rng):
    sup = u.terms_up_to(support_depth)
    return Rel(u, frozenset(
        (rng.choice(sup), rng.choice(sup)) for _ in range(k)
    ))


def skewed_rel(rng, k=4):
    """Pairs over U2 from depth <= 1 to depth <= 2: the constructions at
    their parents may escape the universe."""
    shallow, deep = U1.terms(), U2.terms()
    return Rel(U2, frozenset((rng.choice(shallow), rng.choice(deep))
                             for _ in range(k)))


# ---------------------------------------------------------------------------
# identities

def test_identity_relations():
    assert len(delta(U1).pairs) == 24
    assert i_eta(U1).pairs == frozenset({(X, X), (Y, Y)})
    assert i_sigma0(U1).pairs == frozenset({(ZERO, ZERO)})


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
        joined = Rel.bottom(U2)
        for n in range(SIG.max_arity() + 1):
            joined = joined | taylor(n, a)
        assert joined.pairs == tilde(a).pairs


# ---------------------------------------------------------------------------
# reference implementations: each operator with its own enumeration, as the
# module computed them before they shared one lift kernel


def ref_tilde(a, stats):
    constants = {(c, c) for c in a.carrier.constant_terms()}
    return ref_taylor(None, a, stats) | constants


def ref_check_refine(a, stats):
    u = a.carrier
    occurrences = {}
    for t in u.terms():
        for i, arg in enumerate(t.args):
            occurrences.setdefault(arg, []).append((t, i))
    out = set()
    for p, rs in successors(a.pairs).items():
        for t, i in occurrences.get(p, ()):
            head, tail = t.args[:i], t.args[i + 1:]
            for r in rs:
                s = app(t.name, *head, r, *tail)
                if s in u:
                    out.add((t, s))
                else:
                    stats.note()
    return out


def ref_derivative(a, b, stats):
    u = a.carrier
    out = set()
    asucc, bsucc = successors(a.pairs), successors(b.pairs)
    for t in u.terms():
        for i, arg in enumerate(t.args):
            pools = [asucc.get(x) for j, x in enumerate(t.args) if j != i]
            if not bsucc.get(arg) or not all(pools):
                continue
            for r in bsucc[arg]:
                for combo in product(*pools):
                    s = app(t.name, *combo[:i], r, *combo[i:])
                    if s in u:
                        out.add((t, s))
                    else:
                        stats.note()
    return out


def ref_taylor(n, a, stats):
    """All arguments related by ``a`` at operators of arity n, or of every
    arity >= 1 when n is None."""
    u = a.carrier
    if n == 0:
        return set(i_sigma0(u).pairs)
    out = set()
    succ = successors(a.pairs)
    for t in u.terms():
        if t.is_var or not t.args or n not in (None, len(t.args)):
            continue
        pools = [succ.get(arg) for arg in t.args]
        if not all(pools):
            continue
        for combo in product(*pools):
            s = app(t.name, *combo)
            if s in u:
                out.add((t, s))
            else:
                stats.note()
    return out


OPERATORS = {
    "tilde": (lambda a, b, st: tilde(a, st),
              lambda a, b, st: ref_tilde(a, st)),
    "check": (lambda a, b, st: check_refine(a, st),
              lambda a, b, st: ref_check_refine(a, st)),
    "derivative": (derivative, ref_derivative),
    "taylor1": (lambda a, b, st: taylor(1, a, st),
                lambda a, b, st: ref_taylor(1, a, st)),
    "taylor2": (lambda a, b, st: taylor(2, a, st),
                lambda a, b, st: ref_taylor(2, a, st)),
}


def test_explicit_and_depth_paths_agree():
    """The lift kernel's two paths, the occurrence index over an explicit
    universe and backward assembly over a depth universe, give the pairs
    and the drop counts of the per-operator reference enumerations on the
    same term set.  Right sides of depth 2 make constructions that escape
    the depth-2 universe."""
    rng = random.Random(8)
    samples = [(random_rel(U2, 1, 4, rng), random_rel(U2, 1, 4, rng))
               for _ in range(10)]
    samples += [(skewed_rel(rng), skewed_rel(rng)) for _ in range(10)]
    dropped = 0
    for k, (a, b) in enumerate(samples):
        for name, (op, ref) in OPERATORS.items():
            ref_st = OpStats()
            want = ref(a, b, ref_st)
            for u in (U2, U2_EXPLICIT):
                st = OpStats()
                got = op(Rel(u, a.pairs), Rel(u, b.pairs), st).pairs
                assert got == want, (u.explicit is None, name, k)
                assert st.dropped == ref_st.dropped, (u.explicit is None, name, k)
            dropped += ref_st.dropped
    assert dropped


def test_lift_membership_by_construction():
    """Over the depth-2 universe the lift keeps constructions of depth 2
    and drops, counting them, those of depth 3; over the explicit universe
    of the same terms it keeps and drops the same ones.  Either way it
    admits only pairs that pass the full membership check."""
    assert U2.explicit is None and U2_EXPLICIT.explicit is not None
    pairs = ((X, app("S", X)), (ZERO, app("S", app("S", ZERO))),
             (Y, app("A", Y, ZERO)))
    for u in (U2, U2_EXPLICIT):
        a = Rel(u, frozenset(pairs))
        for name, op in (("tilde", tilde), ("check", check_refine),
                         ("deriv", lambda r, st: derivative(r, r, st)),
                         ("taylor", lambda r, st: taylor(2, r, st))):
            st = OpStats()
            out = op(a, st).pairs
            key = (u.explicit is None, name)
            assert st.dropped, key
            assert any(max(p.depth, q.depth) == 2 for p, q in out), key
            for p, q in out:
                assert p in u and q in u, (key, p, q)


def test_check_refine_over_unmaterialisable_depth3_universe():
    """Identical siblings over a depth-3 universe too large to enumerate
    range over its depth-2 terms: 2 pairs at S, 2 x 1179 per position of A
    and M, and nothing escapes."""
    u3 = universe(SIG, VARS, 3)
    with pytest.raises(UniverseError, match=f"cap of {DEFAULT_UNIVERSE_CAP} "
                       "terms: 2781264 terms of depth <= 3"):
        u3.terms()
    st = OpStats()
    out = check_refine(rel(u3, (ZERO, app("S", ZERO)), (X, Y)), st)
    assert len(out.pairs) == 9434
    assert st.dropped == 0


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


def test_subst_by_empty_relates_nothing_over_declared_variables():
    """Over a universe that declares x and y no substitution is related
    to another by an empty relation, so a[Bot] is Bot, ground pairs of
    ``a`` included."""
    a = rel(U2, (ZERO, app("S", ZERO)), (app("S", X), X))
    st = OpStats()
    assert subst_rel(a, Rel.bottom(U2), st).pairs == frozenset()
    assert st.dropped == 0


def test_subst_by_empty_is_identity_without_variables():
    """Over a universe that declares no variable the empty substitution
    is related to itself by every relation, so a[Bot] is a."""
    u = universe(SIG, (), 2)
    a = random_rel(u, 2, 6, random.Random(11))
    st = OpStats()
    assert subst_rel(a, Rel.bottom(u), st) == a
    assert st.dropped == 0


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


def ref_subst(a, b):
    """a[b] by brute force: every assignment of a pair of ``b`` to each
    declared variable, instantiated and then checked with the full
    membership test.  A drop is an assignment to the occurring variables
    whose instantiation leaves the universe; the other variables never
    show up in a result, so it counts each such assignment once."""
    u = a.carrier
    out, dropped = set(), set()
    for t0, s0 in a.pairs:
        occurring = sorted(free_vars(t0) | free_vars(s0))
        vs = sorted(u.variables)
        for combo in product(b.pairs, repeat=len(vs)):
            sigma = {v: l for v, (l, _) in zip(vs, combo)}
            rho = {v: r for v, (_, r) in zip(vs, combo)}
            t, s = apply_subst(t0, sigma), apply_subst(s0, rho)
            if t in u and s in u:
                out.add((t, s))
            else:
                dropped.add((t0, s0) + tuple((sigma[v], rho[v])
                                             for v in occurring))
    return out, len(dropped)


def test_subst_matches_brute_force():
    """subst_rel, which filters each variable's images by the depth its
    occurrences leave them, gives the pairs and the drop count of the
    brute-force enumeration, over both kinds of universe, an empty ``b``
    included, and on pairs chosen for the column-wise instantiation's edge
    cases.  Over a sparse explicit universe an instantiation of fitting
    depth can still leave it, which is a drop."""
    rng = random.Random(10)
    samples = [(random_rel(U2, 1, 2, rng) | random_rel(U2, 2, 2, rng),
                random_rel(U2, 0, 2, rng) | random_rel(U2, rng.choice((1, 2)),
                                                   rng.choice((1, 3)), rng))
               for _ in range(30)]
    ground = rel(U2, (ZERO, app("S", ZERO)))  # removed by an empty b
    samples += [(random_rel(U2, 2, 3, rng) | ground, Rel.bottom(U2))
                for _ in range(3)]
    cases = [(a, b, (U2, U2_EXPLICIT)) for a, b in samples]
    sparse = Universe.from_terms(SIG, VARS, rng.sample(U2.terms(), 8))
    cases += [(random_rel(sparse, 2, 2, rng), random_rel(sparse, 1, 2, rng),
               (sparse,)) for _ in range(10)]
    # a variable repeated in one term, a variable on one side only, a
    # ground compound subterm, one variable at different depths in t and s
    S0, SX = app("S", ZERO), app("S", X)
    edge_b = rel(U2, (X, ZERO), (ZERO, S0), (Y, SX), (S0, app("A", ZERO, Y)),
                 (SX, X))
    cases += [(rel(U2, pair), edge_b, (U2, U2_EXPLICIT)) for pair in [
        (app("A", X, X), X), (app("M", Y, Y), app("A", Y, X)),
        (SX, ZERO), (ZERO, app("S", Y)),
        (app("A", S0, X), app("M", X, S0)), (app("A", S0, ZERO), Y),
        (app("S", SX), app("A", X, Y)), (X, app("M", SX, X))]]
    # f(x)[x := a] = f(a) has depth 1 but is not in {f(x), x, a}
    fx, a0 = app("f", X), app("a")
    tiny = Universe.from_terms(Signature({"a": 0, "f": 1}), ("x",), [fx, a0])
    cases.append((rel(tiny, (fx, fx)), rel(tiny, (a0, a0)), (tiny,)))
    dropped = {}
    for k, (a, b, us) in enumerate(cases):
        want, want_dropped = ref_subst(a, b)
        for u in us:
            st = OpStats()
            got = subst_rel(Rel(u, a.pairs), Rel(u, b.pairs), st)
            key = (u.explicit is None, k)
            assert got.pairs == want, key
            assert st.dropped == want_dropped, key
            dropped[u] = dropped.get(u, 0) + want_dropped
    assert dropped[U2] and dropped[sparse]
    assert not want and want_dropped == 1  # the tiny case


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


def test_spectrum_inclusions_on_u2(arith):
    g = ground_instances(arith, U2)
    gs = sequential_closure(g)
    gp = parallel_closure(g)
    gh = full_closure(g)
    star = gs.kleene_star()
    assert gs.leq(gp) and gp.leq(gh) and gh.leq(star)
    assert gp.kleene_star().pairs == star.pairs
    assert gh.kleene_star().pairs == star.pairs


def test_full_closure_is_strictly_below_seq_star(arith):
    """One full step cannot chain two nested root contractions, so the
    one-step full relation is a proper subset of the sequential star.
    Witness: A(S(0),0) -> S(A(0,0)) -> S(0) needs two steps."""
    g = ground_instances(arith, U2)
    gh = full_closure(g)
    star = sequential_closure(g).kleene_star()
    peak = app("A", app("S", ZERO), ZERO)
    target = app("S", ZERO)
    assert (peak, target) in star.pairs
    assert (peak, target) not in gh.pairs


def test_trans_closure_and_star_contains():
    u = U1
    a = rel(u, (app("S", ZERO), ZERO), (ZERO, X))
    plus = a.trans_closure()
    assert (app("S", ZERO), X) in plus.pairs
    assert (app("S", ZERO), app("S", ZERO)) not in plus.pairs
    star = a.kleene_star().pairs
    assert (app("S", ZERO), X) in star
    assert (X, X) in star
    assert (X, ZERO) not in star
    # x and y lie on a cycle, 0 only leads into it
    cyc = rel(u, (X, Y), (Y, X), (ZERO, X))
    plus = cyc.trans_closure()
    assert (X, X) in plus.pairs and (Y, Y) in plus.pairs
    assert (ZERO, ZERO) not in plus.pairs
    assert plus.pairs == {(X, X), (X, Y), (Y, X), (Y, Y), (ZERO, X), (ZERO, Y)}


def test_trans_closure_matches_relalg():
    """The searches behind a+ and a* against the least fixed points of
    x |-> a | a;x and x |-> Delta | a;x, on random relations over the
    depth-1 universe."""
    rng = random.Random(14)
    for k in (0, 3, 8, 20, 40):
        for _ in range(5):
            a = random_rel(U1, 1, k, rng)
            plus = lfp(lambda x: a | a.compose(x), Rel.bottom(U1))
            star = lfp(lambda x: delta(U1) | a.compose(x), Rel.bottom(U1))
            assert a.trans_closure() == plus
            assert a.kleene_star() == star


def test_reach_includes_seeds_and_follows_cycles():
    succ = {X: {Y}, Y: {ZERO}}
    assert reach(succ, (X,)) == {X, Y, ZERO}
    assert reach(succ, (ZERO,)) == {ZERO}
    assert reach(succ, (Y, ZERO)) == {Y, ZERO}
    assert reach({X: {Y}, Y: {X}}, (X,)) == {X, Y}


# ---------------------------------------------------------------------------
# semi-naive closures against the naive iteration

def naive_closure(name, a, st):
    """The closures as the naive iteration computes them: the whole step is
    re-applied to the whole relation every round."""
    u = a.carrier
    asucc = successors(a.pairs)

    def full_step(x):
        out = set()
        for p, q in hat(x, st).pairs:
            out.add((p, q))
            out.update((p, r) for r in asucc.get(q, ()))
        return Rel(u, frozenset(out))

    steps = {
        "seq": lambda x: a | check_refine(x, st),
        "par": lambda x: a | hat(x, st),
        "full": full_step,
    }
    return lfp(steps[name], Rel.bottom(u))


CLOSURES = {
    "seq": sequential_closure,
    "par": parallel_closure,
    "full": full_closure,
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


def test_semi_naive_builds_each_generation_once(monkeypatch):
    """Each generation's ``every`` is its ``old`` joined with ``new`` and is
    the next generation's ``old``, and no successor map a lift has seen
    changes afterwards."""
    lift, runs = tr._lift, []

    def recording(u, before, hot, after, stats, arity=None):
        maps = (before, hot, after)
        runs[-1].append((maps, [{p: set(qs) for p, qs in m.items()}
                                for m in maps]))
        return lift(u, before, hot, after, stats, arity)

    monkeypatch.setattr(tr, "_lift", recording)
    rng = random.Random(14)
    for _ in range(3):
        a = random_rel(U2, 1, 4, rng)
        for closure in (parallel_closure, full_closure):
            runs.append([])
            closure(a)
    assert all(len(run) > 1 for run in runs)
    for run in runs:
        for k, ((before, hot, after), snapshot) in enumerate(run):
            assert [before, hot, after] == snapshot
            assert after == {p: before.get(p, set()) | hot.get(p, set())
                             for p in before.keys() | hot.keys()}
            if k:
                assert before is run[k - 1][0][2]


def test_closures_agree_on_explicit_and_depth_universes():
    """Each closure gives the same pairs and drop count over U2 as over
    the explicit universe of the same terms."""
    rng = random.Random(13)
    dropped = 0
    for _ in range(4):
        pairs = skewed_rel(rng, 3).pairs
        for name, closure in CLOSURES.items():
            seen = set()
            for u in (U2, U2_EXPLICIT):
                st = OpStats()
                seen.add((closure(Rel(u, pairs), st).pairs, st.dropped))
            assert len(seen) == 1, name
            dropped += st.dropped
    assert dropped > 0


def test_closure_iteration_cap(monkeypatch):
    a = rel(U1, (X, Y))   # S(x) -> S(y) needs a second generation
    monkeypatch.setattr(relalg, "MAX_LFP_ITER", 1)
    for closure in CLOSURES.values():
        with pytest.raises(RuntimeError):
            closure(a, None)
    with pytest.raises(RuntimeError):
        naive_closure("seq", a, None)
    assert sequential_closure(Rel.bottom(U1)).pairs == frozenset()


# ---------------------------------------------------------------------------
# closures over an explicit universe in one pass by depth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYSTEMS = ("tests/data/newman.trs", "tests/data/twocycle.trs",
           "tests/data/selfloop.trs", "perfbench/data/nonconfluent.trs")


def _systems(arith):
    out = [arith]
    for path in SYSTEMS:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            out.append(parse_trs(f.read()))
    return out


def _closure_universe(trs, seeds, bound=None):
    """The explicit universe of the full-step closure of ``seeds``, cut off
    after ``bound`` layers if given."""
    g = reduction_graph(trs, list(seeds), kind="full", bound=bound)
    return Universe.from_terms(trs.signature, trs.variables, g.nodes)


def test_one_pass_on_closed_closures(arith, monkeypatch):
    """A full-step closure is closed under all three steps, so over its
    universe each closure is taken in one pass by depth: generations never
    run, nothing is dropped, and the pairs are the naive iteration's."""

    def no_generations(*args):
        raise AssertionError("semi-naive generations ran")

    monkeypatch.setattr(tr, "_semi_naive", no_generations)
    for trs in _systems(arith):
        u = _closure_universe(trs, seed_terms(trs, 2))
        assert _assert_matches_naive(ground_instances(trs, u)) == 0


def test_one_pass_falls_back_to_generations(arith, monkeypatch):
    """Over a universe that a construction leaves, each closure stops its
    one pass at the first built term outside and is evaluated by the
    generations once, with the naive iteration's pairs and drop count.
    The cases: sparse universes, the universe of a closure cut off after
    one layer, and a hand-made one whose first escape is built at depth 1,
    after the rows of depth 0."""
    semi_naive, by_depth, calls, stopped = tr._semi_naive, tr._by_depth, [], []

    def counting(u, *args):
        calls.append(u)
        return semi_naive(u, *args)

    def recording(u, row):
        def watched(t, rows):
            r = row(t, rows)
            if r is None:
                stopped.append((t, len(rows)))
            return r
        return by_depth(u, watched)

    monkeypatch.setattr(tr, "_semi_naive", counting)
    monkeypatch.setattr(tr, "_by_depth", recording)
    rng = random.Random(15)
    cases = []
    for _ in range(6):
        sparse = Universe.from_terms(SIG, VARS, rng.sample(U2.terms(), 8))
        cases.append(Rel(sparse, random_rel(sparse, 2, 4, rng).pairs))
    cut = _closure_universe(arith, seed_terms(arith, 2), bound=1)
    cases.append(ground_instances(arith, cut))
    a00 = app("A", ZERO, ZERO)
    tiny = Universe.from_terms(SIG, VARS, [app("S", a00)])
    cases.append(rel(tiny, (ZERO, a00)))
    fell_back = []
    for k, a in enumerate(cases):
        for name, closure in CLOSURES.items():
            del calls[:], stopped[:]
            ref_st, st = OpStats(), OpStats()
            got = closure(a, st)
            assert got.pairs == naive_closure(name, a, ref_st).pairs, (k, name)
            assert st.dropped == ref_st.dropped, (k, name)
            # a construction leaves the universe exactly when one drops
            assert calls == [a.carrier] * (st.dropped > 0), (k, name)
            assert len(stopped) == len(calls), (k, name)
            if calls:
                fell_back.append(k)
    assert set(fell_back) > {len(cases) - 2, len(cases) - 1}
    assert fell_back.count(len(cases) - 1) == 3
    # on the hand-made universe each closure stops at A(0,0), whose
    # constructions A(A(0,0),0) and A(0,A(0,0)) leave it, after the row of 0
    assert stopped == [(a00, 1)]


def test_closure_path_never_sorts_or_indexes(arith):
    """Reduction graph, explicit universe, root-step relation and the three
    closures neither sort the universe nor build its occurrence index.  The
    root-step relation and its drop count are those of a walk in
    ``term_key`` order, on the closure of the depth-3 seeds and on a
    cut-off closure of twocycle, whose frontier b and d step to c and e
    outside it."""
    u = _closure_universe(arith, seed_terms(arith, 3))
    stats = OpStats()
    ground = ground_instances(arith, u, stats)
    for closure in CLOSURES.values():
        closure(ground, stats)
    assert "_explicit_sorted" not in u.__dict__
    assert "occurrences" not in u.__dict__
    assert stats.dropped == 0
    twocycle = _systems(arith)[2]
    cut = _closure_universe(twocycle, [app("f", app("a"))], bound=1)
    for trs, v, want_dropped in ((arith, u, 0), (twocycle, cut, 2)):
        pairs, st = set(), OpStats()
        for t in sorted(v.explicit, key=term_key):
            for _, r in root_reducts(trs, t):
                if r in v:
                    pairs.add((t, r))
                else:
                    st.note()
        got_st = OpStats()
        assert ground_instances(trs, v, got_st).pairs == pairs
        assert got_st.dropped == st.dropped == want_dropped


def test_one_pass_mutant_caught(arith, deepest_first):
    """Terms taken by decreasing depth read their arguments' rows before
    they are built; the naive comparison on arith's closure catches it in
    each closure."""
    a = ground_instances(arith, _closure_universe(arith, seed_terms(arith, 2)))
    for name, closure in CLOSURES.items():
        assert closure(a).pairs != naive_closure(name, a, None).pairs, name
