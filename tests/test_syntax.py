"""Signatures, terms, parsing, matching, and finite universes."""

import gc
import inspect
import pathlib
import random
import re
import weakref
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relrew.analysis as an
import relrew.cli as cli
import relrew.laws as laws
import relrew.relalg as relalg
import relrew.rewrite as rw
import relrew.syntax as syntax
import relrew.termrel as tr
from relrew.relalg import Rel
from relrew.rewrite import parse_trs
from relrew.syntax import (
    MAX_TERM_DEPTH,
    Signature,
    Term,
    TermError,
    Universe,
    UniverseError,
    _Applications,
    _Variables,
    app,
    apply_subst,
    format_term,
    free_vars,
    gc_paused,
    is_well_formed,
    make,
    make_all,
    match,
    parse_term,
    subterms,
    term_key,
    universe,
    var,
)
from relrew.termrel import check_refine, subst_rel, tilde

SIG = Signature({"0": 0, "S": 1, "A": 2, "M": 2})
VARS = ("x", "y")


def terms_strategy(max_depth=3):
    base = st.sampled_from([var("x"), var("y"), app("0")])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(lambda a: app("S", a), kids),
            st.builds(lambda a, b: app("A", a, b), kids, kids),
            st.builds(lambda a, b: app("M", a, b), kids, kids),
        ),
        max_leaves=2 ** max_depth,
    )


# ---------------------------------------------------------------------------
# terms and interning

def test_terms_are_interned():
    assert app("S", app("0")) is app("S", app("0"))
    assert var("x") is var("x")
    assert var("x") is not app("x")


def test_depth_and_size():
    t = app("M", app("S", var("x")), app("0"))
    assert t.depth == 2
    assert var("x").depth == 0
    assert app("0").depth == 0
    assert len(list(subterms(t))) == 4


def test_free_vars():
    t = app("A", app("S", var("x")), var("y"))
    assert free_vars(t) == frozenset({"x", "y"})
    assert free_vars(app("0")) == frozenset()


def test_subterms():
    t = app("S", app("S", app("0")))
    assert len(list(subterms(t))) == 3


def _reference_key(t):
    """The sort key rebuilt from the term's structure on every call."""
    return (t.depth, t.is_var, t.name, tuple(_reference_key(a) for a in t.args))


def _right_nested(depth, leaf):
    """``A(0,A(0,...leaf))`` of the given depth."""
    t = leaf
    for _ in range(depth):
        t = app("A", app("0"), t)
    return t


def test_term_key_matches_reference():
    """Every term's cached key is the recursive structural key, holds its
    arguments' keys by reference, and orders terms as ``term_key`` does."""
    root = pathlib.Path(__file__).parent.parent / "perfbench" / "data"
    ts = []
    for name in ("arith.trs", "nonconfluent.trs"):
        trs = parse_trs((root / name).read_text())
        ts.extend(universe(trs.signature, trs.variables, 2).terms())
    deep = _right_nested(MAX_TERM_DEPTH, app("0"))
    assert deep.depth == MAX_TERM_DEPTH
    ts.extend(subterms(deep))
    for t in ts:
        assert t.key == _reference_key(t)
        assert term_key(t) is t.key
        for a, k in zip(t.args, t.key[3]):
            assert k is a.key
    assert sorted(ts) == sorted(ts, key=term_key) == sorted(ts, key=_reference_key)


def test_deep_terms_compare_without_recursion_error():
    lo = _right_nested(MAX_TERM_DEPTH, app("0"))
    hi = _right_nested(MAX_TERM_DEPTH, app("1"))
    assert lo < hi and not hi < lo
    assert (_reference_key(lo) < _reference_key(hi)) == (lo < hi)


# ---------------------------------------------------------------------------
# parsing and formatting

def test_parse_format_round_trip():
    text = "M(M(0,0),A(S(x),y))"
    t = parse_term(text, SIG, VARS)
    assert format_term(t) == text
    assert parse_term(format_term(t), SIG, VARS) is t


@given(terms_strategy())
@settings(max_examples=100, deadline=None)
def test_parse_inverts_format(t):
    assert parse_term(format_term(t), SIG, VARS) is t


@pytest.mark.parametrize("bad", [
    "A(0)",          # arity mismatch
    "A(0,0,0)",      # arity mismatch
    "B(0,0)",        # unknown name
    "A(0,",          # truncated
    "",              # empty
    "A(0,0) junk",   # trailing garbage
])
def test_parse_errors(bad):
    with pytest.raises(TermError):
        parse_term(bad, SIG, VARS)


PARSE_ERRORS = [
    ("A(0)", "operator 'A' expects 2 arguments, got 1"),
    ("A(0,0,0)", "operator 'A' expects 2 arguments, got 3"),
    ("B(0,0)", "unknown operator 'B'"),
    ("x(0)", "unknown operator 'x'"),
    ("S()", "operator 'S' expects 1 arguments, got 0"),
    ("S", "operator 'S' needs arguments"),
    ("z", "unknown name 'z' (not an operator or declared variable)"),
    ("", "expected a name at position 0 in ''"),
    ("(0)", "expected a name at position 0 in '(0)'"),
    ("A(0,", "expected a name at position 4 in 'A(0,'"),
    ("A(,0)", "expected a name at position 2 in 'A(,0)'"),
    ("S(#)", "expected a name at position 2 in 'S(#)'"),
    ("A(0 0)", "expected ',' or ')' at position 4 in 'A(0 0)'"),
    ("A(0,0", "expected ',' or ')' at position 5 in 'A(0,0'"),
    ("A(0,0) junk", "trailing input at position 7 in 'A(0,0) junk'"),
    ("  S( 0 ) ) ", "trailing input at position 7 in 'S( 0 ) )'"),
    ("M(x,y)z", "trailing input at position 6 in 'M(x,y)z'"),
    ("S(" * 201 + "0" + ")" * 201, "term nested deeper than 200 at position 402"),
    ("S(" * 250 + "0", "term nested deeper than 200 at position 402"),
]


@pytest.mark.parametrize("bad,message", PARSE_ERRORS)
def test_parse_error_messages(bad, message):
    """Each parse error names what went wrong and, where it has one, the
    position in the stripped text."""
    with pytest.raises(TermError) as err:
        parse_term(bad, SIG, VARS)
    assert str(err.value) == message


def test_parse_leaves_no_cycle():
    """Parses, failing ones included, leave nothing for the cyclic
    collector; the parser's functions are module-level, so no call makes
    closures that refer to each other."""
    text = " A ( S(0) , M(x, y) ) "
    assert parse_term(text, SIG, VARS) is parse_term(
        "A(S(0),M(x,y))", SIG, VARS)
    deep = "S(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH

    def parses():
        for _ in range(100):
            parse_term(text, SIG, VARS)
            parse_term(deep, SIG, VARS)
            for bad, _message in PARSE_ERRORS:
                with pytest.raises(TermError):
                    parse_term(bad, SIG, VARS)

    assert _cyclic_garbage(parses) == 0


def test_well_formed():
    assert is_well_formed(app("A", app("0"), var("x")), SIG, VARS)
    assert not is_well_formed(app("A", app("0")), SIG, VARS)
    assert not is_well_formed(var("z"), SIG, VARS)


# ---------------------------------------------------------------------------
# matching and substitution

def test_match_simple():
    pat = app("A", app("0"), var("x"))
    sub = app("A", app("0"), app("S", app("0")))
    assert match(pat, sub) == {"x": app("S", app("0"))}


def test_match_nonlinear():
    pat = app("A", var("x"), var("x"))
    assert match(pat, app("A", app("0"), app("0"))) == {"x": app("0")}
    assert match(pat, app("A", app("0"), app("S", app("0")))) is None


def test_match_failure():
    assert match(app("S", var("x")), app("0")) is None


@given(terms_strategy(2))
@settings(max_examples=50, deadline=None)
def test_match_after_subst(t):
    """Instantiating a pattern and matching it back recovers the images."""
    pat = app("A", var("x"), app("S", var("y")))
    sigma = {"x": t, "y": app("0")}
    inst = apply_subst(pat, sigma)
    assert match(pat, inst) == sigma


@pytest.mark.parametrize("name", ["□", "", "f(x)", "a b"])
def test_signature_rejects_bad_names(name):
    with pytest.raises(TermError):
        Signature({name: 0})


# ---------------------------------------------------------------------------
# universes

def test_universe_sizes_small():
    # depth 0: x, y, 0.  depth 1 adds S/A/M applications of those:
    # 3 + 3 + 9 + 9 = 24.  depth 2: 24 + 24 + 576 + 576 = 1200, minus the
    # 21 applications already counted at depth 1: 1179.
    assert len(universe(SIG, VARS, 0).terms()) == 3
    assert len(universe(SIG, VARS, 1).terms()) == 24
    assert len(universe(SIG, VARS, 2).terms()) == 1179


def test_universe_size_matches_enumeration():
    """Each level is the leaves plus every application over the level
    below, with no term twice: a set-based reference gives the same
    terms."""
    leaves = {var("x"), var("y"), app("0")}
    ref = leaves
    for d in range(3):
        if d:
            ref = leaves | {make(name, args) for name, ar in SIG.operators()
                            for args in product(ref, repeat=ar)}
        ts = universe(SIG, VARS, d).terms()
        assert len(set(ts)) == len(ts)
        assert set(ts) == ref


def test_universe_depth3_size():
    """The depth-3 open universe is far too large to materialize; it is
    refused before its last level is built, with that level's size."""
    with pytest.raises(UniverseError, match=r"depth 3 .* cap of 500000 "
                       r"terms: 2781264 terms of depth <= 3"):
        universe(SIG, VARS, 3).terms()


def test_universe_deeper_than_max_term_depth():
    """A depth universe deeper than any term ``parse_term`` accepts is
    refused on construction, before it is enumerated; an explicit universe
    is not."""
    unary = Signature({"0": 0, "S": 1})
    assert len(universe(unary, ("x",), MAX_TERM_DEPTH).terms()) == \
        2 * MAX_TERM_DEPTH + 2
    with pytest.raises(UniverseError, match=f"limit of {MAX_TERM_DEPTH}"):
        universe(unary, ("x",), MAX_TERM_DEPTH + 1)
    deep = app("0")
    for _ in range(MAX_TERM_DEPTH + 1):
        deep = app("S", deep)
    assert Universe.from_terms(unary, (), [deep]).depth == MAX_TERM_DEPTH + 1


def test_universe_membership():
    u = universe(SIG, VARS, 1)
    assert app("S", var("x")) in u
    assert app("S", app("S", var("x"))) not in u
    assert var("z") not in u


def test_universe_terms_sorted_deterministic():
    u = universe(SIG, VARS, 2)
    ts = u.terms()
    assert list(ts) == sorted(ts, key=term_key)
    assert ts == universe(SIG, VARS, 2).terms()


def test_explicit_universe_subterm_closure():
    t = app("M", app("S", var("x")), app("0"))
    u = Universe.from_terms(SIG, VARS, [t])
    assert t in u
    assert app("S", var("x")) in u
    assert var("x") in u
    assert app("0") in u
    assert var("y") not in u
    # the sorted terms and the occurrence index are computed once and do
    # not take part in equality or hashing
    assert u.terms() is u.terms()
    assert u.occurrences[app("0")] == ((t, 1),)
    twin = Universe.from_terms(SIG, VARS, [t])
    assert twin == u and hash(twin) == hash(u)


def test_universe_repeated_variables_count_once():
    """A repeated variable name is one variable: the size that decides the
    universe cap counts the terms the universe enumerates."""
    u = universe(SIG, ("x", "x"), 2)
    assert u.variables == ("x",)
    assert u.terms() == universe(SIG, ("x",), 2).terms()
    assert len(u.terms()) == 2 + 12 + 2 * 12 ** 2  # leaves x, 0; S, A, M
    assert len(Universe(SIG, ("x", "x"), 1).terms()) == 12
    t = app("S", var("x"))
    assert Universe.from_terms(SIG, ["x", "x"], [t]) == \
        Universe.from_terms(SIG, ["x"], [t])


ILL_FORMED = [(app("S", app("A", app("0"))), "A(0)"),
              (app("M", app("S", var("z")), app("0")), "z"),
              (app("B"), "B")]


@pytest.mark.parametrize("bad", [bad for bad, _ in ILL_FORMED])
def test_from_terms_rejects_ill_formed(bad):
    good = app("A", app("0"), var("x"))
    with pytest.raises(TermError, match="not well-formed here"):
        Universe.from_terms(SIG, VARS, [good, bad])


@pytest.mark.parametrize("bad, offender", ILL_FORMED)
def test_from_terms_names_the_offending_subterm(bad, offender):
    """The message names the ill-formed subterm, not a term around it."""
    with pytest.raises(TermError, match=f"^term {re.escape(offender)} is not"):
        Universe.from_terms(SIG, VARS, [bad])


def test_make_is_the_interned_application():
    """``make`` returns the one interned term, whether or not it existed."""
    args = (var("x"), app("0"))
    assert "make-new" not in Term._intern.apps
    new = make("make-new", args)
    assert new is Term("make-new", args) is make("make-new", args)
    assert Term._intern.apps["make-new"] == {args: new}
    old = Term("make-old", args)
    assert make("make-old", args) is old
    assert make("x", ()) is not var("x")
    assert not make("x", ()).is_var


def test_make_all_matches_make():
    """``make_all`` gives ``make``'s terms in order, over a generator that
    mixes applications already interned with new ones, and builds nothing
    until it is consumed."""
    x, zero = var("x"), app("0")
    old = make("make-all", (x, zero))
    new_args = [(zero, zero), (x, x), (zero, x)]
    assert not any(a in Term._intern.apps["make-all"] for a in new_args)
    arg_tuples = [(x, zero), new_args[0], (x, zero), new_args[1], new_args[0],
                  new_args[2], (x, zero)]
    size = len(Term._intern)
    lazy = make_all("make-all", (a for a in arg_tuples))
    assert len(Term._intern) == size
    got = list(lazy)
    assert len(Term._intern) == size + len(new_args)
    want = [make("make-all", a) for a in arg_tuples]
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    assert got[0] is got[2] is got[6] is old and got[1] is got[4]
    assert list(make_all("make-all", iter(()))) == []


def test_variable_with_arguments_is_not_interned():
    """A variable with arguments is an error, and the failed build leaves
    no entry in the intern table."""
    t = app("0")
    size, variables = len(Term._intern), dict(Term._intern.vars)
    with pytest.raises(TermError, match="variables take no arguments"):
        Term("x", (t,), True)
    assert Term._intern.vars == variables
    assert (t,) not in Term._intern.apps.get("x", {})
    assert len(Term._intern) == size


def test_interned_applications_make_no_class_call(arith, monkeypatch):
    """Rebuilding applications that are already interned, through
    ``make``, ``make_all``, ``app``, ``apply_subst``, ``subst_rel`` and both
    universe kinds of the congruence lift, and the steppers, never misses
    the intern table, so no term is built twice."""
    x, zero = var("x"), app("0")
    t = app("M", app("S", x), app("A", zero, x))
    rels = [Rel(u, frozenset({(x, zero), (zero, x)}))
            for u in (universe(SIG, VARS, 2),
                      Universe.from_terms(SIG, VARS, [t]))]
    subst = [Rel(r.carrier, frozenset({(t, app("S", x)), (app("S", x), x)}))
             for r in rels]

    def build():
        return (make("A", (zero, x)), app("S", x),
                list(make_all("A", [(zero, x), (x, x)])),
                apply_subst(t, {"x": zero}),
                [check_refine(r) for r in rels], [tilde(r) for r in rels],
                [subst_rel(a, r) for a, r in zip(subst, rels)],
                rw.sequential_step.__wrapped__(arith, t),
                rw.parallel_step.__wrapped__(arith, t),
                rw.full_step.__wrapped__(arith, t))

    first = build()  # interns every application built
    assert all(out.pairs for out in first[6])
    misses = []
    app_missing = _Applications.__missing__
    var_missing = _Variables.__missing__

    def app_counted(self, args):
        misses.append((self.name, args))
        return app_missing(self, args)

    def var_counted(self, name):
        misses.append(name)
        return var_missing(self, name)

    monkeypatch.setattr(_Applications, "__missing__", app_counted)
    monkeypatch.setattr(_Variables, "__missing__", var_counted)
    assert build() == first
    assert misses == []
    make("interned-miss", (zero,))  # the counters do see a miss
    var("interned-miss")
    assert misses == [("interned-miss", (zero,)), "interned-miss"]


_fresh = count()


def test_intern_table_counts_each_new_term_once():
    """``len(Term._intern)`` is the number of interned terms: it rises by
    exactly one for a new variable, a new application of a known operator
    and an application of a new operator, and not at all on a hit.  Two
    operators applied to one argument tuple are two terms, as are an
    application and a variable of one name.  Names are fresh on each call,
    so every term here is new when the test starts."""
    n = next(_fresh)
    size = len(Term._intern)
    z = var(f"z{n}")
    assert len(Term._intern) == size + 1
    a = make("A", (z, z))
    assert len(Term._intern) == size + 2
    m = make("M", (z, z))
    assert len(Term._intern) == size + 3
    assert m is not a and (a.name, m.name) == ("A", "M")
    f = make(f"f{n}", (z,))
    assert len(Term._intern) == size + 4
    leaf = make(f"z{n}", ())
    assert len(Term._intern) == size + 5
    assert leaf is not z and not leaf.is_var and z.is_var
    hits = (var(f"z{n}"), make("A", (z, z)), app("M", z, z),
            Term(f"f{n}", (z,)), app(f"z{n}"), Term(f"z{n}", (), True))
    assert all(h is t for h, t in zip(hits, (z, a, m, f, leaf, z)))
    assert len(Term._intern) == size + 5


def test_shared_argument_table_mutant_caught(shared_argument_table):
    """One table keyed by argument tuple alone, across operators, hands
    ``M(z,z)`` the term ``A(z,z)``; the count test catches it."""
    with pytest.raises(AssertionError):
        test_intern_table_counts_each_new_term_once()


def test_occurrences_walk_the_term_set():
    """Building the occurrence index of an explicit universe leaves its
    sorted term tuple unbuilt, and each term's (parent, position) entries,
    with no repeats, are those of a walk of the sorted terms."""
    u = Universe.from_terms(SIG, VARS, universe(SIG, VARS, 2).terms()[::37])
    occ = u.occurrences
    assert "_explicit_sorted" not in u.__dict__
    want = {}
    for t in sorted(u.explicit, key=term_key):
        for i, a in enumerate(t.args):
            want.setdefault(a, set()).add((t, i))
    assert len(want) > 10
    assert all(len(set(ps)) == len(ps) for ps in occ.values())
    assert {t: set(ps) for t, ps in occ.items()} == want


# ---------------------------------------------------------------------------
# reference cycles and the collector pause

def ref_match(pattern, subject):
    """The recursive matcher ``match`` replaced, which left a function/cell
    cycle per call."""
    subst = {}

    def go(p, s):
        if p.is_var:
            bound = subst.get(p.name)
            if bound is None:
                subst[p.name] = s
                return True
            return bound is s
        if s.is_var or p.name != s.name or len(p.args) != len(s.args):
            return False
        return all(go(pa, sa) for pa, sa in zip(p.args, s.args))

    return subst if go(pattern, subject) else None


def _random_term(rng, depth, leaves):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    name, arity = rng.choice((("S", 1), ("A", 2), ("M", 2)))
    return app(name, *(_random_term(rng, depth - 1, leaves)
                       for _ in range(arity)))


def test_match_agrees_with_recursive_reference():
    """On seeded patterns, against their instances and against unrelated
    terms, ``match`` gives the recursive matcher's answer, with the
    substitution's keys in the same order."""
    rng = random.Random(31)
    pattern_leaves = [var(v) for v in "xyzuv"] + [app("0")]
    subject_leaves = [var("x"), var("y"), app("0")]
    hits = misses = 0
    for _ in range(2000):
        pat = _random_term(rng, 3, pattern_leaves)
        if rng.random() < 0.5:
            sigma = {v: _random_term(rng, 2, subject_leaves)
                     for v in sorted(free_vars(pat))}
            subject = apply_subst(pat, sigma)
        else:
            subject = _random_term(rng, 4, subject_leaves)
        want, got = ref_match(pat, subject), match(pat, subject)
        assert got == want, (format_term(pat), format_term(subject))
        if want is None:
            misses += 1
        else:
            hits += 1
            assert list(got) == list(want)
            assert apply_subst(pat, got) is subject
    assert hits > 500 and misses > 500


def _cyclic_garbage(run):
    """How many unreachable objects a cyclic collection finds after
    ``run``, with the collector off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_match_leaves_no_cycle(arith):
    """A thousand matching and a thousand failing ``match`` calls, and
    ``ground_instances`` on a depth-1 universe, leave nothing for the
    cyclic collector, which finds the recursive matcher's cycles."""
    pat = app("A", app("S", var("x")), var("y"))
    hit = app("A", app("S", app("0")), app("S", app("0")))
    miss = app("A", app("0"), app("S", app("0")))
    assert match(pat, hit) is not None and match(pat, miss) is None
    assert _cyclic_garbage(lambda: ref_match(pat, hit)) > 0

    def calls():
        for _ in range(1000):
            match(pat, hit)
            match(pat, miss)

    assert _cyclic_garbage(calls) == 0
    u = universe(arith.signature, arith.variables, 1)
    assert rw.ground_instances(arith, u).pairs
    assert _cyclic_garbage(lambda: [rw.ground_instances(arith, u)
                                    for _ in range(100)]) == 0


PAUSED = gc_paused(lambda: None).__code__


def _paused_functions():
    """Every function of the package that ``gc_paused`` wraps, by
    qualified name."""
    found = {}
    for module in (syntax, relalg, rw, tr, an, laws, cli):
        for name, f in vars(module).items():
            if (getattr(f, "__code__", None) is PAUSED
                    and f.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = f
    return found


def test_paused_entry_points_are_not_generators():
    """The heavy entry points, and only they, pause the collector, and
    none is a generator function, whose body would run after the pause."""
    found = _paused_functions()
    assert set(found) == {
        "relrew.analysis.seed_terms", "relrew.analysis.spectrum_survey",
        "relrew.analysis.exhaustive_weak_confluence",
        "relrew.analysis.exhaustive_confluence",
        "relrew.analysis.exhaustive_church_rosser",
        "relrew.analysis.check_cp", "relrew.rewrite.reduction_graph",
        "relrew.rewrite.ground_instances",
        "relrew.termrel.sequential_closure", "relrew.termrel.parallel_closure",
        "relrew.termrel.full_closure", "relrew.laws._run_entries",
        "relrew.cli.main"}
    for f in found.values():
        assert not inspect.isgeneratorfunction(f.__wrapped__), f


def _entry_point_calls(arith, arith_file):
    """One small call of each paused entry point."""
    seeds = an.seed_terms(arith, 1)[::3]
    u = Universe.from_terms(arith.signature, arith.variables,
                            rw.reduction_graph(arith, seeds).nodes)
    ground = rw.ground_instances(arith, u)
    cfg = laws.SampleConfig(samples=2)
    return {
        "relrew.analysis.seed_terms": lambda: an.seed_terms(arith, 1),
        "relrew.analysis.spectrum_survey": lambda: an.spectrum_survey(
            arith, seeds),
        "relrew.analysis.exhaustive_weak_confluence":
            lambda: an.exhaustive_weak_confluence(arith, seeds),
        "relrew.analysis.exhaustive_confluence":
            lambda: an.exhaustive_confluence(arith, seeds),
        "relrew.analysis.exhaustive_church_rosser":
            lambda: an.exhaustive_church_rosser(arith, seeds),
        "relrew.analysis.check_cp": lambda: an.check_cp(arith, 1),
        "relrew.rewrite.reduction_graph": lambda: rw.reduction_graph(
            arith, seeds, "full"),
        "relrew.rewrite.ground_instances": lambda: rw.ground_instances(
            arith, u),
        "relrew.termrel.sequential_closure":
            lambda: tr.sequential_closure(ground),
        "relrew.termrel.parallel_closure":
            lambda: tr.parallel_closure(ground),
        "relrew.termrel.full_closure": lambda: tr.full_closure(ground),
        "relrew.laws._run_entries": lambda: laws.run_termrel_law_suite(
            cfg, ["tilde-compose"]),
        "relrew.cli.main": lambda: cli.main(
            ["analyze", arith_file, "cp", "--depth", "1"]),
    }


@pytest.fixture
def odd_thresholds():
    """Collector thresholds no caller would leave, restored afterwards."""
    before = gc.get_threshold()
    gc.set_threshold(1234, 11, 12)
    try:
        yield (1234, 11, 12)
    finally:
        gc.set_threshold(*before)
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_points_leave_the_collector_as_found(
        arith, arith_file, odd_thresholds, enabled, capsys):
    """After each paused entry point returns, the collector is on or off
    as the caller left it, with the caller's thresholds."""
    calls = _entry_point_calls(arith, arith_file)
    assert set(calls) == set(_paused_functions())
    (gc.enable if enabled else gc.disable)()
    for name, call in calls.items():
        call()
        assert gc.isenabled() is enabled, name
        assert gc.get_threshold() == odd_thresholds, name


def test_paused_scope_restores_the_collector_on_raise(
        arith_file, odd_thresholds, capsys):
    """An exception inside a paused scope leaves the collector on again:
    a bad term or a missing file raised inside ``cli.main``, and an
    exception out of a paused function."""
    assert gc.isenabled()
    assert cli.main(["reduce", arith_file, "Q(0)"]) == cli.EXIT_INPUT
    assert cli.main(["reduce", "/nonexistent.trs", "0"]) == cli.EXIT_INPUT
    assert gc.isenabled() and gc.get_threshold() == odd_thresholds

    @gc_paused
    def boom():
        assert not gc.isenabled()
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        boom()
    assert gc.isenabled() and gc.get_threshold() == odd_thresholds
    gc.disable()
    with pytest.raises(RuntimeError, match="boom"):
        boom()
    assert not gc.isenabled()


def test_collector_off_inside_paused_scopes(arith, monkeypatch):
    """Inside ``ground_instances`` and a law run the collector is off; the
    root reducts and the law runner see it so."""
    seen = []
    root_reducts = rw.root_reducts

    def watched(trs, t):
        seen.append(gc.isenabled())
        return root_reducts(trs, t)

    monkeypatch.setattr(rw, "root_reducts", watched)
    assert gc.isenabled()
    rw.ground_instances(arith, universe(arith.signature, arith.variables, 1))
    law = laws.Law("probe", "probe", "implication")
    laws._run_entries([(law, lambda cfg, rng, st: seen.append(gc.isenabled()))],
                      laws.SampleConfig(samples=3))
    assert len(seen) > 3 and not any(seen)
    assert gc.isenabled()


def test_paused_calls_leave_caller_garbage_collectable(arith):
    """Cyclic garbage a caller makes between ``reduction_graph`` calls is
    collected by the young generations as usual.  A paused scope that
    moved every object to the oldest generation on its way out (as
    ``gc.freeze(); gc.unfreeze()`` would) keeps nearly all of it until a
    full collection."""

    class Cycle:
        pass

    seeds = an.seed_terms(arith, 1)[:5]
    rw.reduction_graph(arith, seeds)
    assert gc.isenabled()
    gc.collect()
    refs = []
    for _ in range(2000):
        c = Cycle()
        c.me = c
        refs.append(weakref.ref(c))
        del c
        rw.reduction_graph(arith, seeds)
    assert sum(r() is not None for r in refs) < 1000
