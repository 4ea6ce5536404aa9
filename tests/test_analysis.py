"""Confluence-family checks: abstract, exhaustive, and critical-pair."""

import itertools
import json
import os
import random
import weakref

import pytest

import relrew.analysis as an
from relrew.analysis import (
    _condense,
    _failures,
    FAILS,
    HOLDS,
    MAX_WITNESSES,
    UNCONFIRMED,
    SpectrumReport,
    check_cp,
    check_weak_confluence_technique,
    exhaustive_church_rosser,
    exhaustive_confluence,
    exhaustive_weak_confluence,
    has_diamond,
    is_church_rosser,
    is_confluent,
    is_weakly_confluent,
    seed_terms,
    spectrum_survey,
)
from relrew.relalg import Rel, random_rel
from relrew.rewrite import (ReductionGraph, format_trs, ground_instances,
                            parse_trs, reduction_graph, sequential_step)
from relrew.syntax import format_term, term_key, universe

NONCONFLUENT = "sig a/0 b/0 c/0\nrule a -> b\nrule a -> c\n"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# abstract checks

def test_diamond_example():
    a = Rel.from_pairs(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    assert has_diamond(a).ok


def test_weakly_confluent_but_not_confluent():
    # the classic counterexample: 1 <-> 0-ish loop with two normal forms
    a = Rel.from_pairs(4, [(0, 1), (1, 0), (0, 2), (1, 3)])
    assert is_weakly_confluent(a).ok
    report = is_confluent(a)
    assert not report.ok
    assert report.witnesses  # e.g. the unjoinable normal forms 2 and 3


def test_confluent_example():
    a = Rel.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    assert is_confluent(a).ok
    assert is_church_rosser(a).ok


def test_cr_iff_confluence_random():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = random_rel(n, rng.uniform(0.05, 0.5), rng)
        assert is_church_rosser(a).ok == is_confluent(a).ok


ABSTRACT_CHECKS = (has_diamond, is_weakly_confluent, is_confluent,
                   is_church_rosser)


def _reference_reports(a):
    """The four abstract checks as the compose formulas of their
    inclusions, with stars over the whole carrier."""
    s = a.kleene_star()
    valleys = s.compose(s.converse())
    formulas = (
        ("diamond", a.converse().compose(a), a.compose(a.converse())),
        ("weak-confluence", a.converse().compose(a), valleys),
        ("confluence", s.converse().compose(s), valleys),
        ("church-rosser", (a | a.converse()).kleene_star(), valleys))
    return [_failures(name, lhs.pairs - rhs.pairs).to_json()
            for name, lhs, rhs in formulas]


def test_abstract_checks_match_compose_formulas():
    """Bitset rows over the field give the compose formulas' reports,
    witnesses and their order included, on carriers with elements in no
    pair and on empty relations."""
    rng = random.Random(2024)
    rels = []
    for k in range(2000):
        n = k % 10
        field = [x for x in range(n) if rng.random() < 0.8]
        density = rng.uniform(0.05, 0.6)
        rels.append(Rel.from_pairs(n, [(p, q) for p in field for q in field
                                       if rng.random() < density]))
    assert any(0 < len({x for pq in a.pairs for x in pq}) < a.n for a in rels)
    for a in rels + [Rel.bottom(n) for n in range(10)]:
        assert [check(a).to_json() for check in ABSTRACT_CHECKS] == \
            _reference_reports(a)


def test_abstract_checks_over_unenumerable_term_carrier(arith):
    """Only the relation's field is numbered, so a relation over arith's
    depth-3 universe, too large to enumerate, is checked without it."""
    u = universe(arith.signature, arith.variables, 3)
    a = Rel.from_pairs(u, [(arith.parse(p), arith.parse(q)) for p, q in
                           (("A(0,0)", "0"), ("A(0,0)", "S(0)"),
                            ("S(0)", "S(0)"))])
    got = [check(a).to_json() for check in ABSTRACT_CHECKS]
    assert [(r["property"], r["verdict"], r["witnesses"]) for r in got] == [
        ("diamond", FAILS, [["0", "0"], ["0", "S(0)"], ["S(0)", "0"]]),
        ("weak-confluence", FAILS, [["0", "S(0)"], ["S(0)", "0"]]),
        ("confluence", FAILS, [["0", "S(0)"], ["S(0)", "0"]]),
        ("church-rosser", FAILS, [["0", "S(0)"], ["S(0)", "0"]])]


# ---------------------------------------------------------------------------
# exhaustive term-level checks

def test_seed_terms_structure(arith):
    seeds = seed_terms(arith, 2)
    assert len(seeds) == len(set(seeds))
    ground_only = universe(arith.signature, (), 2).terms()
    for t in ground_only:
        assert t in seeds


def test_seed_terms_is_the_sorted_union(arith):
    """The seeds are the ground terms up to the depth and the open terms up
    to depth 2, sorted by ``term_key``, for arith, which has variables, and
    newman, which has none."""
    with open(os.path.join(ROOT, "tests/data/newman.trs"),
              encoding="utf-8") as f:
        newman = parse_trs(f.read())
    assert arith.variables and not newman.variables
    for trs in (arith, newman):
        for depth in range(4):
            ground = universe(trs.signature, (), depth).terms()
            open_terms = universe(trs.signature, trs.variables,
                                  min(depth, 2)).terms()
            assert seed_terms(trs, depth) == tuple(
                sorted(set(ground) | set(open_terms), key=term_key))


def test_closure_nodes_contains_reducts(arith):
    seeds = [arith.parse("A(S(0),0)")]
    nodes = reduction_graph(arith, seeds, kind="full").nodes
    assert arith.parse("S(0)") in nodes


def test_arith_weakly_confluent_small(arith):
    seeds = seed_terms(arith, 2)
    assert exhaustive_weak_confluence(arith, seeds).verdict == HOLDS


def test_arith_confluent_small(arith):
    seeds = seed_terms(arith, 1)
    assert exhaustive_confluence(arith, seeds).verdict == HOLDS
    assert exhaustive_church_rosser(arith, seeds).verdict == HOLDS


def test_nonconfluent_trs_detected():
    trs = parse_trs(NONCONFLUENT)
    seeds = seed_terms(trs, 1)
    report = exhaustive_weak_confluence(trs, seeds)
    assert report.verdict == FAILS
    assert ("b", "c") in [tuple(w) for w in report.witnesses]
    assert exhaustive_church_rosser(trs, seeds).verdict == FAILS


@pytest.mark.parametrize("joined, verdict", [(True, HOLDS), (False, FAILS)])
def test_weak_confluence_exact_on_long_chains(joined, verdict):
    """The peak b0 <- a -> c joins, if at all, only at b13, thirteen steps
    from b0: the join is exact on the closure, however far it lies."""
    rules = ["a -> b0", "a -> c"] + [f"b{i} -> b{i + 1}" for i in range(13)]
    trs = parse_trs("sig a/0 c/0 " + " ".join(f"b{i}/0" for i in range(14))
                    + "".join(f"\nrule {r}" for r in rules)
                    + ("\nrule c -> b13\n" if joined else "\n"))
    report = exhaustive_weak_confluence(trs, seed_terms(trs, 0))
    assert report.verdict == verdict
    assert report.witnesses == ([] if joined else [("b0", "c")])


def test_weak_peak_reaching_frontier_unconfirmed():
    """b and c grow forever, so on a cut-off closure the peak b <- a -> c
    is neither joined nor refuted, though both reach the frontier."""
    trs = parse_trs("sig a/0 b/0 c/0 f/1\nrule a -> b\nrule a -> c\n"
                    "rule b -> f(b)\nrule c -> f(c)\n")
    report = exhaustive_weak_confluence(trs, seed_terms(trs, 0), 3)
    assert report.verdict == UNCONFIRMED
    assert report.witnesses == [("b", "c")]


# ---------------------------------------------------------------------------
# the quadratic pairwise-reach checkers, kept as references for the checks
# on the SCC condensation

def _ref_reach(adj, seed):
    seen = {seed}
    frontier = [seed]
    while frontier:
        t = frontier.pop()
        for s in adj[t]:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def _ref_graph(trs, seeds):
    nodes = reduction_graph(trs, seeds, kind="full").nodes
    adj = {t: tuple(sorted(sequential_step(trs, t), key=term_key))
           for t in nodes}
    return sorted(nodes, key=term_key), adj, {t: _ref_reach(adj, t) for t in nodes}


def reference_confluence(trs, seeds):
    """Every pair of terms reachable from one node shares a reduct."""
    nodes, adj, reach = _ref_graph(trs, seeds)
    for t in nodes:
        rs = sorted(reach[t], key=term_key)
        for i, s1 in enumerate(rs):
            for s2 in rs[i + 1:]:
                if not (reach[s1] & reach[s2]):
                    return FAILS
    return HOLDS


def reference_weak_confluence(trs, seeds):
    """Every one-step peak's two reducts share a reduct."""
    nodes, adj, reach = _ref_graph(trs, seeds)
    for t in nodes:
        for i, s1 in enumerate(adj[t]):
            for s2 in adj[t][i + 1:]:
                if not (reach[s1] & reach[s2]):
                    return FAILS
    return HOLDS


def reference_church_rosser(trs, seeds):
    """Every pair of terms in one weakly connected component shares a
    reduct."""
    nodes, adj, reach = _ref_graph(trs, seeds)
    undirected = {t: set(adj[t]) for t in nodes}
    for t in nodes:
        for s in adj[t]:
            undirected[s].add(t)
    seen = set()
    for root in nodes:
        if root in seen:
            continue
        component = sorted(_ref_reach(undirected, root), key=term_key)
        seen.update(component)
        for i, s1 in enumerate(component):
            for s2 in component[i + 1:]:
                if not (reach[s1] & reach[s2]):
                    return FAILS
    return HOLDS


_CYCLE_SIG = "sig a/0 b/0 c/0 f/1\nvar x\n"
_CYCLE_TERMS = [(k, base) for k in range(3) for base in "abcx"]


def _random_cyclic_trs(rng):
    """Rules between f^k(a|b|c|x) terms that never increase depth, so the
    reachable closure is finite; constant-swapping rules make cycles."""
    def text(k, base):
        return f"{'f(' * k}{base}{')' * k}"

    rules = []
    for _ in range(rng.randint(1, 4)):
        k, base = rng.choice([t for t in _CYCLE_TERMS if t != (0, "x")])
        j, rbase = rng.choice([t for t in _CYCLE_TERMS if t[0] <= k
                               and (t[1] != "x" or base == "x")])
        rules.append(f"rule {text(k, base)} -> {text(j, rbase)}")
        if j == k and (base == "x") == (rbase == "x") and rng.random() < 0.5:
            rules.append(f"rule {text(j, rbase)} -> {text(k, base)}")
    return parse_trs(_CYCLE_SIG + "\n".join(rules) + "\n")


def test_condensation_checks_match_quadratic_references():
    rng = random.Random(31)
    verdicts = {HOLDS: 0, FAILS: 0}
    cyclic = 0
    for _ in range(300):
        trs = _random_cyclic_trs(rng)
        seeds = seed_terms(trs, 2)
        nodes, adj, reach = _ref_graph(trs, seeds)
        by_name = {format_term(t): t for t in nodes}
        cyclic += any(s is not t and t in reach[s]
                      for t in nodes for s in reach[t])
        for check, reference in ((exhaustive_weak_confluence,
                                  reference_weak_confluence),
                                 (exhaustive_confluence, reference_confluence),
                                 (exhaustive_church_rosser,
                                  reference_church_rosser)):
            report = check(trs, seeds)
            assert report.verdict == reference(trs, seeds), trs
            verdicts[report.verdict] += 1
            assert bool(report.witnesses) == (report.verdict == FAILS)
            for p, q in report.witnesses:
                assert p in by_name and q in by_name
                assert not (reach[by_name[p]] & reach[by_name[q]])
                if check is exhaustive_weak_confluence:
                    # the two reducts of a one-step peak
                    assert any(by_name[p] in adj[t] and by_name[q] in adj[t]
                               for t in nodes)
                    continue
                # each is the term_key-least member of a bottom SCC, which
                # is everything it reaches
                for w in (by_name[p], by_name[q]):
                    assert min(reach[w], key=term_key) is w
                    assert all(w in reach[s] for s in reach[w])
    assert min(verdicts.values()) > 50, verdicts
    assert cyclic > 50, cyclic


def test_condensation_rejects_open_node_set(arith):
    seeds = [arith.parse("A(S(0),0)")]
    order = sorted(reduction_graph(arith, seeds, kind="full").nodes,
                   key=term_key)
    order.remove(arith.parse("S(0)"))  # the normal form of the seed
    with pytest.raises(RuntimeError, match="outside the closure"):
        _condense(order, [sequential_step(arith, t) for t in order])


def test_spectrum_survey_small(arith):
    report = spectrum_survey(arith, seed_terms(arith, 2))
    assert report.ok
    assert report.inclusion_violations == []
    assert report.stars_equal


def _reference_spectrum(trs, seeds, bound=None):
    """The spectrum survey with all three step graphs condensed and every
    node's three stars compared, whether or not an inclusion fails."""
    g = reduction_graph(trs, seeds, kind="full", bound=bound)
    order = sorted(g.nodes, key=term_key)
    open_nodes = g.frontier
    seq_rows = [g.steps(t, "seq") for t in order]
    par_rows = [g.steps(t, "par") for t in order]
    full_rows = [g.steps(t) for t in order]
    for row in seq_rows + par_rows + full_rows:
        assert len(set(row)) == len(row), row  # distinct targets
    violations = []
    for t, sq, pr, fl in zip(order, seq_rows, par_rows, full_rows):
        for bad in sorted(set(sq) - set(pr), key=term_key):
            violations.append(("seq<=par", format_term(t), format_term(bad)))
        for bad in sorted(set(pr) - set(fl), key=term_key):
            violations.append(("par<=full", format_term(t), format_term(bad)))
    definitive = bool(violations)
    full = an._condense(order, full_rows)
    seq_star = an._condense(order, seq_rows).node_stars()
    par_star = an._condense(order, par_rows).node_stars()
    full_star = full.node_stars()
    stars_equal = True
    witnesses = []
    for i, t in enumerate(order):
        star = seq_star[i]
        for j in full.adj[i]:
            if not star >> j & 1:
                violations.append(("full<=seq-star", format_term(t),
                                   format_term(order[j])))
        if par_star[i] != star or full_star[i] != star:
            stars_equal = False
            witnesses.append((format_term(t), "star-mismatch"))
    failed = definitive or not open_nodes and (violations or not stars_equal)
    return SpectrumReport("spectrum", an._verdict(failed, open_nodes),
                          witnesses[:MAX_WITNESSES], nodes=len(order),
                          inclusion_violations=violations[:MAX_WITNESSES * 4],
                          stars_equal=stars_equal).to_json()


# f(x) -> f(f(x)) grows forever, so its closure is cut off; a full step
# doubles an f-tower, past the towers a sequential path would go through
GROWING = "sig a/0 f/1\nvar x\nrule f(x) -> f(f(x))\n"


@pytest.mark.parametrize("mutant", [None, "root_only_full", "first_arg_par",
                                    "no_last_arg_seq",
                                    "singleton_components"])
def test_spectrum_matches_three_condensations(mutant, arith, request):
    """The survey condenses the parallel and full graphs only when an
    inclusion fails, and gives the reports of condensing all three, with
    and without failing inclusions, on cut-off closures and under each
    mutant of the steppers and of the condensation."""
    if mutant:
        request.getfixturevalue(mutant)
    cases = [(arith, seed_terms(arith, 2), None)]
    for path in ("tests/data/newman.trs", "tests/data/twocycle.trs",
                 "tests/data/selfloop.trs", "perfbench/data/nonconfluent.trs"):
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            trs = parse_trs(f.read())
        cases += [(trs, seed_terms(trs, 2), bound) for bound in (None, 1)]
    if not mutant:
        growing = parse_trs(GROWING)
        cases += [(growing, seed_terms(growing, 2), None),
                  (arith, seed_terms(arith, 3), 1)]
    reports = [spectrum_survey(*case).to_json() for case in cases]
    assert reports == [_reference_spectrum(*case) for case in cases]
    # root_only_full's full step still lies between par and seq-star
    assert any(r["inclusion_violations"] for r in reports) == (
        mutant != "root_only_full")
    if not mutant:
        assert not reports[0]["inclusion_violations"]
        grown = reports[-2]
        assert (grown["nodes"], len(grown["inclusion_violations"]),
                grown["stars_equal"], len(grown["witnesses"])) == (
                    402, 20, False, 5)


def test_spectrum_rejects_full_step_outside_closure(arith, monkeypatch):
    """A full step that leaves the closure raises the condensation's
    error, though seq ⊆ par ⊆ full holds, so the full graph is never
    condensed."""
    outside = arith.parse("S(S(S(S(S(0)))))")
    steps = ReductionGraph.steps

    def leaky(self, t, kind=None):
        out = steps(self, t, kind)
        assert outside not in out  # the targets stay distinct
        return out + (outside,) if (kind or self.kind) == "full" else out

    monkeypatch.setattr(ReductionGraph, "steps", leaky)
    with pytest.raises(RuntimeError, match=r"successor S\(S\(S\(S\(S\(0\)"
                       r"\)\)\)\) of 0 is outside the closure"):
        spectrum_survey(arith, [arith.parse("A(0,0)")])


# ---------------------------------------------------------------------------
# the analysed closure, shared by the four checks

CHECKS = (spectrum_survey, exhaustive_weak_confluence, exhaustive_confluence,
          exhaustive_church_rosser)


def _text(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _cold(check, trs, seeds, bound=None):
    """``check``'s report on a closure built for it: a check on the empty
    seed set takes the memo's one entry first."""
    exhaustive_confluence(trs, ())
    empty = an._last
    assert empty.graph.nodes == set()
    text = _text(check(trs, seeds, bound))
    assert an._last is not empty
    return text


def _data_trs(name):
    with open(os.path.join(ROOT, "tests", "data", name), encoding="utf-8") as f:
        return parse_trs(f.read())


def test_served_reports_equal_cold_ones(monkeypatch):
    """A report read from a kept closure is byte for byte the one a closure
    built for it gives: the four checks in every call order, with the seeds
    reordered on every call and ``bound`` None, L - 1, L and L + 1, where
    the unbounded search ran L layers; the growing system's unbounded
    closure is cut off by the depth limit, not exhausted."""
    rng = random.Random(32)
    cases = []
    for trs in [_random_cyclic_trs(rng) for _ in range(4)] + [
            _data_trs("twocycle.trs")]:
        cases.append((trs, rng.sample(seed_terms(trs, 2), 5)))
    newman, growing = _data_trs("newman.trs"), parse_trs(GROWING)
    cases += [(newman, list(seed_terms(newman, 1))),
              (growing, [growing.parse("f(a)"), growing.parse("a")])]
    build, built = an.reduction_graph, []

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(an, "reduction_graph", counted)
    calls = shared = 0
    for trs, seeds in cases:
        g = build(trs, seeds, kind="full")
        bounds = [None, g.layers - 1, g.layers, g.layers + 1]
        # the bounds an exhausted closure answers for
        answered = set(bounds) - {g.layers - 1} if g.exhausted else set()
        cold = {(check, b): _cold(check, trs, seeds, b)
                for check in CHECKS for b in bounds}
        last = bounds[-1]  # the bound of the closure kept after the cold runs
        for k, order in enumerate(itertools.permutations(CHECKS)):
            for b in bounds[k % 4:] + bounds[:k % 4]:
                before = len(built)
                for check in order:
                    rng.shuffle(seeds)
                    assert _text(check(trs, list(seeds), b)) == cold[
                        check, b], (trs, check.__name__, b)
                    calls += 1
                # the four checks on one bound share one closure at most,
                # and an exhausted closure serves the other bounds it
                # answers for
                assert len(built) - before <= 1
                if {last, b} <= answered:
                    assert len(built) == before, (trs, last, b)
                    shared += last != b
                last = b
    assert calls == len(cases) * 24 * 4 * 4
    # every closure but the growing one is exhausted, and half of each
    # case's 96 changes of bound go between two bounds it answers for
    assert shared == 48 * (len(cases) - 1)
    assert not build(growing, cases[-1][1], kind="full").exhausted


@pytest.mark.parametrize("mutant, trs, seeds, bound, changed", [
    ("root_only_full", "arith", ["A(A(0,0),0)"], 1, [1, 0, 0, 0]),
    ("first_arg_par", "arith", 2, None, [1, 0, 0, 0]),
    ("no_last_arg_seq", "twocycle.trs", 2, None, [1, 1, 1, 1]),
    ("singleton_components", "newman.trs", 2, None, [1, 1, 0, 0]),
    ("least_seq_step_lost", "twocycle.trs", 2, 1, [1, 1, 1, 1])])
def test_kept_closure_does_not_hide_a_mutant(mutant, trs, seeds, bound,
                                             changed, arith, request):
    """The four checks run on the real steppers and condensation, and then,
    on the same TRS and seeds, under a mutant of a function the closure is
    built with: their reports are those of closures built under the mutant,
    and the mutant changes the reports it changes on cold closures."""
    trs = arith if trs == "arith" else _data_trs(trs)
    seeds = (seed_terms(trs, seeds) if isinstance(seeds, int)
             else [trs.parse(s) for s in seeds])
    before = [_text(check(trs, seeds, bound)) for check in CHECKS]
    request.getfixturevalue(mutant)
    after = [_text(check(trs, seeds, bound)) for check in CHECKS]
    assert after == [_cold(check, trs, seeds, bound) for check in CHECKS]
    assert [int(a != b) for a, b in zip(after, before)] == changed


def test_four_checks_build_one_closure(arith, monkeypatch):
    """The spectrum, weak confluence, confluence and Church-Rosser on one
    seed set search the closure once and condense it once, also when a
    check gets an equal TRS parsed afresh, as each CLI run does."""
    calls = []
    build, condense = an.reduction_graph, an._condense
    monkeypatch.setattr(an, "reduction_graph", lambda *args, **kwargs: (
        calls.append("graph"), build(*args, **kwargs))[1])
    monkeypatch.setattr(an, "_condense", lambda *args: (
        calls.append("condense"), condense(*args))[1])
    seeds = seed_terms(arith, 2)
    reports = [check(trs, seeds) for check, trs in zip(CHECKS, (
        arith, arith, parse_trs(format_trs(arith)), arith))]
    assert calls == ["graph", "condense"]
    assert [r.verdict for r in reports] == [HOLDS] * 4


def test_kept_closure_serves_only_an_equal_trs():
    """Another system over the same seed terms gets its own closure."""
    confluent = parse_trs("sig a/0 b/0 c/0\nrule a -> b\n")
    nonconfluent = parse_trs(NONCONFLUENT)
    seeds = [confluent.parse("a")]
    assert seeds == [nonconfluent.parse("a")]
    assert exhaustive_confluence(confluent, seeds).verdict == HOLDS
    assert exhaustive_confluence(nonconfluent, seeds).verdict == FAILS


def test_one_closure_kept(arith):
    """Analysing a second seed set lets the first closure go."""
    exhaustive_confluence(arith, seed_terms(arith, 1))
    first = weakref.ref(an._last.graph)
    exhaustive_confluence(arith, seed_terms(arith, 0))
    assert first() is None
    assert an._last.graph.nodes == set(reduction_graph(
        arith, seed_terms(arith, 0), kind="full").nodes)


# ---------------------------------------------------------------------------
# critical pairs

def test_check_cp_arith(arith):
    cp1, cp2, cp1_prime = check_cp(arith, depth=2).checks
    assert cp1.verdict == HOLDS
    assert cp2.verdict == HOLDS
    assert cp1_prime.verdict == HOLDS


def test_check_cp_overlapping_rules():
    cp1, _, cp1_prime = check_cp(parse_trs(NONCONFLUENT), depth=1).checks
    assert cp1_prime.verdict == FAILS
    assert cp1.verdict == FAILS  # b and c do not join


def test_technique_on_arith(arith):
    u = universe(arith.signature, arith.variables, 2)
    g = ground_instances(arith, u)
    root, inner, conclusion = check_weak_confluence_technique(g).checks
    assert root.ok and inner.ok
    assert conclusion.ok


def test_technique_implication_random(arith):
    """Whenever both premises hold on a non-overflowing sample, the
    conclusion must hold as well."""
    u = universe(arith.signature, arith.variables, 2)
    sup = u.terms_up_to(1)
    rng = random.Random(123)
    checked = 0
    for _ in range(60):
        pairs = frozenset(
            (rng.choice(sup), rng.choice(sup)) for _ in range(rng.randint(0, 5))
        )
        report = check_weak_confluence_technique(Rel(u, pairs))
        root, inner, conclusion = report.checks
        if root.ok and inner.ok and report.overflow_dropped == 0:
            checked += 1
            assert conclusion.ok
    assert checked > 10  # the implication was actually exercised


# ---------------------------------------------------------------------------
# pinned reports: the exact witnesses and their order

_ABSTRACT_PINS = {
    (4, ((1, 2), (3, 0), (3, 1), (3, 2))): [
        ("diamond", "00 01 02 10 12"),
        ("weak-confluence", "01 02 10 20"),
        ("confluence", "01 02 10 20"),
        ("church-rosser", "01 02 10 20"),
    ],
    (5, ((0, 0), (0, 1), (0, 3), (0, 4), (1, 2))): [
        ("diamond", "01 03 04 10 13"),
        ("weak-confluence", "13 14 31 34 41"),
        ("confluence", "13 14 23 24 31"),
        ("church-rosser", "13 14 23 24 31"),
    ],
}


@pytest.mark.parametrize("n, pairs", list(_ABSTRACT_PINS))
def test_abstract_reports_pinned(n, pairs):
    a = Rel.from_pairs(n, pairs)
    got = [check(a).to_json() for check in
           (has_diamond, is_weakly_confluent, is_confluent, is_church_rosser)]
    assert got == [{"property": name, "verdict": FAILS,
                    "witnesses": [list(w) for w in witnesses.split()],
                    "overflow_dropped": 0}
                   for name, witnesses in _ABSTRACT_PINS[n, pairs]]


def test_abstract_pins_catch_shallow_stars(shallow_stars):
    """Star rows cut to one step lose the path 0 -> 1 -> 2 of the second
    pinned relation, so its pinned reports no longer match."""
    n, pairs = list(_ABSTRACT_PINS)[1]
    with pytest.raises(AssertionError):
        test_abstract_reports_pinned(n, pairs)


_TECHNIQUE_PINS = [
    ([("A(y,0)", "A(x,x)"), ("M(0,x)", "A(y,x)"), ("M(0,y)", "A(y,y)"),
      ("M(0,y)", "M(y,0)")],
     [0, 0, 0],
     [("root-peaks-join", FAILS,
       [["A(y,y)", "M(y,0)"], ["M(y,0)", "A(y,y)"]]),
      ("root-vs-inner-peaks-join", HOLDS, []),
      ("one-step-peaks-join", FAILS,
       [["A(y,y)", "M(y,0)"], ["M(y,0)", "A(y,y)"],
        ["A(0,A(y,y))", "A(0,M(y,0))"], ["A(0,M(y,0))", "A(0,A(y,y))"],
        ["A(x,A(y,y))", "A(x,M(y,0))"]])]),
    ([("y", "x"), ("A(y,0)", "M(y,y)"), ("M(y,0)", "S(0)"), ("S(y)", "S(x)")],
     [0, 0, 0],
     [("root-peaks-join", HOLDS, []),
      ("root-vs-inner-peaks-join", FAILS,
       [["M(y,y)", "A(x,0)"], ["S(0)", "M(x,0)"]]),
      ("one-step-peaks-join", FAILS,
       [["A(x,0)", "M(y,y)"], ["M(x,0)", "S(0)"], ["M(y,y)", "A(x,0)"],
        ["S(0)", "M(x,0)"], ["A(0,A(x,0))", "A(0,M(y,y))"]])]),
    # the drop count each check reports is the one seen when it ran
    ([("y", "A(x,0)"), ("M(y,x)", "0"), ("M(y,x)", "M(0,0)")],
     [1261, 2522, 2522],
     [("root-peaks-join", UNCONFIRMED, [["0", "M(0,0)"], ["M(0,0)", "0"]]),
      ("root-vs-inner-peaks-join", UNCONFIRMED,
       [["0", "M(A(x,0),x)"], ["M(0,0)", "M(A(x,0),x)"]]),
      ("one-step-peaks-join", UNCONFIRMED,
       [["0", "M(0,0)"], ["0", "M(A(x,0),x)"], ["A(0,0)", "A(0,M(0,0))"],
        ["A(0,0)", "A(M(0,0),0)"], ["A(0,x)", "A(M(0,0),x)"]])]),
]


@pytest.mark.parametrize("pairs, dropped, checks", _TECHNIQUE_PINS)
def test_technique_reports_pinned(arith, pairs, dropped, checks):
    u = universe(arith.signature, arith.variables, 2)
    a = Rel(u, frozenset((arith.parse(p), arith.parse(q)) for p, q in pairs))
    assert check_weak_confluence_technique(a).to_json() == {
        "property": "weak-confluence-technique",
        "overflow_dropped": dropped[-1],
        "checks": [{"property": name, "verdict": verdict,
                    "witnesses": witnesses, "overflow_dropped": d}
                   for (name, verdict, witnesses), d in zip(checks, dropped)],
    }
