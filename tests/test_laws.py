"""The property-based law harness: catalog completeness, determinism, and
the mutation self-test."""

import json
import pathlib
import random
import re

import pytest

import relrew.laws as laws
from relrew.laws import (
    ARITHMETIC,
    FIXPOINT_ENTRIES,
    RELATION_ENTRIES,
    TERMREL_ENTRIES,
    SampleConfig,
    _adjoint_join,
    _holds,
    _inputs,
    _parse,
    catalog,
    relation_law,
    reports_to_json,
    run_all,
    run_fixpoint_calculus_suite,
    run_relation_law_suite,
    run_termrel_law_suite,
    termrel_law,
    termrel_row,
)
from relrew.relalg import Rel, corrupted_compose, random_rel, star_witness
from relrew.syntax import UniverseError, app, universe
from relrew.termrel import OpStats, check_refine

MANIFEST = pathlib.Path(__file__).parent / "data" / "law_manifest.json"
README = pathlib.Path(__file__).parent.parent / "README.md"

QUICK = SampleConfig(seed=0, samples=15)


def test_catalog_matches_manifest():
    with open(MANIFEST, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    assert catalog() == manifest


def test_catalog_nonempty_and_unique():
    c = catalog()
    for suite, ids in c.items():
        assert ids, suite
        assert len(ids) == len(set(ids)), suite


def test_relation_suite_quick_pass():
    for r in run_relation_law_suite(QUICK):
        assert r.verdict == "pass", (r.law_id, r.counterexamples)
        assert r.skips < r.samples


def test_fixpoint_suite_quick_pass():
    for r in run_fixpoint_calculus_suite(QUICK):
        assert r.verdict == "pass", (r.law_id, r.counterexamples)
        assert r.skips < r.samples


def test_termrel_suite_quick_pass():
    for r in run_termrel_law_suite(QUICK):
        assert r.verdict == "pass", (r.law_id, r.counterexamples)
        assert r.skips < r.samples


def test_single_law_selection():
    reports = run_all(QUICK, law_ids=["rel-modular"])
    assert len(reports) == 1
    assert reports[0].law_id == "rel-modular"


def test_reports_deterministic():
    cfg = SampleConfig(seed=7, samples=10)
    ids = ["rel-modular", "tilde-compose", "subst-compose", "fix-rolling",
           "seqclo-five-way", "parclo-subst-stable"]
    first = reports_to_json(run_all(cfg, law_ids=ids))
    second = reports_to_json(run_all(cfg, law_ids=ids))
    assert first == second


def test_seed_changes_samples():
    # different seeds explore different samples; at minimum the reports
    # stay structurally valid
    a = run_all(SampleConfig(seed=1, samples=5), law_ids=["rel-modular"])
    b = run_all(SampleConfig(seed=2, samples=5), law_ids=["rel-modular"])
    assert a[0].verdict == b[0].verdict == "pass"


def test_mutation_breaks_relation_laws():
    with corrupted_compose():
        reports = run_relation_law_suite(SampleConfig(samples=10))
    failing = [r for r in reports if r.verdict == "fail"]
    assert failing, "corrupted composition went unnoticed"
    assert all(r.counterexamples for r in failing)


def test_mutation_breaks_termrel_laws():
    """Term relations share the one compose, so its corruption reaches
    the term-relation laws too."""
    with corrupted_compose():
        reports = run_termrel_law_suite(
            SampleConfig(samples=5),
            ["tilde-compose", "hat-compose", "check-compose"])
    assert len(reports) == 3
    assert any(r.verdict == "fail" for r in reports)


def _rel_adjoint_join(c, b):
    """The adjoint formula by ``Rel``: the join of every x with x;b <= c,
    each x built as a relation and composed by ``Rel.compose``."""
    n = c.n
    slots = [(i, j) for i in range(n) for j in range(n)]
    best = Rel.bottom(n)
    for mask in range(1 << len(slots)):
        x = Rel(range(n), frozenset(p for k, p in enumerate(slots)
                                    if mask >> k & 1))
        if x.compose(b).leq(c):
            best = best | x
    return best


def test_adjoint_join_matches_rel_brute_force():
    """The bit-row adjoint join of the residual oracle law equals the
    ``Rel`` brute force on seeded samples of each size the law draws, with
    and without ``corrupted_compose``; the hook changes some of them."""
    rng = random.Random(30)
    changed = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        density = rng.choice((0.1, 0.3, 0.6))
        c, b = random_rel(n, density, rng), random_rel(n, density, rng)
        want = _rel_adjoint_join(c, b)
        assert _adjoint_join(c, b) == want
        with corrupted_compose():
            bad = _rel_adjoint_join(c, b)
            assert _adjoint_join(c, b) == bad
        changed += bad != want
    assert changed


def test_lift_mutation_breaks_termrel_laws(lossy_lift):
    """A congruence lift that loses the least pair of each non-empty result
    is caught by the tilde, check and sequential-closure laws."""
    groups = ("compat-refinement", "seq-refinement", "seq-closure")
    ids = [law.id for law, _ in TERMREL_ENTRIES if law.group in groups]
    reports = run_termrel_law_suite(SampleConfig(samples=5), ids)
    for group in groups:
        assert any(r.verdict == "fail" for r in reports
                   if r.group == group), group


def test_constant_law_verdict_lasts_one_run(lossy_lift, monkeypatch):
    """A law without inputs is evaluated afresh by every run, so a verdict
    reached under a broken kernel does not outlive that run."""
    ids = ["tilde-delta", "hat-delta"]
    cfg = SampleConfig(samples=3)
    broken = run_termrel_law_suite(cfg, ids)
    assert [r.verdict for r in broken] == ["pass", "fail"]
    monkeypatch.undo()
    assert [r.verdict for r in run_termrel_law_suite(cfg, ids)] == ["pass",
                                                                    "pass"]


def test_readme_lists_the_catalog():
    """README's law catalog shows each formula row and names each Python
    law, in catalog order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Law catalog", 1)[1].split("```text\n", 1)[1]
    expected = [f"{law.id:<28} {law.group:<18} {law.formula or '(Python)'}"
                for entries in (RELATION_ENTRIES, TERMREL_ENTRIES,
                                FIXPOINT_ENTRIES)
                for law, _ in entries]
    assert block.split("```", 1)[0].splitlines() == expected


@pytest.mark.parametrize("key, value", [
    ("samples", 0), ("samples", -3), ("carrier_max", 1), ("max_pairs", -1),
    ("lattice_ground", 1), ("lattice_ground", 11), ("samples", "5"),
    ("support_depth", 2),
])
def test_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        SampleConfig.from_dict({key: value})


def test_config_accepts_range_ends():
    for d in ({"samples": 1, "carrier_max": 2, "max_pairs": 0,
               "lattice_ground": 2}, {"lattice_ground": 10}):
        cfg = SampleConfig.from_dict(d)
        assert all(getattr(cfg, k) == v for k, v in d.items())


def test_config_from_dict():
    cfg = SampleConfig.from_dict({"seed": 3, "samples": 50,
                                  "signature": {"f": 1, "c": 0},
                                  "variables": ["x"]})
    assert cfg.seed == 3
    assert cfg.samples == 50
    assert dict(cfg.signature) == {"f": 1, "c": 0}


# ---------------------------------------------------------------------------
# the formula grammar

@pytest.mark.parametrize("formula, message", [
    ("all n <= many: a <= a", "'many' is not a bound"),
    ("all n 2: a <= a", "'2' is not <="),
    ("a <= a and all n <= 2: a <= a", "unknown name 'all'"),
    ("(all n <= 2: a) <= a", "unknown name 'all'"),
    ("a^ <= a", "'<=' is not an integer or a name all/join binds"),
    ("a <= a^", "None is not an integer or a name all/join binds"),
    ("a^b <= a", "'b' is not an integer or a name all/join binds"),
    ("(lfp x: a^x) <= a", "'x' is not an integer or a name all/join binds"),
    ("taylor(n, a) <= a", "unknown name 'n'"),
    ("(join n <= 2: a^n) <= a and a <= a", "not one comparison"),
    ("cr(a)", "not one comparison"),
])
def test_parse_errors(formula, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse(formula, ["a", "b"], None)


def test_parse_accepts_verdicts_and_binders_with_a_note():
    assert _parse("cr(a) iff confluent(a)", ["a"], "note")[0] == "iff"
    tree = _parse("all k <= arity: a^k <= (lfp x: a | x)", ["a"], "note")
    assert tree == ("all", "k", "arity",
                    ("<=", ("^", "a", "k"), ("lfp", "x", ("|", "a", "x"))))


@pytest.mark.parametrize("inputs, message", [
    ("a b>=c", "'c' is not an earlier input"),
    ("b>=a a", "'a' is not an earlier input"),
    ("a>=a", "'a' is not an earlier input"),
])
def test_inputs_above_unknown_or_later_input(inputs, message):
    with pytest.raises(ValueError, match=message):
        _inputs(inputs)


def _drawn(register, monkeypatch, entries, inputs, **sampling):
    """The inputs a law registered on ``inputs`` is given, over 30 samples."""
    monkeypatch.setattr(laws, entries, [])
    seen = []
    register("probe", "probe", "implication", inputs, **sampling)(
        lambda carrier, rels, *rest, **kw: seen.append(rels))
    ((_, runner),) = getattr(laws, entries)
    rng = random.Random(0)
    for _ in range(30):
        runner(SampleConfig(), rng, OpStats())
    return seen


def test_inputs_above_earlier_inputs_relation_suite(monkeypatch):
    seen = _drawn(relation_law, monkeypatch, "RELATION_ENTRIES", "a b>=a c")
    assert all(a.leq(b) for a, b, _ in seen)
    assert any(a.pairs < b.pairs for a, b, _ in seen)


def test_inputs_above_earlier_inputs_termrel_suite(monkeypatch):
    seen = _drawn(termrel_law, monkeypatch, "TERMREL_ENTRIES",
                  "a b a2>=a b2>=b", work=4, max_pairs=3)
    assert all(a.leq(a2) and b.leq(b2) for a, b, a2, b2 in seen)
    assert any(a.pairs < a2.pairs for a, _, a2, _ in seen)
    assert any(b.pairs < b2.pairs for _, b, _, b2 in seen)


def test_all_row_reports_first_failing_instance():
    """Without a note, an ``all`` row reports the witness of its first
    failing instance: a^1 fails on (1, 2) before a^2 fails on the smaller
    (1, 0)."""
    a = Rel.from_pairs(3, [(1, 2), (2, 0)])
    tree = _parse("all k <= 2: a^k <= Delta", ["a"], None)
    res = json.loads(_holds(tree, ["a"], None, 3, [a]))
    assert res["witness"] == [1, 2]
    assert _holds(_parse("all k <= 2: a^k <= a*", ["a"], None),
                  ["a"], None, 3, [a]) is None


def test_all_instances_share_one_memo(monkeypatch):
    """The instances of an ``all`` share the memo, so check(a) is computed
    once for every arity."""
    calls = []
    monkeypatch.setitem(laws._NAMED, "check", lambda r, st: calls.append(r)
                        or check_refine(r, st))
    law = next(law for law, _ in TERMREL_ENTRIES
               if law.id == "taylor-deriv-power")
    reports = run_termrel_law_suite(SampleConfig(samples=3), [law.id])
    assert reports[0].verdict == "pass"
    assert len(calls) == 3


def _star_samples(u, rng, count):
    """Seeded relation pairs over ``u``, drawn among its depth-1 terms: b
    is drawn like a, or is a+, which has a's star, or a+ less one pair."""
    sup = [t for t in u.terms() if t.depth <= 1]

    def draw():
        return Rel(u, frozenset((rng.choice(sup), rng.choice(sup))
                                for _ in range(rng.randint(0, 6))))

    for _ in range(count):
        a, kind = draw(), rng.randrange(3)
        plus = sorted(a.trans_closure().pairs)
        if kind == 0 or not plus:
            yield a, draw()
        else:
            if kind == 2:
                plus.remove(rng.choice(plus))
            yield a, Rel(u, frozenset(plus))


@pytest.mark.parametrize("formula", ["a <= b*", "a* = b*"])
def test_star_witness_is_the_least_broken_pair(formula):
    """A failing star comparison reports, from rows, the witness building
    both sides and taking the least pair of their difference gives, on
    seeded samples over a depth-2 universe, where both stars can be
    built."""
    u = universe(ARITHMETIC, ("x", "y"), 2)
    tree = _parse(formula, ["a", "b"], None)
    failing = 0
    for a, b in _star_samples(u, random.Random(31), 150):
        astar, bstar = a.kleene_star(), b.kleene_star()
        if formula == "a <= b*":
            diff = a.pairs - bstar.pairs
            assert star_witness(a, b) == min(diff, default=None)
        else:
            diff = astar.pairs ^ bstar.pairs
            assert star_witness(a, b, equal=True) == min(diff, default=None)
        got = _holds(tree, ["a", "b"], None, u, [a, b])
        assert got == (laws._cex([a, b], min(diff)) if diff else None)
        failing += bool(diff)
    assert 20 <= failing <= 140


@pytest.mark.parametrize("formula", ["a <= b*", "a* = b*"])
def test_failing_star_row_at_depth_3_reports(formula, monkeypatch):
    """A failing star row over the termrel suite's default depth-3
    universe, whose stars are too large to build, reports counterexamples
    instead of raising."""
    u = universe(ARITHMETIC, ("x", "y"), 3)
    with pytest.raises(UniverseError):
        Rel.bottom(u).kleene_star()
    monkeypatch.setattr(laws, "TERMREL_ENTRIES", [])
    termrel_row("probe", "probe-star", "inequality", "a b", formula)
    (report,) = run_termrel_law_suite(SampleConfig(samples=10), ["probe-star"])
    assert report.verdict == "fail"
    assert len(report.counterexamples) == 3
    zero, one = app("0"), app("S", app("0"))
    a, b = Rel(u, frozenset({(zero, one)})), Rel.bottom(u)
    res = json.loads(_holds(_parse(formula, ["a", "b"], None), ["a", "b"],
                            None, u, [a, b]))
    assert res["witness"] == ["0", "S(0)"]
