"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line (visible with ``pytest -s`` or on failure).  Time budgets are
asserted where the criterion pins one.
"""

import json
import random
import time

from relrew.analysis import (
    HOLDS,
    MAX_WITNESSES,
    check_cp,
    check_weak_confluence_technique,
    exhaustive_weak_confluence,
    is_church_rosser,
    is_confluent,
    seed_terms,
    spectrum_survey,
)
from relrew.cli import EXIT_OK, main
from relrew.laws import SampleConfig, run_all, run_relation_law_suite
from relrew.relalg import Rel, corrupted_compose, random_rel
from relrew.rewrite import (
    full_step,
    ground_instances,
    parallel_step,
    reduction_graph,
    sequential_step,
)
from relrew.syntax import Universe, universe
from relrew.termrel import full_closure, parallel_closure


def _report(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_worked_reductions(arith):
    """The three kinds of reduction on the worked example, exactly."""
    t0 = time.monotonic()
    t = arith.parse("M(M(0,0),A(S(x),y))")
    seq_ok = arith.parse("M(0,A(S(x),y))") in sequential_step(arith, t)
    par_ok = arith.parse("M(0,S(A(x,y)))") in parallel_step(arith, t)
    full_ok = arith.parse("0") in full_step(arith, t)
    elapsed = time.monotonic() - t0
    _report(1, seq_ok and par_ok and full_ok and elapsed < 1.0,
            f"sequential/parallel/full worked reducts present in {elapsed:.3f}s")


def test_criterion_2_spectrum_depth3(arith):
    """Step inclusions pointwise and star equality on the depth-3 reachable
    closure, under 60 s."""
    t0 = time.monotonic()
    report = spectrum_survey(arith, seed_terms(arith, 3))
    elapsed = time.monotonic() - t0
    # spectrum_survey keeps at most MAX_WITNESSES * 4 violations
    found = len(report.inclusion_violations)
    capped = "at least " if found == MAX_WITNESSES * 4 else ""
    _report(2, report.ok and elapsed < 60.0,
            f"{report.verdict}: {report.nodes} nodes, "
            f"{capped}{found} violations, "
            f"stars_equal={report.stars_equal}, {elapsed:.1f}s")


def test_criterion_3_closures_match_steppers(arith):
    """parallel_closure and full_closure of the rule relation, restricted to
    the reachable closure, equal the inductive relations exactly."""
    nodes = reduction_graph(arith, seed_terms(arith, 3), kind="full").nodes
    u = Universe.from_terms(arith.signature, arith.variables, nodes)
    g = ground_instances(arith, u)
    nset = set(nodes)
    pc = {(p, q) for p, q in parallel_closure(g).pairs
          if p in nset and q in nset}
    fc = {(p, q) for p, q in full_closure(g).pairs
          if p in nset and q in nset}
    ind_par = {(t, s) for t in nodes for s in parallel_step(arith, t)
               if s in nset}
    ind_full = {(t, s) for t in nodes for s in full_step(arith, t)
                if s in nset}
    _report(3, pc == ind_par and fc == ind_full,
            f"parallel ({len(pc)} pairs) and full ({len(fc)} pairs) closures "
            "equal the inductive relations")


def test_criterion_4_law_suite_default_config():
    """Every law passes with 0 counterexamples over >= 200 samples at the
    default config; side-condition skips stay below 100%; under 10 min."""
    t0 = time.monotonic()
    cfg = SampleConfig()
    assert cfg.samples >= 200
    reports = run_all(cfg)
    elapsed = time.monotonic() - t0
    hard_fail = [r.law_id for r in reports if r.verdict != "pass"]
    all_skipped = [r.law_id for r in reports if r.skips >= r.samples]
    ok = not hard_fail and not all_skipped and elapsed < 600.0
    _report(4, ok,
            f"{len(reports)} laws x {cfg.samples} samples, "
            f"hard failures={hard_fail}, vacuous={all_skipped}, {elapsed:.0f}s")


def test_criterion_5_cr_iff_confluence():
    """Church-Rosser and confluence verdicts agree on 1000 random relations
    over carriers of size <= 6, under 30 s."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = random_rel(n, rng.uniform(0.05, 0.6), rng)
        if is_church_rosser(a).ok != is_confluent(a).ok:
            disagreements += 1
    elapsed = time.monotonic() - t0
    _report(5, disagreements == 0 and elapsed < 30.0,
            f"1000 samples, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_6_cp_pipeline(arith):
    """CP-1' holds for arithmetic; the system is weakly confluent on the
    depth-3 reachable closure; and premises => conclusion of the
    weak-confluence technique on every non-overflowing sample."""
    _, _, cp1_prime = check_cp(arith, depth=2).checks
    cp1p_ok = cp1_prime.verdict == HOLDS

    weak = exhaustive_weak_confluence(arith, seed_terms(arith, 3))
    weak_ok = weak.verdict == HOLDS

    u = universe(arith.signature, arith.variables, 2)
    sup = u.terms_up_to(1)
    rng = random.Random(77)
    implication_ok = True
    exercised = 0
    for _ in range(80):
        pairs = frozenset(
            (rng.choice(sup), rng.choice(sup)) for _ in range(rng.randint(0, 5))
        )
        rep = check_weak_confluence_technique(Rel(u, pairs))
        root, inner, conclusion = rep.checks
        if root.ok and inner.ok and rep.overflow_dropped == 0:
            exercised += 1
            if not conclusion.ok:
                implication_ok = False
    _report(6, cp1p_ok and weak_ok and implication_ok and exercised > 0,
            f"CP-1' {cp1_prime.verdict}, weak confluence {weak.verdict}, "
            f"technique implication held on {exercised} samples")


def test_criterion_7_star_oracle():
    """kleene_star equals a Floyd-Warshall closure on 500 random relations,
    carriers <= 8."""
    def fw(a):
        n = a.n
        reach = [[i == j for j in range(n)] for i in range(n)]
        for i, j in a.pairs:
            reach[i][j] = True
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    for j in range(n):
                        if reach[k][j]:
                            reach[i][j] = True
        return frozenset((i, j) for i in range(n) for j in range(n)
                         if reach[i][j])

    rng = random.Random(515)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        a = random_rel(n, rng.uniform(0.05, 0.5), rng)
        if a.kleene_star().pairs != fw(a):
            mismatches += 1
    _report(7, mismatches == 0, f"500 samples, {mismatches} mismatches")


def test_criterion_8_determinism(tmp_path):
    """Two cmd_check_laws runs with identical config and seed produce
    byte-identical reports."""
    args = ["check-laws", "--seed", "42", "--samples", "20"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    c1 = main(args + ["--output", str(out1)])
    c2 = main(args + ["--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(8, c1 == EXIT_OK and c2 == EXIT_OK and identical,
            f"replayed {len(json.loads(out1.read_text()))} law reports "
            "byte-identically")


def test_criterion_9_mutation_self_test():
    """Corrupting composition makes at least one law fail."""
    with corrupted_compose():
        reports = run_relation_law_suite(SampleConfig(samples=10))
    failing = [r.law_id for r in reports if r.verdict == "fail"]
    _report(9, len(failing) >= 1,
            f"{len(failing)} laws caught the corrupted composition")
