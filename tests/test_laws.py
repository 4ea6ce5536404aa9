"""The property-based law harness: catalog completeness, determinism, and
the mutation self-test."""

import json
import pathlib

import pytest

from relrew.laws import (
    FIXPOINT_ENTRIES,
    RELATION_ENTRIES,
    TERMREL_ENTRIES,
    SampleConfig,
    catalog,
    reports_to_json,
    run_all,
    run_fixpoint_calculus_suite,
    run_relation_law_suite,
    run_termrel_law_suite,
)
from relrew.relalg import corrupted_compose

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
