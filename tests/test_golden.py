"""Byte-identical reports: each run must reproduce its recorded golden
output and exit code.  The CLI goldens under ``tests/data/golden/`` were
written by the commit before root-step memoisation and lift membership by
construction, and the two ``mutation-*`` goldens, whose failing laws pin the
counterexample witnesses and notes, by the commit before the formula rows.
One entry of the compose-mutation golden, ``rel-cr-iff-confluence``, was
written again by the commit that decided the abstract checks on bitset
rows: those checks compose no relations, so a corrupted composition no
longer makes them disagree, and the law passes.
The ``reduce-*`` goldens, one ground and one open arithmetic seed under each
step kind and output format, were written by the commit before sequential
steps were taken by position; the seq DOT goldens pin the rule labels.
The ``reduce-selfloop-*`` goldens, whose seq graph has self-loops and an
edge labelled with two rules, were written by the commit before those
labels were read from the root reducts.
The goldens of cut-off graphs and closures, whose names end in ``-bN`` for
``--bound N``, were written by the commit before reduction graphs stopped
storing their edges.  The goldens of the two cyclic systems under
``tests/data/`` (Newman's counterexample and a system with two two-node
bottom SCCs) were written by the commit before every analysis report took
its verdict from one rule.  A change that alters a report or a verdict
shows up here."""

import json
import os
from contextlib import nullcontext

import pytest

from relrew.cli import main
from relrew.laws import (SampleConfig, reports_to_json, run_all,
                         run_termrel_law_suite)
from relrew.relalg import corrupted_compose

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
TRS_DIRS = (os.path.join(ROOT, "tests", "data"),
            os.path.join(ROOT, "perfbench", "data"))

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as f:
    EXIT_CODES = json.load(f)

REDUCE_SEEDS = {"arith": {"ground": "M(S(0),A(0,A(S(0),0)))",
                          "open": "A(S(x),M(S(0),y))"},
                "newman": {"b": "b"},
                "selfloop": {"s": "f(g(g(a)),g(a))"}}
REDUCE_FORMATS = {"txt": "text", "dot": "dot", "json": "json"}


def _argv(name):
    if name == "check-laws-seed3-samples5.json":
        return ["check-laws", "--seed", "3", "--samples", "5"]
    stem, ext = name.split(".")
    command, trs, *rest = stem.split("-")
    bound = ["--bound", rest.pop()[1:]] if rest[-1].startswith("b") else []
    path = next(p for p in (os.path.join(d, f"{trs}.trs") for d in TRS_DIRS)
                if os.path.exists(p))
    if command == "reduce":
        seed, kind = rest
        return ["reduce", path, REDUCE_SEEDS[trs][seed], "--kind", kind,
                "--format", REDUCE_FORMATS[ext]] + bound
    check, _ = rest
    return ["analyze", path, check, "--depth", "2", "--format", "json"] + bound


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_golden_report(name, capsys):
    code = main(_argv(name))
    assert capsys.readouterr().out == _golden(name)
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("name", ["analyze-twocycle-confluence-d2.json",
                                  "analyze-twocycle-cr-d2.json"])
def test_golden_condensation_mutation_caught(name, one_node_bottoms, capsys):
    """A condensation that misses the two-node bottom SCCs finds no
    unjoinable pair, so its reports leave their goldens."""
    code = main(_argv(name))
    assert capsys.readouterr().out != _golden(name)
    assert code != EXIT_CODES[name]


COMPOSE_MUTATION = "mutation-compose-run-all-seed3-samples5.json"
LIFT_MUTATION = "mutation-lift-termrel-seed3-samples5.json"


def _mutation_report(name, request):
    """The report of a ``mutation-*`` golden's run, under its mutant."""
    if name == COMPOSE_MUTATION:
        with corrupted_compose():
            return reports_to_json(run_all(SampleConfig(seed=3, samples=5)))
    request.getfixturevalue("lossy_lift")
    return reports_to_json(run_termrel_law_suite(SampleConfig(seed=3,
                                                              samples=5)))


def test_golden_compose_mutation_report(request):
    out = _mutation_report(COMPOSE_MUTATION, request)
    assert out == _golden(COMPOSE_MUTATION)


def test_golden_lift_mutation_report(request):
    assert _mutation_report(LIFT_MUTATION, request) == _golden(LIFT_MUTATION)


LAW_GOLDENS = ("check-laws-seed3-samples5.json", COMPOSE_MUTATION,
               LIFT_MUTATION)


def _leaves_golden(name, request, capsys):
    """Whether the run of golden ``name``, under the mutants in force and
    the golden's own, gives other bytes than the golden.  A law-suite
    golden is compared law by law in its own order, up to the first report
    that differs: each law samples with an RNG of its own, so its report
    alone is its report in the whole run."""
    if name not in LAW_GOLDENS:
        main(_argv(name))
        return capsys.readouterr().out != _golden(name)
    mutant = corrupted_compose() if name == COMPOSE_MUTATION else nullcontext()
    if name == LIFT_MUTATION:
        request.getfixturevalue("lossy_lift")
    cfg = SampleConfig(seed=3, samples=5)
    with mutant:
        return any(json.loads(reports_to_json(run_all(cfg, [want["law"]])))
                   != [want] for want in json.loads(_golden(name)))


@pytest.mark.parametrize("name", LAW_GOLDENS)
def test_golden_law_by_law_unmutated(name, request, capsys):
    """Under its own mutant only, a law-suite golden's laws, run one at a
    time, reproduce it: the law-by-law comparison can match, so where it
    fails under a further mutant, that mutant moved a report."""
    assert not _leaves_golden(name, request, capsys)


SUBST_GOLDENS = ["analyze-arith-cp-d2.json", "analyze-nonconfluent-cp-d2.json",
                 "check-laws-seed3-samples5.json", COMPOSE_MUTATION,
                 LIFT_MUTATION]


@pytest.mark.parametrize("name", SUBST_GOLDENS)
def test_golden_subst_mutation_caught(name, lossy_subst, request, capsys):
    """A relational substitution that loses a pair changes the critical
    pair reports and the substitution laws' verdicts."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", SUBST_GOLDENS)
def test_golden_subst_columns_mutation_caught(name, left_images_subst,
                                              request, capsys):
    """A relational substitution that instantiates the right side of each
    pair from the left images relates instances of one substitution only,
    so the same reports leave their goldens."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", ["check-laws-seed3-samples5.json",
                                  COMPOSE_MUTATION])
def test_golden_star_rows_mutation_caught(name, shallow_stars, request,
                                          capsys):
    """Abstract star rows cut to one step make the Church-Rosser and
    confluence verdicts disagree, so rel-cr-iff-confluence leaves the
    law goldens."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", ["check-laws-seed3-samples5.json",
                                  COMPOSE_MUTATION, LIFT_MUTATION])
def test_golden_semi_naive_mutation_caught(name, stale_old, request, capsys):
    """Semi-naive evaluation whose ``old`` never takes the previous
    generation's ``every`` misses the argument combinations of older pairs
    before a new one, so the closure laws leave their goldens."""
    assert _leaves_golden(name, request, capsys)


def _reduce_goldens(kind):
    return sorted(n for n in EXIT_CODES
                  if n.startswith("reduce-arith-") and f"-{kind}" in n)


@pytest.mark.parametrize("name", _reduce_goldens("full"))
def test_golden_full_step_mutation_caught(name, root_only_full, request,
                                          capsys):
    """A full step that contracts only the root of the term it starts from
    misses the redexes its parallel argument steps create."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", _reduce_goldens("par") + [
    "analyze-arith-spectrum-d2.json",
    "analyze-nonconfluent-spectrum-d2.json",
    "analyze-nonconfluent-spectrum-d2-b1.json"])
def test_golden_parallel_step_mutation_caught(name, first_arg_par, request,
                                              capsys):
    """A parallel step that rewrites only the first argument loses the
    graphs' parallel edges, and the spectrum finds seq-steps outside it."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", ["analyze-newman-cr-d2.json",
                                  "analyze-nonconfluent-cr-d2.json",
                                  "check-laws-seed3-samples5.json"])
def test_golden_reach_mutation_caught(name, unexpanded_reach, request,
                                      capsys):
    """A graph search that stops one step from its seeds splits the weak
    components Church-Rosser checks and shortens the stars of the laws."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", _reduce_goldens("seq") + [
    "analyze-arith-spectrum-d2.json",
    "analyze-nonconfluent-confluence-d2.json",
    "analyze-nonconfluent-cr-d2.json",
    "analyze-nonconfluent-spectrum-d2-b1.json",
    "analyze-nonconfluent-spectrum-d2.json",
    "analyze-twocycle-confluence-d2.json",
    "analyze-twocycle-cr-d2.json",
    "analyze-twocycle-spectrum-d2.json",
    "analyze-twocycle-weak-d2.json"])
def test_golden_sequential_step_mutation_caught(name, no_last_arg_seq,
                                                request, capsys):
    """Sequential steps that never rewrite inside a last argument lose the
    graphs' seq edges there, and with them peaks, joins and stars."""
    assert _leaves_golden(name, request, capsys)


@pytest.mark.parametrize("name", ["analyze-newman-spectrum-d2.json",
                                  "analyze-newman-weak-d2.json",
                                  "analyze-twocycle-confluence-d2.json",
                                  "analyze-twocycle-cr-d2.json",
                                  "analyze-twocycle-spectrum-d2.json"])
def test_golden_condense_mutation_caught(name, singleton_components,
                                         request, capsys):
    """A condensation that never merges a cycle's nodes loses an edge of
    each cycle, so the cyclic systems' reducts stop reaching each other."""
    assert _leaves_golden(name, request, capsys)
