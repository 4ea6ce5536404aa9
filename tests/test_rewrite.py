"""Rule parsing, single steps, reduction graphs, and exports."""

import json
import pathlib

import pytest

from relrew.rewrite import (
    Rule,
    StepWitness,
    format_trs,
    full_step,
    graph_to_dot,
    graph_to_json,
    ground_instances,
    is_normal_form,
    parallel_step,
    parse_trs,
    reduction_graph,
    root_reducts,
    sequential_step,
    sequential_steps,
)
from relrew.syntax import (TermError, app, apply_subst, decompose, plug,
                           universe, var)
from relrew.termrel import OpStats

X, Y, ZERO = var("x"), var("y"), app("0")


# ---------------------------------------------------------------------------
# parsing

def test_parse_arith(arith):
    assert len(arith.rules) == 4
    assert dict(arith.signature) == {"0": 0, "S": 1, "A": 2, "M": 2}
    assert arith.variables == ("x", "y")


def test_format_parse_round_trip(arith):
    again = parse_trs(format_trs(arith))
    assert again == arith


@pytest.mark.parametrize("text,needle", [
    ("rule x -> 0", "variable"),                      # lhs is a variable
    ("sig A/2 0/0\nvar x y\nrule A(0,x) -> y", "fresh"),  # fresh rhs var
    ("sig A/2\nsig A/3", "arity"),                    # conflicting arity
    ("frob A/2", "directive"),                        # unknown directive
    ("sig A/x", "ARITY"),                             # malformed sig token
    ("sig A/1\nvar A", "operator"),                   # var shadows operator
    # a name declared both ways is rejected in either order, on its line
    ("sig x/0 f/1\nvar x\nrule f(x) -> x", "line 2: 'x' is already an operator"),
    ("var x\nsig x/0 f/1\nrule f(x) -> x", "line 2: 'x' is already a variable"),
    ("sig A/2 0/0\nrule A(0,0) = 0", "->"),           # missing arrow
])
def test_parse_diagnostics(text, needle):
    with pytest.raises(TermError) as e:
        parse_trs(text)
    assert needle in str(e.value)


def test_rule_rejects_variable_lhs():
    with pytest.raises(TermError):
        Rule(X, ZERO)


def test_comments_and_blank_lines():
    trs = parse_trs("# header\n\nsig 0/0 S/1  # trailing\nvar x\nrule S(x) -> x\n")
    assert len(trs.rules) == 1


# ---------------------------------------------------------------------------
# steppers

def test_root_reducts(arith):
    t = arith.parse("A(0,S(0))")
    reducts = root_reducts(arith, t)
    assert [(i, r) for i, _, r in reducts] == [(0, app("S", ZERO))]


def test_sequential_step_worked_example(arith):
    t = arith.parse("M(M(0,0),A(S(x),y))")
    assert arith.parse("M(0,A(S(x),y))") in sequential_step(arith, t)
    assert arith.parse("M(M(0,0),S(A(x,y)))") in sequential_step(arith, t)
    assert arith.parse("0") not in sequential_step(arith, t)


def test_parallel_step_worked_example(arith):
    t = arith.parse("M(M(0,0),A(S(x),y))")
    par = parallel_step(arith, t)
    assert arith.parse("M(0,S(A(x,y)))") in par
    assert t in par  # reflexive
    assert arith.parse("0") not in par


def test_full_step_worked_example(arith):
    t = arith.parse("M(M(0,0),A(S(x),y))")
    assert arith.parse("0") in full_step(arith, t)


def test_step_witnesses_replay(arith):
    t = arith.parse("M(S(0),A(0,S(0)))")
    for target, w in sequential_steps(arith, t):
        rule = arith.rules[w.rule_index]
        assert plug(w.context, apply_subst(rule.rhs, dict(w.subst))) is target


def test_is_normal_form(arith):
    assert is_normal_form(arith, arith.parse("S(S(0))"))
    assert not is_normal_form(arith, arith.parse("A(0,0)"))
    assert is_normal_form(arith, X)


# a left side headed by a constant, two rules with the same head, and a
# non-linear left side
HEADS_TEXT = """\
sig c/0 d/0 g/1 f/2
var x y
rule c -> d
rule g(x) -> c
rule g(g(x)) -> x
rule f(x,x) -> x
rule f(x,y) -> g(y)
"""


def _naive_match(pattern, subject, subst):
    if pattern.is_var:
        if pattern.name in subst:
            return subst[pattern.name] is subject
        subst[pattern.name] = subject
        return True
    return (not subject.is_var and pattern.name == subject.name
            and len(pattern.args) == len(subject.args)
            and all(_naive_match(p, s, subst)
                    for p, s in zip(pattern.args, subject.args)))


def _naive_reducts(trs, t):
    """Every rule tried at the root, with no index and no memo."""
    out = []
    for i, rule in enumerate(trs.rules):
        subst = {}
        if _naive_match(rule.lhs, t, subst):
            out.append((i, tuple(sorted(subst.items())),
                        apply_subst(rule.rhs, subst)))
    return out


def _reference_trs():
    root = pathlib.Path(__file__).parent.parent / "perfbench" / "data"
    texts = [(root / name).read_text() for name in ("arith.trs",
                                                      "nonconfluent.trs")]
    return [parse_trs(text) for text in texts + [HEADS_TEXT]]


@pytest.mark.parametrize("k", range(3))
def test_root_reducts_match_naive_matcher(k):
    """The head index and the reduct table give exactly what trying every
    rule gives, as tuples in rule order, and the witnesses of
    ``sequential_steps`` are the ones built from the naive matches."""
    trs = _reference_trs()[k]
    u = universe(trs.signature, trs.variables, 2)
    matched = 0
    for t in u.terms():
        for _ in range(2):  # the second call reads the table
            got = root_reducts(trs, t)
            assert isinstance(got, tuple)
            assert all(isinstance(r, tuple) and isinstance(r[1], tuple)
                       for r in got)
            assert list(got) == _naive_reducts(trs, t), t
        matched += bool(got)
        naive_steps = [(plug(c, r), StepWitness(c, i, subst))
                       for c, s in decompose(t)
                       for i, subst, r in _naive_reducts(trs, s)]
        assert sequential_steps(trs, t) == naive_steps, t
    assert matched


def test_root_reducts_cover_heads_cases():
    trs = parse_trs(HEADS_TEXT)
    c, d = app("c"), app("d")
    assert root_reducts(trs, c) == ((0, (), d),)
    assert [i for i, _, _ in root_reducts(trs, app("g", app("g", c)))] == [1, 2]
    assert [i for i, _, _ in root_reducts(trs, app("f", c, c))] == [3, 4]
    assert [i for i, _, _ in root_reducts(trs, app("f", c, d))] == [4]
    assert root_reducts(trs, X) == ()


def test_reduct_table_is_per_instance():
    first, second = parse_trs(HEADS_TEXT), parse_trs(HEADS_TEXT)
    assert first == second
    t = app("f", app("c"), app("c"))
    root_reducts(first, t)
    assert t in first.reduct_table
    assert second.reduct_table is not first.reduct_table
    assert t not in second.reduct_table


# ---------------------------------------------------------------------------
# reduction graphs

def test_graph_terminates_and_finds_nf(arith):
    g = reduction_graph(arith, [arith.parse("M(S(S(0)),S(S(0)))")], kind="seq")
    assert g.exhausted
    nfs = g.normal_forms()
    assert len(nfs) == 1
    assert nfs[0] is arith.parse("S(S(S(S(0))))")  # 2*2 = 4


def test_graph_bound_marks_nonexhausted(arith):
    g = reduction_graph(arith, [arith.parse("M(S(S(0)),S(S(0)))")],
                        kind="seq", bound=1)
    assert not g.exhausted


def test_graph_node_cap_truncates(arith):
    """Past ``max_nodes`` the search ends as truncated: the unexpanded
    nodes form the frontier, and nothing is raised."""
    g = reduction_graph(arith, [arith.parse("M(S(S(0)),S(S(0)))")],
                        kind="seq", max_nodes=3)
    assert not g.exhausted
    assert g.frontier and g.frontier < g.nodes
    full = reduction_graph(arith, [arith.parse("M(S(S(0)),S(S(0)))")],
                           kind="seq")
    assert g.nodes < full.nodes


def test_graph_reachable(arith):
    seed = arith.parse("A(S(0),0)")
    g = reduction_graph(arith, [seed], kind="seq")
    assert arith.parse("S(0)") in g.reachable(seed)


def test_ground_instances_on_u2(arith):
    u = universe(arith.signature, arith.variables, 2)
    st = OpStats()
    g = ground_instances(arith, u, st)
    # every pair really is a root step, and lhs instances whose reduct
    # escapes the universe are counted
    for t, r in g.pairs:
        assert r in [red for _, _, red in root_reducts(arith, t)]
    assert len(g.pairs) == 66
    assert st.dropped == 126


# ---------------------------------------------------------------------------
# exports

def test_graph_to_json_schema(arith):
    g = reduction_graph(arith, [arith.parse("A(S(0),0)")], kind="seq")
    payload = json.loads(graph_to_json(g))
    assert payload["kind"] == "seq"
    assert payload["exhausted"] is True
    assert "S(S(0))" in payload["nodes"] or "S(0)" in payload["normal_forms"]
    assert all(len(e) == 2 for e in payload["edges"])


def test_graph_to_dot_deterministic(arith):
    g1 = reduction_graph(arith, [arith.parse("M(S(0),S(0))")], kind="seq")
    g2 = reduction_graph(arith, [arith.parse("M(S(0),S(0))")], kind="seq")
    assert graph_to_dot(g1) == graph_to_dot(g2)
    assert graph_to_dot(g1).startswith("digraph")
