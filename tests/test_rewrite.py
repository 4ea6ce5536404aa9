"""Rule parsing, single steps, reduction graphs, and exports."""

import json
import os
import pathlib
import subprocess
import sys
from itertools import product

import pytest

from relrew.rewrite import (
    Rule,
    STEPPERS,
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
)
from relrew import rewrite
from relrew.analysis import seed_terms
from relrew.cli import main as cli_main
from relrew.relalg import reach
from relrew.syntax import (MAX_TERM_DEPTH, Term, TermError, Universe, app,
                           apply_subst, subterms, universe, var)
from relrew.termrel import (OpStats, full_closure, parallel_closure,
                            sequential_closure)

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
    assert root_reducts(arith, t) == ((0, app("S", ZERO)),)


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


def _subterm_at(t, position):
    for k in position:
        t = t.args[k]
    return t


def _replace_at(t, position, s):
    if not position:
        return s
    k, rest = position[0], position[1:]
    return Term(t.name, t.args[:k] + (_replace_at(t.args[k], rest, s),)
                + t.args[k + 1:])


def _path_between(p, q):
    """The argument indices down to the one subterm where p and q differ."""
    position = ()
    while p.name == q.name:
        differ = [k for k, (a, b) in enumerate(zip(p.args, q.args))
                  if a is not b]
        if len(differ) != 1:
            break
        k = differ[0]
        position, p, q = position + (k,), p.args[k], q.args[k]
    return position


def test_step_witnesses_replay(arith):
    """An edge's rule labels and the path on which its ends differ name
    the rewrite: the rule's left side matches the subterm there, and
    putting the right side in its place gives the target."""
    t = arith.parse("M(S(0),A(0,S(A(0,0))))")
    targets = {_path_between(t, q): q for q in sequential_step(arith, t)}
    labels = {position: rewrite._rules_between(arith, t, q)
              for position, q in targets.items()}
    assert labels == {(): {3}, (1,): {0}, (1, 1, 0): {0}}
    for position, q in targets.items():
        for i in labels[position]:
            rule, subst = arith.rules[i], {}
            assert _naive_match(rule.lhs, _subterm_at(t, position), subst)
            assert _replace_at(t, position, apply_subst(rule.rhs, subst)) is q


def test_is_normal_form(arith):
    assert is_normal_form(arith, arith.parse("S(S(0))"))
    assert not is_normal_form(arith, arith.parse("A(0,0)"))
    assert is_normal_form(arith, X)


@pytest.mark.parametrize("k", range(3))
def test_is_normal_form_matches_sequential_step(k):
    trs = _reference_trs()[k]
    terms = universe(trs.signature, trs.variables, 2).terms()
    assert any(is_normal_form(trs, t) for t in terms)
    for t in terms:
        assert is_normal_form(trs, t) == (not sequential_step(trs, t))


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
            out.append((i, apply_subst(rule.rhs, subst)))
    return out


def _reference_trs():
    root = pathlib.Path(__file__).parent.parent / "perfbench" / "data"
    texts = [(root / name).read_text() for name in ("arith.trs",
                                                      "nonconfluent.trs")]
    return [parse_trs(text) for text in texts + [HEADS_TEXT]]


def _selfloop_trs():
    """Sequential self-loops, and an edge that two rules take."""
    path = pathlib.Path(__file__).parent / "data" / "selfloop.trs"
    return parse_trs(path.read_text())


@pytest.mark.parametrize("k", range(3))
def test_root_reducts_match_naive_matcher(k):
    """The head index and the reduct table give exactly what trying every
    rule gives, as tuples in rule order."""
    trs = _reference_trs()[k]
    u = universe(trs.signature, trs.variables, 2)
    matched = 0
    for t in u.terms():
        for _ in range(2):  # the second call reads the table
            got = root_reducts(trs, t)
            assert isinstance(got, tuple)
            assert all(isinstance(r, tuple) and isinstance(r[1], Term)
                       for r in got)
            assert list(got) == _naive_reducts(trs, t), t
        matched += bool(got)
    assert matched


# The reference stepper: one-hole contexts.  A context is a term with one
# occurrence of HOLE, which no signature admits as an operator name.
HOLE = Term("□")


def _plug(context, t):
    if context is HOLE:
        return t
    return Term(context.name, tuple(_plug(a, t) for a in context.args),
                context.is_var)


def _decompose(t):
    """All ways to write ``t = _plug(c, s)``, in pre-order of s."""
    out = [(HOLE, t)]
    for i, a in enumerate(t.args):
        for c, s in _decompose(a):
            out.append((Term(t.name, t.args[:i] + (c,) + t.args[i + 1:]), s))
    return out


def _reference_steps(trs, t):
    """t's sequential steps by the context reference: each target, with
    the indices of the rules that take t there."""
    splits = _decompose(t)
    # one split per subterm occurrence, each plugging back to t
    assert len(splits) == len(list(subterms(t)))
    assert all(_plug(c, s) is t for c, s in splits)
    out = {}
    for c, s in splits:
        for i, r in _naive_reducts(trs, s):
            out.setdefault(_plug(c, r), set()).add(i)
    return out


def _distinct(targets):
    """A stepper's targets as a set, after checking that they come as a
    tuple with no term repeated."""
    assert isinstance(targets, tuple), targets
    out = set(targets)
    assert len(out) == len(targets), targets
    return out


def _assert_matches_reference(trs, t):
    reference = _reference_steps(trs, t)
    assert _distinct(sequential_step(trs, t)) == set(reference), t
    for q, used in reference.items():
        assert rewrite._rules_between(trs, t, q) == used, (t, q)


@pytest.mark.parametrize("k", range(4))
def test_sequential_step_matches_reference_stepper(k):
    """Over a depth-2 universe, the memoised stepper gives the context
    stepper's targets, and each edge's rule labels are the rules the
    context stepper takes it with."""
    trs = (_reference_trs() + [_selfloop_trs()])[k]
    for t in universe(trs.signature, trs.variables, 2).terms():
        _assert_matches_reference(trs, t)


def test_sequential_step_matches_reference_stepper_on_seeds(arith):
    """The same, on every depth-3 seed of arith and of the self-loop
    system, where the swap at the root of f(g(g(a)),g(a)) changes both
    arguments, and one of them also steps by itself."""
    assert len(seed_terms(arith, 3)) == 3918
    for trs in (arith, _selfloop_trs()):
        for t in seed_terms(trs, 3):
            _assert_matches_reference(trs, t)


def test_steppers_return_distinct_targets_of_the_closures(arith):
    """On every node of arith's closure from its depth-2 seeds, each
    stepper returns a tuple with no term repeated, and as a set it is the
    node's row of the matching closure of the rule relation, over the
    universe of the nodes' subterms.  The closure is closed under every
    kind of step, so every target lies in that universe."""
    g = reduction_graph(arith, seed_terms(arith, 2), kind="full")
    assert g.exhausted
    u = Universe.from_terms(arith.signature, arith.variables, g.nodes)
    ground = ground_instances(arith, u)
    for step, closure in ((sequential_step, sequential_closure),
                          (parallel_step, parallel_closure),
                          (full_step, full_closure)):
        rows = {t: set() for t in g.nodes}
        for p, q in closure(ground).pairs:
            if p in rows:
                rows[p].add(q)
        for t, row in rows.items():
            assert _distinct(step(arith, t)) == row, (step.__name__, t)


@pytest.mark.parametrize("k", range(2))  # the third's rule-less head is a constant
def test_full_step_on_ruleless_head_is_argument_product(k):
    """Under a head no rule has, a full step rewrites the arguments only:
    its targets are the product of the arguments' full steps."""
    trs = _reference_trs()[k]
    checked = 0
    for t in universe(trs.signature, trs.variables, 2).terms():
        if t.is_var or t.name in trs.head_index:
            continue
        assert _distinct(full_step(trs, t)) == {
            Term(t.name, combo)
            for combo in product(*(full_step(trs, a) for a in t.args))}, t
        checked += bool(t.args)
    assert checked


def test_root_reducts_cover_heads_cases():
    trs = parse_trs(HEADS_TEXT)
    c, d = app("c"), app("d")
    assert root_reducts(trs, c) == ((0, d),)
    assert [i for i, _ in root_reducts(trs, app("g", app("g", c)))] == [1, 2]
    assert [i for i, _ in root_reducts(trs, app("f", c, c))] == [3, 4]
    assert [i for i, _ in root_reducts(trs, app("f", c, d))] == [4]
    assert root_reducts(trs, X) == ()


def test_reduct_table_is_per_instance():
    first, second = parse_trs(HEADS_TEXT), parse_trs(HEADS_TEXT)
    assert first == second
    t = app("f", app("c"), app("c"))
    root_reducts(first, t)
    assert t in first.reduct_table
    assert second.reduct_table is not first.reduct_table
    assert t not in second.reduct_table


def test_equal_trs_share_the_step_memo():
    """Two parses of one text are equal, hash alike, and so share the
    steppers' memo entries: a step through the second is a cache hit."""
    text = "sig p/1 q/0\nvar x\nrule p(x) -> x\n"
    first, second = parse_trs(text), parse_trs(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    t = app("p", app("p", app("q")))
    assert sequential_step(first, t) == (app("p", app("q")),)
    before = sequential_step.cache_info()
    assert sequential_step(second, t) == (app("p", app("q")),)
    after = sequential_step.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


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


# Builds node-capped graphs after allocating objects and interning terms,
# so that their terms sit at other addresses, and so hash in another order,
# than in a plain run.
_SHIFTED_CAP = """
import sys
from relrew.rewrite import graph_to_json, parse_trs, reduction_graph
from relrew.syntax import app
n = int(sys.argv[1])
keep = [object() for _ in range(n)] + [app(f"n{i}") for i in range(n)]
trs = parse_trs(open(sys.argv[2]).read())
for kind in ("seq", "par", "full"):
    seed = trs.parse("M(S(S(0)),A(S(0),S(0)))")
    print(graph_to_json(reduction_graph(trs, [seed], kind=kind, max_nodes=40)))
"""


def test_graph_node_cap_independent_of_interning():
    """A graph cut off at the node cap keeps its finished layers only, so
    it does not depend on the order in which the steppers' sets iterate."""
    root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outs = [subprocess.run(
        [sys.executable, "-c", _SHIFTED_CAP, str(noise),
         str(root / "perfbench" / "data" / "arith.trs")],
        env=env, capture_output=True, text=True, check=True).stdout
        for noise in (0, 33, 1000)]
    assert '"exhausted": false' in outs[0]
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("cap", range(2, 8))
def test_graph_node_cap_independent_of_seed_order(arith, cap):
    """Whether a layer is kept is decided once it is finished, so the
    order of its nodes (here, of the seeds) does not change the graph."""
    seeds = [arith.parse("M(S(S(0)),S(S(0)))"), arith.parse("A(S(0),0)")]
    for kind in STEPPERS:
        g, h = (reduction_graph(arith, order, kind=kind, max_nodes=cap)
                for order in (seeds, seeds[::-1]))
        assert (g.nodes, g.frontier) == (h.nodes, h.frontier), kind
        assert len(g.nodes) <= max(cap, len(seeds))


# each h(a) has two parallel reducts, so step sets multiply with width;
# every test gets its own signature, and so its own stepper memo
_DOUBLING = "sig a/0 h/1 k/2 {}/0\nvar x\nrule h(x) -> k(h(x),h(x))\n"
_WIDE_SEED = "k(h(a),h(a))"


@pytest.mark.parametrize("kind", ["par", "full"])
def test_wide_node_takes_its_layer_back(monkeypatch, kind):
    """A node with more than MAX_NODES targets is stopped before they are
    built, and the graph is the one the node cap alone gives."""
    trs = parse_trs(_DOUBLING.format("w" + kind))
    monkeypatch.setattr(rewrite, "MAX_NODES", 3)
    with pytest.raises(rewrite._TooWide):  # the seed has 4 targets
        STEPPERS[kind](trs, trs.parse(_WIDE_SEED))
    for cap in range(1, 2000, 37):  # graphs of 1, 25 and 676 nodes
        graphs = []
        for guard in (cap, 10 ** 9):
            monkeypatch.setattr(rewrite, "MAX_NODES", guard)
            trs = parse_trs(_DOUBLING.format(f"c{kind}{cap}x{guard}"))
            g = reduction_graph(trs, [trs.parse(_WIDE_SEED)], kind=kind,
                                max_nodes=cap)
            graphs.append((g.nodes, g.frontier))
        assert graphs[0] == graphs[1], cap


def test_graph_reachable(arith):
    seed = arith.parse("A(S(0),0)")
    g = reduction_graph(arith, [seed], kind="seq")
    assert arith.parse("S(0)") in reach({t: g.steps(t) for t in g.nodes},
                                        (seed,))


def _graph_testing_every_target(trs, seeds, kind, bound=None,
                                max_nodes=rewrite.MAX_NODES):
    """Reference for ``reduction_graph``: the same breadth-first loop, but
    it tests the depth of every target of a node, new to the graph or
    not.  Returns the nodes and the frontier."""
    step = STEPPERS[kind]
    nodes, unexpanded = set(seeds), set()
    frontier = list(dict.fromkeys(seeds))
    layer = 0
    while frontier and (bound is None or layer < bound):
        layer += 1
        next_frontier, wide = [], False
        for t in frontier:
            if len(nodes) > max_nodes:
                break
            try:
                targets = step(trs, t)
            except rewrite._TooWide:
                wide = True
                break
            if any(s.depth > MAX_TERM_DEPTH for s in targets):
                unexpanded.add(t)
                continue
            for target in targets:
                if target not in nodes:
                    nodes.add(target)
                    next_frontier.append(target)
        if wide or len(nodes) > max_nodes:
            nodes.difference_update(next_frontier)
            break
        frontier = next_frontier
    unexpanded.update(frontier)
    return nodes, unexpanded


def test_graph_deep_seed_reduct_matches_reference(arith):
    """A seed deeper than the depth limit, built as a library caller can,
    is a reduct of another node.  That node is left unexpanded although
    the reduct is no new target, and every graph equals the reference's."""
    tower = ZERO
    for _ in range(MAX_TERM_DEPTH - 1):
        tower = app("S", tower)
    shallow = app("A", app("S", ZERO), tower)  # at the depth limit
    deep = app("S", app("A", ZERO, tower))     # its root reduct, one deeper
    deeper = app("A", ZERO, deep)              # its root reduct is deep
    assert (shallow.depth, deep.depth) == (MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1)
    for seeds in ([shallow, deep], [deep, shallow], [deeper, deep],
                  [shallow, deeper, deep]):
        for kind in STEPPERS:
            for bound, cap in ((None, rewrite.MAX_NODES), (1, 3), (None, 2)):
                g = reduction_graph(arith, seeds, kind=kind, bound=bound,
                                    max_nodes=cap)
                assert (g.nodes, g.frontier) == _graph_testing_every_target(
                    arith, seeds, kind, bound, cap), (seeds, kind, bound, cap)
            g = reduction_graph(arith, seeds, kind=kind)
            assert shallow not in g.nodes or shallow in g.frontier


GROWING = "sig a/0 f/1\nvar x\nrule f(x) -> f(f(x))\n"
CUT_OFF_SEED = "M(S(0),A(0,A(S(0),0)))"


def _cut_off_graphs(arith):
    """For each step kind, graphs cut off by ``bound``, by the node cap and
    by the reduct-depth limit (the reducts of f(x) -> f(f(x)) grow)."""
    growing = parse_trs(GROWING)
    seed = arith.parse(CUT_OFF_SEED)
    for kind in STEPPERS:
        yield reduction_graph(arith, [seed], kind=kind, bound=2)
        yield reduction_graph(arith, [seed], kind=kind, max_nodes=20)
        yield reduction_graph(growing, [growing.parse("f(a)")], kind=kind)


def test_graph_steps_respect_frontier(arith):
    """An expanded node's steps are the stepper's and stay in the graph;
    a frontier node has no steps under any kind."""
    for g in _cut_off_graphs(arith):
        assert not g.exhausted
        for t in g.nodes - g.frontier:
            assert g.steps(t) == STEPPERS[g.kind](g.trs, t)
            assert _distinct(g.steps(t)) <= g.nodes
        for t in g.frontier:
            assert all(g.steps(t, kind) == () for kind in STEPPERS)


@pytest.mark.parametrize("kind", list(STEPPERS))
def test_reduce_text_edges_match_json(arith_file, tmp_path, capsys, kind):
    """On graphs cut off by ``--bound`` and by the reduct-depth limit, the
    text report's edge count is the number of JSON edges."""
    growing = tmp_path / "growing.trs"
    growing.write_text(GROWING)
    for argv in ([arith_file, CUT_OFF_SEED, "--bound", "2"],
                 [str(growing), "f(a)"]):
        argv = ["reduce", *argv, "--kind", kind]
        assert cli_main(argv + ["--format", "json"]) == 2
        edges = len(json.loads(capsys.readouterr().out)["edges"])
        assert cli_main(argv + ["--format", "text"]) == 2
        assert f"edges: {edges}\n" in capsys.readouterr().out


def test_ground_instances_on_u2(arith):
    u = universe(arith.signature, arith.variables, 2)
    st = OpStats()
    g = ground_instances(arith, u, st)
    # every pair really is a root step, and lhs instances whose reduct
    # escapes the universe are counted
    for t, r in g.pairs:
        assert r in [red for _, red in root_reducts(arith, t)]
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


def test_deep_seq_dot_edges_match_json(arith):
    """On the seq graph of a right-nested A(0,A(0,...0)) at the depth
    limit, the DOT edges are the JSON edges, and each is labelled r0.  A
    node's redexes all contract to the same term, so it has one edge,
    which rule 0 takes at each of its A's."""
    t = ZERO
    for _ in range(MAX_TERM_DEPTH):
        t = app("A", ZERO, t)
    g = reduction_graph(arith, [t], kind="seq")
    assert g.exhausted
    edges = json.loads(graph_to_json(g))["edges"]
    assert len(edges) == MAX_TERM_DEPTH
    dot = [line for line in graph_to_dot(g).splitlines() if " -> " in line]
    assert dot == [f'  "{p}" -> "{q}" [label="r0"];' for p, q in edges]
