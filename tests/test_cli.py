"""End-to-end command-line behaviour: exit codes, report formats, DOT
validity."""

import json
import os
import re
import subprocess
import sys

import pytest

import relrew

from relrew.cli import (
    EXIT_FAILS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNCONFIRMED,
    main,
)
from relrew.syntax import DEFAULT_UNIVERSE_CAP, MAX_TERM_DEPTH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NONCONFLUENT = "sig a/0 b/0 c/0\nrule a -> b\nrule a -> c\n"


# ---------------------------------------------------------------------------
# a minimal DOT validator

_DOT_NODE = re.compile(r'^\s*"[^"]+"\s*(\[[^\]]*\])?;$')
_DOT_EDGE = re.compile(r'^\s*"[^"]+"\s*->\s*"[^"]+"\s*(\[[^\]]*\])?;$')
_DOT_ATTR = re.compile(r"^\s*\w+\s*=\s*\w+;$")


def assert_valid_dot(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert re.match(r"^digraph\s+\w+\s*\{$", lines[0]), lines[0]
    assert lines[-1].strip() == "}"
    for ln in lines[1:-1]:
        assert (_DOT_NODE.match(ln) or _DOT_EDGE.match(ln)
                or _DOT_ATTR.match(ln)), f"invalid DOT line: {ln!r}"


# ---------------------------------------------------------------------------
# reduce

def test_reduce_text(arith_file, capsys):
    code = main(["reduce", arith_file, "A(S(0),S(0))"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "S(S(0))" in out


def test_reduce_bound_hits_unconfirmed(arith_file, capsys):
    code = main(["reduce", arith_file, "M(S(S(0)),S(S(0)))", "--bound", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_UNCONFIRMED
    assert "exhausted: False" in out  # partial graph still emitted


def test_reduce_dot_valid(arith_file, capsys):
    code = main(["reduce", arith_file, "M(S(0),S(0))", "--format", "dot"])
    assert code == EXIT_OK
    assert_valid_dot(capsys.readouterr().out)


def test_reduce_json_full_worked_example(arith_file, capsys):
    code = main(["reduce", arith_file, "M(M(0,0),A(S(x),y))",
                 "--kind", "full", "--bound", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNCONFIRMED
    assert ["M(M(0,0),A(S(x),y))", "0"] in payload["edges"]


def test_reduce_bad_term_is_input_error(arith_file, capsys):
    assert main(["reduce", arith_file, "Q(0)"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_reduce_missing_file_is_input_error(capsys):
    assert main(["reduce", "/nonexistent.trs", "0"]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["analyze", "{trs}", "bogus"],
    ["reduce", "{trs}", "S(0)", "--bound", "x"],
    ["reduce", "{trs}", "S(0)", "--bound", "-1"],
    ["reduce", "{trs}", "S(0)", "--kind", "fast"],
    ["analyze", "{trs}", "weak", "--depth", "-1"],
    ["analyze", "{trs}", "weak", "--bound", "-2"],
    ["check-laws", "--samples", "many"],
    ["reduce", "{trs}"],
    ["frobnicate"],
    [],
])
def test_usage_error_is_input_error(arith_file, capsys, argv):
    """argparse would exit 2, which means ``unconfirmed`` here."""
    code = main([a.format(trs=arith_file) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "error:" in captured.err


def _nested(depth):
    """S(S(...S(A(0,0))...)): a term of the given depth with one redex at
    the bottom."""
    return "S(" * (depth - 1) + "A(0,0)" + ")" * (depth - 1)


@pytest.mark.parametrize("kind", ["seq", "par", "full"])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_reduce_term_at_depth_limit(arith_file, capsys, kind, fmt):
    code = main(["reduce", arith_file, _nested(MAX_TERM_DEPTH),
                 "--kind", kind, "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "S(" * (MAX_TERM_DEPTH - 1) + "0" + ")" * (MAX_TERM_DEPTH - 1) in out


@pytest.mark.parametrize("kind", ["seq", "par", "full"])
def test_reduce_term_over_depth_limit_is_input_error(arith_file, capsys, kind):
    """A term deeper than the limit is rejected when parsed, before any
    recursion over it can overflow the stack."""
    code = main(["reduce", arith_file, _nested(MAX_TERM_DEPTH + 1),
                 "--kind", kind])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert f"deeper than {MAX_TERM_DEPTH}" in captured.err


def test_reduce_output_file(arith_file, tmp_path):
    out = tmp_path / "g.dot"
    code = main(["reduce", arith_file, "A(0,0)", "--format", "dot",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert_valid_dot(out.read_text())


# ---------------------------------------------------------------------------
# check-laws

def test_check_laws_single_law(capsys):
    code = main(["check-laws", "--samples", "5", "--law", "rel-modular"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert len(payload) == 1
    assert payload[0]["law"] == "rel-modular"
    assert payload[0]["verdict"] == "pass"


def test_check_laws_unknown_law_is_input_error(capsys):
    code = main(["check-laws", "--law", "no-such-law", "--law", "rel-modular",
                 "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no-such-law" in captured.err
    assert "rel-modular" not in captured.err


def test_check_laws_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 4, "samples": 5}))
    code = main(["check-laws", str(cfgfile), "--law", "fix-rolling"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload[0]["samples"] == 5


def test_check_laws_replay_identical(tmp_path):
    args = ["check-laws", "--seed", "11", "--samples", "8",
            "--law", "rel-modular", "--law", "tilde-compose",
            "--law", "fix-diagonal"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


SUBST_ASSOC_SEED32 = """\
[
  {
    "counterexamples": [],
    "group": "substitution",
    "kind": "inequality",
    "law": "subst-assoc",
    "overflow_dropped": 0,
    "samples": 200,
    "skips": 0,
    "soft": false,
    "unconfirmed": 0,
    "verdict": "pass"
  }
]
"""


def test_check_laws_subst_assoc_seed32(capsys):
    """Seed 32 draws an empty ``c`` for ``a[b][c] <= a[b[c]]``.  With an
    image needed for every declared variable both sides are empty; a
    reading that instantiates only the occurring variables keeps the
    ground pairs of ``a[b]`` on the left and fails the law."""
    code = main(["check-laws", "--seed", "32", "--law", "subst-assoc"])
    assert capsys.readouterr().out == SUBST_ASSOC_SEED32
    assert code == EXIT_OK


def test_check_laws_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("[1,2,3]")
    assert main(["check-laws", str(cfgfile)]) == EXIT_INPUT


def test_check_laws_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sead": 1}))
    assert main(["check-laws", str(cfgfile)]) == EXIT_INPUT
    assert "sead" in capsys.readouterr().err


def test_check_laws_out_of_range_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"samples": -3}))
    assert main(["check-laws", str(cfgfile)]) == EXIT_INPUT
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"density": "x"}, "density"),
    ({"signature": {"f": "x"}}, "signature"),
    ({"variables": 3}, "variables"),
    # each of these makes every relation-suite draw empty or full
    ({"density": float("nan")}, "density"),
    ({"density": float("inf")}, "density"),
    ({"density": -5}, "density"),
    ({"density": 0.9}, "density"),
    ({"density": 1.5}, "density"),
    # seed takes any integer, and no integer key takes true or false
    ({"seed": "abc"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": None}, "seed"),
    ({"seed": [1]}, "seed"),
    ({"samples": True}, "samples"),
    ({"max_pairs": False}, "max_pairs"),
])
def test_check_laws_mistyped_config(tmp_path, capsys, config, key):
    """A config value of the wrong type or out of range is an input error
    (exit 3) that names its key, not a traceback with the exit code of a
    failing law."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    code = main(["check-laws", str(cfgfile),
                 "--law", "rel-modular", "--law", "tilde-compose"])
    assert code == EXIT_INPUT
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("density", ["nan", "inf", "-5", "0.9", "1.5"])
def test_check_laws_degenerate_density_flag(capsys, density):
    code = main(["check-laws", "--density", density, "--law", "rel-modular"])
    assert code == EXIT_INPUT
    assert "density" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"signature": {}, "variables": []}, "variables"),
    ({"signature": {"f": 1}, "variables": []}, "variables"),
    ({"variables": ["x", "x"]}, "variables"),
    ({"variables": ["a b"]}, "variables"),
    ({"variables": ["0"]}, "variables"),
    ({"variables": ["A"]}, "variables"),
])
def test_check_laws_config_without_sound_terms(tmp_path, capsys, config,
                                               key):
    """A config whose signature and variables build no term, repeat a
    variable, misname one or name an operator as a variable is an input
    error (exit 3) that names its key."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    code = main(["check-laws", str(cfgfile), "--samples", "2",
                 "--law", "rel-modular", "--law", "tilde-compose"])
    assert code == EXIT_INPUT
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("text, term, err", [
    ("sig\n", "a", "line 1: empty sig declaration"),
    ("sig a/0\nvar\n", "a", "line 2: empty var declaration"),
    ("sig a/-1\n", "a", "negative arity for a"),
    ("sig a/0 f/1\n", "f", "operator 'f' needs arguments"),
    ("sig a/0 f/2\n", "f(a a)", "expected ',' or ')' at position 4"),
])
def test_reduce_malformed_input(tmp_path, capsys, text, term, err):
    """A malformed declaration or term is an input error (exit 3) that
    says what is wrong."""
    p = tmp_path / "bad.trs"
    p.write_text(text)
    assert main(["reduce", str(p), term]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert err in captured.err


def test_reduce_operator_declared_after_variable(tmp_path, capsys):
    """``var x`` then ``sig x/0`` must not turn the variable into a
    constant and so the rule ``f(x) -> x`` into a ground rule."""
    p = tmp_path / "shadow.trs"
    p.write_text("var x\nsig x/0 f/1\nrule f(x) -> x\n")
    assert main(["reduce", str(p), "f(x)"]) == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_weak_holds(arith_file):
    assert main(["analyze", arith_file, "weak", "--depth", "2"]) == EXIT_OK


def test_analyze_cp_json(arith_file, capsys):
    code = main(["analyze", arith_file, "cp", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    verdicts = {c["property"]: c["verdict"] for c in payload["checks"]}
    assert verdicts == {"cp-1": "holds", "cp-2": "holds", "cp-1-prime": "holds"}


def test_analyze_spectrum(arith_file, capsys):
    code = main(["analyze", arith_file, "spectrum", "--depth", "2",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["stars_equal"] is True


def test_analyze_detects_failure(tmp_path, capsys):
    f = tmp_path / "bad.trs"
    f.write_text(NONCONFLUENT)
    assert main(["analyze", str(f), "weak", "--depth", "1",
                 "--format", "json"]) == EXIT_FAILS
    assert json.loads(capsys.readouterr().out)["witnesses"] == [["b", "c"]]
    assert main(["analyze", str(f), "cp", "--depth", "1"]) == EXIT_FAILS


def test_analyze_cp_depth3_nonconfluent(capsys):
    """cp over the depth-3 universe of the non-confluent system (59,295
    terms) ends with the ``cp-1-prime`` counterexample.  It ran for
    minutes while ``subst_rel`` filtered ``b`` anew for every pair of ``a``
    and every variable."""
    trs = os.path.join(ROOT, "perfbench", "data", "nonconfluent.trs")
    code = main(["analyze", trs, "cp", "--depth", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILS
    assert payload["property"] == "critical-pairs"
    verdicts = {c["property"]: c["verdict"] for c in payload["checks"]}
    assert verdicts == {"cp-1": "unconfirmed", "cp-2": "holds",
                        "cp-1-prime": "fails"}
    witnesses = payload["checks"][2]["witnesses"]
    assert witnesses and all(len(w) == 2 for w in witnesses)


UNARY = "sig 0/0 S/1\nvar x\nrule S(S(x)) -> x\n"
CAP = f"cap of {DEFAULT_UNIVERSE_CAP} terms"
DEPTH_LIMIT = f"limit of {MAX_TERM_DEPTH}"


@pytest.mark.parametrize("text, check, depth, limit", [
    (None, "confluence", 26, CAP),
    (None, "cp", 26, CAP),
    (None, "cp", 5000, DEPTH_LIMIT),
    (None, "weak", 20, CAP),
    (UNARY, "confluence", 2000, DEPTH_LIMIT),
], ids=["arith-confluence-26", "arith-cp-26", "arith-cp-5000",
        "arith-weak-20", "unary-confluence-2000"])
def test_analyze_too_deep_universe_is_input_error(arith_file, tmp_path, text,
                                                  check, depth, limit):
    """A ``--depth`` whose universe passes the term cap, or is deeper than
    any term may be, ends at once with exit 3 and names the limit.  Sizing
    the universe by a recurrence over its depths multiplied integers of
    millions of digits at depth 26, and overflowed the stack at 2000."""
    path = arith_file
    if text is not None:
        path = str(tmp_path / "unary.trs")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(relrew.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "relrew.cli", "analyze", path, check,
         "--depth", str(depth)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=20)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert limit in proc.stderr


# Imports the package, the analyses and the CLI, notes which heavy modules
# came with them, then runs check-laws in the same process.
_IMPORT_GRAPH = """
import sys
import relrew, relrew.analysis, relrew.cli
loaded = [m for m in ("dataclasses", "inspect", "random", "relrew.laws")
          if m in sys.modules]
code = relrew.cli.main(["check-laws", "--law", "rel-compose-assoc",
                        "--samples", "1"])
print(loaded, code, "relrew.laws" in sys.modules)
"""


def test_import_graph_loads_laws_only_for_check_laws():
    """Importing relrew, its analyses and its CLI loads neither
    ``dataclasses`` (which brings ``inspect``, ``ast`` and ``dis``), nor
    ``random``, which ``relalg`` names only in annotations, nor the law
    suites; ``check-laws`` loads the suites when it runs.  ``-S`` keeps
    site packages from loading modules of their own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(relrew.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_GRAPH],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0 True"


GROWING = "sig a/0 f/1\nvar x\nrule f(x) -> f(f(x))\n"


@pytest.mark.parametrize("check", ["weak", "confluence", "cr", "spectrum"])
def test_analyze_bound_caps_nonterminating_closure(tmp_path, capsys, check):
    """The closure of f(x) -> f(f(x)) never ends; --bound cuts it off
    after three full-step layers, which confirms nothing."""
    f = tmp_path / "growing.trs"
    f.write_text(GROWING)
    assert main(["analyze", str(f), check, "--depth", "1", "--bound", "3",
                 "--format", "json"]) == EXIT_UNCONFIRMED
    assert json.loads(capsys.readouterr().out)["verdict"] == "unconfirmed"


@pytest.mark.parametrize("check", ["weak", "confluence", "cr"])
def test_analyze_bound_keeps_explored_counterexample(tmp_path, capsys, check):
    """b and c are normal forms inside the explored part of a cut-off
    closure, so the peak b <- a -> c is still a counterexample."""
    f = tmp_path / "bad-growing.trs"
    f.write_text("sig a/0 b/0 c/0 f/1\nvar x\n"
                 "rule a -> b\nrule a -> c\nrule f(x) -> f(f(x))\n")
    assert main(["analyze", str(f), check, "--depth", "1", "--bound", "3",
                 "--format", "json"]) == EXIT_FAILS
    assert json.loads(capsys.readouterr().out)["witnesses"] == [["b", "c"]]


@pytest.mark.parametrize("check", ["weak", "confluence", "cr", "spectrum"])
def test_analyze_bound_zero_unconfirmed(tmp_path, check):
    """--bound 0 expands no seed, so nothing is confirmed, not even the
    peak b <- a -> c."""
    f = tmp_path / "bad.trs"
    f.write_text(NONCONFLUENT)
    assert main(["analyze", str(f), check, "--depth", "0",
                 "--bound", "0"]) == EXIT_UNCONFIRMED


@pytest.mark.parametrize("kind,fmt,bound", [
    ("seq", "dot", None), ("par", "text", None), ("full", "json", None),
    ("full", "json", 10),
])
def test_reduce_stops_at_reduct_depth_limit(tmp_path, capsys, kind, fmt, bound):
    """Under f(x) -> f(f(x)) the reducts grow without end.  A node with a
    reduct deeper than the depth limit is left unexpanded, so the graph
    is cut off with every node within the limit."""
    f = tmp_path / "growing.trs"
    f.write_text(GROWING)
    code = main(["reduce", str(f), "f(a)", "--kind", kind, "--format", fmt]
                + ([] if bound is None else ["--bound", str(bound)]))
    out = capsys.readouterr().out
    assert code == EXIT_UNCONFIRMED
    if fmt == "json":
        payload = json.loads(out)
        assert payload["exhausted"] is False
        assert max(n.count("(") for n in payload["nodes"]) == MAX_TERM_DEPTH
    elif fmt == "dot":
        assert_valid_dot(out)
    else:
        assert "exhausted: False" in out


@pytest.mark.parametrize("check", ["weak", "spectrum"])
def test_analyze_unbounded_growing_closure_unconfirmed(tmp_path, capsys, check):
    """Without --bound the closure of f(x) -> f(f(x)) ends at the depth
    limit, which confirms nothing."""
    f = tmp_path / "growing.trs"
    f.write_text(GROWING)
    assert main(["analyze", str(f), check, "--depth", "1",
                 "--format", "json"]) == EXIT_UNCONFIRMED
    assert json.loads(capsys.readouterr().out)["verdict"] == "unconfirmed"


# Runs the CLI after allocating objects and interning terms, so that the
# closure's terms sit at other addresses than in a plain run.
_SHIFTED_CLI = """
import sys
from relrew.cli import main
from relrew.syntax import app
n = int(sys.argv[1])
keep = [object() for _ in range(n)] + [app(f"n{i}") for i in range(n)]
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("check", ["confluence", "cr", "weak"])
def test_analyze_witnesses_independent_of_interning(tmp_path, check):
    f = tmp_path / "nc.trs"
    f.write_text("sig 0/0 S/1 A/2\nvar x y\nrule A(0,x) -> x\n"
                 "rule A(S(x),y) -> S(A(x,y))\nrule A(x,0) -> 0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(relrew.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    outs = []
    for noise in (0, 33, 1000):
        proc = subprocess.run(
            [sys.executable, "-c", _SHIFTED_CLI, str(noise), "analyze", str(f),
             check, "--depth", "2", "--format", "json"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == EXIT_FAILS, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["witnesses"]
    assert outs[1] == outs[0] and outs[2] == outs[0]


# Each f(a) has two parallel reducts, so the step sets multiply with the
# width of a term.
DOUBLING = "sig a/0 f/1 g/2\nvar x\nrule f(x) -> g(f(x),f(x))\n"


def _g_tree(depth):
    """The complete g-tree of the given depth over f(a) leaves."""
    t = "f(a)"
    for _ in range(depth):
        t = f"g({t},{t})"
    return t


@pytest.mark.parametrize("argv", [
    ["reduce", _g_tree(5), "--kind", "par", "--bound", "1", "--format", "json"],
    ["reduce", "f(a)", "--kind", "full", "--format", "json"],
    ["reduce", "f(a)", "--kind", "par", "--bound", "5", "--format", "text"],
    ["analyze", "weak", "--depth", "1"],
], ids=["wide-seed-par", "full-unbounded", "par-bound5-text", "analyze-weak"])
def test_wide_steps_cut_off(tmp_path, capsys, argv):
    """A layer with a node whose step set alone would pass the node cap is
    taken back before that set is built, as a layer past the cap is, so
    each run ends unconfirmed."""
    f = tmp_path / "doubling.trs"
    f.write_text(DOUBLING)
    assert main(argv[:1] + [str(f)] + argv[1:]) == EXIT_UNCONFIRMED
    if argv[-1] == "json":
        assert json.loads(capsys.readouterr().out)["exhausted"] is False
