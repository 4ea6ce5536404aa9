"""Command-line front end.

Subcommands::

    relrew reduce FILE TERM [--kind seq|par|full] [--bound N]
                            [--format dot|json|text] [--output PATH]
    relrew check-laws [CONFIG.json] [--seed N] [--samples N] [--density F]
                      [--law ID ...] [--output PATH]
    relrew analyze FILE {confluence,weak,cr,cp,spectrum}
                   [--depth N] [--bound N] [--format json|text]

``analyze`` decides joins exactly on the seeds' reachable closure, which
``--bound N`` caps at N full-step layers as ``reduce --bound N`` does.

Exit codes: 0 success / property holds; 1 property fails; 2 unconfirmed
(truncated evaluation, a graph or closure cut off, or the process out of
memory); 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from .analysis import (
    FAILS,
    HOLDS,
    UNCONFIRMED,
    check_cp,
    exhaustive_church_rosser,
    exhaustive_confluence,
    exhaustive_weak_confluence,
    seed_terms,
    spectrum_survey,
)
from .rewrite import TRS, graph_to_dot, graph_to_json, parse_trs, reduction_graph
from .syntax import TermError, format_term, gc_paused

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_UNCONFIRMED = 2
EXIT_INPUT = 3


def load_trs(path: str) -> TRS:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trs(f.read())


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_reduce(args: argparse.Namespace) -> int:
    trs = load_trs(args.file)
    term = trs.parse(args.term)
    g = reduction_graph(trs, [term], kind=args.kind, bound=args.bound)
    if args.format == "dot":
        _emit(graph_to_dot(g), args.output)
    elif args.format == "json":
        _emit(graph_to_json(g), args.output)
    else:
        lines = [
            f"seed: {format_term(term)}",
            f"kind: {args.kind}",
            f"nodes: {len(g.nodes)}",
            f"edges: {sum(len(g.steps(t)) for t in g.nodes)}",
            f"exhausted: {g.exhausted}",
            "normal forms: "
            + (", ".join(format_term(t) for t in g.normal_forms()) or "(none found)"),
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if g.exhausted else EXIT_UNCONFIRMED


def cmd_check_laws(args: argparse.Namespace) -> int:
    # imported here, not at the top: no other subcommand uses the law
    # suites, and importing them costs every run time and memory
    from .laws import SampleConfig, reports_to_json, run_all

    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise ValueError("law-suite config must be a JSON object")
    for key in ("seed", "samples", "density"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    cfg = SampleConfig.from_dict(overrides)
    reports = run_all(cfg, law_ids=args.law or None)
    _emit(reports_to_json(reports), args.output)
    return EXIT_FAILS if any(r.verdict == "fail" for r in reports) else EXIT_OK


def _verdict_exit(verdict: str) -> int:
    return {HOLDS: EXIT_OK, FAILS: EXIT_FAILS, UNCONFIRMED: EXIT_UNCONFIRMED}[verdict]


def cmd_analyze(args: argparse.Namespace) -> int:
    trs = load_trs(args.file)
    if args.check == "cp":
        report = check_cp(trs, depth=args.depth if args.depth is not None else 2)
    else:
        seeds = seed_terms(trs, args.depth if args.depth is not None else 3)
        fn = {"spectrum": spectrum_survey, "weak": exhaustive_weak_confluence,
              "confluence": exhaustive_confluence,
              "cr": exhaustive_church_rosser}[args.check]
        report = fn(trs, seeds, args.bound)
    payload = report.to_json()
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    else:
        lines = [f"check: {args.check}"]
        for key in sorted(payload):
            if key != "checks":
                lines.append(f"{key}: {payload[key]}")
        for sub in payload.get("checks", []):
            lines.append(f"  {sub['property']}: {sub['verdict']}"
                         + (f" witnesses={sub['witnesses']}" if sub["witnesses"] else ""))
        _emit("\n".join(lines) + "\n", args.output)
    return _verdict_exit(report.verdict)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3): argparse's own
    exit code 2 means ``unconfirmed`` here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relrew",
        description="Term rewriting via an algebra of term relations: "
        "reductions, law checking, confluence analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_red = sub.add_parser("reduce", help="explore a reduction graph from a seed term")
    p_red.add_argument("file", help="rewrite-system file")
    p_red.add_argument("term", help="seed term, e.g. 'A(S(0),S(0))'")
    p_red.add_argument("--kind", choices=("seq", "par", "full"), default="seq")
    p_red.add_argument("--bound", type=_count, default=None,
                       help="maximum number of BFS layers")
    p_red.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p_red.add_argument("--output", default=None, help="write output to a file")
    p_red.set_defaults(fn=cmd_reduce)

    p_laws = sub.add_parser("check-laws", help="run the algebraic law suites")
    p_laws.add_argument("config", nargs="?", default=None,
                        help="JSON file with SampleConfig fields")
    p_laws.add_argument("--seed", type=int, default=None)
    p_laws.add_argument("--samples", type=int, default=None)
    p_laws.add_argument("--density", type=float, default=None)
    p_laws.add_argument("--law", action="append", default=None,
                        help="restrict to a law id (repeatable)")
    p_laws.add_argument("--output", default=None, help="write the JSON report here")
    p_laws.set_defaults(fn=cmd_check_laws)

    p_an = sub.add_parser("analyze", help="confluence-family analyses of a TRS")
    p_an.add_argument("file", help="rewrite-system file")
    p_an.add_argument("check",
                      choices=("confluence", "weak", "cr", "cp", "spectrum"))
    p_an.add_argument("--depth", type=_count, default=None,
                      help="seed/universe depth, 0..200 (default 3, cp "
                      "default 2)")
    p_an.add_argument("--bound", type=_count, default=None,
                      help="maximum number of full-step BFS layers of the "
                      "closure (default: explore until exhausted; cp "
                      "ignores it)")
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.add_argument("--output", default=None, help="write output to a file")
    p_an.set_defaults(fn=cmd_analyze)

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: ``parse_args`` gives
    each call a fresh namespace and keeps no state between calls."""
    return build_parser()


@gc_paused
def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.fn(args)
    except (TermError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # a check that ran out of memory was cut short: nothing failed
        print("error: out of memory; the evaluation was cut short",
              file=sys.stderr)
        return EXIT_UNCONFIRMED


if __name__ == "__main__":
    sys.exit(main())
