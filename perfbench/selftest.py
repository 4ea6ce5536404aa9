#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny configuration.

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted by the
untraced and the traced run of every workload, that the traced runs
record a span for every per-layer time metric, and that every oracle
flags a deliberately corrupted result.  Exits 0 when all of that holds.
The tiny configuration uses depth-2 seeds, 2 samples per termrel law and
about 50 seed terms.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as R  # noqa: E402
from common import ROOT, SCALES, WORKLOADS, Digest  # noqa: E402

SEED = 1


def _remove_item(key: str):
    """Remove one known element from a digested result set."""
    def mutate(res, expected):
        d = Digest.from_json(res[key])
        d.remove(expected[key][1])
        res[key] = d.to_json()
    return mutate


def _edit(path, change):
    """Replace the value at ``path`` in the results by ``change(value)``."""
    def mutate(res, expected):
        node = res
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = change(node[path[-1]])
    return mutate


def _drop_star_pair(res, expected):
    m = int(res["stars"][0], 16)
    res["stars"][0] = format(m & (m - 1), "x")


def _vacuous(res, expected):
    row = res["laws"][-1]
    row[3] = row[2]


CORRUPTIONS = {
    "closure-d3": [
        (f"one pair removed from {k}", _remove_item(k))
        for k in ("seq", "par", "full", "ground")
    ] + [("one seed removed", _remove_item("seeds")),
         ("one node removed", _remove_item("nodes"))],
    "laws": [
        ("a law verdict flipped", _edit(["laws", 0, 1], lambda v: "fail")),
        ("a law made vacuous", _vacuous),
        ("a law dropped from the catalog", _edit(["catalog", "termrel"], lambda v: v[:-1])),
    ],
    "analyze-arith": [
        ("non-confluent exit code flipped", _edit(["nonconfluent", "confluence", 0], lambda v: 0)),
        ("critical-pair exit code flipped", _edit(["cp", 0], lambda v: 1)),
        ("weak-confluence verdict flipped", _edit(["weak"], lambda v: "fails")),
        ("spectrum node count off by one", _edit(["spectrum", 1], lambda v: v + 1)),
        ("an abstract verdict flipped", _edit(["abstract", 0, 0], lambda v: not v)),
        ("one pair removed from a Kleene star", _drop_star_pair),
    ],
}


def check_metrics(problems: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    span_names = set()
    for w in WORKLOADS:
        for trace in (0, 1):
            res = R.run_workload(w, SEED, 0, bool(trace), scale="tiny",
                                 log=lambda *a: None)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w} trace={trace}: metrics {sorted(got.items())} "
                                f"!= {sorted(wanted[trace].items())}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} trace={trace}: not correct: {res}")
        with open(os.path.join(R.OUT_DIR, f"spans-{w}-seed{SEED}.json"),
                  encoding="utf-8") as f:
            span_names |= {s["name"] for s in json.load(f)["spans"]}
    missing = [m for m in R.SPAN_METRICS if m[:-2] not in span_names]
    if missing:
        problems.append(f"no spans recorded for {missing}")


def check_oracles(problems: list) -> None:
    deadline = time.monotonic() + 600
    for w in WORKLOADS:
        check = R.make_check(w, SCALES["tiny"][w], SEED)
        rep = R.run_child(w, SEED, 0, False, "tiny", deadline)
        attempted, failed, msgs = check([rep])
        if failed or not attempted:
            problems.append(f"{w}: clean repetition flagged: {msgs[:3]}")
        for label, mutate in CORRUPTIONS[w]:
            bad = copy.deepcopy(rep)
            mutate(bad["payload"]["results"], getattr(check, "expected", {}))
            if not check([bad])[1]:
                problems.append(f"{w}: oracle missed: {label}")
        if w == "laws":
            replay = copy.deepcopy(rep)
            replay["payload"]["results"]["digest"] = "0" * 64
            if not check([rep, replay])[1]:
                problems.append(f"{w}: oracle missed: a replay that is not "
                                "byte-identical")


def main() -> int:
    problems: list = []
    check_metrics(problems)
    check_oracles(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
