#!/usr/bin/env python3
"""The relrew benchmark.

    python3 perfbench/run.py --workload closure-d3 --seed 1 --seconds 30 --trace 0

Each timed repetition runs in a fresh single-threaded interpreter
(perfbench/child.py), one after another: a closed loop with one caller.  A
fresh process matters because relrew interns terms and memoises steppers,
universes and law helpers for the life of a process, so a second
repetition in the same process would measure a warm program that no CLI
user runs.  Repetitions continue until ``--seconds`` have passed (at least
MIN_REPS of them).

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the repetitions; wall time is normalised by a calibration loop
timed just before each repetition (see CAL_NOMINAL_S).  With ``--trace 1`` repetitions come in pairs,
one traced and one not, over identical inputs; the last line reports the
per-layer metrics read from the spans of the traced half, and the tracing
overhead (traced minus untraced median wall time).  The spans are written
once, at the end, to perfbench/out/.

Every repetition's results are checked against oracles that do not use
relrew (perfbench/oracle.py); ``failed`` counts the checks that disagreed
or could not run.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle as O  # noqa: E402
from common import (  # noqa: E402
    ARITH_TRS,
    BENCH_DIR,
    LAW_MANIFEST,
    NONCONFLUENT_TRS,
    ROOT,
    SCALES,
    SRC_DIR,
    WORKLOADS,
    Digest,
    gen_relations,
    law_sampler_seed,
    pair_key,
    read_text,
)

CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_REPS = 3
# A run must end within 180 s; a child still running at this point is killed.
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# run_child times calibrate() just before every repetition.  A shared
# 2-core virtual machine can change speed by up to half over minutes, and
# the loop slows with it.  wall_norm_s is the median over repetitions of
# wall time * CAL_NOMINAL_S / (that repetition's calibration time): the
# wall time on a machine where the loop takes CAL_NOMINAL_S.  Over 8 seeds
# on such a machine it cut the spread of run medians from 15% to 7.8% on
# closure-d3 and from 13% to 5.1% on analyze-arith.
CAL_LOOPS = 450_000
CAL_NOMINAL_S = 0.15

# Per-layer times: the summed duration of the spans of the same name, less
# the trailing "_s".  A layer the workload does not call reports 0.
SPAN_METRICS = (
    "syntax.from_terms_s",
    "rewrite.reduction_graph_s",
    "rewrite.ground_instances_s",
    "termrel.sequential_closure_s",
    "termrel.parallel_closure_s",
    "termrel.full_closure_s",
    "laws.relation_suite_s",
    "laws.termrel_suite_s",
    "laws.fixpoint_suite_s",
    "laws.parclo-compose_s",
    "laws.seqclo-star_s",
    "laws.seqclo-compose_s",
    "analysis.seed_terms_s",
    "analysis.spectrum_s",
    "analysis.weak_s",
    "analysis.confluence_s",
    "analysis.cr_s",
    "analysis.abstract_batch_s",
    "relalg.kleene_star_s",
    "cli.analyze_cp_s",
    "cli.analyze_nonconfluent_s",
)
LAYERS = ("syntax", "rewrite", "termrel", "laws", "analysis", "relalg", "cli")
# Counts the child reads from the library after its timed region.
COUNT_METRICS = (
    "syntax.interned_terms",
    "rewrite.graph_nodes",
    "rewrite.step_cache_hits",
    "rewrite.step_cache_misses",
    "termrel.closure_pairs",
    "termrel.dropped",
    "laws.skips",
    "laws.unconfirmed",
    "laws.overflow_dropped",
)
PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS},
    "laws.law_p90_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{m: "count" for m in COUNT_METRICS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class SetupError(RuntimeError):
    """The program could not be started: no result can be reported."""


# ---------------------------------------------------------------------------
# one repetition

def calibrate() -> float:
    """Time a fixed pure-Python loop that never touches relrew."""
    d = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        k = (i & 1023, i & 7)
        v = d.get(k)
        if v is None:
            d[k] = v = len(d)
        acc ^= hash((v, k))
    return time.perf_counter() - t0


def run_child(workload: str, seed: int, rnd: int, traced: bool, scale: str,
              deadline: float) -> dict:
    """Run one repetition; time its set-up from here and read its peak RSS
    from the kernel's accounting of the child."""
    cmd = [sys.executable, "-I", CHILD, "--workload", workload,
           "--seed", str(seed), "--round", str(rnd),
           "--trace", str(int(traced)), "--scale", scale]
    cal = calibrate()
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    watchdog = threading.Timer(max(1.0, deadline - t0), p.kill)
    watchdog.start()
    try:
        first = p.stdout.readline()
        t_ready = time.monotonic()
        rest = p.stdout.read()
    except BaseException:
        p.kill()
        raise
    finally:
        watchdog.cancel()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    t_end = time.monotonic()
    if first.strip() != "ready":
        raise SetupError(f"{workload} did not start:\n{first}{rest}")
    lines = rest.strip().splitlines()
    payload = None
    if p.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {
        "round": rnd,
        "cal_s": cal,
        "traced": traced,
        "setup_s": t_ready - t0,
        "rep_s": t_end - t0,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "payload": payload,
        "error": None if payload else f"exit {p.returncode}: {rest[-2000:]}",
    }


# ---------------------------------------------------------------------------
# oracles: each returns check(reps) -> (attempted, failed, problems)

def _closure_expectation(cfg: dict) -> dict:
    trs = O.Trs(read_text(ARITH_TRS))
    rw = O.Rewriter(trs)
    chosen = O.seed_terms(trs, cfg["depth"])[::cfg["stride"]]
    nodes = rw.reachable(chosen, rw.full)
    univ = O.subterm_closure(nodes)
    name = {t: O.fmt(t) for t in univ}

    def on_nodes(step):
        return [pair_key(name[p], name[q]) for p in nodes for q in step(p)
                if q in nodes]

    items = {
        "seeds": [name[t] for t in chosen],
        "nodes": [name[t] for t in nodes],
        "ground": [pair_key(name[t], name[r]) for t in univ
                   for r in rw.root(t) if r in univ],
        "seq": on_nodes(rw.seq),
        "par": on_nodes(rw.par),
        "full": on_nodes(rw.full),
    }
    # keep one element of each set, so the self-test can remove it
    return {k: (Digest.of(v), v[0] if v else None) for k, v in items.items()}


def closure_check(cfg: dict):
    """Every repetition, whatever its seed order, reproduces the seed set,
    the reachable closure, the rule relation and the three closures
    restricted to the closure's nodes, which must equal the one-step
    relations of the reference steppers."""
    expected = _closure_expectation(cfg)

    def check(reps):
        attempted = failed = 0
        problems = []
        for rep in reps:
            res = rep["payload"]["results"] if rep["payload"] else {}
            for key, (digest, _) in expected.items():
                attempted += 1
                got = res.get(key)
                if got is None or Digest.from_json(got) != digest:
                    failed += 1
                    problems.append(f"round {rep['round']}: {key} {got} != {digest}")
        return attempted, failed, problems

    check.expected = expected
    return check


def laws_check(cfg: dict):
    """All catalog laws pass and none is vacuous; the catalog matches the
    committed manifest; a replayed configuration gives a byte-identical
    report."""
    with open(LAW_MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    law_ids = [lid for suite in ("relation", "termrel", "fixpoint")
               for lid in manifest[suite]]

    def check(reps):
        attempted = failed = 0
        problems = []
        first_digest = {}
        for rep in reps:
            res = rep["payload"]["results"] if rep["payload"] else {}
            tag = f"round {rep['round']}"
            attempted += 1
            if res.get("catalog") != manifest:
                failed += 1
                problems.append(f"{tag}: catalog differs from the manifest")
            by_id = {row[0]: row for row in res.get("laws", ())}
            for lid in law_ids:
                attempted += 1
                row = by_id.get(lid)
                if row is None or row[1] != "pass" or row[3] >= row[2]:
                    failed += 1
                    problems.append(f"{tag}: law {lid}: {row}")
            sampler_seed = law_sampler_seed(cfg, rep["round"])
            if sampler_seed in first_digest:
                attempted += 1
                if first_digest[sampler_seed] != res.get("digest"):
                    failed += 1
                    problems.append(f"{tag}: report did not replay byte-identically")
            elif res:
                first_digest[sampler_seed] = res["digest"]
        return attempted, failed, problems

    return check


def analyze_check(cfg: dict, seed: int):
    """The arithmetic closure is confluent, weakly confluent and
    Church-Rosser with a spectrum that holds, over as many nodes as the
    reference closure; the critical-pair check exits 0; the non-confluent
    system fails each check with exit 1; and every abstract relation's
    verdicts and Kleene star match a Floyd-Warshall reference."""
    trs = O.Trs(read_text(ARITH_TRS))
    rw = O.Rewriter(trs)
    chosen = O.seed_terms(trs, cfg["depth"])[::cfg["stride"]]
    nodes = len(rw.reachable(chosen, rw.full))
    seeds = Digest.of(O.fmt(t) for t in chosen)

    nc = O.Trs(read_text(NONCONFLUENT_TRS))
    peak = nc.parse("A(S(0),0)")
    if O.Rewriter(nc).normal_forms(peak) != {nc.parse("0"), nc.parse("S(0)")}:
        raise RuntimeError("the non-confluent reference system lost its peak")

    abstract, stars = [], []
    for n, pairs in gen_relations(seed, cfg["relations"], cfg["max_carrier"]):
        rows = O.star_rows(n, pairs)
        abstract.append([O.is_confluent(n, rows), O.is_church_rosser(n, pairs, rows)])
        stars.append(format(O.rows_mask(n, rows), "x"))

    def check(reps):
        attempted = failed = 0
        problems = []
        for rep in reps:
            res = rep["payload"]["results"] if rep["payload"] else {}
            tag = f"round {rep['round']}"
            singles = [
                ("seeds", res.get("seeds") is not None
                 and Digest.from_json(res["seeds"]) == seeds),
                ("spectrum", res.get("spectrum") == ["holds", nodes]),
                ("weak", res.get("weak") == "holds"),
                ("confluence", res.get("confluence") == "holds"),
                ("cr", res.get("cr") == "holds"),
                ("cp", res.get("cp") == [0, ["holds"] * 3]),
            ]
            ncres = res.get("nonconfluent", {})
            singles += [(f"nonconfluent {k}", ncres.get(k) == [1, "fails"])
                        for k in ("confluence", "weak", "cr")]
            for what, ok in singles:
                attempted += 1
                if not ok:
                    failed += 1
                    problems.append(f"{tag}: {what}: {res.get(what.split()[0])}")
            for what, want in (("abstract", abstract), ("stars", stars)):
                got = res.get(what, [])
                attempted += len(want)
                bad = [i for i, w in enumerate(want)
                       if i >= len(got) or got[i] != w]
                failed += len(bad)
                if bad:
                    problems.append(f"{tag}: {what} differ at {bad[:5]}")
        return attempted, failed, problems

    check.expected = {"nodes": nodes, "abstract": abstract, "stars": stars}
    return check


def make_check(workload: str, cfg: dict, seed: int):
    if workload == "closure-d3":
        return closure_check(cfg)
    if workload == "laws":
        return laws_check(cfg)
    return analyze_check(cfg, seed)


# ---------------------------------------------------------------------------
# metrics

def span_metrics(payload: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = payload["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            child_time[parent] += dur[i]
    out = {m: 0.0 for m in SPAN_METRICS}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    law_times = []
    for i, (name, _, _, parent) in enumerate(spans):
        metric = name + "_s"
        if metric in out:
            out[metric] += dur[i]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += dur[i] - child_time[i]
        if layer == "laws" and parent is not None:
            law_times.append(dur[i])
    out["laws.law_p90_s"] = (statistics.quantiles(law_times, n=10)[-1]
                             if len(law_times) >= 10 else 0.0)
    for m in COUNT_METRICS:
        out[m] = payload["counts"].get(m, 0)
    out["trace.spans"] = len(spans)
    return out


def summarise(reps: list, trace: bool) -> dict:
    ok = [r for r in reps if r["payload"]]
    if not ok:
        return {}
    if not trace:
        return {
            "wall_norm_s": statistics.median(
                r["payload"]["wall_s"] * CAL_NOMINAL_S / r["cal_s"] for r in ok),
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in ok),
        }
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    if not (traced and plain):
        return {}
    per_rep = [span_metrics(r["payload"]) for r in traced]
    out = {m: statistics.median(v[m] for v in per_rep) for m in per_rep[0]}
    out["trace.overhead_s"] = (
        statistics.median(r["payload"]["wall_s"] for r in traced)
        - statistics.median(r["payload"]["wall_s"] for r in plain))
    return out


def write_spans(workload: str, seed: int, reps: list) -> str:
    """Write every traced repetition's spans, once, at the end of a run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = []
    for rep_id, rep in enumerate(reps):
        if not (rep["traced"] and rep["payload"]):
            continue
        spans = rep["payload"]["spans"]
        base = spans[0][1] if spans else 0.0
        rows += [{"name": name, "start": start - base, "end": end - base,
                  "parent": parent, "rep": rep_id}
                 for name, start, end, parent in spans]
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed, "spans": rows}, f)
    return path


# ---------------------------------------------------------------------------
# a run

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", log=print) -> dict:
    cfg = SCALES[scale][workload]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    per_round = 2 if trace else 1
    reps = []
    rnd = 0
    while True:
        # a traced run alternates which half of a pair goes first
        order = (True, False) if rnd % 2 == 0 else (False, True)
        for traced in (order if trace else (False,)):
            reps.append(run_child(workload, seed, rnd, traced, scale, deadline))
        rnd += 1
        elapsed = time.monotonic() - start
        round_s = statistics.median(
            sum(r["rep_s"] for r in reps[i:i + per_round])
            for i in range(0, len(reps), per_round))
        if len(reps) >= MIN_REPS * per_round and elapsed + round_s > seconds:
            break
        if elapsed + round_s > RUN_DEADLINE_S - 20:
            break
    if workload == "laws" and not trace and rnd <= cfg["sampler_seeds"]:
        # Replay the first round: its report must come out byte-identical.
        # (Longer runs and traced runs already repeat a configuration.)
        reps.append(run_child(workload, seed, 0, False, scale, deadline))

    check = make_check(workload, cfg, seed)
    attempted, failed, problems = check(reps)
    errors = [f"round {r['round']}: {r['error']}" for r in reps if r["error"]]
    for msg in errors + problems[:20]:
        log(f"# {workload}: FAIL {msg}")
    metrics = summarise(reps, trace)
    units = PER_LAYER if trace else END_TO_END
    log(f"# {workload}: seed {seed}, {len(reps)} repetitions "
        f"({'traced/untraced pairs' if trace else 'untraced'}), "
        f"{attempted - failed}/{attempted} checks passed, "
        f"{time.monotonic() - start:.1f} s")
    done = [r for r in reps if r["payload"]]
    if done:
        log("#   raw wall_s median: "
            f"{statistics.median(r['payload']['wall_s'] for r in done):.4f}")
    log("#   wall_s per repetition: "
        + " ".join(f"{r['payload']['wall_s']:.3f}" for r in done))
    log("#   setup_s per repetition: "
        + " ".join(f"{r['setup_s']:.3f}" for r in done))
    log("#   calibration_s per repetition: "
        + " ".join(f"{r['cal_s']:.4f}" for r in done))
    log("#   peak_rss_mib per repetition: "
        + " ".join(f"{r['peak_rss_mib']:.1f}" for r in done))
    for name in units:
        log(f"#   {name:<32} {metrics.get(name, float('nan')):>14.6g} {units[name]}")
    if trace:
        log(f"# spans written to {os.path.relpath(write_spans(workload, seed, reps), ROOT)}")
    return {
        "correct": failed == 0 and not errors and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "relrew", "__init__.py")):
        print(f"error: no relrew sources under {SRC_DIR}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
