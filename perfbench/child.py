"""One timed repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition.  It imports
relrew from the checkout's ``src``, parses the workload's inputs, prints
``ready`` (the parent's set-up clock stops there), runs the workload and
prints one JSON line: the wall time from the first call into relrew to the
last verdict, the results run.py checks against its oracles, counts
read from the library after the run, and, when traced, the spans recorded
around each call.

    python3 -I perfbench/child.py --workload closure-d3 --seed 1 --round 0 \
        --trace 0 --scale full
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ARITH_TRS,
    NONCONFLUENT_TRS,
    SCALES,
    SRC_DIR,
    Digest,
    gen_relations,
    law_sampler_seed,
    pair_key,
    pairs_mask,
    read_text,
    seed_order,
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    spans = []
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def _step_cache_counts() -> dict:
    from relrew.rewrite import full_step, parallel_step, sequential_step
    infos = [f.cache_info() for f in (sequential_step, parallel_step, full_step)]
    return {"rewrite.step_cache_hits": sum(i.hits for i in infos),
            "rewrite.step_cache_misses": sum(i.misses for i in infos)}


# ---------------------------------------------------------------------------
# workloads: each parses its inputs (the set-up) and returns the timed
# body; body(tracer) returns (wall seconds, results, counts)

def closure_workload(cfg: dict, seed: int, rnd: int):
    from relrew.analysis import seed_terms
    from relrew.rewrite import ground_instances, parse_trs, reduction_graph
    from relrew.syntax import Universe, format_term
    from relrew.termrel import (OpStats, full_closure, parallel_closure,
                                sequential_closure)

    trs = parse_trs(read_text(ARITH_TRS))

    def body(tr):
        t0 = time.perf_counter()
        with tr.span("analysis.seed_terms"):
            seeds = seed_terms(trs, cfg["depth"])
        chosen = list(seeds[::cfg["stride"]])
        seed_order(seed, rnd).shuffle(chosen)
        with tr.span("rewrite.reduction_graph"):
            g = reduction_graph(trs, chosen, kind="full")
        with tr.span("syntax.from_terms"):
            u = Universe.from_terms(trs.signature, trs.variables, g.nodes)
        stats = OpStats()
        with tr.span("rewrite.ground_instances"):
            ground = ground_instances(trs, u, stats)
        with tr.span("termrel.sequential_closure"):
            seq = sequential_closure(ground, stats)
        with tr.span("termrel.parallel_closure"):
            par = parallel_closure(ground, stats)
        with tr.span("termrel.full_closure"):
            full = full_closure(ground, stats)
        wall = time.perf_counter() - t0

        nodes = g.nodes
        name = {t: format_term(t) for t in u.explicit}

        def on_nodes(rel):
            return Digest.of(pair_key(name[p], name[q]) for p, q in rel.pairs
                             if p in nodes and q in nodes).to_json()

        results = {
            "seeds": Digest.of(name[t] for t in chosen).to_json(),
            "nodes": Digest.of(name[t] for t in nodes).to_json(),
            "ground": Digest.of(pair_key(name[p], name[q])
                                for p, q in ground.pairs).to_json(),
            "seq": on_nodes(seq),
            "par": on_nodes(par),
            "full": on_nodes(full),
        }
        counts = {
            "rewrite.graph_nodes": len(nodes),
            "termrel.closure_pairs": len(seq) + len(par) + len(full),
            "termrel.dropped": stats.dropped,
            **_step_cache_counts(),
        }
        return wall, results, counts

    return body


def laws_workload(cfg: dict, rnd: int):
    from relrew.laws import (SampleConfig, catalog, reports_to_json,
                             run_fixpoint_calculus_suite,
                             run_relation_law_suite, run_termrel_law_suite)

    sampler_seed = law_sampler_seed(cfg, rnd)
    cheap = SampleConfig(seed=sampler_seed, samples=cfg["cheap_samples"])
    suites = (
        ("relation", run_relation_law_suite, cheap),
        ("termrel", run_termrel_law_suite,
         SampleConfig(seed=sampler_seed, samples=cfg["termrel_samples"])),
        ("fixpoint", run_fixpoint_calculus_suite, cheap),
    )
    ids = catalog()

    def body(tr):
        reports = []
        t0 = time.perf_counter()
        for suite, run, sc in suites:
            with tr.span(f"laws.{suite}_suite"):
                for law_id in ids[suite]:
                    with tr.span(f"laws.{law_id}"):
                        reports += run(sc, [law_id])
        wall = time.perf_counter() - t0
        results = {
            "catalog": ids,
            "laws": [[r.law_id, r.verdict, r.samples, r.skips]
                     for r in reports],
            "digest": hashlib.sha256(
                reports_to_json(reports).encode()).hexdigest(),
        }
        counts = {
            "laws.skips": sum(r.skips for r in reports),
            "laws.unconfirmed": sum(r.unconfirmed for r in reports),
            "laws.overflow_dropped": sum(r.overflow_dropped for r in reports),
        }
        return wall, results, counts

    return body


def analyze_workload(cfg: dict, seed: int, rnd: int):
    from relrew.analysis import (exhaustive_church_rosser,
                                 exhaustive_confluence,
                                 exhaustive_weak_confluence, is_church_rosser,
                                 is_confluent, seed_terms, spectrum_survey)
    from relrew.cli import main as cli_main
    from relrew.relalg import Rel
    from relrew.rewrite import parse_trs
    from relrew.syntax import format_term

    trs = parse_trs(read_text(ARITH_TRS))
    relations = gen_relations(seed, cfg["relations"], cfg["max_carrier"])
    nc_depth = str(cfg["nc_depth"])

    def cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return [code, json.loads(buf.getvalue())]

    def body(tr):
        t0 = time.perf_counter()
        with tr.span("analysis.seed_terms"):
            seeds = seed_terms(trs, cfg["depth"])
        chosen = list(seeds[::cfg["stride"]])
        seed_order(seed, rnd).shuffle(chosen)
        with tr.span("analysis.spectrum"):
            spectrum = spectrum_survey(trs, chosen)
        with tr.span("analysis.weak"):
            weak = exhaustive_weak_confluence(trs, chosen, cfg["join_depth"])
        with tr.span("analysis.confluence"):
            conf = exhaustive_confluence(trs, chosen)
        with tr.span("analysis.cr"):
            cr = exhaustive_church_rosser(trs, chosen)
        with tr.span("cli.analyze_cp"):
            cp = cli(["analyze", ARITH_TRS, "cp", "--depth", "2",
                      "--format", "json"])
        with tr.span("cli.analyze_nonconfluent"):
            nc = {check: cli(["analyze", NONCONFLUENT_TRS, check, "--depth",
                              nc_depth, "--format", "json"])
                  for check in ("confluence", "weak", "cr")}
        verdicts, stars = [], []
        with tr.span("analysis.abstract_batch"):
            for n, pairs in relations:
                a = Rel.from_pairs(n, pairs)
                verdicts.append([is_confluent(a).ok, is_church_rosser(a).ok])
                with tr.span("relalg.kleene_star"):
                    star = a.kleene_star()
                stars.append(star)
        wall = time.perf_counter() - t0
        results = {
            "seeds": Digest.of(format_term(t) for t in chosen).to_json(),
            "spectrum": [spectrum.to_json()["verdict"], spectrum.nodes],
            "weak": weak.verdict,
            "confluence": conf.verdict,
            "cr": cr.verdict,
            "cp": [cp[0], [c["verdict"] for c in cp[1]["checks"]]],
            "nonconfluent": {k: [code, out["verdict"]]
                             for k, (code, out) in nc.items()},
            "abstract": verdicts,
            "stars": [format(pairs_mask(s.n, s.pairs), "x") for s in stars],
        }
        return wall, results, _step_cache_counts()

    return body


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    import relrew
    from relrew.syntax import Term

    if os.path.dirname(os.path.abspath(relrew.__file__)) != os.path.join(SRC_DIR, "relrew"):
        raise SystemExit(f"relrew imported from {relrew.__file__}, not {SRC_DIR}")

    cfg = SCALES[args.scale][args.workload]
    if args.workload == "closure-d3":
        body = closure_workload(cfg, args.seed, args.round)
    elif args.workload == "laws":
        body = laws_workload(cfg, args.round)
    else:
        body = analyze_workload(cfg, args.seed, args.round)
    print("ready", flush=True)

    tracer = Tracer() if args.trace else NullTracer()
    wall, results, counts = body(tracer)
    counts["syntax.interned_terms"] = len(Term._intern)
    print(json.dumps({"wall_s": wall, "results": results, "counts": counts,
                      "spans": tracer.spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
