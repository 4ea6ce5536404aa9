"""Property-based law harness: three suites of algebraic laws checked on
random finite structures.

* relation suite   — lattice/quantale/converse/residual/star/coreflexive
                     laws of finite binary relations, on small carriers;
* termrel suite    — the axiom and derived-law catalog of the term-relation
                     operators (substitution, compatible/sequential
                     refinement, derivative, Taylor slices, closures);
* fixpoint suite   — fixed-point calculus rules on small powerset lattices
                     with randomly generated monotone functions.

Each law is checked on ``cfg.samples`` independently drawn samples; laws with
side conditions skip samples that do not satisfy them (skip counts are
reported).  Laws whose right-hand sides involve closures on a truncated
universe are marked *soft*: a failing sample that dropped pairs counts as
"unconfirmed" rather than as a counterexample.  Everything is deterministic
in ``cfg.seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import relalg
from .relalg import Rel, lfp, random_coreflexive, random_rel
from .syntax import Signature, TermError, Universe, universe
from .termrel import (
    OpStats,
    check_refine,
    delta,
    derivative,
    full_closure,
    hat,
    i_eta,
    i_sigma0,
    parallel_closure,
    sequential_closure,
    subst_rel,
    taylor,
    tilde,
)

ARITHMETIC = Signature({"0": 0, "S": 1, "A": 2, "M": 2})

SKIP = "skip"


# allowed (low, high) values of the integer fields, high None for unbounded;
# a fixpoint law walks up to 4**lattice_ground point pairs per sample
_INT_RANGES = {"samples": (1, None), "carrier_max": (2, None),
               "max_pairs": (0, None), "lattice_ground": (2, 10)}


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    samples: int = 200
    density: float = 0.15
    signature: Signature = field(default_factory=lambda: ARITHMETIC)
    variables: Tuple[str, ...] = ("x", "y")
    carrier_max: int = 5
    lattice_ground: int = 4
    max_pairs: int = 4

    def __post_init__(self):
        for key, (low, high) in _INT_RANGES.items():
            value = getattr(self, key)
            if (not isinstance(value, int) or value < low
                    or (high is not None and value > high)):
                allowed = f">= {low}" if high is None else f"in {low}..{high}"
                raise ValueError(f"SampleConfig key {key!r} must be an "
                                 f"integer {allowed}, got {value!r}")
        # density is only read as ``rng.random() < density + 0.1``
        if (isinstance(self.density, bool)
                or not isinstance(self.density, (int, float))):
            raise ValueError("SampleConfig key 'density' must be a number, "
                             f"got {self.density!r}")
        if not isinstance(self.signature, Signature):
            raise ValueError("SampleConfig key 'signature' must map operator "
                             f"names to arities, got {self.signature!r}")
        if not (isinstance(self.variables, tuple)
                and all(isinstance(v, str) for v in self.variables)):
            raise ValueError("SampleConfig key 'variables' must be a list of "
                             f"strings, got {self.variables!r}")

    @staticmethod
    def from_dict(d: dict) -> "SampleConfig":
        unknown = sorted(set(d) - {f.name for f in fields(SampleConfig)})
        if unknown:
            raise ValueError(
                f"unknown SampleConfig key(s): {', '.join(unknown)}")
        kwargs = dict(d)
        if isinstance(kwargs.get("signature"), dict):
            try:
                kwargs["signature"] = Signature(kwargs["signature"])
            except TermError as e:
                raise ValueError(f"SampleConfig key 'signature': {e}") from None
        if isinstance(kwargs.get("variables"), list):
            kwargs["variables"] = tuple(kwargs["variables"])
        return SampleConfig(**kwargs)


@dataclass(frozen=True)
class Law:
    id: str
    group: str
    kind: str  # equality | inequality | implication
    soft: bool = False


@dataclass
class LawReport:
    law_id: str
    group: str
    kind: str
    soft: bool
    samples: int
    skips: int
    unconfirmed: int
    overflow_dropped: int
    counterexamples: List[str]
    verdict: str

    def to_json(self) -> dict:
        return {
            "law": self.law_id,
            "group": self.group,
            "kind": self.kind,
            "soft": self.soft,
            "samples": self.samples,
            "skips": self.skips,
            "unconfirmed": self.unconfirmed,
            "overflow_dropped": self.overflow_dropped,
            "counterexamples": self.counterexamples,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# generic plumbing

def _run_entries(entries, cfg: SampleConfig,
                 law_ids: Optional[Sequence[str]] = None) -> List[LawReport]:
    wanted = set(law_ids) if law_ids else None
    reports = []
    for law, runner in entries:
        if wanted is not None and law.id not in wanted:
            continue
        rng = random.Random(f"{cfg.seed}:{law.id}")
        skips = unconfirmed = dropped = 0
        cexs: List[str] = []
        for _ in range(cfg.samples):
            st = OpStats()
            res = runner(cfg, rng, st)
            dropped += st.dropped
            if res is SKIP:
                skips += 1
            elif res is not None:
                if law.soft and st.dropped:
                    unconfirmed += 1
                elif len(cexs) < 3:  # keep only the first few
                    cexs.append(res)
        verdict = "pass" if not cexs else "fail"
        reports.append(LawReport(law.id, law.group, law.kind, law.soft,
                                 cfg.samples, skips, unconfirmed, dropped,
                                 cexs, verdict))
    return reports


def _pairs_str(r: Rel) -> List[List[str]]:
    return [[str(p), str(q)] for p, q in sorted(r.pairs)]


def _cex(inputs, witness) -> str:
    payload = {"inputs": [_pairs_str(r) for r in inputs]}
    if witness is not None:
        payload["witness"] = list(witness)
    return json.dumps(payload, sort_keys=True, default=str)


def _leq(x: Rel, y: Rel, inputs) -> Optional[str]:
    if x.leq(y):
        return None
    return _cex(inputs, min(x.pairs - y.pairs))


def _eq(x: Rel, y: Rel, inputs) -> Optional[str]:
    diff = x.pairs ^ y.pairs
    if not diff:
        return None
    return _cex(inputs, min(diff))


def _bool(ok: bool, inputs, note: str) -> Optional[str]:
    return None if ok else _cex(inputs, (note, ""))


# ---------------------------------------------------------------------------
# relation suite

RELATION_ENTRIES: List[Tuple[Law, Callable]] = []


def relation_law(law_id: str, group: str, kind: str, nrels: int = 3,
                 sampler: str = "plain"):
    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            n = rng.randint(2, cfg.carrier_max)
            if sampler == "coreflexive":
                rels = [random_coreflexive(n, 0.5, rng) for _ in range(nrels)]
            else:
                rels = [random_rel(n, cfg.density + 0.1, rng) for _ in range(nrels)]
            return fn(n, rels, rng)
        RELATION_ENTRIES.append((Law(law_id, group, kind), runner))
        return fn
    return deco


@relation_law("rel-compose-assoc", "quantale", "equality")
def _law_compose_assoc(n, rels, rng):
    a, b, c = rels
    return _eq(a.compose(b).compose(c), a.compose(b.compose(c)), rels)


@relation_law("rel-id-left", "quantale", "equality", nrels=1)
def _law_id_left(n, rels, rng):
    (a,) = rels
    return _eq(Rel.identity(n).compose(a), a, rels)


@relation_law("rel-id-right", "quantale", "equality", nrels=1)
def _law_id_right(n, rels, rng):
    (a,) = rels
    return _eq(a.compose(Rel.identity(n)), a, rels)


@relation_law("rel-bot-ann-left", "quantale", "equality", nrels=1)
def _law_bot_left(n, rels, rng):
    (a,) = rels
    return _eq(Rel.bottom(n).compose(a), Rel.bottom(n), rels)


@relation_law("rel-bot-ann-right", "quantale", "equality", nrels=1)
def _law_bot_right(n, rels, rng):
    (a,) = rels
    return _eq(a.compose(Rel.bottom(n)), Rel.bottom(n), rels)


@relation_law("rel-dist-join-left", "quantale", "equality")
def _law_dist_left(n, rels, rng):
    a, b, c = rels
    return _eq((a | b).compose(c), a.compose(c) | b.compose(c), rels)


@relation_law("rel-dist-join-right", "quantale", "equality")
def _law_dist_right(n, rels, rng):
    a, b, c = rels
    return _eq(a.compose(b | c), a.compose(b) | a.compose(c), rels)


@relation_law("rel-compose-monotone", "quantale", "implication", nrels=2)
def _law_comp_mono(n, rels, rng):
    a, c = rels
    b = a | random_rel(n, 0.2, rng)
    ok = a.compose(c).leq(b.compose(c)) and c.compose(a).leq(c.compose(b))
    return _bool(ok, [a, b, c], "composition not monotone")


@relation_law("rel-lattice-bounds", "lattice", "inequality", nrels=2)
def _law_lattice_bounds(n, rels, rng):
    a, b = rels
    ok = (Rel.bottom(n).leq(a) and a.leq(Rel.top(n))
          and (a & b).leq(a) and a.leq(a | b)
          and (a & b).leq(a | b))
    return _bool(ok, rels, "lattice bound violated")


@relation_law("rel-conv-involution", "converse", "equality", nrels=1)
def _law_conv_inv(n, rels, rng):
    (a,) = rels
    return _eq(a.converse().converse(), a, rels)


@relation_law("rel-conv-id", "converse", "equality", nrels=0)
def _law_conv_id(n, rels, rng):
    return _eq(Rel.identity(n).converse(), Rel.identity(n), [])


@relation_law("rel-conv-compose", "converse", "equality", nrels=2)
def _law_conv_comp(n, rels, rng):
    a, b = rels
    return _eq(a.compose(b).converse(),
               b.converse().compose(a.converse()), rels)


@relation_law("rel-conv-join", "converse", "equality", nrels=2)
def _law_conv_join(n, rels, rng):
    a, b = rels
    return _eq((a | b).converse(), a.converse() | b.converse(), rels)


@relation_law("rel-conv-galois", "converse", "implication", nrels=2)
def _law_conv_galois(n, rels, rng):
    a, b = rels
    ok = (a.converse().leq(b)) == (a.leq(b.converse()))
    return _bool(ok, rels, "converse self-adjunction broken")


@relation_law("rel-modular", "modular", "inequality")
def _law_modular(n, rels, rng):
    a, b, c = rels
    lhs = a.compose(b) & c
    rhs = (a & c.compose(b.converse())).compose(b)
    return _leq(lhs, rhs, rels)


@relation_law("rel-residual-right-cancel", "residual", "inequality", nrels=2)
def _law_resr_cancel(n, rels, rng):
    c, b = rels
    return _leq(c.residual_right(b).compose(b), c, rels)


@relation_law("rel-residual-left-cancel", "residual", "inequality", nrels=2)
def _law_resl_cancel(n, rels, rng):
    a, c = rels
    return _leq(a.compose(a.residual_left(c)), c, rels)


@relation_law("rel-residual-right-galois", "residual", "implication")
def _law_resr_galois(n, rels, rng):
    x, b, c = rels
    ok = (x.leq(c.residual_right(b))) == (x.compose(b).leq(c))
    return _bool(ok, rels, "right residual adjunction broken")


@relation_law("rel-residual-left-galois", "residual", "implication")
def _law_resl_galois(n, rels, rng):
    a, x, c = rels
    ok = (x.leq(a.residual_left(c))) == (a.compose(x).leq(c))
    return _bool(ok, rels, "left residual adjunction broken")


@relation_law("rel-galois-cancellation", "residual", "inequality", nrels=2)
def _law_galois_cancel(n, rels, rng):
    a, b = rels
    # F = (-;b), G = (-/b): F(G(a)) <= a and a <= G(F(a))
    ok = (a.residual_right(b).compose(b).leq(a)
          and a.leq(a.compose(b).residual_right(b)))
    return _bool(ok, rels, "Galois cancellation broken")


def _all_rels(n: int):
    slots = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(slots)):
        yield Rel(range(n), frozenset(p for k, p in enumerate(slots) if mask >> k & 1))


@relation_law("rel-residual-adjoint-oracle", "residual", "equality", nrels=2)
def _law_res_oracle(n, rels, rng):
    if n > 3:
        n = 3
    c = random_rel(n, 0.3, rng)
    b = random_rel(n, 0.3, rng)
    # the adjoint formula: g(c) = join of every x with x;b <= c
    best = Rel.bottom(n)
    for x in _all_rels(n):
        if x.compose(b).leq(c):
            best = best | x
    return _eq(c.residual_right(b), best, [c, b])


@relation_law("rel-star-unfold", "star", "equality", nrels=1)
def _law_star_unfold(n, rels, rng):
    (a,) = rels
    s = a.kleene_star()
    return _eq(s, Rel.identity(n) | a.compose(s), rels)


@relation_law("rel-star-closure", "star", "inequality", nrels=1)
def _law_star_closure(n, rels, rng):
    (a,) = rels
    s = a.kleene_star()
    ok = (a.leq(s) and Rel.identity(n).leq(s)
          and s.compose(s).leq(s) and s.kleene_star().pairs == s.pairs)
    return _bool(ok, rels, "star closure-operator law broken")


@relation_law("rel-star-monotone", "star", "implication", nrels=1)
def _law_star_mono(n, rels, rng):
    (a,) = rels
    b = a | random_rel(n, 0.2, rng)
    return _bool(a.kleene_star().leq(b.kleene_star()), [a, b],
                 "star not monotone")


@relation_law("rel-star-converse", "star", "equality", nrels=1)
def _law_star_conv(n, rels, rng):
    (a,) = rels
    return _eq(a.converse().kleene_star(),
               a.kleene_star().converse(), rels)


@relation_law("rel-star-powers", "star", "inequality", nrels=1)
def _law_star_powers(n, rels, rng):
    (a,) = rels
    s = a.kleene_star()
    ok = all(a.power(k).leq(s) for k in range(5))
    return _bool(ok, rels, "a^n <= a* broken")


@relation_law("rel-trans-closure-unfold", "star", "equality", nrels=1)
def _law_plus_unfold(n, rels, rng):
    (a,) = rels
    plus = a.trans_closure()
    ok = (plus.pairs == (a | a.compose(plus)).pairs
          and plus.pairs == a.compose(a.kleene_star()).pairs)
    return _bool(ok, rels, "transitive closure unfold broken")


@relation_law("rel-coreflexive-meet", "coreflexive", "equality", nrels=2,
              sampler="coreflexive")
def _law_corefl_meet(n, rels, rng):
    a, b = rels
    return _eq(a.compose(b), a & b, rels)


@relation_law("rel-coreflexive-converse", "coreflexive", "equality", nrels=1,
              sampler="coreflexive")
def _law_corefl_conv(n, rels, rng):
    (a,) = rels
    return _eq(a.converse(), a, rels)


@relation_law("rel-cr-iff-confluence", "ars", "implication", nrels=1)
def _law_cr_iff(n, rels, rng):
    from .analysis import is_church_rosser, is_confluent

    (a,) = rels
    ok = is_church_rosser(a).ok == is_confluent(a).ok
    return _bool(ok, rels, "CR and confluence verdicts disagree")


def run_relation_law_suite(cfg: SampleConfig,
                           law_ids: Optional[Sequence[str]] = None,
                           corrupt_compose: bool = False) -> List[LawReport]:
    if corrupt_compose:
        with relalg.corrupted_compose():
            return _run_entries(RELATION_ENTRIES, cfg, law_ids)
    return _run_entries(RELATION_ENTRIES, cfg, law_ids)


# ---------------------------------------------------------------------------
# termrel suite

TERMREL_ENTRIES: List[Tuple[Law, Callable]] = []


def termrel_law(law_id: str, group: str, kind: str, soft: bool = False,
                support: int = 2, work: int = 3, nrels: int = 1,
                max_pairs: Optional[int] = None, strict_retry: bool = False,
                ordered: bool = False):
    """Register a term-relation law.

    ``support``/``work`` are the headroom table: inputs are drawn with
    support depth ``support`` and the law is evaluated over the depth-
    ``work`` universe (lazily — universes too large to enumerate switch the
    operators to their sparse backward implementations).  ``ordered`` makes
    the second relation a superset of the first (for monotonicity laws).
    ``strict_retry`` re-checks failures under the all-variables reading of
    relational substitution before reporting them.
    """
    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            u = universe(cfg.signature, cfg.variables, work)
            sup = universe(cfg.signature, cfg.variables, support).terms()
            cap = max_pairs if max_pairs is not None else cfg.max_pairs
            rels = []
            for i in range(nrels):
                k = rng.randint(0, cap)
                pairs = set()
                for _ in range(k):
                    pairs.add((rng.choice(sup), rng.choice(sup)))
                r = Rel(u, frozenset(pairs))
                if ordered and i == 1:
                    r = r | rels[0]
                rels.append(r)
            res = fn(u, rels, st)
            if res is not None and res is not SKIP and strict_retry:
                if fn(u, rels, st, strict=True) is None:
                    return None
            return res
        TERMREL_ENTRIES.append((Law(law_id, group, kind, soft), runner))
        return fn
    return deco


@lru_cache(maxsize=None)
def _cached_delta_subst(u: Universe) -> bool:
    st = OpStats()
    d = delta(u)
    return subst_rel(d, d, st).pairs == d.pairs


@termrel_law("subst-delta-delta", "substitution", "equality",
             support=2, work=2, nrels=0)
def _tl_subst_delta(u, rels, st, strict=False):
    return _bool(_cached_delta_subst(u), [], "Delta[Delta] != Delta")


@termrel_law("subst-compose", "substitution", "inequality",
             support=2, work=4, nrels=4, max_pairs=3, strict_retry=True)
def _tl_subst_compose(u, rels, st, strict=False):
    a, b, c, d = rels
    lhs = subst_rel(a.compose(b), c.compose(d), st, strict=strict)
    rhs = subst_rel(a, c, st, strict=strict).compose(
        subst_rel(b, d, st, strict=strict))
    return _leq(lhs, rhs, rels)


@termrel_law("subst-converse", "substitution", "equality",
             support=2, work=4, nrels=2, max_pairs=3)
def _tl_subst_conv(u, rels, st, strict=False):
    a, b = rels
    return _eq(subst_rel(a, b, st).converse(),
               subst_rel(a.converse(), b.converse(), st), rels)


@termrel_law("subst-monotone", "substitution", "implication",
             support=2, work=4, nrels=2, max_pairs=3)
def _tl_subst_mono(u, rels, st, strict=False):
    a, b = rels
    a2 = a | Rel(u, frozenset(sorted(b.pairs)[:1]))
    b2 = b | Rel(u, frozenset(sorted(a.pairs)[:1]))
    ok = subst_rel(a, b, st).leq(subst_rel(a2, b2, st))
    return _bool(ok, [a, b], "subst not monotone")


@termrel_law("subst-join", "substitution", "equality",
             support=2, work=4, nrels=3, max_pairs=3)
def _tl_subst_join(u, rels, st, strict=False):
    a, b, c = rels
    return _eq(subst_rel(a | b, c, st),
               subst_rel(a, c, st) | subst_rel(b, c, st), rels)


@termrel_law("subst-assoc", "substitution", "inequality",
             support=2, work=6, nrels=3, max_pairs=3, strict_retry=True)
def _tl_subst_assoc(u, rels, st, strict=False):
    # the action law holds laxly only: distinct variables may pick images
    # that share a variable, which couples the outer instantiation on the
    # left but not on the right
    a, b, c = rels
    lhs = subst_rel(subst_rel(a, b, st, strict=strict), c, st, strict=strict)
    rhs = subst_rel(a, subst_rel(b, c, st, strict=strict), st, strict=strict)
    return _leq(lhs, rhs, rels)


@termrel_law("ieta-subst", "substitution", "inequality",
             support=2, work=2, nrels=1)
def _tl_ieta_subst(u, rels, st, strict=False):
    (b,) = rels
    return _leq(subst_rel(i_eta(u), b, st), b, rels)


@lru_cache(maxsize=None)
def _cached_tilde_delta(u: Universe) -> bool:
    d = delta(u)
    return tilde(d).leq(d)


@termrel_law("tilde-delta", "compat-refinement", "inequality",
             support=2, work=2, nrels=0)
def _tl_tilde_delta(u, rels, st, strict=False):
    return _bool(_cached_tilde_delta(u), [], "~Delta not below Delta")


@termrel_law("tilde-compose", "compat-refinement", "equality",
             support=2, work=3, nrels=2)
def _tl_tilde_comp(u, rels, st, strict=False):
    a, b = rels
    return _eq(tilde(a.compose(b), st), tilde(a, st).compose(tilde(b, st)),
               rels)


@termrel_law("tilde-converse", "compat-refinement", "equality",
             support=2, work=3, nrels=1)
def _tl_tilde_conv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(tilde(a.converse(), st), tilde(a, st).converse(), rels)


@termrel_law("tilde-monotone", "compat-refinement", "implication",
             support=2, work=3, nrels=2, ordered=True)
def _tl_tilde_mono(u, rels, st, strict=False):
    a, b = rels
    return _bool(tilde(a, st).leq(tilde(b, st)), rels, "tilde not monotone")


@termrel_law("tilde-join", "compat-refinement", "inequality",
             support=2, work=3, nrels=2)
def _tl_tilde_join(u, rels, st, strict=False):
    # only an inequality: tilde(a|b) may mix a-steps and b-steps in
    # different argument positions of the same operator
    a, b = rels
    return _leq(tilde(a, st) | tilde(b, st), tilde(a | b, st), rels)


@termrel_law("tilde-subst", "compat-refinement", "inequality",
             support=2, work=5, nrels=2, max_pairs=3)
def _tl_tilde_subst(u, rels, st, strict=False):
    a, b = rels
    return _leq(subst_rel(tilde(a, st), b, st), tilde(subst_rel(a, b, st), st),
                rels)


@termrel_law("tilde-var-disjoint", "compat-refinement", "equality",
             support=2, work=3, nrels=1)
def _tl_tilde_vars(u, rels, st, strict=False):
    (a,) = rels
    return _bool(not (i_eta(u) & tilde(a, st)).pairs, rels,
                 "I_eta meets tilde(a)")


@lru_cache(maxsize=None)
def _cached_hat_delta(u: Universe) -> bool:
    d = delta(u)
    return hat(d).pairs == d.pairs


@termrel_law("hat-delta", "compat-refinement", "equality",
             support=2, work=2, nrels=0)
def _tl_hat_delta(u, rels, st, strict=False):
    return _bool(_cached_hat_delta(u), [], "hat(Delta) != Delta")


@termrel_law("hat-compose", "compat-refinement", "equality",
             support=2, work=3, nrels=2)
def _tl_hat_comp(u, rels, st, strict=False):
    a, b = rels
    return _eq(hat(a.compose(b), st), hat(a, st).compose(hat(b, st)), rels)


@termrel_law("hat-converse", "compat-refinement", "equality",
             support=2, work=3, nrels=1)
def _tl_hat_conv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(hat(a.converse(), st), hat(a, st).converse(), rels)


@termrel_law("hat-join", "compat-refinement", "inequality",
             support=2, work=3, nrels=2)
def _tl_hat_join(u, rels, st, strict=False):
    a, b = rels
    return _leq(hat(a, st) | hat(b, st), hat(a | b, st), rels)


@termrel_law("hat-subst", "compat-refinement", "inequality",
             support=2, work=5, nrels=2, max_pairs=3)
def _tl_hat_subst(u, rels, st, strict=False):
    a, b = rels
    lhs = subst_rel(hat(a, st), b, st)
    rhs = hat(subst_rel(a, b, st), st) | b
    return _leq(lhs, rhs, rels)


@lru_cache(maxsize=None)
def _cached_delta_fixpoint(u: Universe) -> bool:
    return lfp(hat, Rel.bottom(u)) == delta(u)


@termrel_law("delta-hat-fixpoint", "compat-refinement", "equality",
             support=2, work=2, nrels=0)
def _tl_delta_fix(u, rels, st, strict=False):
    return _bool(_cached_delta_fixpoint(u), [], "lfp of hat is not Delta")


@lru_cache(maxsize=None)
def _cached_check_delta(u: Universe) -> bool:
    d = delta(u)
    return check_refine(d).leq(d)


@termrel_law("check-delta", "seq-refinement", "inequality",
             support=1, work=2, nrels=0)
def _tl_check_delta(u, rels, st, strict=False):
    return _bool(_cached_check_delta(u), [], "check(Delta) not below Delta")


@termrel_law("check-compose", "seq-refinement", "inequality",
             support=1, work=2, nrels=2)
def _tl_check_comp(u, rels, st, strict=False):
    a, b = rels
    return _leq(check_refine(a.compose(b), st),
                check_refine(a, st).compose(check_refine(b, st)), rels)


@termrel_law("check-interchange", "seq-refinement", "inequality",
             support=1, work=2, nrels=2)
def _tl_check_inter(u, rels, st, strict=False):
    a, b = rels
    ca, cb = check_refine(a, st), check_refine(b, st)
    lhs = ca.compose(cb)
    rhs = check_refine(a.compose(b), st) | cb.compose(ca)
    return _leq(lhs, rhs, rels)


@termrel_law("check-converse", "seq-refinement", "equality",
             support=1, work=2, nrels=1)
def _tl_check_conv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(check_refine(a.converse(), st),
               check_refine(a, st).converse(), rels)


@termrel_law("check-monotone", "seq-refinement", "implication",
             support=1, work=2, nrels=2, ordered=True)
def _tl_check_mono(u, rels, st, strict=False):
    a, b = rels
    return _bool(check_refine(a, st).leq(check_refine(b, st)), rels,
                 "check not monotone")


@termrel_law("check-join", "seq-refinement", "equality",
             support=1, work=2, nrels=2)
def _tl_check_join(u, rels, st, strict=False):
    a, b = rels
    return _eq(check_refine(a | b, st),
               check_refine(a, st) | check_refine(b, st), rels)


@termrel_law("check-is-derivative", "seq-refinement", "equality",
             support=1, work=2, nrels=1)
def _tl_check_deriv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(check_refine(a, st), derivative(delta(u), a, st), rels)


@termrel_law("deriv-delta", "derivative", "inequality",
             support=1, work=2, nrels=0)
def _tl_deriv_delta(u, rels, st, strict=False):
    return _bool(_cached_check_delta(u), [], "d_Delta(Delta) not below Delta")


@termrel_law("deriv-monotone", "derivative", "implication",
             support=2, work=3, nrels=2, ordered=True)
def _tl_deriv_mono(u, rels, st, strict=False):
    a, b = rels
    return _bool(derivative(a, a, st).leq(derivative(b, b, st)), rels,
                 "derivative not monotone")


@termrel_law("deriv-compose", "derivative", "inequality",
             support=2, work=3, nrels=4, max_pairs=3)
def _tl_deriv_comp(u, rels, st, strict=False):
    a, a2, b, b2 = rels
    lhs = derivative(a.compose(a2), b.compose(b2), st)
    rhs = derivative(a, b, st).compose(derivative(a2, b2, st))
    return _leq(lhs, rhs, rels)


@termrel_law("deriv-converse", "derivative", "equality",
             support=2, work=3, nrels=2)
def _tl_deriv_conv(u, rels, st, strict=False):
    a, b = rels
    return _eq(derivative(a, b, st).converse(),
               derivative(a.converse(), b.converse(), st), rels)


@termrel_law("deriv-below-tilde", "derivative", "inequality",
             support=2, work=3, nrels=2)
def _tl_deriv_tilde(u, rels, st, strict=False):
    a, b = rels
    return _leq(derivative(a, b, st), tilde(a | b, st), rels)


@termrel_law("tilde-increment", "derivative", "equality",
             support=2, work=3, nrels=2)
def _tl_tilde_increment(u, rels, st, strict=False):
    # the step of the semi-naive parallel closure: what a new pair d adds
    # to tilde lies in the derivative with d in one position
    x, d = rels
    xd = x | d
    return _eq(tilde(xd, st), tilde(x, st) | derivative(xd, d, st), rels)


@termrel_law("deriv-join", "derivative", "equality",
             support=1, work=2, nrels=2)
def _tl_deriv_join(u, rels, st, strict=False):
    a, b = rels
    d = delta(u)
    return _eq(derivative(d, a | b, st),
               derivative(d, a, st) | derivative(d, b, st), rels)


@termrel_law("tilde-is-derivative", "derivative", "equality",
             support=2, work=3, nrels=1)
def _tl_tilde_deriv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(tilde(a, st), derivative(a, a, st) | i_sigma0(u), rels)


@lru_cache(maxsize=None)
def _cached_taylor_delta(u: Universe) -> bool:
    d = delta(u)
    return all(taylor(n, d).leq(d) for n in range(u.signature.max_arity() + 1))


@termrel_law("taylor-delta", "taylor", "inequality",
             support=2, work=2, nrels=0)
def _tl_taylor_delta(u, rels, st, strict=False):
    return _bool(_cached_taylor_delta(u), [], "taylor(Delta) not below Delta")


@termrel_law("taylor-compose", "taylor", "equality",
             support=2, work=3, nrels=2)
def _tl_taylor_comp(u, rels, st, strict=False):
    a, b = rels
    for n in range(u.signature.max_arity() + 1):
        res = _eq(taylor(n, a.compose(b), st),
                  taylor(n, a, st).compose(taylor(n, b, st)), rels)
        if res is not None:
            return res
    return None


@termrel_law("taylor-converse", "taylor", "equality",
             support=2, work=3, nrels=1)
def _tl_taylor_conv(u, rels, st, strict=False):
    (a,) = rels
    for n in range(u.signature.max_arity() + 1):
        res = _eq(taylor(n, a.converse(), st), taylor(n, a, st).converse(),
                  rels)
        if res is not None:
            return res
    return None


@termrel_law("taylor-monotone", "taylor", "implication",
             support=2, work=3, nrels=2, ordered=True)
def _tl_taylor_mono(u, rels, st, strict=False):
    a, b = rels
    ok = all(taylor(n, a, st).leq(taylor(n, b, st))
             for n in range(u.signature.max_arity() + 1))
    return _bool(ok, rels, "taylor not monotone")


@termrel_law("taylor-zero", "taylor", "equality",
             support=2, work=3, nrels=1)
def _tl_taylor_zero(u, rels, st, strict=False):
    (a,) = rels
    return _eq(taylor(0, a, st), i_sigma0(u), rels)


@termrel_law("taylor-subst", "taylor", "inequality",
             support=2, work=5, nrels=2, max_pairs=3)
def _tl_taylor_subst(u, rels, st, strict=False):
    a, b = rels
    ab = subst_rel(a, b, st)
    for n in range(u.signature.max_arity() + 1):
        res = _leq(subst_rel(taylor(n, a, st), b, st), taylor(n, ab, st),
                   rels)
        if res is not None:
            return res
    return None


@termrel_law("taylor-deriv-power", "taylor", "inequality",
             support=1, work=2, nrels=1)
def _tl_taylor_power(u, rels, st, strict=False):
    (a,) = rels
    ca = check_refine(a, st)
    power = delta(u)
    for n in range(u.signature.max_arity() + 1):
        res = _leq(taylor(n, a, st), power, rels)
        if res is not None:
            return res
        power = power.compose(ca)
    return None


@termrel_law("taylor-expansion", "taylor", "equality",
             support=2, work=3, nrels=1)
def _tl_taylor_expansion(u, rels, st, strict=False):
    (a,) = rels
    joined = Rel.bottom(u)
    for n in range(u.signature.max_arity() + 1):
        joined = joined | taylor(n, a, st)
    return _eq(tilde(a, st), joined, rels)


# --- sequential closure -----------------------------------------------------

@termrel_law("seqclo-extensive", "seq-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_seqclo_ext(u, rels, st, strict=False):
    (a,) = rels
    return _leq(a, sequential_closure(a, st), rels)


@termrel_law("seqclo-closed", "seq-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_seqclo_closed(u, rels, st, strict=False):
    (a,) = rels
    s = sequential_closure(a, st)
    return _leq(check_refine(s, st), s, rels)


@termrel_law("seqclo-idempotent", "seq-closure", "equality",
             support=1, work=2, nrels=1)
def _tl_seqclo_idem(u, rels, st, strict=False):
    (a,) = rels
    s = sequential_closure(a, st)
    return _eq(sequential_closure(s, st), s, rels)


@termrel_law("seqclo-monotone", "seq-closure", "implication",
             support=1, work=2, nrels=2, ordered=True)
def _tl_seqclo_mono(u, rels, st, strict=False):
    a, b = rels
    return _bool(sequential_closure(a, st).leq(sequential_closure(b, st)),
                 rels, "sequential closure not monotone")


@termrel_law("seqclo-converse", "seq-closure", "equality",
             support=1, work=2, nrels=1)
def _tl_seqclo_conv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(sequential_closure(a.converse(), st),
               sequential_closure(a, st).converse(), rels)


@termrel_law("seqclo-compose", "seq-closure", "inequality",
             support=0, work=2, nrels=2)
def _tl_seqclo_comp(u, rels, st, strict=False):
    a, b = rels
    return _leq(sequential_closure(a.compose(b), st),
                sequential_closure(a, st).compose(sequential_closure(b, st)),
                rels)


@termrel_law("seqclo-star", "seq-closure", "inequality",
             support=0, work=2, nrels=1)
def _tl_seqclo_star(u, rels, st, strict=False):
    (a,) = rels
    return _leq(sequential_closure(a.kleene_star(), st),
                sequential_closure(a, st).kleene_star(), rels)


@termrel_law("seqclo-five-way", "seq-closure", "inequality",
             support=1, work=2, nrels=2)
def _tl_seqclo_five(u, rels, st, strict=False):
    a, b = rels
    sa, sb = sequential_closure(a, st), sequential_closure(b, st)
    lhs = sa.compose(sb)
    rhs = (a.compose(b)
           | a.compose(check_refine(sb, st))
           | check_refine(sa, st).compose(b)
           | check_refine(sa.compose(sb), st)
           | check_refine(sb, st).compose(check_refine(sa, st)))
    return _leq(lhs, rhs, rels)


@termrel_law("check-star", "seq-closure", "inequality",
             support=0, work=2, nrels=1)
def _tl_check_star(u, rels, st, strict=False):
    (a,) = rels
    return _leq(check_refine(a.kleene_star(), st),
                check_refine(a, st).kleene_star(), rels)


# --- parallel closure --------------------------------------------------------

@termrel_law("parclo-extensive", "par-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_parclo_ext(u, rels, st, strict=False):
    (a,) = rels
    return _leq(a, parallel_closure(a, st), rels)


@termrel_law("parclo-closed-hat", "par-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_parclo_hat(u, rels, st, strict=False):
    (a,) = rels
    p = parallel_closure(a, st)
    return _leq(hat(p, st), p, rels)


@termrel_law("parclo-closed-check", "par-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_parclo_check(u, rels, st, strict=False):
    (a,) = rels
    p = parallel_closure(a, st)
    return _leq(check_refine(p, st), p, rels)


@termrel_law("parclo-idempotent", "par-closure", "equality",
             support=1, work=2, nrels=1)
def _tl_parclo_idem(u, rels, st, strict=False):
    (a,) = rels
    p = parallel_closure(a, st)
    return _eq(parallel_closure(p, st), p, rels)


@termrel_law("parclo-monotone", "par-closure", "implication",
             support=1, work=2, nrels=2, ordered=True)
def _tl_parclo_mono(u, rels, st, strict=False):
    a, b = rels
    return _bool(parallel_closure(a, st).leq(parallel_closure(b, st)), rels,
                 "parallel closure not monotone")


@termrel_law("parclo-reflexive", "par-closure", "inequality",
             support=1, work=2, nrels=1)
def _tl_parclo_refl(u, rels, st, strict=False):
    (a,) = rels
    return _leq(delta(u), parallel_closure(a, st), rels)


@termrel_law("parclo-compose", "par-closure", "inequality",
             support=0, work=2, nrels=2)
def _tl_parclo_comp(u, rels, st, strict=False):
    a, b = rels
    return _leq(parallel_closure(a.compose(b), st),
                parallel_closure(a, st).compose(parallel_closure(b, st)),
                rels)


@termrel_law("parclo-converse", "par-closure", "equality",
             support=1, work=2, nrels=1)
def _tl_parclo_conv(u, rels, st, strict=False):
    (a,) = rels
    return _eq(parallel_closure(a.converse(), st),
               parallel_closure(a, st).converse(), rels)


@termrel_law("parclo-subst-stable", "par-closure", "inequality",
             support=1, work=1, nrels=1, max_pairs=3)
def _tl_parclo_subst(u, rels, st, strict=False):
    (a,) = rels
    ai = subst_rel(a, delta(u), st)
    p = parallel_closure(ai, st)
    return _leq(subst_rel(delta(u), p, st), p, rels)


# --- fundamental theorems and the spectrum ----------------------------------

@termrel_law("fund-seq-below-par", "spectrum", "inequality",
             support=1, work=2, nrels=1)
def _tl_fund1(u, rels, st, strict=False):
    (a,) = rels
    return _leq(sequential_closure(a, st), parallel_closure(a, st), rels)


@termrel_law("fund-par-below-seqstar", "spectrum", "inequality",
             support=1, work=2, nrels=1)
def _tl_fund2(u, rels, st, strict=False):
    (a,) = rels
    return _leq(parallel_closure(a, st),
                sequential_closure(a, st).kleene_star(), rels)


@termrel_law("fund-stars-equal", "spectrum", "equality",
             support=1, work=2, nrels=1)
def _tl_fund3(u, rels, st, strict=False):
    (a,) = rels
    return _eq(sequential_closure(a, st).kleene_star(),
               parallel_closure(a, st).kleene_star(), rels)


@termrel_law("spectrum-subst-extensive", "spectrum", "inequality",
             support=1, work=2, nrels=1)
def _tl_spec_subst(u, rels, st, strict=False):
    (a,) = rels
    return _leq(a, subst_rel(a, delta(u), st), rels)


@termrel_law("spectrum-par-below-full", "spectrum", "inequality",
             support=1, work=2, nrels=1)
def _tl_spec_parfull(u, rels, st, strict=False):
    (a,) = rels
    return _leq(parallel_closure(a, st), full_closure(a, st), rels)


@termrel_law("spectrum-full-below-seqstar", "spectrum", "inequality",
             support=1, work=2, nrels=1)
def _tl_spec_fullstar(u, rels, st, strict=False):
    (a,) = rels
    return _leq(full_closure(a, st),
                sequential_closure(a, st).kleene_star(), rels)


@termrel_law("spectrum-full-star-equal", "spectrum", "equality",
             support=1, work=2, nrels=1)
def _tl_spec_starseq(u, rels, st, strict=False):
    (a,) = rels
    return _eq(full_closure(a, st).kleene_star(),
               sequential_closure(a, st).kleene_star(), rels)


def run_termrel_law_suite(cfg: SampleConfig,
                          law_ids: Optional[Sequence[str]] = None
                          ) -> List[LawReport]:
    return _run_entries(TERMREL_ENTRIES, cfg, law_ids)


# ---------------------------------------------------------------------------
# fixpoint calculus suite (powerset lattice of a small ground set, elements
# are bitmasks; monotone functions are joins of step functions)

FIXPOINT_ENTRIES: List[Tuple[Law, Callable]] = []

MonoFn = Tuple[Tuple[int, int], ...]


def _mk_mono(steps: MonoFn) -> Callable[[int], int]:
    def f(x: int) -> int:
        out = 0
        for p, q in steps:
            if p & x == p:
                out |= q
        return out
    return f


def _rand_mono(g: int, rng: random.Random) -> Callable[[int], int]:
    k = rng.randint(0, 3)
    top = (1 << g) - 1
    steps = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(k))
    return _mk_mono(steps)


def _fn_leq(f, g, points) -> bool:
    return all(f(x) | g(x) == g(x) for x in points)


def fixpoint_law(law_id: str, group: str, kind: str):
    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            g = rng.randint(2, cfg.lattice_ground)
            return fn(g, list(range(1 << g)), rng)
        FIXPOINT_ENTRIES.append((Law(law_id, group, kind), runner))
        return fn
    return deco


def _mask_str(x: int) -> str:
    return bin(x)


@fixpoint_law("fix-knaster-tarski", "fixpoint", "equality")
def _fl_kt(g, points, rng):
    f = _rand_mono(g, rng)
    mu = lfp(f, 0)
    meet = (1 << g) - 1
    for x in points:
        if f(x) | x == x:  # prefixpoint
            meet &= x
    return _bool(mu == meet, [], f"lfp {_mask_str(mu)} != meet {_mask_str(meet)}")


@fixpoint_law("fix-kleene-iteration", "fixpoint", "equality")
def _fl_kleene(g, points, rng):
    f = _rand_mono(g, rng)
    mu = lfp(f, 0)
    join = 0
    x = 0
    for _ in range(len(points) + 1):
        join |= x
        x = f(x)
    ok = join == mu and f(mu) == mu
    return _bool(ok, [], f"join of iterates {_mask_str(join)} != lfp {_mask_str(mu)}")


@fixpoint_law("fix-mu-monotone", "fixpoint", "implication")
def _fl_mu_mono(g, points, rng):
    f = _rand_mono(g, rng)
    extra = _rand_mono(g, rng)
    h = lambda x: f(x) | extra(x)
    ok = lfp(f, 0) | lfp(h, 0) == lfp(h, 0)
    return _bool(ok, [], "mu not monotone")


@fixpoint_law("fix-rolling", "fixpoint", "equality")
def _fl_rolling(g, points, rng):
    f = _rand_mono(g, rng)
    h = _rand_mono(g, rng)
    lhs = lfp(lambda x: f(h(x)), 0)
    rhs = f(lfp(lambda x: h(f(x)), 0))
    return _bool(lhs == rhs, [],
                 f"rolling rule: {_mask_str(lhs)} != {_mask_str(rhs)}")


@fixpoint_law("fix-diagonal", "fixpoint", "equality")
def _fl_diagonal(g, points, rng):
    k = rng.randint(0, 3)
    top = (1 << g) - 1
    steps = tuple(
        (rng.randint(0, top), rng.randint(0, top), rng.randint(0, top))
        for _ in range(k)
    )

    def op(x: int, y: int) -> int:
        out = 0
        for p1, p2, q in steps:
            if p1 & x == p1 and p2 & y == p2:
                out |= q
        return out

    lhs = lfp(lambda x: op(x, x), 0)
    rhs = lfp(lambda x: lfp(lambda y: op(x, y), 0), 0)
    return _bool(lhs == rhs, [],
                 f"diagonal rule: {_mask_str(lhs)} != {_mask_str(rhs)}")


@fixpoint_law("fix-fusion-simple", "fixpoint", "implication")
def _fl_fusion_simple(g, points, rng):
    gg = _rand_mono(g, rng)
    hh = _rand_mono(g, rng)
    if rng.random() < 0.5:
        # constructed instance: F(y) = meet of G(H(x)) over x with G(x) >= y,
        # which satisfies F(G(x)) <= G(H(x)) by construction
        table = {}
        top = (1 << g) - 1
        for y in points:
            m = top
            hit = False
            for x in points:
                if gg(x) & y == y:
                    m &= gg(hh(x))
                    hit = True
            table[y] = m if hit else top
        ff = lambda y: table[y]
    else:
        ff = _rand_mono(g, rng)
        if not all(ff(gg(x)) | gg(hh(x)) == gg(hh(x)) for x in points):
            return SKIP
    ok = lfp(ff, 0) | gg(lfp(hh, 0)) == gg(lfp(hh, 0))
    return _bool(ok, [], "simple mu-fusion broken")


def _perm_lift(g: int, rng: random.Random):
    perm = list(range(g))
    rng.shuffle(perm)

    def f(x: int) -> int:
        out = 0
        for i in range(g):
            if x >> i & 1:
                out |= 1 << perm[i]
        return out

    inv = [0] * g
    for i, j in enumerate(perm):
        inv[j] = i

    def finv(x: int) -> int:
        out = 0
        for i in range(g):
            if x >> i & 1:
                out |= 1 << inv[i]
        return out

    return f, finv


@fixpoint_law("fix-fusion-leq", "fixpoint", "implication")
def _fl_fusion_leq(g, points, rng):
    # F is a lifted permutation: continuous (join-preserving) by construction
    ff, finv = _perm_lift(g, rng)
    gg = _rand_mono(g, rng)
    if rng.random() < 0.5:
        extra = _rand_mono(g, rng)
        hh = lambda x: ff(gg(finv(x))) | extra(x)
    else:
        hh = _rand_mono(g, rng)
        if not all(ff(gg(x)) | hh(ff(x)) == hh(ff(x)) for x in points):
            return SKIP
    ok = ff(lfp(gg, 0)) | lfp(hh, 0) == lfp(hh, 0)
    return _bool(ok, [], "mu-fusion (<=) broken")


@fixpoint_law("fix-fusion-eq", "fixpoint", "equality")
def _fl_fusion_eq(g, points, rng):
    ff, finv = _perm_lift(g, rng)
    gg = _rand_mono(g, rng)
    hh = lambda x: ff(gg(finv(x)))  # F;G = H;F by construction
    lhs = ff(lfp(gg, 0))
    rhs = lfp(hh, 0)
    return _bool(lhs == rhs, [],
                 f"mu-fusion (=): {_mask_str(lhs)} != {_mask_str(rhs)}")


@fixpoint_law("fix-bonks", "fixpoint", "implication")
def _fl_bonks(g, points, rng):
    f = _rand_mono(g, rng)
    if rng.random() < 0.5:
        h = f  # commutes with itself
    else:
        h = _rand_mono(g, rng)
        if not all(f(h(x)) | h(f(x)) == h(f(x)) for x in points):
            return SKIP
    a = rng.randint(0, (1 << g) - 1)
    big_g = lambda s: lfp(lambda x: s | f(x), 0)
    ok = big_g(h(a)) | h(big_g(a)) == h(big_g(a))
    return _bool(ok, [], "lifting lemma for inflationary closures broken")


def run_fixpoint_calculus_suite(cfg: SampleConfig,
                                law_ids: Optional[Sequence[str]] = None
                                ) -> List[LawReport]:
    return _run_entries(FIXPOINT_ENTRIES, cfg, law_ids)


# ---------------------------------------------------------------------------
# aggregate

def catalog() -> Dict[str, List[str]]:
    return {
        "relation": [law.id for law, _ in RELATION_ENTRIES],
        "termrel": [law.id for law, _ in TERMREL_ENTRIES],
        "fixpoint": [law.id for law, _ in FIXPOINT_ENTRIES],
    }


def run_all(cfg: SampleConfig,
            law_ids: Optional[Sequence[str]] = None,
            corrupt_compose: bool = False) -> List[LawReport]:
    reports = run_relation_law_suite(cfg, law_ids, corrupt_compose)
    reports += run_termrel_law_suite(cfg, law_ids)
    reports += run_fixpoint_calculus_suite(cfg, law_ids)
    return reports


def reports_to_json(reports: List[LawReport]) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2,
                      sort_keys=True) + "\n"
