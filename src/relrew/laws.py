"""Property-based law harness: three suites of algebraic laws checked on
random finite structures.

* relation suite   — lattice/quantale/converse/residual/star/coreflexive
                     laws of finite binary relations, on small carriers;
* termrel suite    — the axiom and derived-law catalog of the term-relation
                     operators (substitution, compatible/sequential
                     refinement, derivative, Taylor slices, closures);
* fixpoint suite   — fixed-point calculus rules on small powerset lattices
                     with randomly generated monotone functions.

A law that is one formula over its input relations is a row: its id,
group, kind, the names of its inputs in draw order (``b>=a`` draws b above
a), the formula and the sampler parameters.  The formula is parsed once,
when the module loads, and evaluated on every sample; it may range a name
over arities (``all``, ``join``) or take a least fixed point (``lfp``).
The residual oracle, ``seqclo-five-way`` and the fixpoint suite are Python
functions.

Each law is checked on ``cfg.samples`` independently drawn samples; laws with
side conditions skip samples that do not satisfy them (skip counts are
reported).  Everything is deterministic in ``cfg.seed``.
"""

from __future__ import annotations

import json
import random
import re
from functools import partial, reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import relalg
from .analysis import is_church_rosser, is_confluent
from .relalg import (Rel, below_compose, below_star, lfp, random_coreflexive,
                     random_rel, star_witness)
from .syntax import NAME_RE, Signature, TermError, gc_paused, universe
from .termrel import (
    OpStats,
    check_refine,
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


# allowed (low, high) values of the integer fields, None for unbounded;
# a fixpoint law walks up to 4**lattice_ground point pairs per sample
_INT_RANGES = {"seed": (None, None), "samples": (1, None),
               "carrier_max": (2, None), "max_pairs": (0, None),
               "lattice_ground": (2, 10)}
# the keys, in parameter order: those a config file may set
_KEYS = ("seed", "samples", "density", "signature", "variables",
         "carrier_max", "lattice_ground", "max_pairs")


class SampleConfig:
    """How the law suites sample: a value, equal and hashed by its keys."""

    __slots__ = _KEYS

    def __init__(self, seed: int = 0, samples: int = 200,
                 density: float = 0.15, signature: Signature = ARITHMETIC,
                 variables: Tuple[str, ...] = ("x", "y"),
                 carrier_max: int = 5, lattice_ground: int = 4,
                 max_pairs: int = 4):
        self.seed = seed
        self.samples = samples
        self.density = density
        self.signature = signature
        self.variables = variables
        self.carrier_max = carrier_max
        self.lattice_ground = lattice_ground
        self.max_pairs = max_pairs
        for key, (low, high) in _INT_RANGES.items():
            value = getattr(self, key)
            # bool is a subclass of int, yet no key takes true or false
            if (isinstance(value, bool) or not isinstance(value, int)
                    or (low is not None and value < low)
                    or (high is not None and value > high)):
                allowed = ("" if low is None else f" >= {low}" if high is None
                           else f" in {low}..{high}")
                raise ValueError(f"SampleConfig key {key!r} must be an "
                                 f"integer{allowed}, got {value!r}")
        # density is only read, by the relation suite, as
        # ``rng.random() < density + 0.1``: from 0.9 on every draw is full,
        # and a negative or NaN density is no density
        if (isinstance(self.density, bool)
                or not isinstance(self.density, (int, float))
                or not 0 <= self.density < 0.9):
            raise ValueError("SampleConfig key 'density' must be a number "
                             f"with 0 <= density < 0.9, got {self.density!r}")
        if not isinstance(self.signature, Signature):
            raise ValueError("SampleConfig key 'signature' must map operator "
                             f"names to arities, got {self.signature!r}")
        if not (isinstance(self.variables, tuple)
                and all(isinstance(v, str) for v in self.variables)):
            raise ValueError("SampleConfig key 'variables' must be a list of "
                             f"strings, got {self.variables!r}")
        for v in self.variables:
            why = ("is not a name" if not NAME_RE.fullmatch(v) else
                   "is also an operator" if v in self.signature else
                   "is repeated" if self.variables.count(v) > 1 else None)
            if why:
                raise ValueError(f"SampleConfig key 'variables': {v!r} {why}")
        if not self.variables and not self.signature.constants():
            raise ValueError("SampleConfig keys 'signature' and 'variables' "
                             "declare no constant and no variable, so no term")

    def _key(self) -> tuple:
        return tuple(getattr(self, k) for k in _KEYS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def from_dict(d: dict) -> "SampleConfig":
        unknown = sorted(set(d) - set(_KEYS))
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


class Law:
    """A catalog entry: a value, equal and hashed by its fields."""

    __slots__ = ("id", "group", "kind", "formula", "constant")

    def __init__(self, id: str, group: str, kind: str,
                 formula: Optional[str] = None, constant: bool = False):
        self.id = id
        self.group = group
        self.kind = kind  # equality | inequality | implication
        self.formula = formula  # None for a law written in Python
        # no input relations and nothing drawn: one evaluation serves every
        # sample
        self.constant = constant

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.id, self.group, self.kind, self.formula, self.constant)
                == (other.id, other.group, other.kind, other.formula,
                    other.constant))

    def __hash__(self) -> int:
        return hash((self.id, self.group, self.kind, self.formula,
                     self.constant))


class LawReport:
    __slots__ = ("law_id", "group", "kind", "samples", "skips",
                 "overflow_dropped", "counterexamples", "verdict", "soft",
                 "unconfirmed")

    def __init__(self, law_id: str, group: str, kind: str, samples: int,
                 skips: int, overflow_dropped: int,
                 counterexamples: List[str], verdict: str,
                 soft: bool = False, unconfirmed: int = 0):
        self.law_id = law_id
        self.group = group
        self.kind = kind
        self.samples = samples
        self.skips = skips
        self.overflow_dropped = overflow_dropped
        self.counterexamples = counterexamples
        self.verdict = verdict
        # kept for the report shape: no law is soft, so nothing is
        # unconfirmed
        self.soft = soft
        self.unconfirmed = unconfirmed

    def to_json(self) -> dict:
        return {"law": self.law_id, "group": self.group, "kind": self.kind,
                "samples": self.samples, "skips": self.skips,
                "overflow_dropped": self.overflow_dropped,
                "counterexamples": list(self.counterexamples),
                "verdict": self.verdict, "soft": self.soft,
                "unconfirmed": self.unconfirmed}


# ---------------------------------------------------------------------------
# generic plumbing

@gc_paused
def _run_entries(entries, cfg: SampleConfig,
                 law_ids: Optional[Sequence[str]] = None) -> List[LawReport]:
    wanted = set(law_ids) if law_ids else None
    reports = []
    for law, runner in entries:
        if wanted is not None and law.id not in wanted:
            continue
        rng = random.Random(f"{cfg.seed}:{law.id}")
        # a constant law is evaluated once per run, with stats of its own
        once = runner(cfg, rng, OpStats()) if law.constant else None
        skips = dropped = 0
        cexs: List[str] = []
        for _ in range(cfg.samples):
            st = OpStats()
            res = once if law.constant else runner(cfg, rng, st)
            dropped += st.dropped
            if res is SKIP:
                skips += 1
            elif res is not None and len(cexs) < 3:  # keep only the first few
                cexs.append(res)
        verdict = "pass" if not cexs else "fail"
        reports.append(LawReport(law.id, law.group, law.kind, cfg.samples,
                                 skips, dropped, cexs, verdict))
    return reports


def _draw(bases: List[Optional[int]], draw: Callable[[], Rel]) -> List[Rel]:
    """One relation per input, each joined with its base input if any."""
    rels: List[Rel] = []
    for base in bases:
        r = draw()
        rels.append(r if base is None else r | rels[base])
    return rels


def _pairs_str(r: Rel) -> List[List[str]]:
    return [[str(p), str(q)] for p, q in sorted(r.pairs)]


def _cex(inputs, witness) -> str:
    payload = {"inputs": [_pairs_str(r) for r in inputs]}
    if witness is not None:
        payload["witness"] = list(witness)
    return json.dumps(payload, sort_keys=True, default=str)


def _gap(op: str, x: Rel, y: Rel):
    """The least pair that breaks ``x <= y`` or ``x = y``, or None."""
    return min(x.pairs - y.pairs if op == "<=" else x.pairs ^ y.pairs,
               default=None)


def _compare(op: str, x: Rel, y: Rel, inputs) -> Optional[str]:
    """``x <= y`` or ``x = y``, failing with the least pair that breaks it."""
    gap = _gap(op, x, y)
    return None if gap is None else _cex(inputs, gap)


def _bool(ok: bool, inputs, note: str) -> Optional[str]:
    return None if ok else _cex(inputs, (note, ""))


# ---------------------------------------------------------------------------
# formula rows
#
#   prop := "all" NAME "<=" bound ":" prop | cmp (("and" | "iff") cmp)*
#   cmp  := expr ("<=" | "=") expr | VERDICT "(" expr ")"
#   expr := post, joined by "|" (loosest), "&", then ";" "/" "\" (compose
#           and the residuals c/b, a\c); all are left-associative
#   post := atom ("°" | "*" | "+" | "^" (INT | NAME) | "[" expr "]")*
#                 converse, a*, a+, the power a^n, a[b]
#   atom := "join" NAME "<=" bound ":" expr | "lfp" NAME ":" expr
#         | NAME "(" expr ("," expr)* ")" | NAME | INT | "(" expr ")"
#   bound := INT | "arity"
#
# A NAME is an input, a constant, a name bound by all/join/lfp or, applied,
# a term-relation operator.  ``all`` and ``join`` range their name over
# 0..bound, where ``arity`` is the largest arity of the universe's
# signature; ``lfp x: E`` is the least fixed point of x |-> E from ``Bot``.
# ``Delta`` is the identity of the sample's carrier, so it serves both suites.
# An input written ``b>=a`` is drawn, then joined with the earlier input a.

_CONSTANTS = {"Delta": Rel.identity, "Bot": Rel.bottom, "Top": Rel.top,
              "I_eta": i_eta, "I_sigma0": i_sigma0}
# each takes the sample's OpStats as its last argument
_NAMED = {"tilde": tilde, "hat": hat, "check": check_refine,
          "deriv": derivative, "taylor": taylor, "seqclo": sequential_closure,
          "parclo": parallel_closure, "fullclo": full_closure}
_VERDICTS = {"cr": lambda a: is_church_rosser(a).ok,
             "confluent": lambda a: is_confluent(a).ok}
_ALGEBRA = {"°": Rel.converse, "*": Rel.kleene_star, "+": Rel.trans_closure,
            "^": Rel.power, ";": Rel.compose, "/": Rel.residual_right,
            "\\": Rel.residual_left, "&": Rel.meet, "|": Rel.join,
            "<=": Rel.leq, "=": lambda x, y: x.pairs == y.pairs,
            "and": lambda p, q: p and q, "iff": lambda p, q: p == q,
            **_VERDICTS}
_LEVEL = {"and": 0, "iff": 0, "<=": 1, "=": 1, "|": 2, "&": 3,
          ";": 4, "/": 4, "\\": 4}
# what a proposition's tree may have at its root; a row without a note
# reports a witness pair, so its formula must be one comparison
_PROPS = ("<=", "=", "and", "iff", *_VERDICTS)
_BOUNDED = ("all", "join")  # the binders that range a name over 0..bound
_TOKEN = re.compile(r"\s*(<=|\w+|\S)")


def _inputs(inputs: str) -> Tuple[List[str], List[Optional[int]]]:
    """The input names in draw order, and for each the index of the earlier
    input it is joined with (``b>=a``), or None."""
    names, bases = [], []
    for spec in inputs.split():
        name, _, base = spec.partition(">=")
        if base and base not in names:
            raise ValueError(f"input {spec!r}: {base!r} is not an earlier "
                             "input")
        names.append(name)
        bases.append(names.index(base) if base else None)
    return names, bases


def _parse(formula: str, names: List[str], note: Optional[str]):
    """The tree of ``formula`` by precedence climbing.  A leaf is an input,
    constant or bound name, or an int; a node is a tuple (operator,
    *operands), with ``a[b]`` as ("[]", a, b), the binders as ("all" |
    "join", name, bound, body) and ("lfp", name, body)."""
    tokens = _TOKEN.findall(formula)[::-1]  # the next token is the last
    scope: Dict[str, str] = {}  # each name in scope, to its binder

    def fail(msg):
        raise ValueError(f"formula {formula!r}: {msg}")

    def take(want=None, ok=None):
        """The next token, which must be ``want`` or pass ``ok``."""
        tok = tokens.pop() if tokens else None
        if tok is None or not (ok(tok) if ok else want in (None, tok)):
            fail(f"{tok!r} is not {want or 'an operand'}")
        return tok

    def binder(op, body):
        node = (op, take())
        if op in _BOUNDED:
            take("<=")
            bound = take("a bound", lambda t: t.isdigit() or t == "arity")
            node += (int(bound) if bound.isdigit() else bound,)
        take(":")
        scope[node[1]] = op
        node += (body(),)
        del scope[node[1]]
        return node

    def prop():
        if tokens[-1:] == ["all"]:
            return binder(take(), prop)
        node = expr(0)
        if not isinstance(node, tuple) or node[0] not in (
                _PROPS if note is not None else _PROPS[:2]):
            fail("not a proposition" if note is not None
                 else "not one comparison, in a row without a note")
        return node

    def expr(level):
        node = post()
        while tokens and _LEVEL.get(tokens[-1], -1) >= level:
            op = take()
            node = (op, node, expr(_LEVEL[op] + 1))
        return node

    def post():
        tok = take()
        if tok.isdigit():
            return int(tok)
        if tok == "(":
            node = expr(2)
            take(")")
        elif tok in ("join", "lfp"):
            node = binder(tok, lambda: expr(2))
        elif tok in _NAMED or tok in _VERDICTS:
            take("(")
            node = (tok, expr(2))
            while tokens and tokens[-1] == ",":
                take()
                node += (expr(2),)
            take(")")
        elif tok in names or tok in scope or tok in _CONSTANTS:
            node = tok
        else:
            fail(f"unknown name {tok!r}")
        while tokens and tokens[-1] in ("°", "*", "+", "^", "["):
            op = take()
            if op == "[":
                node = ("[]", node, expr(2))
                take("]")
            elif op == "^":
                k = take("an integer or a name all/join binds",
                         lambda t: t.isdigit() or scope.get(t) in _BOUNDED)
                node = (op, node, int(k) if k.isdigit() else k)
            else:
                node = (op, node)
        return node

    tree = prop()
    if tokens:
        fail("not a proposition")
    return tree


def _bind(node, name: str, value: int):
    """``node`` with the int ``value`` for each leaf ``name``."""
    if node == name:
        return value
    if isinstance(node, tuple):
        return (node[0],) + tuple(_bind(a, name, value) for a in node[1:])
    return node


def _instances(node, carrier):
    """The bodies of an all/join node, with its name bound to 0..bound."""
    _, name, bound, body = node
    if bound == "arity":
        bound = carrier.signature.max_arity()
    return [_bind(body, name, k) for k in range(bound + 1)]


def _value(node, memo: dict, carrier, st: Optional[OpStats]):
    """The value of ``node`` on one sample.  ``memo`` starts with the inputs
    by name and keeps every subexpression computed, so each distinct one is
    computed once.  The instances of an all/join share the memo; each round
    of an lfp gets a fresh copy, with its name bound to the current value."""
    if isinstance(node, int):
        return node
    if node not in memo:
        if isinstance(node, str):
            memo[node] = _CONSTANTS[node](carrier)
            return memo[node]
        op, *args = node
        if op in _BOUNDED:
            vals = (_value(b, memo, carrier, st)
                    for b in _instances(node, carrier))
            memo[node] = all(vals) if op == "all" else reduce(Rel.join, vals)
        elif op == "lfp":
            name, body = args
            memo[node] = lfp(lambda x: _value(body, {**memo, name: x}, carrier,
                                              st), Rel.bottom(carrier))
        else:
            vals = [_value(a, memo, carrier, st) for a in args]
            if op == "[]":
                memo[node] = subst_rel(*vals, st)
            elif op in _NAMED:
                memo[node] = _NAMED[op](*vals, st)
            else:
                memo[node] = _ALGEBRA[op](*vals)
    return memo[node]


def _witness(op: str, lhs, rhs, value):
    """The least pair that breaks the comparison ``lhs op rhs``, or None
    if it holds.  The row kernels decide ``x <= y;z``, ``x <= y*`` and
    ``x* = y*`` from their operands, so a star is never built, and y;z only
    when it fails, for its witness; a failing star comparison takes its
    witness from rows too.  A star equality is the two inclusions
    ``x <= y*`` and ``y <= x*``: each side is then below the other's star,
    so the stars are equal."""
    if op == "<=" and rhs[0] == ";":
        if below_compose(value(lhs), value(rhs[1]), value(rhs[2])):
            return None
    elif op == "<=" and rhs[0] == "*":
        x, y = value(lhs), value(rhs[1])
        return None if below_star(x, y) else star_witness(x, y)
    elif op == "=" and lhs[0] == rhs[0] == "*":
        x, y = value(lhs[1]), value(rhs[1])
        if below_star(x, y) and below_star(y, x):
            return None
        return star_witness(x, y, equal=True)
    return _gap(op, value(lhs), value(rhs))


def _holds(tree, names: List[str], note: Optional[str], carrier, rels,
           st: Optional[OpStats] = None):
    """A row's check on one sample: with a ``note`` the formula's truth as
    a ``_bool``, else its comparison's least ``_witness`` pair, for the
    first failing instance of any enclosing ``all``."""
    memo = dict(zip(names, rels))
    if note is not None:
        return _bool(_value(tree, memo, carrier, st), rels, note)
    value = partial(_value, memo=memo, carrier=carrier, st=st)
    trees = [tree]
    while trees:  # depth first, so instances come in order
        node = trees.pop()
        if node[0] == "all":
            trees += reversed(_instances(node, carrier))
            continue
        witness = _witness(*node, value)
        if witness is not None:
            return _cex(rels, witness)
    return None


# ---------------------------------------------------------------------------
# relation suite

RELATION_ENTRIES: List[Tuple[Law, Callable]] = []


def relation_law(law_id: str, group: str, kind: str, inputs: str,
                 sampler: str = "plain", formula: Optional[str] = None):
    """Register a relation law on the relations named in ``inputs``, drawn
    in that order over ``range(n)``, ``2 <= n <= cfg.carrier_max``."""
    bases = _inputs(inputs)[1]

    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            n = rng.randint(2, cfg.carrier_max)
            rels = _draw(bases, lambda: random_coreflexive(n, 0.5, rng)
                         if sampler == "coreflexive"
                         else random_rel(n, cfg.density + 0.1, rng))
            return fn(n, rels, rng)
        RELATION_ENTRIES.append((Law(law_id, group, kind, formula), runner))
        return fn
    return deco


def relation_row(group: str, law_id: str, kind: str, inputs: str,
                 formula: str, note: Optional[str] = None,
                 sampler: str = "plain"):
    """Register a formula row; a run of rows binds its group by partial."""
    names = _inputs(inputs)[0]
    check = partial(_holds, _parse(formula, names, note), names, note)
    relation_law(law_id, group, kind, inputs, sampler, formula)(
        lambda n, rels, rng: check(n, rels))


row = partial(relation_row, "quantale")
row("rel-compose-assoc", "equality", "a b c", "(a;b);c = a;(b;c)")
row("rel-id-left", "equality", "a", "Delta;a = a")
row("rel-id-right", "equality", "a", "a;Delta = a")
row("rel-bot-ann-left", "equality", "a", "Bot;a = Bot")
row("rel-bot-ann-right", "equality", "a", "a;Bot = Bot")
row("rel-dist-join-left", "equality", "a b c", "(a | b);c = a;c | b;c")
row("rel-dist-join-right", "equality", "a b c", "a;(b | c) = a;b | a;c")
row("rel-compose-monotone", "implication", "a b>=a c",
    "a;c <= b;c and c;a <= c;b", "composition not monotone")
relation_row("lattice", "rel-lattice-bounds", "inequality", "a b",
             "Bot <= a and a <= Top and a & b <= a and a <= a | b"
             " and a & b <= a | b", "lattice bound violated")
row = partial(relation_row, "converse")
row("rel-conv-involution", "equality", "a", "a°° = a")
row("rel-conv-id", "equality", "", "Delta° = Delta")
row("rel-conv-compose", "equality", "a b", "(a;b)° = b°;a°")
row("rel-conv-join", "equality", "a b", "(a | b)° = a° | b°")
row("rel-conv-galois", "implication", "a b", "a° <= b iff a <= b°",
    "converse self-adjunction broken")
relation_row("modular", "rel-modular", "inequality", "a b c",
             "a;b & c <= (a & c;b°);b")
row = partial(relation_row, "residual")
row("rel-residual-right-cancel", "inequality", "c b", "(c/b);b <= c")
row("rel-residual-left-cancel", "inequality", "a c", r"a;(a\c) <= c")
row("rel-residual-right-galois", "implication", "x b c",
    "x <= c/b iff x;b <= c", "right residual adjunction broken")
row("rel-residual-left-galois", "implication", "a x c",
    r"x <= a\c iff a;x <= c", "left residual adjunction broken")
# F = (-;b), G = (-/b): F(G(a)) <= a and a <= G(F(a))
row("rel-galois-cancellation", "inequality", "a b",
    "(a/b);b <= a and a <= (a;b)/b", "Galois cancellation broken")


def _adjoint_join(c: Rel, b: Rel) -> Rel:
    """The join of every x over ``range(n)`` with x;b <= c, by brute force
    over x's 2^(n*n) bit masks.  Bit i*n+j is the pair (i, j), so bit order
    is pair order.  Row i of x;b is the image under b of x's row i, read
    from a table of the images of all 2^n rows.  Under
    ``corrupted_compose`` x;b loses its lowest set bit, the least pair,
    as in ``Rel.compose``."""
    n = c.n
    width, cells = (1 << n) - 1, n * n
    cbits = sum(1 << i * n + j for i, j in c.pairs)
    brows = [0] * n
    for i, j in b.pairs:
        brows[i] |= 1 << j
    image = [0] * (1 << n)
    for r in range(1, 1 << n):
        image[r] = image[r & r - 1] | brows[(r & -r).bit_length() - 1]
    shifts, corrupt = range(0, cells, n), relalg._corrupt_compose
    best = 0
    for mask in range(1 << cells):
        comp = 0
        for s in shifts:
            comp |= image[mask >> s & width] << s
        if corrupt:
            comp &= comp - 1
        if not comp & ~cbits:
            best |= mask
    return Rel(range(n), frozenset(divmod(k, n) for k in range(cells)
                                   if best >> k & 1))


@relation_law("rel-residual-adjoint-oracle", "residual", "equality", "c b")
def _law_res_oracle(n, rels, rng):
    n = min(n, 3)
    c = random_rel(n, 0.3, rng)
    b = random_rel(n, 0.3, rng)
    # the adjoint formula: g(c) = join of every x with x;b <= c
    return _compare("=", c.residual_right(b), _adjoint_join(c, b), [c, b])


row = partial(relation_row, "star")
row("rel-star-unfold", "equality", "a", "a* = Delta | a;a*")
row("rel-star-closure", "inequality", "a",
    "a <= a* and Delta <= a* and a*;a* <= a* and a** = a*",
    "star closure-operator law broken")
row("rel-star-monotone", "implication", "a b>=a", "a* <= b*",
    "star not monotone")
row("rel-star-converse", "equality", "a", "a°* = a*°")
row("rel-star-powers", "inequality", "a", "all k <= 4: a^k <= a*",
    "a^n <= a* broken")
row("rel-trans-closure-unfold", "equality", "a",
    "a+ = a | a;a+ and a+ = a;a*", "transitive closure unfold broken")
row = partial(relation_row, "coreflexive", sampler="coreflexive")
row("rel-coreflexive-meet", "equality", "a b", "a;b = a & b")
row("rel-coreflexive-converse", "equality", "a", "a° = a")
relation_row("ars", "rel-cr-iff-confluence", "implication", "a",
             "cr(a) iff confluent(a)", "CR and confluence verdicts disagree")


def run_relation_law_suite(cfg: SampleConfig,
                           law_ids: Optional[Sequence[str]] = None
                           ) -> List[LawReport]:
    return _run_entries(RELATION_ENTRIES, cfg, law_ids)


# ---------------------------------------------------------------------------
# termrel suite

TERMREL_ENTRIES: List[Tuple[Law, Callable]] = []


def termrel_law(law_id: str, group: str, kind: str, inputs: str,
                support: int = 2, work: int = 3,
                max_pairs: Optional[int] = None,
                formula: Optional[str] = None):
    """Register a term-relation law on the relations named in ``inputs``,
    drawn in that order.

    ``support``/``work`` are the headroom table: inputs are drawn with
    support depth ``support`` and the law is evaluated over the depth-
    ``work`` universe, which the operators never enumerate.
    """
    bases = _inputs(inputs)[1]

    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            u = universe(cfg.signature, cfg.variables, work)
            sup = universe(cfg.signature, cfg.variables, support).terms()
            cap = max_pairs if max_pairs is not None else cfg.max_pairs
            rels = _draw(bases, lambda: Rel(u, frozenset(
                {(rng.choice(sup), rng.choice(sup))
                 for _ in range(rng.randint(0, cap))})))
            return fn(u, rels, st)
        TERMREL_ENTRIES.append(
            (Law(law_id, group, kind, formula, constant=not bases), runner))
        return fn
    return deco


def termrel_row(group: str, law_id: str, kind: str, inputs: str,
                formula: str, note: Optional[str] = None, **sampling):
    """Register a formula row; a run of rows binds its group by partial."""
    names = _inputs(inputs)[0]
    termrel_law(law_id, group, kind, inputs, formula=formula, **sampling)(
        partial(_holds, _parse(formula, names, note), names, note))


row = partial(termrel_row, "substitution")
row("subst-delta-delta", "equality", "", "Delta[Delta] = Delta",
    "Delta[Delta] != Delta", work=2)
row("subst-compose", "inequality", "a b c d", "(a;b)[c;d] <= a[c];b[d]",
    work=4, max_pairs=3)
row("subst-converse", "equality", "a b", "a[b]° = a°[b°]", work=4, max_pairs=3)
row("subst-monotone", "implication", "a b a2>=a b2>=b", "a[b] <= a2[b2]",
    "subst not monotone", work=4, max_pairs=3)
row("subst-join", "equality", "a b c", "(a | b)[c] = a[c] | b[c]",
    work=4, max_pairs=3)
# the action law holds laxly only: distinct variables may pick images that
# share a variable, which couples the outer instantiation on the left but
# not on the right
row("subst-assoc", "inequality", "a b c", "a[b][c] <= a[b[c]]",
    work=6, max_pairs=3)
row("ieta-subst", "inequality", "b", "I_eta[b] <= b", work=2)
row = partial(termrel_row, "compat-refinement")
row("tilde-delta", "inequality", "", "tilde(Delta) <= Delta",
    "~Delta not below Delta", work=2)
row("tilde-compose", "equality", "a b", "tilde(a;b) = tilde(a);tilde(b)")
row("tilde-converse", "equality", "a", "tilde(a°) = tilde(a)°")
row("tilde-monotone", "implication", "a b>=a", "tilde(a) <= tilde(b)",
    "tilde not monotone")
# only an inequality: tilde(a|b) may mix a-steps and b-steps in different
# argument positions of the same operator
row("tilde-join", "inequality", "a b", "tilde(a) | tilde(b) <= tilde(a | b)")
row("tilde-subst", "inequality", "a b", "tilde(a)[b] <= tilde(a[b])",
    work=5, max_pairs=3)
row("tilde-var-disjoint", "equality", "a", "I_eta & tilde(a) = Bot",
    "I_eta meets tilde(a)")
row("hat-delta", "equality", "", "hat(Delta) = Delta", "hat(Delta) != Delta",
    work=2)
row("hat-compose", "equality", "a b", "hat(a;b) = hat(a);hat(b)")
row("hat-converse", "equality", "a", "hat(a°) = hat(a)°")
row("hat-join", "inequality", "a b", "hat(a) | hat(b) <= hat(a | b)")
row("hat-subst", "inequality", "a b", "hat(a)[b] <= hat(a[b]) | b",
    work=5, max_pairs=3)
row("delta-hat-fixpoint", "equality", "", "(lfp x: hat(x)) = Delta",
    "lfp of hat is not Delta", work=2)
row = partial(termrel_row, "seq-refinement", support=1, work=2)
row("check-delta", "inequality", "", "check(Delta) <= Delta",
    "check(Delta) not below Delta")
row("check-compose", "inequality", "a b", "check(a;b) <= check(a);check(b)")
row("check-interchange", "inequality", "a b",
    "check(a);check(b) <= check(a;b) | check(b);check(a)")
row("check-converse", "equality", "a", "check(a°) = check(a)°")
row("check-monotone", "implication", "a b>=a", "check(a) <= check(b)",
    "check not monotone")
row("check-join", "equality", "a b", "check(a | b) = check(a) | check(b)")
row("check-is-derivative", "equality", "a", "check(a) = deriv(Delta, a)")
row = partial(termrel_row, "derivative")
row("deriv-delta", "inequality", "", "deriv(Delta, Delta) <= Delta",
    "d_Delta(Delta) not below Delta", support=1, work=2)
row("deriv-monotone", "implication", "a b>=a", "deriv(a, a) <= deriv(b, b)",
    "derivative not monotone")
row("deriv-compose", "inequality", "a a2 b b2",
    "deriv(a;a2, b;b2) <= deriv(a, b);deriv(a2, b2)", max_pairs=3)
row("deriv-converse", "equality", "a b", "deriv(a, b)° = deriv(a°, b°)")
row("deriv-below-tilde", "inequality", "a b", "deriv(a, b) <= tilde(a | b)")
# the step of the semi-naive parallel closure: what a new pair d adds to
# tilde lies in the derivative with d in one position
row("tilde-increment", "equality", "x d",
    "tilde(x | d) = tilde(x) | deriv(x | d, d)")
row("deriv-join", "equality", "a b",
    "deriv(Delta, a | b) = deriv(Delta, a) | deriv(Delta, b)",
    support=1, work=2)
row("tilde-is-derivative", "equality", "a", "tilde(a) = deriv(a, a) | I_sigma0")
row = partial(termrel_row, "taylor")
row("taylor-delta", "inequality", "",
    "all n <= arity: taylor(n, Delta) <= Delta",
    "taylor(Delta) not below Delta", work=2)
row("taylor-compose", "equality", "a b",
    "all n <= arity: taylor(n, a;b) = taylor(n, a);taylor(n, b)")
row("taylor-converse", "equality", "a",
    "all n <= arity: taylor(n, a°) = taylor(n, a)°")
row("taylor-monotone", "implication", "a b>=a",
    "all n <= arity: taylor(n, a) <= taylor(n, b)", "taylor not monotone")
row("taylor-zero", "equality", "a", "taylor(0, a) = I_sigma0")
row("taylor-subst", "inequality", "a b",
    "all n <= arity: taylor(n, a)[b] <= taylor(n, a[b])", work=5, max_pairs=3)
row("taylor-deriv-power", "inequality", "a",
    "all n <= arity: taylor(n, a) <= check(a)^n", support=1, work=2)
row("taylor-expansion", "equality", "a",
    "tilde(a) = (join n <= arity: taylor(n, a))")
row = partial(termrel_row, "seq-closure", support=1, work=2)
row("seqclo-extensive", "inequality", "a", "a <= seqclo(a)")
row("seqclo-closed", "inequality", "a", "check(seqclo(a)) <= seqclo(a)")
row("seqclo-idempotent", "equality", "a", "seqclo(seqclo(a)) = seqclo(a)")
row("seqclo-monotone", "implication", "a b>=a", "seqclo(a) <= seqclo(b)",
    "sequential closure not monotone")
row("seqclo-converse", "equality", "a", "seqclo(a°) = seqclo(a)°")
row("seqclo-compose", "inequality", "a b",
    "seqclo(a;b) <= seqclo(a);seqclo(b)", support=0)
row("seqclo-star", "inequality", "a", "seqclo(a*) <= seqclo(a)*", support=0)


@termrel_law("seqclo-five-way", "seq-closure", "inequality", "a b",
             support=1, work=2)
def _tl_seqclo_five(u, rels, st):
    a, b = rels
    sa, sb = sequential_closure(a, st), sequential_closure(b, st)
    lhs = sa.compose(sb)
    rhs = (a.compose(b)
           | a.compose(check_refine(sb, st))
           | check_refine(sa, st).compose(b)
           | check_refine(sa.compose(sb), st)
           | check_refine(sb, st).compose(check_refine(sa, st)))
    return _compare("<=", lhs, rhs, rels)


row("check-star", "inequality", "a", "check(a*) <= check(a)*", support=0)

row = partial(termrel_row, "par-closure", support=1, work=2)
row("parclo-extensive", "inequality", "a", "a <= parclo(a)")
row("parclo-closed-hat", "inequality", "a", "hat(parclo(a)) <= parclo(a)")
row("parclo-closed-check", "inequality", "a", "check(parclo(a)) <= parclo(a)")
row("parclo-idempotent", "equality", "a", "parclo(parclo(a)) = parclo(a)")
row("parclo-monotone", "implication", "a b>=a", "parclo(a) <= parclo(b)",
    "parallel closure not monotone")
row("parclo-reflexive", "inequality", "a", "Delta <= parclo(a)")
row("parclo-compose", "inequality", "a b",
    "parclo(a;b) <= parclo(a);parclo(b)", support=0)
row("parclo-converse", "equality", "a", "parclo(a°) = parclo(a)°")
row("parclo-subst-stable", "inequality", "a",
    "Delta[parclo(a[Delta])] <= parclo(a[Delta])", work=1, max_pairs=3)

row = partial(termrel_row, "spectrum", support=1, work=2)
row("fund-seq-below-par", "inequality", "a", "seqclo(a) <= parclo(a)")
row("fund-par-below-seqstar", "inequality", "a", "parclo(a) <= seqclo(a)*")
row("fund-stars-equal", "equality", "a", "seqclo(a)* = parclo(a)*")
row("spectrum-subst-extensive", "inequality", "a", "a <= a[Delta]")
row("spectrum-par-below-full", "inequality", "a", "parclo(a) <= fullclo(a)")
row("spectrum-full-below-seqstar", "inequality", "a", "fullclo(a) <= seqclo(a)*")
row("spectrum-full-star-equal", "equality", "a", "fullclo(a)* = seqclo(a)*")
del row


def run_termrel_law_suite(cfg: SampleConfig,
                          law_ids: Optional[Sequence[str]] = None
                          ) -> List[LawReport]:
    return _run_entries(TERMREL_ENTRIES, cfg, law_ids)


# ---------------------------------------------------------------------------
# fixpoint calculus suite (powerset lattice of a small ground set, elements
# are bitmasks; monotone functions are joins of step functions)

FIXPOINT_ENTRIES: List[Tuple[Law, Callable]] = []


def _rand_mono(g: int, rng: random.Random) -> Callable[[int], int]:
    k = rng.randint(0, 3)
    top = (1 << g) - 1
    steps = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(k))

    def f(x: int) -> int:
        out = 0
        for p, q in steps:
            if p & x == p:
                out |= q
        return out
    return f


def fixpoint_law(law_id: str, group: str, kind: str):
    def deco(fn):
        def runner(cfg: SampleConfig, rng: random.Random, st: OpStats):
            g = rng.randint(2, cfg.lattice_ground)
            return fn(g, list(range(1 << g)), rng)
        FIXPOINT_ENTRIES.append((Law(law_id, group, kind), runner))
        return fn
    return deco


@fixpoint_law("fix-knaster-tarski", "fixpoint", "equality")
def _fl_kt(g, points, rng):
    f = _rand_mono(g, rng)
    mu = lfp(f, 0)
    meet = (1 << g) - 1
    for x in points:
        if f(x) | x == x:  # prefixpoint
            meet &= x
    return _bool(mu == meet, [], f"lfp {bin(mu)} != meet {bin(meet)}")


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
    return _bool(ok, [], f"join of iterates {bin(join)} != lfp {bin(mu)}")


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
                 f"rolling rule: {bin(lhs)} != {bin(rhs)}")


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
                 f"diagonal rule: {bin(lhs)} != {bin(rhs)}")


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
            m = top  # the meet of no values
            for x in points:
                if gg(x) & y == y:
                    m &= gg(hh(x))
            table[y] = m
        ff = lambda y: table[y]
    else:
        ff = _rand_mono(g, rng)
        if not all(ff(gg(x)) | gg(hh(x)) == gg(hh(x)) for x in points):
            return SKIP
    ok = lfp(ff, 0) | gg(lfp(hh, 0)) == gg(lfp(hh, 0))
    return _bool(ok, [], "simple mu-fusion broken")


def _perm_lift(g: int, rng: random.Random):
    """A random permutation of the ground set, lifted to masks, and its
    inverse."""
    perm = list(range(g))
    rng.shuffle(perm)
    inv = [0] * g
    for i, j in enumerate(perm):
        inv[j] = i

    def lift(table: List[int]) -> Callable[[int], int]:
        return lambda x: sum(1 << table[i] for i in range(g) if x >> i & 1)
    return lift(perm), lift(inv)


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
                 f"mu-fusion (=): {bin(lhs)} != {bin(rhs)}")


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
            law_ids: Optional[Sequence[str]] = None) -> List[LawReport]:
    if law_ids:
        known = {i for ids in catalog().values() for i in ids}
        unknown = sorted(set(law_ids) - known)
        if unknown:
            raise ValueError(f"unknown law id(s): {', '.join(unknown)}")
    reports = run_relation_law_suite(cfg, law_ids)
    reports += run_termrel_law_suite(cfg, law_ids)
    reports += run_fixpoint_calculus_suite(cfg, law_ids)
    return reports


def reports_to_json(reports: List[LawReport]) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2,
                      sort_keys=True) + "\n"
