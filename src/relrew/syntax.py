"""First-order terms over a ranked signature, and finite term universes.

Terms are interned: structurally equal terms are the same object, so equality
and hashing are O(1).  Each operator has its own intern table, keyed by
argument tuple, and variables have one keyed by name; a table builds the
term on a miss.  So an application is two subscripts, one to find the
operator's table and one of it, and ``make_all`` builds a whole stream of
one operator's applications in one C-level pass over its table.  A
universe is a finite, subterm-closed set of terms, either "all terms up to
a depth bound" or an explicit term set (e.g. the reachable closure of a
rewrite graph).
"""

from __future__ import annotations

import gc
import re
from functools import cached_property, lru_cache, wraps
from itertools import product
from operator import attrgetter
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

NAME_RE = re.compile(r"[A-Za-z0-9_'+\-]+")


class TermError(ValueError):
    """Malformed term, parse error, or arity violation."""


class UniverseError(ValueError):
    """A universe too large to materialize, or deeper than
    ``MAX_TERM_DEPTH``."""


class Signature:
    """A ranked alphabet mapping operator names to arities."""

    __slots__ = ("_arities", "_items")

    def __init__(self, arities: Mapping[str, int]):
        for name, ar in arities.items():
            if not NAME_RE.fullmatch(name):
                raise TermError(f"bad operator name: {name!r}")
            if isinstance(ar, bool) or not isinstance(ar, int):
                raise TermError(f"arity of {name!r} must be an integer, got {ar!r}")
            if ar < 0:
                raise TermError(f"negative arity for {name}")
        self._arities = dict(arities)
        self._items = tuple(sorted(self._arities.items()))

    def arity(self, name: str) -> int:
        return self._arities[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self._items)

    def constants(self) -> Tuple[str, ...]:
        return tuple(n for n, a in self._items if a == 0)

    def operators(self) -> Tuple[Tuple[str, int], ...]:
        """Operators of arity >= 1, sorted by name."""
        return tuple((n, a) for n, a in self._items if a >= 1)

    def max_arity(self) -> int:
        return max((a for _, a in self._items), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return "Signature({%s})" % ", ".join(f"{n!r}: {a}" for n, a in self._items)


class _Applications(dict):
    """The intern table of one operator, from argument tuple to the one
    application of the operator to it.  A lookup of a tuple not yet in it
    builds and stores the term, so every construction is one subscript and
    a hit calls no Python code."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __missing__(self, args: Tuple["Term", ...]) -> "Term":
        t = object.__new__(Term)
        t.name = name = self.name
        t.args = args
        t.is_var = False
        t.depth = depth = max(map(_depth_of, args), default=-1) + 1
        t.key = (depth, False, name, tuple(map(_key_of, args)))
        self[args] = t
        return t


class _Operators(dict):
    """Each operator name to its table of applications, made on first
    use."""

    __slots__ = ()

    def __missing__(self, name: str) -> _Applications:
        table = self[name] = _Applications(name)
        return table


class _Variables(dict):
    """The intern table of variables, from name to the one variable."""

    __slots__ = ()

    def __missing__(self, name: str) -> "Term":
        t = object.__new__(Term)
        t.name = name
        t.args = ()
        t.is_var = True
        t.depth = 0
        t.key = (0, True, name, ())
        self[name] = t
        return t


class _Interned:
    """Every interned term: ``apps`` maps each operator name to its table
    of applications, keyed by argument tuple, and ``vars`` each variable
    name to its term.  Its length is the number of interned terms."""

    __slots__ = ("apps", "vars")

    def __init__(self):
        self.apps = _Operators()
        self.vars = _Variables()

    def __len__(self) -> int:
        return len(self.vars) + sum(map(len, self.apps.values()))


class Term:
    """An interned first-order term: a variable or an operator application.

    ``key`` is the structural sort key ``(depth, is_var, name, arg keys)``,
    built once when the term is first interned; it holds its arguments' own
    key tuples, so building it never recurses."""

    __slots__ = ("name", "args", "is_var", "depth", "key")
    _intern = _Interned()

    def __new__(cls, name: str, args: Tuple["Term", ...] = (), is_var: bool = False):
        if not is_var:
            return _apps[name][args]
        if args:
            raise TermError("variables take no arguments")
        return _vars[name]

    # interning makes identity-based eq/hash correct; the order is the key's
    def __lt__(self, other: "Term") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Term({format_term(self)!r})"

    def __str__(self) -> str:
        return format_term(self)


_apps, _vars = Term._intern.apps, Term._intern.vars
_depth_of, _key_of = attrgetter("depth"), attrgetter("key")


def var(name: str) -> Term:
    return _vars[name]


def make(name: str, args: Tuple[Term, ...]) -> Term:
    """The application ``name(*args)``: one subscript of the operator
    table and one of the operator's table of applications."""
    return _apps[name][args]


def make_all(name: str, arg_tuples: Iterable[Tuple[Term, ...]]) -> Iterator[Term]:
    """The applications ``name(*args)`` for each ``args`` of ``arg_tuples``,
    in order and lazily.  The operator's table is subscripted from C, so
    an application already interned costs no Python call."""
    return map(_apps[name].__getitem__, arg_tuples)


def app(name: str, *args: Term) -> Term:
    return _apps[name][args]


def term_key(t: Term):
    """Deterministic structural sort key: depth, then operators before
    variables, then name, then the arguments' keys.  It is ``t.key``, built
    when the term was interned."""
    return t.key


def format_term(t: Term) -> str:
    if not t.args:
        return t.name
    return f"{t.name}({','.join(format_term(a) for a in t.args)})"


# Deepest term parse_term accepts, and deepest reduct a reduction graph
# takes in.  The term functions recurse once or a few times per level, and
# reducing a term of depth 331 overflows the interpreter's default stack;
# the margin leaves room for callers with deeper stacks.
MAX_TERM_DEPTH = 200


def parse_term(text: str, signature: Signature, variables: Sequence[str]) -> Term:
    """Parse ``name(arg,...)`` concrete syntax.

    A bare name is a constant if the signature declares it with arity 0,
    a variable if it is in ``variables``, and an error otherwise.  A term
    deeper than ``MAX_TERM_DEPTH`` is an error.
    """
    varset = set(variables)
    pos = 0
    text = text.strip()

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse(level: int) -> Term:
        nonlocal pos
        if level > MAX_TERM_DEPTH:
            raise TermError(f"term nested deeper than {MAX_TERM_DEPTH} "
                            f"at position {pos}")
        skip_ws()
        m = NAME_RE.match(text, pos)
        if not m:
            raise TermError(f"expected a name at position {pos} in {text!r}")
        name = m.group(0)
        pos = m.end()
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            args: List[Term] = []
            skip_ws()
            if pos < len(text) and text[pos] == ")":
                pos += 1
            else:
                while True:
                    args.append(parse(level + 1))
                    skip_ws()
                    if pos < len(text) and text[pos] == ",":
                        pos += 1
                        continue
                    if pos < len(text) and text[pos] == ")":
                        pos += 1
                        break
                    raise TermError(f"expected ',' or ')' at position {pos} in {text!r}")
            if name not in signature:
                raise TermError(f"unknown operator {name!r}")
            if signature.arity(name) != len(args):
                raise TermError(
                    f"operator {name!r} expects {signature.arity(name)} "
                    f"arguments, got {len(args)}"
                )
            return app(name, *args)
        if name in signature:
            if signature.arity(name) != 0:
                raise TermError(f"operator {name!r} needs arguments")
            return app(name)
        if name in varset:
            return var(name)
        raise TermError(f"unknown name {name!r} (not an operator or declared variable)")

    t = parse(0)
    skip_ws()
    if pos != len(text):
        raise TermError(f"trailing input at position {pos} in {text!r}")
    return t


def free_vars(t: Term) -> frozenset:
    return frozenset(s.name for s in subterms(t) if s.is_var)


def apply_subst(t: Term, subst: Mapping[str, Term]) -> Term:
    if t.is_var:
        return subst.get(t.name, t)
    if not t.args:
        return t
    return make(t.name, tuple([apply_subst(a, subst) for a in t.args]))


def match(pattern: Term, subject: Term) -> Optional[Dict[str, Term]]:
    """Match ``pattern`` against ``subject``; return the witnessing
    substitution on the pattern's variables, or None.  The pairs to match
    wait on a stack, arguments pushed last first, so variables are bound
    left to right; there is no nested function to leave a reference cycle
    per call."""
    subst: Dict[str, Term] = {}
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if p.is_var:
            if subst.setdefault(p.name, s) is not s:
                return None
        elif s.is_var or p.name != s.name or len(p.args) != len(s.args):
            return None
        elif p.args:
            todo.extend(zip(reversed(p.args), reversed(s.args)))
    return subst


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector off while it runs, if it
    was on.  Terms and their pairs never form reference cycles, so
    reference counting frees them, and a collection over them finds
    nothing to free.  A call made with the collector off leaves it off,
    and the thresholds are never touched, so the caller gets back the
    collector as it left it, when ``fn`` raises too.  Meant for calls that
    do their work before they return: a generator's body would run after
    the collector is back on."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, including t itself (pre-order, with repeats)."""
    yield t
    for a in t.args:
        yield from subterms(a)


def _head_ok(t: Term, signature: Signature, variables: Sequence[str]) -> bool:
    """Whether ``t``'s own symbol is declared, with ``t``'s arity."""
    if t.is_var:
        return t.name in variables
    return t.name in signature and signature.arity(t.name) == len(t.args)


def is_well_formed(t: Term, signature: Signature, variables: Sequence[str]) -> bool:
    return _head_ok(t, signature, variables) and all(
        is_well_formed(a, signature, variables) for a in t.args)


# ---------------------------------------------------------------------------
# Universes.

DEFAULT_UNIVERSE_CAP = 500_000


class Universe:
    """A finite, subterm-closed set of well-formed terms.

    With ``explicit=None`` the universe is all well-formed terms of depth at
    most ``depth``, built on first enumeration by ``_depth_universe_terms``;
    its depth may not exceed ``MAX_TERM_DEPTH``, the depth ``parse_term``
    allows a term.  An explicit universe carries its (subterm-closed) term
    set; ``depth`` then records the maximum depth present.

    A universe is a value: never changed after construction, equal and
    hashed by its four fields, as the relations' ``==`` needs.  The cached
    properties take no part.
    """

    def __init__(self, signature: Signature, variables: Tuple[str, ...],
                 depth: int, explicit: Optional[frozenset] = None):
        if depth < 0:
            raise UniverseError("universe depth must be >= 0")
        if explicit is None and depth > MAX_TERM_DEPTH:
            raise UniverseError(f"universe depth {depth} is over the "
                                f"limit of {MAX_TERM_DEPTH}")
        self.signature = signature
        self.variables = variables
        self.depth = depth
        self.explicit = explicit

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.signature, self.variables, self.depth, self.explicit)
                == (other.signature, other.variables, other.depth,
                    other.explicit))

    def __hash__(self) -> int:
        return hash((self.signature, self.variables, self.depth,
                     self.explicit))

    # -- membership ---------------------------------------------------------
    def __contains__(self, t: Term) -> bool:
        """Full membership check for a term from outside the universe's
        relations (``Rel.from_pairs``, the right sides of
        ``ground_instances``): a depth universe also walks the term for
        well-formedness.  ``termrel._lift`` skips that walk, since what it
        builds is well-formed by construction."""
        if self.explicit is not None:
            return t in self.explicit
        return t.depth <= self.depth and is_well_formed(
            t, self.signature, self.variables)

    # -- enumeration --------------------------------------------------------
    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms())

    def terms(self) -> Tuple[Term, ...]:
        """All terms, sorted by the deterministic structural key."""
        if self.explicit is not None:
            return self._explicit_sorted
        return _depth_universe_terms(self.signature, self.variables, self.depth)

    @cached_property
    def _explicit_sorted(self) -> Tuple[Term, ...]:
        return tuple(sorted(self.explicit, key=term_key))

    @cached_property
    def occurrences(self) -> Dict[Term, Tuple[Tuple[Term, int], ...]]:
        """Each term of an explicit universe mapped to the (parent, argument
        position) pairs at which it occurs as a direct argument of a term
        of the universe, in no particular order.  Built on first use from
        the unsorted term set; a depth universe has no index.
        ``termrel._lift`` reads it over explicit universes only, so a
        closure over an explicit universe that it takes in one pass by depth
        never builds it."""
        occ: Dict[Term, List[Tuple[Term, int]]] = {}
        for t in self.explicit:
            for i, arg in enumerate(t.args):
                occ.setdefault(arg, []).append((t, i))
        return {t: tuple(ps) for t, ps in occ.items()}

    def terms_up_to(self, d: int) -> Tuple[Term, ...]:
        """The terms of depth <= d, sorted."""
        if self.explicit is not None:
            return tuple(t for t in self.terms() if t.depth <= d)
        return _depth_universe_terms(self.signature, self.variables, min(d, self.depth))

    def var_terms(self) -> Tuple[Term, ...]:
        vs = tuple(var(v) for v in sorted(self.variables))
        if self.explicit is not None:
            return tuple(v for v in vs if v in self.explicit)
        return vs

    def constant_terms(self) -> Tuple[Term, ...]:
        cs = tuple(app(c) for c in self.signature.constants())
        if self.explicit is not None:
            return tuple(c for c in cs if c in self.explicit)
        return cs

    @staticmethod
    def from_terms(signature: Signature, variables: Sequence[str],
                   terms: Sequence[Term]) -> "Universe":
        """Explicit universe: the subterm closure of ``terms``.  Repeated
        variable names count once.  Being subterm-closed, the closure is
        well-formed when each of its terms passes ``_head_ok``."""
        closed, work = set(), list(terms)
        while work:
            t = work.pop()
            if t not in closed:
                if not _head_ok(t, signature, variables):
                    raise TermError(f"term {format_term(t)} is not well-formed here")
                closed.add(t)
                work.extend(t.args)
        depth = max((t.depth for t in closed), default=0)
        return Universe(signature, tuple(sorted(set(variables))), depth,
                        frozenset(closed))


@lru_cache(maxsize=None)
def _depth_universe_terms(sig: Signature, variables: Tuple[str, ...],
                          d: int) -> Tuple[Term, ...]:
    """The terms of depth <= ``d``, sorted, built level by level: level k
    is the leaves plus every application over level k-1.  A level's size is
    known before it is built, so a universe over ``DEFAULT_UNIVERSE_CAP``
    is refused at its first level over the cap, before that level is
    built.  The terms of a level are distinct by construction, so the last
    level is sorted as it is."""
    leaves = [var(v) for v in sorted(set(variables))]
    leaves.extend(app(c) for c in sig.constants())
    level = leaves
    for k in range(1, d + 1):
        n = len(leaves) + sum(len(level) ** a for _, a in sig.operators())
        if n > DEFAULT_UNIVERSE_CAP:
            raise UniverseError(
                f"universe of depth {d} is over the cap of "
                f"{DEFAULT_UNIVERSE_CAP} terms: {n} terms of depth <= {k}; "
                f"not materializing")
        below, level = level, list(leaves)
        for name, ar in sig.operators():
            level.extend(make_all(name, product(below, repeat=ar)))
    return tuple(sorted(level, key=term_key))


@lru_cache(maxsize=None)
def universe(signature: Signature, variables: Tuple[str, ...], depth: int) -> Universe:
    """All terms of depth <= ``depth``; repeated variable names count once."""
    return Universe(signature, tuple(sorted(set(variables))), depth)
