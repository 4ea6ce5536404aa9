"""Term rewriting through an algebra of term relations.

Modules:

* :mod:`relrew.syntax`   terms, signatures, matching, finite term universes
* :mod:`relrew.relalg`   the one relation class ``Rel`` over ``range(n)`` or
                         a term universe, with quantale structure, stars by
                         the graph search ``reach``, and ``lfp``
* :mod:`relrew.termrel`  differential operators on term relations and the
                         sequential / parallel / full closures
* :mod:`relrew.rewrite`  rewrite systems, steppers, reduction graphs
* :mod:`relrew.analysis` confluence-family checks and critical pairs
* :mod:`relrew.laws`     property-based algebraic law suites
* :mod:`relrew.cli`      command-line front end
"""

from .relalg import Rel, lfp
from .rewrite import TRS, Rule, parse_trs, reduction_graph
from .syntax import Signature, Term, Universe, app, parse_term, universe, var
from .termrel import (
    check_refine,
    derivative,
    full_closure,
    hat,
    parallel_closure,
    sequential_closure,
    subst_rel,
    taylor,
    tilde,
)

__version__ = "0.1.0"

__all__ = [
    "Rel",
    "Rule",
    "Signature",
    "TRS",
    "Term",
    "Universe",
    "app",
    "check_refine",
    "derivative",
    "full_closure",
    "hat",
    "lfp",
    "parallel_closure",
    "parse_term",
    "parse_trs",
    "reduction_graph",
    "sequential_closure",
    "subst_rel",
    "taylor",
    "tilde",
    "universe",
    "var",
]
