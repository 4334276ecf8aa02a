"""Computational machinery for genus-0 adelic Galois image classification:
finite GL2 matrix-group algebra, open subgroups of GL2(Zhat), modular-curve
genus, the family-of-groups construction, an exact rational-function
calculus, parameter conditions and the adelic surjectivity criterion.

The package holds what the CLI, ``classify`` and the demos use.  The
package level re-exports what the demos and the README example use;
everything else is imported from its module (``aimg.matgroup``,
``aimg.families``, ...).  Brute-force enumerations that serve only as
test oracles (subgroups up to conjugacy among them) live in
``tests/oracle_helpers.py``."""

from .modmatrix import ResidueMatrix
from .matgroup import FiniteMatrixGroup, sl2_order
from .opengroup import OpenSubgroup, commutator_open, full_sl2
from .modgenus import genus
from .arithcond import (
    DEGREE4_NONTRIVIAL,
    DEGREE4_TRIVIAL,
    eval_condition,
    parse_vcondition,
    quad_cyc_trivial,
    quartic_condition,
    squarefree_part,
)
from .classifier import classify, load_catalog

__all__ = [
    "DEGREE4_NONTRIVIAL",
    "DEGREE4_TRIVIAL",
    "FiniteMatrixGroup",
    "OpenSubgroup",
    "ResidueMatrix",
    "classify",
    "commutator_open",
    "eval_condition",
    "full_sl2",
    "genus",
    "load_catalog",
    "parse_vcondition",
    "quad_cyc_trivial",
    "quartic_condition",
    "sl2_order",
    "squarefree_part",
]

__version__ = "0.1.0"
