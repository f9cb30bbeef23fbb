"""
Strong order on parabolic double cosets of the symmetric group:
distinguished representatives, the catalogued poset shapes, and the
weight-orbit comparison against dominance.
"""
from .bruhat import covers, interval, leq, leq_subword_oracle
from .parabolic import (
    DoubleCosetTable,
    coset_of,
    decompose,
    factorize,
    max_representatives,
    min_representatives,
    parabolic_elements,
)
from .poset import FinitePoset, ShapeClass, are_isomorphic, classify_shape, shape_template
from .spherical import (
    SphericalCase,
    VerificationReport,
    build_xplus_poset,
    predicted_bottom,
    spherical_pairs,
    verify_theorem,
)
from .symgroup import (
    CapExceeded,
    Perm,
    all_permutations,
    compose,
    inverse,
    length,
    longest_element,
)
from .weights import dominance_leq, is_tight, orbit_poset, tight_scan

__all__ = [
    "CapExceeded",
    "DoubleCosetTable",
    "FinitePoset",
    "Perm",
    "ShapeClass",
    "SphericalCase",
    "VerificationReport",
    "all_permutations",
    "are_isomorphic",
    "build_xplus_poset",
    "classify_shape",
    "compose",
    "coset_of",
    "covers",
    "decompose",
    "dominance_leq",
    "factorize",
    "interval",
    "inverse",
    "is_tight",
    "length",
    "leq",
    "leq_subword_oracle",
    "longest_element",
    "max_representatives",
    "min_representatives",
    "orbit_poset",
    "parabolic_elements",
    "predicted_bottom",
    "shape_template",
    "spherical_pairs",
    "tight_scan",
    "verify_theorem",
]

__version__ = "0.1.0"
