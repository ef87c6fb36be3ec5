"""Trimmed Gorenstein ideals in k[x, y, z].

A small exact computer-algebra library around one construction: the
Pfaffian family of height-3 Gorenstein ideals with x, z, y band matrices,
the trims obtained by replacing one minimal generator g with (x, y, z)*g,
the Koszul homology algebra of the resulting artinian quotients, and the
Tor-algebra classification read off from its multiplication.
"""

from .errors import (
    ClassificationScopeError,
    NonHomogeneousError,
    NotNPrimaryError,
    PreconditionError,
    UnitIdealError,
)
from .fields import DEFAULT_CHAR, PrimeField, RationalField, default_field, field_of_characteristic
from .ideals import (
    HilbertData,
    Ideal,
    QuotientRing,
    buchberger,
    scale_by_maximal,
    trim,
)
from .koszul import (
    KoszulComplex,
    KoszulElement,
    TorClass,
    TorInvariants,
    a1_annihilator_cycle,
    a1_cycle_basis,
    annihilates_a1,
    classify_from_invariants,
    report_dict,
)
from .pfaffians import (
    PfaffianFamily,
    TrimChoice,
    build_u,
    build_v,
    canonical_generators,
    d_poly,
    family_hilbert,
    gorenstein_ideal,
    selector_labels,
    trimmed_ideal,
)
from .poly import (
    Polynomial,
    PolyMatrix,
    mono_key,
    monomials_of_degree,
    parse_polynomial,
    variables,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationScopeError", "NonHomogeneousError", "NotNPrimaryError",
    "PreconditionError", "UnitIdealError", "DEFAULT_CHAR", "PrimeField", "RationalField",
    "default_field", "field_of_characteristic", "HilbertData", "Ideal",
    "QuotientRing", "buchberger",
    "scale_by_maximal", "trim", "KoszulComplex", "KoszulElement", "TorClass",
    "TorInvariants", "a1_annihilator_cycle", "a1_cycle_basis",
    "annihilates_a1", "classify_from_invariants", "report_dict",
    "PfaffianFamily", "TrimChoice", "build_u", "build_v", "canonical_generators",
    "d_poly", "family_hilbert", "gorenstein_ideal", "selector_labels", "trimmed_ideal",
    "Polynomial", "PolyMatrix",
    "mono_key", "monomials_of_degree", "parse_polynomial",
    "variables",
]
