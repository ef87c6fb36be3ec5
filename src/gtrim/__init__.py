"""Trimmed Gorenstein ideals in k[x, y, z].

A small exact computer-algebra library around one construction: the
Pfaffian family of height-3 Gorenstein ideals with x, z, y band matrices,
the trims obtained by replacing one minimal generator g with (x, y, z)*g,
the Koszul homology algebra of the resulting artinian quotients, and the
Tor-algebra classification read off from its multiplication.

Every public name is imported from its module on first access (PEP 562),
so ``import gtrim`` or ``import gtrim.cli`` loads only what is used.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "errors": ("ClassificationScopeError", "NonHomogeneousError", "NotNPrimaryError",
               "PreconditionError", "UnitIdealError"),
    "fields": ("DEFAULT_CHAR", "PrimeField", "RationalField", "default_field",
               "field_of_characteristic"),
    "ideals": ("HilbertData", "Ideal", "QuotientRing", "buchberger", "trim"),
    "koszul": ("KoszulComplex", "TorClass", "TorInvariants", "classify_from_invariants",
               "report_dict"),
    "pfaffians": ("PfaffianFamily", "TrimChoice", "build_u", "build_v",
                  "canonical_generators", "d_poly", "family_hilbert", "gorenstein_ideal",
                  "trimmed_ideal"),
    "poly": ("Polynomial", "PolyMatrix", "mono_key", "monomials_of_degree",
             "parse_polynomial", "variables"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
