"""Toolchain for homogeneous monoid presentations: word problem by
bounded rewriting, divisibility, minimal common multiples, primitive
and simple elements, greedy normal forms, Garside elements, groups of
fractions, normal-form automata, growth series, and derivation grids.

The public names load on first use (PEP 562): importing the package, or
``garside.cli``, loads no layer until a name from it is asked for, and
``python -m garside.cli`` does not find its module already imported.
"""

import importlib

__version__ = "0.1.0"

# defining module of each public name
_EXPORTS = {
    "presentation": ("FIXTURE_NAMES", "Presentation", "PresentationError",
                     "fixture", "parse_presentation",
                     "serialize_presentation"),
    "reports": ("VerificationReport", "GridError"),
    "congruence": ("Element", "MonoidContext", "ResourceLimitExceeded"),
    "structure": ("ElementSet", "McmResult", "atoms", "check_ore", "covers",
                  "divisors", "divisors_in", "enumerate_simples",
                  "is_spanning", "mcms", "primitive_closure",
                  "right_divisors"),
    "normal": ("Derivation", "DerivationStep", "NormalSequence",
               "grid_prove_equality", "is_normal", "left_mult_update",
               "normalize", "normalize_all", "prove_group_identity"),
    "delta": ("FractionForm", "GarsideSearchResult", "GarsideStructure",
              "build_structure", "check_normal_uniqueness_criterion",
              "check_uniform_length", "combine", "find_minimal_garside",
              "fraction_of_signed", "group_equal", "is_garside",
              "to_fraction"),
    "automaton": ("DELTA_INV", "GrowthSeries", "NormalFormAutomaton",
                  "build_automaton", "cayley_distance", "ftp_probe",
                  "growth", "synchronous_distance"),
    "cli": ("export_characteristic_graph", "main"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    # the public names are listed before they load
    return sorted({*globals(), *__all__})
