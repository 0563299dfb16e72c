"""Toolchain for homogeneous monoid presentations: word problem by
bounded rewriting, divisibility, minimal common multiples, primitive
and simple elements, greedy normal forms, Garside elements, groups of
fractions, normal-form automata, growth series, and derivation grids.
"""

from .presentation import (FIXTURE_NAMES, Presentation, PresentationError,
                           fixture, parse_presentation,
                           serialize_presentation)
from .reports import VerificationReport
from .congruence import Element, MonoidContext, ResourceLimitExceeded
from .structure import (ElementSet, McmResult, atoms, check_ore, covers,
                        divisors, divisors_in, enumerate_simples,
                        is_spanning, mcms, primitive_closure,
                        right_divisors)
from .normal import (Derivation, DerivationStep, GridError, NormalSequence,
                     grid_prove_equality, is_normal, left_mult_update,
                     normalize, normalize_all, prove_group_identity)
from .delta import (FractionForm, GarsideSearchResult, GarsideStructure,
                    build_structure, check_normal_uniqueness_criterion,
                    check_uniform_length, combine, find_minimal_garside,
                    fraction_of_signed, group_equal, is_garside,
                    to_fraction)
from .automaton import (DELTA_INV, GrowthSeries, NormalFormAutomaton,
                        build_automaton, cayley_distance, ftp_probe,
                        growth, synchronous_distance)

__version__ = "0.1.0"

# The CLI loads on first use (PEP 562), so that `python -m garside.cli`
# does not find its module already imported by the package.
_CLI_NAMES = ("export_characteristic_graph", "main")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FIXTURE_NAMES", "Presentation", "PresentationError", "fixture",
    "parse_presentation", "serialize_presentation",
    "VerificationReport",
    "Element", "MonoidContext", "ResourceLimitExceeded",
    "ElementSet", "McmResult", "atoms", "check_ore", "covers",
    "divisors", "divisors_in", "enumerate_simples", "is_spanning",
    "mcms", "primitive_closure", "right_divisors",
    "Derivation", "DerivationStep", "GridError", "NormalSequence",
    "grid_prove_equality", "is_normal", "left_mult_update", "normalize",
    "normalize_all", "prove_group_identity",
    "FractionForm", "GarsideSearchResult", "GarsideStructure",
    "build_structure", "check_normal_uniqueness_criterion",
    "check_uniform_length", "combine", "find_minimal_garside",
    "fraction_of_signed", "group_equal", "is_garside", "to_fraction",
    "DELTA_INV", "GrowthSeries", "NormalFormAutomaton",
    "build_automaton", "cayley_distance", "ftp_probe", "growth",
    "synchronous_distance",
    "export_characteristic_graph", "main",
    "__version__",
]
