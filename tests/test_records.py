"""The package's record classes: field-wise equality and repr, hashing
only where frozen, and assignment rejected where frozen."""

import pytest

from garside import (Derivation, DerivationStep, Element, ElementSet,
                     FractionForm, GarsideSearchResult, GarsideStructure,
                     GrowthSeries, McmResult, NormalFormAutomaton,
                     NormalSequence, VerificationReport)
from garside.cli import AnalysisReport

A, B = Element("a"), Element("b")
SEQ = NormalSequence((A, B), "span")

# class, constructor arguments, field names, frozen
RECORDS = [
    (Element, ("ab",), ("canon",), True),
    (NormalSequence, ((A,), "span"), ("factors", "span_label"), True),
    (FractionForm, (1, SEQ), ("k", "tail"), True),
    (ElementSet, (frozenset([A]), "atoms", ("note",)),
     ("members", "label", "notes"), True),
    (DerivationStep, ("rewrite", 0, (A, A), (B, B)),
     ("kind", "pos", "before", "after"), True),
    (VerificationReport, ("garside", "pass", 3, "w", False, {"k": 1}),
     ("check", "status", "bound", "witness", "complete", "details"), False),
    (McmResult, ((A, B), frozenset([B]), {}, {}, 2, True),
     ("pair", "mcms", "complements_left", "complements_right",
      "search_bound", "complete"), False),
    (GarsideSearchResult, ((B,), 4, 2, ((B, True),)),
     ("minimal", "candidates_checked", "max_norm", "primitive_mcm_probe"),
     False),
    (GarsideStructure, (None, B, frozenset(), frozenset(), {}, ({},), 1),
     ("ctx", "delta", "div_delta", "simples", "star", "phi_atoms", "order"),
     False),
    (Derivation, ((A,), (B,), []), ("source", "target", "steps"), False),
    (NormalFormAutomaton, (None, None, (A,), ("start",), {}),
     ("ctx", "gs", "letters", "states", "table"), False),
    (GrowthSeries, ((1, 2), (2,), "monoid", True),
     ("coefficients", "recurrence", "mode", "counts_elements"), False),
    (AnalysisReport, ("M1", {"atoms": []}, []), ("name", "stages", "notes"),
     False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,args,fields,frozen", RECORDS, ids=IDS)
def test_equality_is_field_wise(cls, args, fields, frozen):
    x, y = cls(*args), cls(*args)
    assert x == y and not x != y
    assert x != args and x != object()
    for name in fields:
        other = cls(*args)
        object.__setattr__(other, name, "changed")
        assert x != other, name


@pytest.mark.parametrize("cls,args,fields,frozen", RECORDS, ids=IDS)
def test_repr_names_the_fields(cls, args, fields, frozen):
    shown = repr(cls(*args))
    if cls is Element:
        assert shown == "Element('ab')"
        return
    assert shown.startswith(f"{cls.__name__}(")
    for name in fields:
        assert f"{name}=" in shown, name


@pytest.mark.parametrize("cls,args,fields,frozen", RECORDS, ids=IDS)
def test_only_frozen_records_hash_and_they_reject_assignment(
        cls, args, fields, frozen):
    x = cls(*args)
    if frozen:
        assert hash(x) == hash(cls(*args))
        assert len({x, cls(*args)}) == 1
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    else:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, fields[0], None)
        assert getattr(x, fields[0]) is None


def test_defaults_match_the_former_dataclasses():
    assert NormalSequence(()).span_label == ""
    assert ElementSet(frozenset()).label == ""
    assert ElementSet(frozenset()).notes == ()
    report = VerificationReport("c", "pass")
    assert (report.bound, report.witness, report.complete,
            report.details) == (None, None, True, {})
    assert GarsideSearchResult((), 0, 1).primitive_mcm_probe == ()
    assert Derivation((), ()).steps == []
    # mutable defaults are not shared between instances
    assert Derivation((), ()).steps is not Derivation((), ()).steps
    assert (VerificationReport("c", "pass").details
            is not VerificationReport("c", "pass").details)


def test_summary_states_the_bound_and_an_incomplete_search():
    # the text that ``garside graph`` warns with and ``build_structure``
    # raises with
    assert VerificationReport("garside", "pass").summary() == "garside: pass"
    report = VerificationReport("spanning", "pass", bound=4, complete=False)
    assert report.summary() == (
        "spanning: pass (bound 4) "
        "[search bound reached; possibly incomplete]")
    report = VerificationReport("spanning", "fail", bound=2, complete=False,
                                witness={"missing_atom": "b"})
    assert report.summary() == (
        "spanning: fail (bound 2) "
        "[search bound reached; possibly incomplete] "
        "witness={'missing_atom': 'b'}")
