import pytest

import oracles
from garside import (Element, ElementSet, MonoidContext, atoms, check_ore,
                     covers, divisors, divisors_in, enumerate_simples,
                     find_minimal_garside, fixture, is_spanning, mcms,
                     primitive_closure, right_divisors)
from garside.rewrite import completion


def names(ctx, xs):
    return sorted(ctx.show(x) for x in xs)


def test_atoms(m1, m2, b3):
    assert names(m1, atoms(m1)) == ["a", "b"]
    assert names(m2, atoms(m2)) == ["a", "b", "c"]
    assert names(b3, atoms(b3)) == ["s1", "s2"]


def test_element_set_basics(m1):
    S = ElementSet(frozenset({m1.one, m1.element("a")}), "demo")
    assert len(S) == 2
    assert S.max_norm == 1
    assert list(S) == sorted(S.members)
    assert m1.one in S


def test_mcms_m1(m1):
    a, b = m1.element("a"), m1.element("b")
    res = mcms(m1, a, b)
    assert res.mcms == frozenset({Element("aa"), Element("ab")})
    assert res.complete
    # complements multiply back onto each mcm, and neither mcm divides
    # the other
    for m in res.mcms:
        assert m1.mul(a, res.complements_left[m]) == m
        assert m1.mul(b, res.complements_right[m]) == m
    assert not m1.divides(Element("aa"), Element("ab"))
    assert not m1.divides(Element("ab"), Element("aa"))
    assert res.complements_left[Element("aa")] == a
    assert res.complements_left[Element("ab")] == b
    assert res.complements_right[Element("ab")] == a


def test_mcms_divisibility_fast_path(m1):
    a, aa = m1.element("a"), m1.element("aa")
    res = mcms(m1, a, aa)
    assert res.mcms == frozenset({aa})
    assert res.complete
    assert res.complements_left[aa] == a
    assert res.complements_right[aa] == m1.one
    res = mcms(m1, aa, a)
    assert res.mcms == frozenset({aa})
    assert res.complements_left[aa] == m1.one


def test_mcms_m2_m3_b3(m2, m3, b3):
    res = mcms(m2, m2.element("a"), m2.element("b"))
    assert names(m2, res.mcms) == ["aa", "ab", "ac"]
    assert res.complete
    res = mcms(m2, m2.element("ab"), m2.element("ac"))
    assert names(m2, res.mcms) == ["aaa", "aab", "aac"]
    assert res.complete
    aa = m2.element("aa")
    for m in res.mcms:
        assert m2.divides(aa, m)
    res = mcms(m3, m3.element("a"), m3.element("c"))
    # b b = a c = c a in M3, so the canonical mcm is ac
    assert res.mcms == frozenset({m3.element("bb")})
    assert m3.element("bb") == Element("ac")
    res = mcms(b3, b3.element("s1"), b3.element("s2"))
    assert res.mcms == frozenset({b3.element("s1s2s1")})
    assert res.complete


def test_mcms_empty_in_free_monoid():
    ctx = MonoidContext(fixture("free(2)"))
    res = mcms(ctx, ctx.element("a"), ctx.element("b"), bound=6)
    assert res.mcms == frozenset()
    assert not res.complete  # emptiness cannot be certified by search


def test_mcms_are_minimal_and_complete_on_ball(m1, b3):
    # brute-force cross-check on small pairs: the reported mcms are
    # exactly the divisibility-minimal common multiples
    for ctx in (m1, b3):
        ball = sorted(ctx.enumerate_ball(2))
        upto = sorted(ctx.enumerate_ball(6))
        for x in ball:
            if not x.norm:
                continue
            for y in ball:
                if not y.norm:
                    continue
                res = mcms(ctx, x, y)
                cms = [z for z in upto
                       if ctx.divides(x, z) and ctx.divides(y, z)
                       and z.norm <= res.search_bound]
                minimal = {z for z in cms
                           if not any(ctx.divides(w, z) and w != z
                                      for w in cms)}
                assert res.mcms == minimal, (ctx.show(x), ctx.show(y))


def test_primitive_closure(m1, m2, m3, b3):
    assert names(m1, primitive_closure(m1)) == ["1", "a", "b"]
    assert names(m2, primitive_closure(m2)) == ["1", "a", "b", "c"]
    assert names(m3, primitive_closure(m3)) == ["1", "a", "b", "c"]
    P = primitive_closure(b3)
    assert names(b3, P) == ["1", "s1", "s1s2", "s2", "s2s1"]
    assert P.notes == ()
    for n in (1, 2, 3, 4):
        ctx = MonoidContext(fixture(f"free_comm({n})"))
        assert len(primitive_closure(ctx)) == n + 1


def test_primitive_closure_is_computed_once_per_cap():
    ctx = MonoidContext(fixture("B3"))
    P = primitive_closure(ctx)
    assert primitive_closure(ctx) is P
    capped = primitive_closure(ctx, cap=3)
    assert capped is primitive_closure(ctx, cap=3)
    assert len(capped) == 3 and any("cap 3" in n for n in capped.notes)
    assert primitive_closure(ctx) is P


def test_primitive_closure_free_monoid_incomplete():
    ctx = MonoidContext(fixture("free(2)"))
    P = primitive_closure(ctx)
    assert names(ctx, P) == ["1", "a", "b"]
    assert any("incomplete" in note for note in P.notes)


def test_is_spanning(m1, b3):
    assert is_spanning(m1, primitive_closure(m1)).passed
    assert is_spanning(b3, primitive_closure(b3)).passed
    rep = is_spanning(m1, [m1.one, m1.element("a")])
    assert not rep.passed
    assert rep.witness == {"missing_atom": "b"}
    rep = is_spanning(m1, [m1.element("a"), m1.element("b")])
    assert not rep.passed
    assert rep.witness == {"missing": "1"}
    # {1, a, b} is closed: the complements of aa and ab are atoms
    assert is_spanning(m1, [m1.one, m1.element("a"), m1.element("b")]).passed
    # a spanning set need not contain the mcms themselves
    rep = is_spanning(m1, divisors(m1, m1.element("aa")))
    assert rep.passed and rep.complete


def test_is_spanning_catches_missing_complement(b3):
    S = [b3.one, b3.element("s1"), b3.element("s2"), b3.element("s1s2")]
    rep = is_spanning(b3, S)
    assert not rep.passed
    assert "complement" in rep.witness


def test_check_ore(m1, m2, m3, b3):
    for ctx in (m1, m2, m3, b3):
        assert check_ore(ctx, atoms(ctx)).passed
    ctx = MonoidContext(fixture("free(2)"))
    rep = check_ore(ctx, atoms(ctx))
    assert not rep.passed
    assert rep.witness["pair"] == ["a", "b"]


def test_divisors(m1):
    aa = m1.element("aa")
    div = divisors(m1, aa)
    assert names(m1, div) == ["1", "a", "aa", "b"]
    assert div.label == "Div(aa)"
    rdiv = right_divisors(m1, aa)
    assert rdiv.members == div.members
    assert names(m1, divisors(m1, m1.element("ab"))) == ["1", "a", "ab", "b"]


def test_divisors_in_and_covers(m1):
    P = primitive_closure(m1)
    a, b, aa, ab = (m1.element(w) for w in ("a", "b", "aa", "ab"))
    assert divisors_in(m1, P, a) == frozenset({m1.one, a})
    assert divisors_in(m1, P, aa) == frozenset({m1.one, a, b})
    assert divisors_in(m1, P, ab) == frozenset({m1.one, a, b})
    assert covers(m1, P, aa, a)
    assert not covers(m1, P, b, a)
    assert not covers(m1, P, a, a)
    div = divisors(m1, aa)
    assert divisors_in(m1, div, ab) == frozenset({m1.one, a, b})
    assert divisors_in(m1, div, aa) == div.members


def test_enumerate_simples_counts(m1, m2, m3, b3):
    assert names(m1, enumerate_simples(m1, primitive_closure(m1))) == [
        "1", "a", "aa", "ab", "b"]
    assert len(enumerate_simples(m2, primitive_closure(m2))) == 7
    assert len(enumerate_simples(m3, primitive_closure(m3))) == 7
    assert len(enumerate_simples(b3, primitive_closure(b3))) == 6
    for n in (1, 2, 3, 4):
        ctx = MonoidContext(fixture(f"free_comm({n})"))
        S = primitive_closure(ctx)
        assert len(enumerate_simples(ctx, S)) == 2 ** n


def test_simples_can_exceed_the_span(m1):
    # over Div(aa) the simple elements include ab, which is not a divisor
    div = divisors(m1, m1.element("aa"))
    simples = enumerate_simples(m1, div)
    assert names(m1, simples) == ["1", "a", "aa", "ab", "b"]
    assert m1.element("ab") not in div.members


def test_simples_are_div_minimal_on_ball(m1, m3):
    # definition check: x is simple iff no proper divisor of x has the
    # same S-divisor set
    for ctx in (m1, m3):
        S = primitive_closure(ctx)
        simples = enumerate_simples(ctx, S).members
        for x in ctx.enumerate_ball(4):
            dset = divisors_in(ctx, S, x)
            proper = [
                d for d in ctx.enumerate_ball(x.norm)
                if d != x and ctx.divides(d, x)
                and divisors_in(ctx, S, d) == dset]
            assert (x in simples) == (not proper), ctx.show(x)


# (presentation, radius of the divisor check, norm of its Garside search)
DIFFERENTIAL = [(fixture(name), 5, 4)
                for name in ("M1", "M2", "M3", "B3", "free_comm(3)")] + [
    (oracles.LENGTH_ONE, 5, 4), (oracles.B4, 4, 6), (oracles.CYCLIC, 5, 4),
    (oracles.NOT_LEFT_CANCELLATIVE, 5, 4),
    (oracles.NOT_RIGHT_CANCELLATIVE, 5, 4)]


@pytest.mark.parametrize(
    "presentation,radius,garside_norm", DIFFERENTIAL,
    ids=["M1", "M2", "M3", "B3", "free_comm(3)", "length_one", "B4",
         "cyclic", "ab=aa", "ba=aa"])
def test_structure_layer_matches_class_oracles(presentation, radius,
                                               garside_norm):
    # divisors, right divisors, mcms and simple elements come from the
    # rewriting kernel; the oracles read them off congruence classes
    ctx = MonoidContext(presentation)
    ball = sorted(ctx.enumerate_ball(radius))
    for x in ball:
        assert divisors(ctx, x).members == oracles.divisors(ctx, x)
        assert right_divisors(ctx, x).members == \
            oracles.right_divisors(ctx, x)
    pairs = [x for x in ball if 0 < x.norm <= 2]
    for x in pairs:
        for y in pairs:
            res = mcms(ctx, x, y)
            found, complete = oracles.mcms(ctx, x, y, res.search_bound)
            assert (res.mcms, res.complete) == (found, complete), \
                (ctx.show(x), ctx.show(y))
            for m in found:
                assert res.complements_left[m] == \
                    min(oracles.left_complements(ctx, x, m))
                assert res.complements_right[m] == \
                    min(oracles.left_complements(ctx, y, m))
    spans = [primitive_closure(ctx)] + [
        divisors(ctx, d) for d in find_minimal_garside(ctx, garside_norm).minimal]
    for S in spans:
        got = enumerate_simples(ctx, S)
        assert got.members == oracles.simples(ctx, S.members,
                                              got.max_norm + 1)
    if presentation is oracles.NOT_LEFT_CANCELLATIVE:
        # a b = a a: a does not cancel on the left, so peeling a takes
        # every complement from the ball, and b right-divides aa only
        assert ctx.ball_fallbacks > 0
        aa = ctx.element("aa")
        assert right_divisors(ctx, aa).members - divisors(ctx, aa).members \
            == {ctx.element("b")}
    elif presentation is oracles.NOT_RIGHT_CANCELLATIVE:
        # b a = a a: a does not cancel on the right, so the divisors one
        # letter shorter come from the factorisations; no ball is scanned
        reversed_rels = (("ab", "aa"),)
        assert not completion(reversed_rels, "ab").left_cancellative(2)
        assert ctx.ball_fallbacks == 0
    else:
        assert ctx.ball_fallbacks == 0
