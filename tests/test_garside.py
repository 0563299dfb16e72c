import itertools
import random

import pytest

import oracles
from garside import (MonoidContext, ResourceLimitExceeded,
                     build_structure, check_uniform_length,
                     check_normal_uniqueness_criterion, combine, divisors,
                     enumerate_simples, find_minimal_garside, fixture,
                     fraction_of_signed, group_equal, is_garside,
                     normalize, normalize_all, parse_presentation,
                     primitive_closure, right_divisors, to_fraction)
from garside import delta
from garside.delta import _check_preserves_relations
from garside.structure import span_arithmetic


def star_table(ctx, gs):
    return sorted((ctx.show(x), ctx.show(y)) for x, y in gs.star.items())


def test_is_garside_m1(m1):
    assert is_garside(m1, m1.element("aa")).passed
    assert is_garside(m1, m1.element("ab")).passed
    rep = is_garside(m1, m1.element("a"))
    assert not rep.passed
    assert rep.witness == {"missing_atom": "b"}


def test_is_garside_left_right_mismatch():
    ctx = MonoidContext(parse_presentation("gens: a b\nrels: ab = aa"))
    rep = is_garside(ctx, ctx.element("aa"))
    assert not rep.passed
    assert rep.details["reason"] == "left and right divisors differ"
    assert "b" in rep.witness["right_only"]
    assert rep.witness["left_only"] == []


def test_find_minimal_garside_frozen(m1, m2, m3, b3):
    cases = [
        (m1, ["aa", "ab"], [("aa", True), ("ab", True)]),
        (m2, ["aa", "ab", "ac"], [("aa", True), ("ab", True), ("ac", True)]),
        (m3, ["ac"], [("ab", False), ("ac", True), ("ba", False)]),
        (b3, ["s1s2s1"],
         [("s1s2", False), ("s2s1", False), ("s1s2s1", True)]),
    ]
    for ctx, minimal, probe in cases:
        res = find_minimal_garside(ctx)
        assert [ctx.show(d) for d in res.minimal] == minimal
        assert [(ctx.show(z), ok) for z, ok in res.primitive_mcm_probe] \
            == probe
        assert res.found and res.candidates_checked > 0


def test_find_minimal_garside_free_monoid_has_none():
    ctx = MonoidContext(fixture("free(2)"))
    res = find_minimal_garside(ctx)
    assert not res.found
    assert res.minimal == ()
    # mcms of distinct atoms are empty in a free monoid, so no probe
    assert res.primitive_mcm_probe == ()


def test_build_structure_rejects_non_garside(m1):
    with pytest.raises(ValueError, match="not a Garside element"):
        build_structure(m1, m1.element("a"))
    ctx = MonoidContext(fixture("free(2)"))
    with pytest.raises(ValueError, match="not a Garside element"):
        build_structure(ctx, ctx.element("ab"))


def test_star_maps_frozen(m1, m3, b3):
    gs = build_structure(m1, m1.element("aa"))
    assert star_table(m1, gs) == [
        ("1", "aa"), ("a", "a"), ("aa", "1"), ("b", "b")]
    gs = build_structure(m1, m1.element("ab"))
    assert star_table(m1, gs) == [
        ("1", "ab"), ("a", "b"), ("ab", "1"), ("b", "a")]
    gs = build_structure(m3, m3.element("ac"))
    assert star_table(m3, gs) == [
        ("1", "ac"), ("a", "c"), ("ac", "1"), ("b", "b"), ("c", "a")]
    gs = build_structure(b3, b3.element("s1s2s1"))
    assert star_table(b3, gs) == [
        ("1", "s1s2s1"), ("s1", "s2s1"), ("s1s2", "s1"),
        ("s1s2s1", "1"), ("s2", "s1s2"), ("s2s1", "s2")]


def test_star_duality(m1, m3, b3):
    # x <= y iff y* right-divides x*, exhaustively over the divisors
    for ctx, d in ((m1, "ab"), (m3, "ac"), (b3, "s1s2s1")):
        gs = build_structure(ctx, ctx.element(d))
        div = sorted(gs.div_delta)
        for x in div:
            assert ctx.mul(x, gs.star[x]) == gs.delta
        for x, y in itertools.product(div, div):
            forward = ctx.divides(x, y)
            dual = oracles.right_divides(ctx, gs.star[y],
                                         gs.star[x]) is not None
            assert forward == dual, (ctx.show(x), ctx.show(y))


def test_phi_orders_frozen(m1, m2, m3, b3):
    expected = [
        (m1, "aa", 1), (m1, "ab", 1),
        (m2, "aa", 1), (m2, "ab", 3), (m2, "ac", 3),
        (m3, "ac", 1), (b3, "s1s2s1", 2),
    ]
    for ctx, d, order in expected:
        assert build_structure(ctx, ctx.element(d)).order == order
    fc = MonoidContext(fixture("free_comm(3)"))
    assert build_structure(fc, fc.element("abc")).order == 1


def test_phi_cycles_on_m2(m2):
    gs_ab = build_structure(m2, m2.element("ab"))
    assert gs_ab.phi_atoms[1] == {"a": "c", "b": "a", "c": "b"}
    gs_ac = build_structure(m2, m2.element("ac"))
    assert gs_ac.phi_atoms[1] == {"a": "b", "b": "c", "c": "a"}
    # the two 3-cycles are inverse to each other
    a = m2.element("a")
    assert gs_ab.phi(gs_ac.phi(a)) == a


def test_phi_conjugation_and_centrality(m1, m2, m3, b3):
    # build_structure certifies both identities from the atoms; the
    # class-based checks on a ball are the reference
    fc = MonoidContext(fixture("free_comm(3)"))
    cases = ((m2, "ab"), (b3, "s1s2s1"), (m1, "aa"), (m2, "aa"), (m3, "ac"),
             (fc, "abc"), (MonoidContext(oracles.LENGTH_ONE), "s1s2s1"))
    for ctx, d in cases:
        gs = build_structure(ctx, ctx.element(d))
        ball = ctx.enumerate_ball(4)
        assert oracles.conjugation_failure(gs, ball) is None
        assert oracles.centrality_failure(gs, ball) is None


def test_build_structure_enumerates_no_ball_past_the_atoms():
    for name, d in (("free_comm(3)", "abc"), ("B3", "s1s2s1"), ("M2", "ab")):
        pres = fixture(name)
        ctx = MonoidContext(pres, max_ball_elements=len(pres.chars) + 2)
        gs = build_structure(ctx, ctx.element(d))
        assert gs.delta == ctx.element(d)
        with pytest.raises(ResourceLimitExceeded, match="at norm 2"):
            ctx.ball_level(2)


def test_phi_preserves_structure_sets(m2):
    # the conjugation automorphism maps atoms, primitives and simples
    # onto themselves
    gs = build_structure(m2, m2.element("ab"))
    atoms = set(m2.ball_level(1))
    assert {gs.phi(a) for a in atoms} == atoms
    prims = set(primitive_closure(m2))
    assert {gs.phi(p) for p in prims} == prims
    simples = set(gs.simples)
    assert {gs.phi(s) for s in simples} == simples
    assert {gs.phi(x) for x in gs.div_delta} == set(gs.div_delta)


def test_phi_on_divs_matches_letterwise(m2, b3):
    for ctx, d in ((m2, "ac"), (b3, "s1s2s1")):
        gs = build_structure(ctx, ctx.element(d))
        for x in gs.div_delta:
            assert gs.star[gs.star[x]] == gs.phi(x)


def test_divisors_of_garside_powers(m1, m3, b3):
    # Div(delta^k) = RDiv(delta^k) = Div(delta)^k for k = 1, 2, 3
    for ctx, d in ((m1, "aa"), (m3, "ac"), (b3, "s1s2s1")):
        gs = build_structure(ctx, ctx.element(d))
        div1 = set(gs.div_delta)
        products = {ctx.one}
        for k in range(1, 4):
            dk = gs.delta_power(k)
            products = {ctx.mul(x, y) for x in products for y in div1}
            assert set(divisors(ctx, dk)) == products
            assert set(right_divisors(ctx, dk)) == products


def test_garside_powers_are_common_multiples(m1):
    # delta^k with k past both embedding exponents is a common right
    # multiple and a common left multiple of any pair
    gs = build_structure(m1, m1.element("aa"))
    ball = [x for x in m1.enumerate_ball(3) if x.norm]
    for x, y in itertools.combinations(ball, 2):
        k = max(gs.embedding_exponent(x), gs.embedding_exponent(y))
        dk = gs.delta_power(k)
        assert m1.divides(x, dk) and m1.divides(y, dk)
        assert oracles.right_divides(m1, x, dk) is not None
        assert oracles.right_divides(m1, y, dk) is not None


def test_embedding_exponent(m1):
    gs = build_structure(m1, m1.element("aa"))
    cases = {"a": 1, "b": 1, "aa": 1, "ab": 2, "aab": 2}
    for word, e in cases.items():
        assert gs.embedding_exponent(m1.element(word)) == e
    assert gs.embedding_exponent(m1.one) == 0
    for x in m1.enumerate_ball(4):
        assert gs.embedding_exponent(x) <= max(x.norm, 0)


def test_to_fraction_frozen(m1):
    gs = build_structure(m1, m1.element("aa"))
    f = to_fraction(m1, gs, m1.element("b"), m1.element("a"))
    assert f.k == 1
    assert [m1.show(x) for x in f.tail.factors] == ["ab"]
    assert len(f) == 2
    # a positive element keeps k = 0
    g = to_fraction(m1, gs, m1.element("ab"), m1.one)
    assert g.k == 0 and g.tail.product(m1) == m1.element("ab")


def test_fraction_of_signed_frozen(m1):
    gs = build_structure(m1, m1.element("aa"))
    a, b = m1.element("a"), m1.element("b")
    f1 = fraction_of_signed(m1, gs, [(b, -1), (a, 1)])
    f2 = fraction_of_signed(m1, gs, [(a, -1), (b, 1)])
    assert f1 == f2
    assert f1.k == 1 and [m1.show(x) for x in f1.tail.factors] == ["ab"]
    assert f1.describe(m1) == "D' ab"
    prod = combine(m1, gs, f1, fraction_of_signed(m1, gs, [(a, -1), (b, 1)]))
    # (b^-1 a)(a^-1 b) = 1
    assert prod.k == 0 and not prod.tail.factors
    with pytest.raises(ValueError, match="bad sign"):
        fraction_of_signed(m1, gs, [(a, 2)])
    # signs are checked before free reduction and the degree test
    with pytest.raises(ValueError, match="bad sign"):
        fraction_of_signed(m1, gs, [(a, 2), (a, -2)])
    with pytest.raises(ValueError, match="bad sign"):
        group_equal(m1, gs, [(a, 2)], [])


def test_fraction_normal_form_reduced(m1, m3):
    # when k > 0 the tail is never divisible by delta
    for ctx, d in ((m1, "aa"), (m3, "ac")):
        gs = build_structure(ctx, ctx.element(d))
        letters = [x for x in ctx.ball_level(1)]
        rng = random.Random(7)
        for _ in range(60):
            word = [(rng.choice(letters), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 6))]
            f = fraction_of_signed(ctx, gs, word)
            if f.k > 0:
                assert not ctx.divides(gs.delta, f.tail.product(ctx))


def test_fraction_forms_are_reduction_order_independent(m1, m3):
    # folding the whole signed word must agree with folding arbitrary
    # segmentations of it and combining the pieces
    for ctx, d in ((m1, "aa"), (m3, "ac")):
        gs = build_structure(ctx, ctx.element(d))
        letters = [x for x in ctx.ball_level(1)]
        rng = random.Random(11)
        for _ in range(100):
            word = [(rng.choice(letters), rng.choice((1, -1)))
                    for _ in range(rng.randrange(2, 7))]
            whole = fraction_of_signed(ctx, gs, word)
            cut = rng.randrange(1, len(word))
            left = fraction_of_signed(ctx, gs, word[:cut])
            right = fraction_of_signed(ctx, gs, word[cut:])
            assert combine(ctx, gs, left, right) == whole


def test_group_equal(m1):
    gs = build_structure(m1, m1.element("aa"))
    a, b = m1.element("a"), m1.element("b")
    assert group_equal(m1, gs, [(b, -1), (a, 1)], [(a, -1), (b, 1)])
    assert not group_equal(m1, gs, [(b, -1), (a, 1)], [(a, 1)])
    # free insertion of g g^-1 never changes the value
    assert group_equal(m1, gs, [(a, 1), (b, 1), (b, -1)], [(a, 1)])
    assert group_equal(m1, gs, [], [(a, 1), (a, -1)])


def test_structures_compare_equal_however_warm_their_memos():
    ctx = MonoidContext(fixture("M1"))
    warm = build_structure(ctx, ctx.element("aa"))
    # build_structure keeps one structure per delta: drop it for a
    # second, cold one on the same context
    ctx.caches["structure"].clear()
    cold = build_structure(ctx, ctx.element("aa"))
    assert warm is not cold
    a, b = ctx.element("a"), ctx.element("b")
    assert group_equal(ctx, warm, [(b, -1), (a, 1)], [(a, -1), (b, 1)])
    assert warm == cold
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("name,d", [("M1", "aa"), ("B3", "s1s2s1")])
def test_a_second_build_structure_is_the_first(monkeypatch, name, d):
    # the structure is kept per delta on its context: delta is not
    # proved again, and the span's arithmetic keeps its memos
    def unasked(ctx, d):
        raise AssertionError("is_garside asked again")

    ctx = MonoidContext(fixture(name))
    gs = build_structure(ctx, ctx.element(d))
    arithmetic = gs.arithmetic
    span = span_arithmetic(ctx, gs.div_delta)
    monkeypatch.setattr(delta, "is_garside", unasked)
    assert build_structure(ctx, ctx.element(d)) is gs
    assert build_structure(ctx, gs.delta.canon) is gs
    assert gs.arithmetic is arithmetic
    assert span_arithmetic(ctx, gs.div_delta) is span


def test_check_uniform_length_frozen(m1, m2, m3, b3):
    gs = build_structure(m1, m1.element("aa"))
    rep = check_uniform_length(m1, gs, 4)
    assert rep.passed
    assert rep.details == {"elements": 8, "with_several_forms": 0,
                           "unique_forms": True}
    for ctx, d in ((m1, "ab"), (m2, "aa"), (m2, "ab"), (m2, "ac"),
                   (m3, "ac"), (b3, "s1s2s1")):
        rep = check_uniform_length(ctx, build_structure(ctx, ctx.element(d)),
                                   4)
        assert rep.passed and rep.details["unique_forms"]


def test_uniqueness_criterion_m2(m2):
    rep = check_normal_uniqueness_criterion(
        m2, build_structure(m2, m2.element("aa")))
    assert rep.passed
    assert rep.details["pairs"] == 1
    assert not rep.details["vacuous"]
    assert rep.details["witnesses"] == [
        {"pair": ["ab", "ac"], "mcm": "aaa", "separator": "aa"},
        {"pair": ["ab", "ac"], "mcm": "aab", "separator": "aa"},
        {"pair": ["ab", "ac"], "mcm": "aac", "separator": "aa"},
    ]


def test_uniqueness_criterion_vacuous_cases(m1):
    rep = check_normal_uniqueness_criterion(
        m1, build_structure(m1, m1.element("aa")))
    assert rep.passed and rep.details["vacuous"]
    fc = MonoidContext(fixture("free_comm(2)"))
    rep = check_normal_uniqueness_criterion(
        fc, build_structure(fc, fc.element("ab")))
    assert rep.passed and rep.details["vacuous"]


def test_delta_normalize_helpers(b3):
    gs = build_structure(b3, b3.element("s1s2s1"))
    seq = normalize(b3, gs.div_delta, b3.mul(gs.delta, b3.element("s1")))
    assert [b3.show(x) for x in seq.factors] == ["s1s2s1", "s1"]
    forms = normalize_all(b3, gs.div_delta, b3.element("s1s2"))
    assert {tuple(b3.show(x) for x in f.factors) for f in forms} \
        == {("s1s2",)}
    with pytest.raises(ValueError, match="negative power"):
        gs.delta_power(-1)


def test_phi_is_the_reduced_translation():
    # phi^m(x) is the least word of the class of the translated word,
    # enumerated by the oracle's BFS
    for name, d in (("B3", "s1s2s1"), ("M2", "aa"), ("M3", "ac")):
        ctx = MonoidContext(fixture(name))
        gs = build_structure(ctx, ctx.element(d))
        for x in ctx.enumerate_ball(3):
            for m in range(gs.order):
                word = x.canon.translate(str.maketrans(gs.phi_atoms[m]))
                assert gs.phi(x, m).canon == min(oracles.word_class(ctx, word))


def test_phi_preserves_the_relations_of_every_fixture():
    for name, deltas in (("M1", ("aa", "ab")), ("M2", ("aa", "ab", "ac")),
                         ("M3", ("ac",)), ("B3", ("s1s2s1",)),
                         ("free_comm(3)", ("abc",))):
        ctx = MonoidContext(fixture(name))
        for d in deltas:
            gs = build_structure(ctx, ctx.element(d))
            for table in gs.phi_atoms:
                _check_preserves_relations(ctx, table)
    m3 = MonoidContext(fixture("M3"))
    # swapping a and b sends ac = ca to bc = cb, and bc is not cb
    with pytest.raises(ValueError, match="does not preserve the relation"):
        _check_preserves_relations(m3, {"a": "b", "b": "a", "c": "c"})


def test_relations_are_checked_without_transport(monkeypatch):
    # the relation check also runs when a letter is not an atom, on the
    # letter map extended to every letter
    maps = []
    monkeypatch.setattr(delta, "_check_preserves_relations",
                        lambda ctx, letter_map: maps.append(letter_map))
    ctx = MonoidContext(oracles.LENGTH_ONE)
    gs = build_structure(ctx, ctx.element("s1s2s1"))
    s1, s2, s3 = (ctx.presentation.encode_word(g) for g in ("s1", "s2", "s3"))
    assert maps == [{s1: s2, s2: s1, s3: s2}]


def test_phi_with_a_relation_of_length_one():
    # s3 = s1 makes s3 a letter that is not an atom; phi, letterwise on
    # canonical words, still agrees with BFS on the image word
    ctx = MonoidContext(oracles.LENGTH_ONE)
    gs = build_structure(ctx, ctx.element("s1s2s1"))
    for x in ctx.enumerate_ball(5):
        for m in range(gs.order):
            word = x.canon.translate(str.maketrans(gs.phi_atoms[m]))
            assert gs.phi(x, m).canon == min(oracles.word_class(ctx, word))
