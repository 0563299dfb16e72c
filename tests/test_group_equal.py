"""The group word problem on signed words: ``group_equal`` reads each
word once, checking every sign and summing its degree, and answers
False for words of different degree before anything is reduced or
folded.  Otherwise it drops the longest common prefix and suffix of the
raw words (a group is cancellative), freely reduces only the two
middles, strips again where that shortened either of them, and folds
what is left.  Checked against an unreduced fold of the whole words and
against oracles that share no code with the congruence engine."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from garside import (MonoidContext, build_structure, delta, fixture,
                     fraction_of_signed, group_equal)
from garside.delta import FractionKernel, _checked, _reduced
from garside.structure import GarsideTables
from oracles import public, step

# fixture -> its minimal Garside element
MINIMAL = {"M1": "aa", "M2": "aa", "M3": "ac", "B3": "s1s2s1",
           "free_comm(3)": "abc"}


def unreduced_key(ctx, gs, word):
    """The fraction key of a signed word folded letter by letter, with
    no free reduction and no degree test."""
    key = (0, ctx.one)
    for g, sign in word:
        key = step(gs, key, ctx.canonical(g), sign)
    return key


def expand(ctx, g, sign):
    """The letter g^sign written over the atoms of g's canonical word."""
    atoms = [ctx.canonical(c) for c in g.canon]
    if sign == 1:
        return [(a, 1) for a in atoms]
    return [(a, -1) for a in reversed(atoms)]


def variant(rng, ctx, letters, w1):
    """A second word for w1: unrelated, w1 with an inserted g g^-1 pair,
    w1 with a letter written over the atoms (same element, another raw
    length), w1 with one letter replaced by another of the same norm,
    or w1 with one letter more (another degree)."""
    choice = rng.randrange(5)
    w = list(w1)
    i = rng.randrange(len(w) + 1)
    g = rng.choice(letters)
    if choice == 0:
        return [(rng.choice(letters), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))]
    if choice == 1:
        s = rng.choice((1, -1))
        return w[:i] + [(g, s), (g, -s)] + w[i:]
    if choice == 2 and w:
        j = rng.randrange(len(w))
        return w[:j] + expand(ctx, *w[j]) + w[j + 1:]
    if choice == 3 and w:
        j = rng.randrange(len(w))
        h, s = w[j]
        others = [x for x in letters if x != h and x.norm == h.norm]
        if others:
            return w[:j] + [(rng.choice(others), s)] + w[j + 1:]
    return w[:i] + [(g, rng.choice((1, -1)))] + w[i:]


def test_group_equal_matches_an_unreduced_fold(ctx_factory):
    rng = random.Random(20011)
    for name, d in MINIMAL.items():
        ctx = ctx_factory(name)
        gs = build_structure(ctx, ctx.element(d))
        # the Garside element is a letter too, so raw length and degree
        # differ (norm 3 in B3)
        letters = sorted(ctx.ball_level(1)) + [gs.delta]
        seen = Counter()
        for _ in range(120):
            w1 = [(rng.choice(letters), rng.choice((1, -1)))
                  for _ in range(rng.randrange(0, 6))]
            w2 = variant(rng, ctx, letters, w1)
            expected = (unreduced_key(ctx, gs, w1)
                        == unreduced_key(ctx, gs, w2))
            assert group_equal(ctx, gs, w1, w2) == expected, (name, w1, w2)
            same_degree = (sum(s * g.norm for g, s in w1)
                           == sum(s * g.norm for g, s in w2))
            seen[expected, same_degree, len(w1) == len(w2)] += 1
        # equal words of different raw length, unequal words of the same
        # degree (the fold decides) and of different degrees all occur
        assert seen[True, True, False] >= 10, (name, seen)
        assert seen[False, True, True] >= 5, (name, seen)
        assert seen[False, False, True] + seen[False, False, False] >= 5, \
            (name, seen)


def answers_and_keys(name, d, queries, warm):
    """``group_equal`` on each query pair, with the public fraction key
    of each word, on a fresh context; with ``warm`` the context first
    answers the same queries in reverse order."""
    ctx = MonoidContext(fixture(name))
    gs = build_structure(ctx, ctx.element(d))
    if warm:
        for w1, w2 in reversed(queries):
            group_equal(ctx, gs, w1, w2)
    return [(group_equal(ctx, gs, w1, w2),
             [public(gs, gs.arithmetic.fold(
                 (0, gs.arithmetic.one), _reduced(_checked(ctx, w)[0])))
              for w in (w1, w2)])
            for w1, w2 in queries]


@pytest.mark.parametrize("name,d", [("M2", "ab"), ("M3", "ac"),
                                    ("B3", "s1s2s1")])
def test_answers_do_not_depend_on_how_warm_the_caches_are(name, d):
    ctx = MonoidContext(fixture(name))
    rng = random.Random(1972)
    letters = sorted(ctx.ball_level(1)) + [ctx.element(d)]
    queries = []
    for _ in range(80):
        w1 = [(rng.choice(letters), rng.choice((1, -1)))
              for _ in range(rng.randrange(0, 8))]
        queries.append((w1, variant(rng, ctx, letters, w1)))
    fresh = answers_and_keys(name, d, queries, warm=False)
    assert answers_and_keys(name, d, queries, warm=True) == fresh
    answers = Counter(same for same, _ in fresh)
    assert answers[True] >= 10 and answers[False] >= 10, answers


def test_letters_given_as_internal_words(ctx_factory):
    # free_comm(3) is commutative, so every reordering of a letter's
    # word spells the same element; "ba" and "cb" are not canonical
    ctx = ctx_factory("free_comm(3)")
    gs = build_structure(ctx, ctx.element("abc"))
    words = ["a", "b", "c", "ab", "ba", "cb", "bca", "cab"]
    rng = random.Random(20014)
    answers = Counter()
    for _ in range(80):
        w1 = [(rng.choice(words), rng.choice((1, -1)))
              for _ in range(rng.randrange(0, 6))]
        if rng.randrange(2):
            w2 = [(g[::-1], s) for g, s in w1]
            i = rng.randrange(len(w2) + 1)
            g, s = rng.choice(words), rng.choice((1, -1))
            w2[i:i] = [(g, s), (g[::-1], -s)]
        else:
            w2 = [(rng.choice(words), rng.choice((1, -1)))
                  for _ in range(rng.randrange(0, 6))]
        e1 = [(ctx.canonical(g), s) for g, s in w1]
        e2 = [(ctx.canonical(g), s) for g, s in w2]
        same = group_equal(ctx, gs, w1, w2)
        assert same == group_equal(ctx, gs, e1, e2), (w1, w2)
        assert (fraction_of_signed(ctx, gs, w1)
                == fraction_of_signed(ctx, gs, e1)), w1
        answers[same] += 1
    assert answers[True] >= 20 and answers[False] >= 20, answers


def test_a_word_cancels_against_its_element(ctx_factory):
    ctx = ctx_factory("free_comm(3)")
    gs = build_structure(ctx, ctx.element("abc"))
    word = [("ba", 1), (ctx.element("ab"), -1)]
    assert _reduced(_checked(ctx, word)[0]) == []
    assert fraction_of_signed(ctx, gs, word) == fraction_of_signed(ctx, gs, [])
    assert group_equal(ctx, gs, word, [])


def test_a_bad_sign_is_refused_before_it_cancels(ctx_factory):
    # unchecked, sign 0 would read as "not +1" and cancel "ab"
    ctx = ctx_factory("free_comm(3)")
    gs = build_structure(ctx, ctx.element("abc"))
    for word in ([("ab", 1), ("ba", 0)], [(ctx.element("ab"), -1), ("ba", 2)]):
        with pytest.raises(ValueError, match="bad sign"):
            _checked(ctx, word)
        with pytest.raises(ValueError, match="bad sign"):
            group_equal(ctx, gs, word, [])
        with pytest.raises(ValueError, match="bad sign"):
            fraction_of_signed(ctx, gs, word)


# fixture, Garside element and whether it has Garside tables: M2 with
# delta = ab has phi of order 3
STRIP_FIXTURES = [("M1", "aa", False), ("M3", "ac", False),
                  ("M2", "ab", False), ("B3", "s1s2s1", True),
                  ("free_comm(3)", "abc", True)]


def affix(rng, letters, d):
    """A signed word of 10 to 40 parts, each a letter of either sign,
    d^+-1 (the Garside element) or a cancelling pair g g^-1."""
    w = []
    for _ in range(rng.randrange(10, 41)):
        r = rng.random()
        if r < 0.1:
            w.append((d, rng.choice((1, -1))))
        elif r < 0.2:
            g, s = rng.choice(letters), rng.choice((1, -1))
            w += [(g, s), (g, -s)]
        else:
            w.append((rng.choice(letters), rng.choice((1, -1))))
    return w


def strip_setup(name, d, tables):
    ctx = MonoidContext(fixture(name))
    gs = build_structure(ctx, ctx.element(d))
    assert isinstance(gs.arithmetic, GarsideTables) == tables
    return ctx, gs, sorted(ctx.ball_level(1)) + [gs.delta]


def trivial(ctx, gs):
    """A word for the identity that free reduction leaves as it is:
    delta over its atoms, then delta^-1."""
    return expand(ctx, gs.delta, 1) + [(gs.delta, -1)]


@pytest.mark.parametrize("name,d,tables", STRIP_FIXTURES)
def test_common_affixes_against_an_unreduced_fold(name, d, tables):
    ctx, gs, letters = strip_setup(name, d, tables)
    rng = random.Random(2018)
    answers = Counter()
    for _ in range(60):
        p, s = affix(rng, letters, gs.delta), affix(rng, letters, gs.delta)
        u = [(rng.choice(letters), rng.choice((1, -1)))
             for _ in range(rng.randrange(0, 5))]
        v = variant(rng, ctx, letters, u)
        w1, w2 = p + u + s, p + v + s
        expected = unreduced_key(ctx, gs, w1) == unreduced_key(ctx, gs, w2)
        assert group_equal(ctx, gs, w1, w2) == expected, (w1, w2)
        answers[expected] += 1
    assert answers[True] >= 5 and answers[False] >= 5, answers


@pytest.mark.parametrize("name,d,tables", STRIP_FIXTURES)
def test_common_affix_edge_cases(name, d, tables):
    ctx, gs, letters = strip_setup(name, d, tables)
    rng = random.Random(2019)
    p, s = affix(rng, letters, gs.delta), affix(rng, letters, gs.delta)
    a = letters[0]
    g = rng.choice(letters)
    one = trivial(ctx, gs)
    cases = [
        (p + s, p + s, True),                        # identical words
        (p + [(g, 1), (g, -1)] + s, p + s, True),    # two empty middles
        (p, p + one, True),                          # a proper prefix
        (p, p + [(a, 1)], False),
        (p + one + s, p + s, True),                  # one middle empty
        (p + [(a, -1)] + s, p + s, False),
        ([(a, 1), (a, 1)], [(a, 1)], False),         # prefix and suffix
        ([(a, 1)], [(a, 1), (a, 1)], False),         # would overlap
        ([(a, 1)] + one + [(a, 1)], [(a, 1), (a, 1)], True),
        ([(a, 1), (a, 1)] + one, [(a, 1)] + one, False),
        ([], one, True),
    ]
    for w1, w2, same in cases:
        assert (unreduced_key(ctx, gs, w1)
                == unreduced_key(ctx, gs, w2)) == same, (w1, w2)
        assert group_equal(ctx, gs, w1, w2) == same, (w1, w2)
        assert group_equal(ctx, gs, w2, w1) == same, (w2, w1)


def counters(monkeypatch):
    """Count the calls to ``_reduced`` and to the arithmetic's ``fold``
    and the letters folded."""
    calls = Counter()
    reduced = delta._reduced

    def counting_reduced(word):
        calls["reduced"] += 1
        return reduced(word)

    def counting(fold):
        def counting_fold(self, key, word):
            word = list(word)
            calls["fold"] += 1
            calls["letters"] += len(word)
            return fold(self, key, word)
        return counting_fold

    monkeypatch.setattr(delta, "_reduced", counting_reduced)
    for arithmetic in (GarsideTables, FractionKernel):
        monkeypatch.setattr(arithmetic, "fold", counting(arithmetic.fold))
    return calls


@pytest.mark.parametrize("name,d,tables,u,v,same", [
    ("M3", "ac", False, "ac", "ca", True),
    ("M3", "ac", False, "ac", "ba", False),
    ("M3", "ac", False, "ac", "b", False),
    ("B3", "s1s2s1", True, ["s1", "s2", "s1"], ["s2", "s1", "s2"], True),
    ("B3", "s1s2s1", True, ["s1", "s2"], ["s2", "s1"], False),
])
def test_only_the_middles_are_folded(monkeypatch, name, d, tables, u, v,
                                     same):
    ctx, gs, letters = strip_setup(name, d, tables)
    calls = counters(monkeypatch)
    # positive affixes and middles: nothing cancels, so the strip takes
    # exactly p and s (u and v differ in their first and last letters)
    rng = random.Random(2020)
    p = [(rng.choice(letters), 1) for _ in range(30)]
    s = [(rng.choice(letters), 1) for _ in range(30)]
    mu = [(ctx.element(g), 1) for g in u]
    mv = [(ctx.element(g), 1) for g in v]
    assert group_equal(ctx, gs, p + mu + s, p + mv + s) == same
    # middles of different degree are refused before any fold
    assert calls["letters"] == (len(u) + len(v) if len(u) == len(v) else 0)


@pytest.mark.parametrize("name,d,tables", STRIP_FIXTURES)
def test_words_of_different_degree_are_neither_reduced_nor_folded(
        monkeypatch, name, d, tables):
    ctx, gs, letters = strip_setup(name, d, tables)
    calls = counters(monkeypatch)
    rng = random.Random(2021)
    unequal = 0
    for _ in range(80):
        w1 = affix(rng, letters, gs.delta)
        w2 = variant(rng, ctx, letters, w1)
        if (sum(s * g.norm for g, s in w1)
                == sum(s * g.norm for g, s in w2)):
            continue
        calls.clear()
        assert not group_equal(ctx, gs, w1, w2)
        assert not calls, (w1, w2, calls)
        unequal += 1
    assert unequal >= 10, unequal


def test_a_bad_sign_in_the_second_word_is_refused_past_a_degree_gap(
        ctx_factory):
    ctx = ctx_factory("free_comm(3)")
    gs = build_structure(ctx, ctx.element("abc"))
    a, b = ctx.element("a"), ctx.element("b")
    for w1 in ([(a, 1)], [(a, 1), (b, 1), (a, -1)], []):
        for w2 in ([(b, 0)], [(a, 1), (b, 1), (b, 2)], [("ab", -2)]):
            with pytest.raises(ValueError, match="bad sign"):
                group_equal(ctx, gs, w1, w2)


@pytest.mark.parametrize("where", [0, 5, 29])
@pytest.mark.parametrize("u,v,same", [("ac", "ca", True),
                                      ("ac", "ba", False)])
def test_a_pair_cancelled_in_one_prefix_only_is_stripped_again(
        monkeypatch, where, u, v, same):
    # g g^-1 inserted into one word's copy of a long positive prefix
    # stops the strip of the raw words there; the middles are reduced
    # and stripped again, so only u and v are folded (they differ in
    # their first and last letters)
    ctx, gs, letters = strip_setup("M3", "ac", False)
    rng = random.Random(2022)
    p = [(rng.choice(letters), 1) for _ in range(30)]
    s = [(rng.choice(letters), 1) for _ in range(30)]
    g = ctx.element("b")
    q = p[:where] + [(g, 1), (g, -1)] + p[where:]
    mu = [(ctx.element(x), 1) for x in u]
    mv = [(ctx.element(x), 1) for x in v]
    calls = counters(monkeypatch)
    assert group_equal(ctx, gs, q + mu + s, p + mv + s) == same
    assert calls["letters"] == len(u) + len(v)
    calls.clear()
    assert group_equal(ctx, gs, p + mu + s, q + mv + s) == same
    assert calls["letters"] == len(u) + len(v)


def test_a_bad_sign_in_a_common_affix_is_refused(ctx_factory):
    ctx = ctx_factory("free_comm(3)")
    gs = build_structure(ctx, ctx.element("abc"))
    a, b, c = (ctx.element(g) for g in "abc")
    bad = [(a, 1), (b, 0), (c, 1)]
    for w1, w2 in ((bad, list(bad)),                    # the whole word
                   (bad + [(a, 1)], bad + [(b, 1)]),    # the prefix
                   ([(a, 1)] + bad, [(b, 1)] + bad)):   # the suffix
        with pytest.raises(ValueError, match="bad sign"):
            group_equal(ctx, gs, w1, w2)


def signed_words(gens, max_size=7):
    return st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                    max_size=max_size)


@st.composite
def word_pairs(draw, gens):
    """w1 and a second word: a reordering of w1 (an equal element in an
    abelian group, same degree), the reordering times g h^-1 (same
    degree, often unequal), or an unrelated word."""
    w1 = draw(signed_words(gens))
    kind = draw(st.sampled_from(("permuted", "balanced", "unrelated")))
    if kind == "unrelated":
        return w1, draw(signed_words(gens))
    w2 = draw(st.permutations(w1))
    if kind == "balanced":
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        w2 = w2 + [(g, 1), (h, -1)]
    return w1, w2


def exponent_sums(word):
    sums = Counter()
    for g, s in word:
        sums[g] += s
    return sums


def check_against(ctx, d, w1, w2, invariant):
    gs = build_structure(ctx, ctx.element(d))
    letter = {g: ctx.element(g) for g in ctx.presentation.generators}
    a = [(letter[g], s) for g, s in w1]
    b = [(letter[g], s) for g, s in w2]
    assert group_equal(ctx, gs, a, b) == (invariant(w1) == invariant(w2))


ORACLE = settings(derandomize=True, deadline=None, max_examples=150)


@ORACLE
@given(word_pairs(("a", "b", "c")))
def test_group_equal_free_comm_against_exponent_vectors(ctx_factory, pair):
    # the group of fractions of free_comm(3) is Z^3
    def vector(w):
        sums = exponent_sums(w)
        return sums["a"], sums["b"], sums["c"]
    check_against(ctx_factory("free_comm(3)"), "abc", *pair, vector)


@ORACLE
@given(word_pairs(("a", "b")))
def test_group_equal_m1_against_z_plus_z2(ctx_factory, pair):
    # M1 = <a, b | aa = bb, ab = ba> has group Z + Z/2,
    # a^i b^j -> (i + j, j mod 2)
    def image(w):
        sums = exponent_sums(w)
        return sums["a"] + sums["b"], sums["b"] % 2
    check_against(ctx_factory("M1"), "aa", *pair, image)
