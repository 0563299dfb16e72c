import itertools
import pathlib

import pytest

import oracles
from garside import (Element, MonoidContext, PresentationError, Presentation,
                     ResourceLimitExceeded, divisors, fixture,
                     parse_presentation, right_divisors)


def test_element_ordering_is_shortlex():
    assert Element("") < Element("a")
    assert Element("b") < Element("aa")
    assert Element("ab") < Element("b a".replace(" ", ""))
    assert sorted([Element("ba"), Element("b"), Element("ab")]) == [
        Element("b"), Element("ab"), Element("ba")]


def test_classes_m1(m1):
    # the oracle's BFS classes; each word's canonical word is their least
    assert oracles.word_class(m1, "aab") == frozenset({"aab", "aba", "baa",
                                                       "bbb"})
    assert oracles.word_class(m1, "aaa") == frozenset({"aaa", "abb", "bba",
                                                       "bab"})
    assert oracles.word_class(m1, "aa") == frozenset({"aa", "bb"})
    assert oracles.word_class(m1, "ab") == frozenset({"ab", "ba"})
    for w in ("aab", "aaa", "aa", "ab"):
        for v in oracles.word_class(m1, w):
            assert m1.canonical(v).canon == min(oracles.word_class(m1, w))
    assert m1.canonical("bbb") == Element("aab")
    assert m1.canonical("ba") == Element("ab")


def test_classes_m2(m2):
    assert oracles.word_class(m2, "ba") == frozenset({"ba", "ac", "cb"})
    for w in ("ba", "ac", "cb"):
        assert m2.canonical(w) == Element("ac")


def test_element_and_show(b3):
    d = b3.element("s1s2s1")
    assert d.canon == "aba"
    assert d.norm == 3
    assert b3.show(d) == "s1s2s1"
    assert b3.show(b3.one) == "1"
    assert b3.equal("aba", "bab")
    assert not b3.equal("ab", "ba")
    assert not b3.equal("a", "ab")
    with pytest.raises(PresentationError):
        b3.element("q")
    with pytest.raises(PresentationError):
        # raw internal words must stay in the internal alphabet
        b3.canonical("xz")


def test_mul(m1):
    a = m1.element("a")
    b = m1.element("b")
    assert m1.mul(a, b) == Element("ab")
    assert m1.mul(b, a) == Element("ab")
    assert m1.mul(b, b) == Element("aa")
    assert m1.mul(m1.one, a) == a
    assert m1.mul(a, m1.one) == a


def test_ball_levels(m1, m2, b3):
    assert [len(m1.ball_level(n)) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    assert len(m1.enumerate_ball(2)) == 5
    assert [len(m2.ball_level(n)) for n in range(5)] == [1, 3, 3, 3, 3]
    assert [len(b3.ball_level(n)) for n in range(7)] == [1, 2, 4, 7, 12, 20, 33]


def test_no_ball_level_of_negative_norm():
    # on a fresh context, and on one whose levels are built: no level
    # is read from the end of the list
    ctx = MonoidContext(fixture("M1"))
    with pytest.raises(ValueError, match="negative norm -1"):
        ctx.ball_level(-1)
    assert len(ctx.ball_level(3)) == 2
    with pytest.raises(ValueError, match="negative norm -1"):
        ctx.ball_level(-1)
    assert ctx.enumerate_ball(-1) == frozenset()
    # complements keeps its own guard where it scans the ball
    ctx = MonoidContext(oracles.NOT_LEFT_CANCELLATIVE)
    ctx.ball_level(3)
    assert ctx.complements("aaa", "ab") == frozenset()
    assert ctx.ball_fallbacks == 1


def test_free_monoid_balls():
    ctx = MonoidContext(fixture("free(2)"))
    assert [len(ctx.ball_level(n)) for n in range(5)] == [1, 2, 4, 8, 16]


def test_divides_m1(m1):
    a = m1.element("a")
    b = m1.element("b")
    ab = m1.element("ab")
    aa = m1.element("aa")
    assert m1.divides(a, ab)
    assert m1.divides(b, ab)
    assert m1.divides(b, aa)
    assert not m1.divides(aa, ab)
    assert not m1.divides(ab, aa)
    assert m1.divides(m1.one, ab)
    assert m1.divides(ab, ab)
    # complements: least word of the complement class
    assert m1.left_divides(a, ab) == b
    assert m1.left_divides(b, ab) == a
    assert m1.left_divides(b, aa) == b
    assert m1.left_divides(aa, ab) is None
    assert oracles.right_divides(m1, b, ab) == a
    assert oracles.right_divides(m1, a, aa) == a
    assert oracles.right_divides(m1, b, aa) == b
    assert m1.left_divides(m1.one, ab) == ab


def test_divisibility_consistency_on_ball(m1, b3):
    # x divides x*y, and the reported complement multiplies back
    for ctx in (m1, b3):
        ball = sorted(ctx.enumerate_ball(3))
        for x in ball:
            for y in ball:
                z = ctx.mul(x, y)
                assert ctx.divides(x, z)
                comp = ctx.left_divides(x, z)
                assert comp is not None
                assert ctx.mul(x, comp) == z
                # cancellative fixtures: the complement is exactly y
                assert comp == y
                rcomp = oracles.right_divides(ctx, y, z)
                assert rcomp is not None and ctx.mul(rcomp, y) == z


def test_prefix_suffix_sets(m1):
    # the words of the divisors of one norm are the length-l prefixes
    # (suffixes) of the words of the class
    def words(xs, norm):
        return {w for x in xs if x.norm == norm
                for w in oracles.word_class(m1, x)}

    aa = m1.element("aa")
    assert words(divisors(m1, aa), 1) == {"a", "b"}
    assert words(right_divisors(m1, aa), 1) == {"a", "b"}
    assert words(divisors(m1, aa), 0) == {""}
    aab = m1.element("aab")
    assert words(divisors(m1, aab), 2) == {"aa", "ab", "ba", "bb"}


def test_cancellativity_check(m1, b3, m2, m3):
    for ctx in (m1, m2, m3, b3):
        rep = ctx.check_cancellative_bounded(6)
        assert rep.passed, rep.summary()
        assert rep.details["radius"] == 6
    bad = MonoidContext(Presentation(["a", "b"], [("ab", "aa")]))
    rep = bad.check_cancellative_bounded(4)
    assert not rep.passed
    assert rep.witness["side"] in ("left", "right")


# the fixtures, presentations that fail cancellation on one side or
# identify letters, and 60 seeded random ones
SCANNED = [fixture(name) for name in ("M1", "M2", "M3", "B3",
                                      "free_comm(3)")] + [
    oracles.NOT_LEFT_CANCELLATIVE, oracles.NOT_RIGHT_CANCELLATIVE,
    oracles.LENGTH_ONE, oracles.B4, oracles.CYCLIC,
    parse_presentation("gens: a b c\nrels: a = b; bc = ca")] + [
    oracles.random_presentation(seed) for seed in range(60)]


@pytest.mark.parametrize(
    "presentation", SCANNED,
    ids=[p.name or "/".join(map("=".join, p.relations)) for p in SCANNED])
def test_cancellativity_reports_match_the_ball_scan(presentation):
    reference = MonoidContext(presentation)
    for radius in range(1, 8):
        report = MonoidContext(presentation).check_cancellative_bounded(radius)
        assert report == oracles.cancellation_scan(reference, radius), radius


def test_passing_cancellativity_builds_no_ball():
    text = (pathlib.Path(__file__).parent / "data" / "b5.txt").read_text()
    ctx = MonoidContext(parse_presentation(text, name="B5"))
    assert ctx.check_cancellative_bounded(10).passed
    assert ctx._levels == []


MEMO_FULL = ("word cache cap ({0}) exceeded: {0} words cached, and a "
             "memo entry needs 1 more")


def test_word_cache_cap():
    # each left division memoises canonical forms and a left complement,
    # until five entries fill the cap
    ctx = MonoidContext(fixture("B3"), max_cached_words=5)
    with pytest.raises(ResourceLimitExceeded) as exc:
        for n in range(1, 9):
            ctx.left_divides("a", "ab" * n)
            assert ctx._cached_words <= 5
    assert str(exc.value) == MEMO_FULL.format(5)
    assert ctx._cached_words == 5


def test_word_cache_cap_message_counts_cached_words():
    ctx = MonoidContext(fixture("M1"), max_cached_words=2)
    ctx.canonical("aa")
    ctx.canonical("bb")  # two canonical entries fill the cache
    assert ctx.canonical("aa") == ctx.canonical("bb")  # memo hits
    with pytest.raises(ResourceLimitExceeded) as exc:
        ctx.canonical("a")
    assert str(exc.value) == MEMO_FULL.format(2)
    assert ctx._cached_words == 2


def test_ball_cap():
    ctx = MonoidContext(fixture("free(3)"), max_ball_elements=10)
    with pytest.raises(ResourceLimitExceeded) as exc:
        ctx.enumerate_ball(4)
    assert exc.value.level is not None


def test_word_cache_cap_fires_on_the_insertion_that_overshoots():
    # the norm-8 words are 3^8 distinct keys; the 101st one raises
    ctx = MonoidContext(fixture("M2"), max_cached_words=100)
    asked = 0
    with pytest.raises(ResourceLimitExceeded) as exc:
        for w in itertools.product("abc", repeat=8):
            ctx.canonical("".join(w))
            asked += 1
            assert ctx._cached_words <= 100
    assert asked == 100
    assert str(exc.value) == MEMO_FULL.format(100)
    assert ctx._cached_words == len(ctx._canon) == 100


def test_left_divides_memo_matches_a_fresh_context(b3):
    ball = sorted(b3.enumerate_ball(3))
    first = {(x, y): b3.left_divides(x, y) for x in ball for y in ball}
    fresh = MonoidContext(fixture("B3"))
    for (x, y), z in first.items():
        assert b3.left_divides(x, y) == z
        assert fresh.left_divides(x.canon, y.canon) == z
