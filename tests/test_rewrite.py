"""The rewriting kernel: canonical forms and left division from
length-bounded completions, and the ball scan that replaces them where
left cancellation is not certified, checked against the BFS classes of
``oracles`` and against closed forms that share no code with the
package."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from garside import (MonoidContext, ResourceLimitExceeded, build_structure,
                     fixture)
from garside.delta import _strip
from garside.rewrite import Completion, completion
import oracles
from oracles import B4, CYCLIC, LENGTH_ONE, NOT_LEFT_CANCELLATIVE

FIVE = ("M1", "M2", "M3", "B3", "free_comm(3)")


def words(chars, lo, hi):
    for n in range(lo, hi + 1):
        yield from map("".join, itertools.product(chars, repeat=n))


def class_quotient(ctx, x, y):
    """The least z with x z = y, from the BFS classes of x and y."""
    if len(x) > len(y):
        return None
    xcls = oracles.word_class(ctx, x)
    rests = [w[len(x):] for w in oracles.word_class(ctx, y)
             if w[:len(x)] in xcls]
    return min(rests) if rests else None


def check_against_classes(ctx, x, y):
    z = ctx.left_divides(x, y)
    expected = class_quotient(ctx, x, y)
    assert (None if z is None else z.canon) == expected, (x, y)
    assert ctx.divides(x, y) == (expected is not None), (x, y)


# every ball the suite enumerates, at its largest radius, and two more
BALLS = [(fixture(name), r) for name, r in
         (("M1", 6), ("M2", 6), ("M3", 6), ("B3", 6), ("free(2)", 4),
          ("free_comm(2)", 4), ("free_comm(3)", 5))] + [
    (LENGTH_ONE, 5), (B4, 7), (CYCLIC, 6)]


@pytest.mark.parametrize("presentation,radius", BALLS,
                         ids=[p.name or "length_one" for p, _ in BALLS])
def test_kernel_matches_bfs_classes_on_the_balls(presentation, radius):
    ctx = MonoidContext(presentation)
    chars = presentation.chars
    for w in words(chars, 0, radius):
        assert ctx.canonical(w).canon == min(oracles.word_class(ctx, w)), w
    for y in ctx.enumerate_ball(radius):
        for x in words(chars, 1, 3):
            check_against_classes(ctx, x, y.canon)
    assert ctx.ball_fallbacks == 0


# closed forms of three fixtures: the least word of the class of w


def m1_canon(w):
    # M1 = <a, b | aa = bb, ab = ba>: length and the parity of #b
    n = len(w)
    return "a" * n if w.count("b") % 2 == 0 else "a" * (n - 1) + "b"


def m2_canon(w):
    # M2: length and the alternating sum of the letters a, b, c = 0, 1, 2
    # modulo 3, which each relation (ab = bc = ca and so on) preserves
    if not w:
        return ""
    value = sum((-1) ** i * "abc".index(c) for i, c in enumerate(w))
    return "a" * (len(w) - 1) + "abc"[value * (-1) ** (len(w) - 1) % 3]


def free_comm_canon(w):
    return "".join(sorted(w))


CLOSED = {"M1": m1_canon, "M2": m2_canon, "free_comm(3)": free_comm_canon}


def closed_quotient(canon, chars, x, y):
    """The least z with x z = y, among the canonical words of the right
    norm; for these three monoids the letter-sorted words of a norm
    meet every element of it."""
    n = len(y) - len(x)
    if n < 0:
        return None
    level = {canon("".join(t))
             for t in itertools.combinations_with_replacement(chars, n)}
    hits = sorted(z for z in level if canon(x + z) == canon(y))
    return hits[0] if hits else None


@st.composite
def quotient_pairs(draw, chars, longest):
    """x of 1-3 letters and y of at most ``longest``, half of them with
    x as a literal prefix of y."""
    letter = st.sampled_from(chars)
    x = "".join(draw(st.lists(letter, min_size=1, max_size=3)))
    rest = "".join(draw(st.lists(letter, max_size=longest - len(x))))
    if draw(st.booleans()):
        return x, x + rest
    return x, "".join(draw(st.lists(letter, min_size=len(rest) + len(x),
                                    max_size=len(rest) + len(x))))


KERNEL = settings(derandomize=True, deadline=None, max_examples=80)


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_kernel_matches_closed_forms(name):
    ctx = MonoidContext(fixture(name))
    chars = ctx.presentation.chars
    canon = CLOSED[name]

    @KERNEL
    @given(quotient_pairs(chars, 14))
    def check(pair):
        x, y = pair
        assert ctx.canonical(y).canon == canon(y)
        z = ctx.left_divides(x, y)
        assert (None if z is None else z.canon) == \
            closed_quotient(canon, chars, x, y), pair

    check()


@pytest.mark.parametrize("name,longest", [("B3", 14), ("M3", 8)])
def test_kernel_matches_bfs_classes_on_random_words(name, longest):
    ctx = MonoidContext(fixture(name))

    @KERNEL
    @given(quotient_pairs(ctx.presentation.chars, longest))
    def check(pair):
        x, y = pair
        assert ctx.canonical(y).canon == min(oracles.word_class(ctx, y))
        check_against_classes(ctx, x, y)

    check()


@pytest.mark.parametrize("name", FIVE)
def test_completion_grown_in_steps_equals_one_grown_at_once(name):
    # completions are shared between contexts and grow with the longest
    # word asked for, so the steps taken must not matter
    p = fixture(name)
    rng = random.Random(6)
    sample = ["".join(rng.choice(p.chars) for _ in range(rng.randrange(21)))
              for _ in range(300)]
    for c in p.chars:
        order = c + p.chars.replace(c, "")
        steps = Completion(p.relations, order)
        for n in range(4, 21, 4):
            steps.complete(n)
        once = Completion(p.relations, order)
        once.complete(20)
        assert steps.rules == once.rules
        assert [steps.reduce(w) for w in sample] == \
            [once.reduce(w) for w in sample]


def test_left_division_falls_back_where_cancellation_fails():
    # a b = a a with b != a: a does not cancel on the left, b does
    p = NOT_LEFT_CANCELLATIVE
    assert not completion(p.relations, "ab").left_cancellative(2)
    assert completion(p.relations, "ba").left_cancellative(8)
    ctx = MonoidContext(p)
    ctx.left_divides("b", "bab")
    assert ctx.ball_fallbacks == 0
    ctx.left_divides("a", "ab")
    assert ctx.ball_fallbacks == 1
    for y in words(p.chars, 0, 5):
        for x in words(p.chars, 1, 3):
            check_against_classes(ctx, x, y)


def test_complements_read_classes_once_per_pair():
    # on a b = a a the ball is scanned for pairs whose x has an a; a
    # second pass over the same pairs is answered from the memo
    ctx = MonoidContext(NOT_LEFT_CANCELLATIVE)
    # x longer than y, before any ball level is built
    assert ctx.complements("aaa", "ab") == frozenset()
    pairs = [(x, y) for y in words("ab", 0, 5) for x in words("ab", 1, 3)]
    first = [ctx.complements(x, y) for x, y in pairs]
    fallbacks = ctx.ball_fallbacks
    distinct = {(ctx.canonical(x), ctx.canonical(y)) for x, y in pairs
                if "a" in x}
    assert 0 < fallbacks <= len(distinct)
    assert [ctx.complements(x, y) for x, y in pairs] == first
    for x, y in pairs:
        ctx.left_divides(x, y)
    assert ctx.ball_fallbacks == fallbacks
    # every memo entry counts against max_cached_words
    assert ctx._cached_words == (len(ctx._canon)
                                 + len(ctx._left_complements)
                                 + len(ctx._ball_complements))
    for (x, y), got in zip(pairs, first):
        assert got == oracles.left_complements(ctx, x, y), (x, y)


def _cancels_left(p, letters, bound):
    """Does each of the letters cancel on the left up to the bound?"""
    return all(completion(p.relations, c + p.chars.replace(c, ""))
               .left_cancellative(bound) for c in letters)


# the presentations where some letter does not cancel on the left up to
# norm 6, so that complements scans the ball
BALL_SCANNED = [NOT_LEFT_CANCELLATIVE] + [
    p for p in map(oracles.random_presentation, range(60))
    if not _cancels_left(p, p.chars, 6)]


@pytest.mark.parametrize("presentation", BALL_SCANNED,
                         ids=[p.name or "ab=aa" for p in BALL_SCANNED])
def test_ball_scan_matches_the_bfs_complements(presentation):
    ctx = MonoidContext(presentation)
    chars = presentation.chars
    pairs = [(x, y) for x in words(chars, 1, 2) for y in words(chars, 0, 5)]
    first = [ctx.complements(x, y) for x, y in pairs]
    # the oracle's answer depends on the elements only: ask it once each
    expected = {}
    for (x, y), got in zip(pairs, first):
        key = ctx.canonical(x), ctx.canonical(y)
        if key not in expected:
            expected[key] = oracles.left_complements(ctx, *key)
        assert got == expected[key], (x, y)
    # the scan runs once per distinct pair of elements whose x has a
    # letter that does not cancel up to norm(y)
    scanned = {(x, y) for x, y in expected
               if not _cancels_left(presentation, x.canon, y.norm)}
    assert scanned
    assert ctx.ball_fallbacks == len(scanned)
    assert [ctx.complements(x, y) for x, y in pairs] == first
    assert ctx.ball_fallbacks == len(scanned)


def test_ball_scan_stops_at_the_ball_cap():
    ctx = MonoidContext(NOT_LEFT_CANCELLATIVE, max_ball_elements=10)
    with pytest.raises(ResourceLimitExceeded) as exc:
        ctx.complements("a", "a" * 12)
    assert str(exc.value).startswith("ball enumeration exceeded 10 elements")
    assert exc.value.level is not None
    assert ("a", "a" * 12) not in ctx._ball_complements
    assert ctx.ball_fallbacks == 0


def test_long_left_divisions_where_cancellation_fails():
    # on a b = a a every word a w is congruent to a^n, so a divides a
    # word exactly when the word starts with a; the classes of these
    # 24-letter words are far too large to enumerate, the ball is not
    ctx = MonoidContext(NOT_LEFT_CANCELLATIVE)
    rng = random.Random(24)
    for _ in range(20):
        y = "".join(rng.choice("ab") for _ in range(24))
        z = ctx.left_divides("a", y)
        assert (z is None) == (y[0] != "a"), y
        if z is not None:
            assert ctx.mul("a", z) == ctx.canonical(y)


def test_the_fixtures_pass_the_cancellation_gate():
    for name in FIVE:
        p = fixture(name)
        for c in p.chars:
            kernel = completion(p.relations, c + p.chars.replace(c, ""))
            # failing is monotone in the bound: passing here covers every
            # bound below
            assert kernel.left_cancellative(max(kernel.bound, 16)), (name, c)


def test_long_m2_words_need_no_class():
    ctx = MonoidContext(fixture("M2"))
    assert ctx.canonical("b" * 16).canon == "a" * 16
    assert ctx.canonical("c" * 17).canon == m2_canon("c" * 17)
    gs = build_structure(ctx, ctx.element("aa"))
    x = ctx.canonical("c" * 16)
    assert _strip(gs, 8, x) == (0, ctx.one)
    assert _strip(gs, 9, x) == (1, ctx.one)
    # every norm-n element is a^(n-1) c, so aa divides it down to norm 2
    assert _strip(gs, 9, ctx.canonical("cb" * 8)) == (2, ctx.canonical("ab"))
    assert ctx.ball_fallbacks == 0


def test_kernel_memos_stop_at_the_word_cap():
    cap = 6
    ctx = MonoidContext(fixture("B3"), max_cached_words=cap)
    with pytest.raises(ResourceLimitExceeded) as exc:
        for y in words("ab", 1, 4):
            ctx.left_divides("a", y)
    assert str(exc.value).startswith(
        f"word cache cap ({cap}) exceeded: {cap} words cached")
    assert ctx._cached_words == cap
    assert len(ctx._canon) + len(ctx._left_complements) == cap
