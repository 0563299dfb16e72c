"""The B3 word problem against the reduced Burau representation.

On three strands the reduced Burau representation is faithful (Birman,
*Braids, Links, and Mapping Class Groups*, 1974), so two signed braid
words are equal in B3 exactly when their 2x2 matrices over Z[t, t^-1]
are.  The oracle is plain integer arithmetic on Laurent polynomials,
with the inverse matrices written out; it shares no code with the
congruence engine.  ``group_equal``, ``to_fraction``,
``fraction_of_signed`` and ``combine`` are checked against it on
seeded words, ``group_equal`` also on pairs with long common affixes."""

import random
import time
from collections import Counter

from garside import (build_structure, combine, fraction_of_signed,
                     group_equal, to_fraction)

# Laurent polynomials are dicts exponent -> nonzero integer coefficient.
ONE = {0: 1}
ZERO = {}


def poly(*terms):
    """The polynomial sum c t^e over the (c, e) pairs."""
    return padd(*({e: c} for c, e in terms))


def padd(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def mmul(a, b):
    return tuple(tuple(padd(*(pmul(a[i][k], b[k][j]) for k in range(2)))
                       for j in range(2)) for i in range(2))


IDENTITY = ((ONE, ZERO), (ZERO, ONE))

# sigma_i^(+1) and sigma_i^(-1)
BURAU = {
    ("s1", 1): ((poly((-1, 1)), ONE), (ZERO, ONE)),
    ("s2", 1): ((ONE, ZERO), (poly((1, 1)), poly((-1, 1)))),
    ("s1", -1): ((poly((-1, -1)), poly((1, -1))), (ZERO, ONE)),
    ("s2", -1): ((ONE, ZERO), (ONE, poly((-1, -1)))),
}


def image(word):
    """The matrix of a signed word of (generator symbol, +-1) pairs."""
    m = IDENTITY
    for letter in word:
        m = mmul(m, BURAU[letter])
    return m


def symbols(ctx, x):
    """The positive word of a monoid element, as generator symbols."""
    return [(ctx.presentation.symbol_of(c), 1) for c in x.canon]


def fraction_image(ctx, f):
    """The matrix of delta^(-k) times the tail factors for delta =
    s1s2s1, read off the factors without reducing their product."""
    delta_inv = [("s1", -1), ("s2", -1), ("s1", -1)]
    tail = [s for x in f.tail.factors for s in symbols(ctx, x)]
    return image(delta_inv * f.k + tail)


def elements(ctx, word):
    return [(ctx.element(g), s) for g, s in word]


RELATOR = [("s1", 1), ("s2", 1), ("s1", 1), ("s2", -1), ("s1", -1),
           ("s2", -1)]


def random_word(rng, n):
    return [(rng.choice(("s1", "s2")), rng.choice((1, -1)))
            for _ in range(n)]


def variant(rng, w):
    """A second word for w: with the braid relator, its inverse or a
    cancelling pair inserted (an equal braid), two adjacent letters
    swapped or all letters shuffled (the same degree, often another
    braid), or one sign flipped (another degree)."""
    w = list(w)
    i = rng.randrange(len(w) + 1)
    choice = rng.randrange(5)
    if choice == 0:
        r = (RELATOR if rng.random() < 0.5
             else [(g, -s) for g, s in reversed(RELATOR)])
        return w[:i] + r + w[i:]
    if choice == 1:
        g, s = rng.choice(("s1", "s2")), rng.choice((1, -1))
        return w[:i] + [(g, s), (g, -s)] + w[i:]
    if not w:
        return random_word(rng, 3)
    if choice == 2 and len(w) >= 2:
        j = rng.randrange(len(w) - 1)
        return w[:j] + [w[j + 1], w[j]] + w[j + 2:]
    if choice == 3:
        j = rng.randrange(len(w))
        return w[:j] + [(w[j][0], -w[j][1])] + w[j + 1:]
    return rng.sample(w, len(w))


def test_burau_matrices_satisfy_the_braid_relation():
    s1, s2 = [("s1", 1)], [("s2", 1)]
    assert image(s1 + s2 + s1) == image(s2 + s1 + s2)
    assert image(s1 + s2) != image(s2 + s1)
    for g in ("s1", "s2"):
        assert image([(g, 1), (g, -1)]) == IDENTITY
        assert image([(g, -1), (g, 1)]) == IDENTITY
    assert image(RELATOR) == IDENTITY


def test_group_equal_against_burau(b3):
    gs = build_structure(b3, b3.element("s1s2s1"))
    rng = random.Random(1974)
    seen = Counter()
    for _ in range(300):
        w1 = random_word(rng, rng.randrange(0, 7))
        w2 = variant(rng, w1)
        expected = image(w1) == image(w2)
        assert group_equal(b3, gs, elements(b3, w1),
                           elements(b3, w2)) == expected, (w1, w2)
        degree = sum(s for _, s in w1) == sum(s for _, s in w2)
        seen[expected, degree] += 1
    # unequal braids of equal degree need the fold, not the degree test
    assert seen[True, True] >= 50, seen
    assert seen[False, True] >= 30 and seen[False, False] >= 30, seen


def test_fractions_against_burau(b3):
    gs = build_structure(b3, b3.element("s1s2s1"))
    rng = random.Random(1999)
    positive = sorted(b3.enumerate_ball(4))
    forms = []
    for _ in range(60):
        num, den = rng.choice(positive), rng.choice(positive)
        f = to_fraction(b3, gs, num, den)
        inverse = [(g, -1) for g, _ in reversed(symbols(b3, den))]
        assert fraction_image(b3, f) == image(symbols(b3, num) + inverse)
        forms.append(f)
    assert any(f.k for f in forms)
    for _ in range(60):
        w = random_word(rng, rng.randrange(0, 8))
        f = fraction_of_signed(b3, gs, elements(b3, w))
        assert fraction_image(b3, f) == image(w), w
        forms.append(f)
    for _ in range(100):
        f1, f2 = rng.choice(forms), rng.choice(forms)
        assert fraction_image(b3, combine(b3, gs, f1, f2)) == mmul(
            fraction_image(b3, f1), fraction_image(b3, f2))


def test_long_words_against_burau(b3):
    gs = build_structure(b3, b3.element("s1s2s1"))
    rng = random.Random(6496)
    for positive in (0.5, 0.5, 0.8, 0.8):
        words = [[(rng.choice(("s1", "s2")),
                   1 if rng.random() < positive else -1)
                  for _ in range(rng.randrange(64, 97))] for _ in range(2)]
        t0 = time.perf_counter()
        f1, f2 = (fraction_of_signed(b3, gs, elements(b3, w)) for w in words)
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
        f = combine(b3, gs, f1, f2)
        assert time.perf_counter() - t0 < 1.0
        for form, w in ((f1, words[0]), (f2, words[1])):
            assert fraction_image(b3, form) == image(w), w
        assert fraction_image(b3, f) == image(words[0] + words[1])


def test_common_affixes_against_burau(b3):
    # group_equal drops the common prefix and suffix of the reduced
    # words; the matrices multiply them out in full
    gs = build_structure(b3, b3.element("s1s2s1"))
    rng = random.Random(2018)
    seen = Counter()
    for _ in range(100):
        prefix, suffix = random_word(rng, 40), random_word(rng, 40)
        u = random_word(rng, rng.randrange(0, 7))
        v = variant(rng, u)
        w1, w2 = prefix + u + suffix, prefix + v + suffix
        expected = image(w1) == image(w2)
        assert group_equal(b3, gs, elements(b3, w1),
                           elements(b3, w2)) == expected, (w1, w2)
        degree = sum(s for _, s in u) == sum(s for _, s in v)
        seen[expected, degree] += 1
    assert seen[True, True] >= 15, seen
    assert seen[False, True] >= 10 and seen[False, False] >= 10, seen
