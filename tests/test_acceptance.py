"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single summary
line ("ACCEPTANCE n: PASS/FAIL - ..."); run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they appear.  All set comparisons are exact and
all inequality checks are hard bounds with no tolerance.  Each
criterion runs on fresh contexts, so no result depends on caches that
another test warmed.
"""

import itertools
import random
from collections import Counter
from contextlib import contextmanager

import pytest

import oracles
from conftest import context_factory
from garside import (DELTA_INV, atoms, build_automaton, build_structure,
                     check_normal_uniqueness_criterion, check_uniform_length,
                     covers, divisors, divisors_in, enumerate_simples,
                     find_minimal_garside, fraction_of_signed, ftp_probe,
                     grid_prove_equality, group_equal, growth, is_normal,
                     is_spanning, mcms, normalize_all, primitive_closure,
                     prove_group_identity, right_divisors)

SEED = 20260815


@pytest.fixture
def ctx_factory():
    return context_factory()


@pytest.fixture
def m1(ctx_factory):
    return ctx_factory("M1")


@pytest.fixture
def m2(ctx_factory):
    return ctx_factory("M2")


@pytest.fixture
def m3(ctx_factory):
    return ctx_factory("M3")


@pytest.fixture
def b3(ctx_factory):
    return ctx_factory("B3")


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {summary}")


def shown(ctx, elements):
    return {ctx.show(x) for x in elements}


def test_criterion_01_fixture_inventories(m1, m2, m3, ctx_factory):
    with criterion(1, "atom, primitive and simple inventories are exact"):
        assert shown(m1, atoms(m1)) == {"a", "b"}
        p1 = primitive_closure(m1)
        assert shown(m1, p1.members) == {"1", "a", "b"}
        assert shown(m1, enumerate_simples(m1, p1).members) == {
            "1", "a", "b", "aa", "ab"}
        for ctx in (m2, m3):
            assert shown(ctx, primitive_closure(ctx).members) == {
                "1", "a", "b", "c"}
        assert len(enumerate_simples(m3, primitive_closure(m3)).members) == 7
        for n in range(1, 5):
            ctx = ctx_factory(f"free_comm({n})")
            p = primitive_closure(ctx)
            assert len(p.members) == n + 1
            assert len(enumerate_simples(ctx, p).members) == 2 ** n


def test_criterion_02_mcm_non_uniqueness(m1):
    with criterion(2, "mcms(a, b) in M1 is exactly {aa, ab}, incomparable"):
        res = mcms(m1, m1.element("a"), m1.element("b"))
        assert res.complete
        assert shown(m1, res.mcms) == {"aa", "ab"}
        x, y = sorted(res.mcms)
        assert not m1.divides(x, y)
        assert not m1.divides(y, x)


def test_criterion_03_minimal_garside_sets(m1, m2, m3):
    with criterion(3, "minimal Garside elements within norm 4; Div(aa) spans M1"):
        assert shown(m1, find_minimal_garside(m1).minimal) == {"aa", "ab"}
        assert shown(m2, find_minimal_garside(m2).minimal) == {"aa", "ab", "ac"}
        m3_minimal = find_minimal_garside(m3).minimal
        assert shown(m3, m3_minimal) == {"ac"}
        assert m3.equal(m3.element("bb"), m3.element("ac"))
        div_aa = divisors(m1, m1.element("aa"))
        assert shown(m1, div_aa.members) == {"1", "a", "b", "aa"}
        assert is_spanning(m1, div_aa).passed


def test_criterion_04_automorphism_orders_and_centrality(m1, m2, m3, b3):
    with criterion(4, "phi orders 1/3/3 on M2 with inverse 3-cycles; "
                      "delta^e central on radius-4 balls"):
        gs_aa = build_structure(m2, m2.element("aa"))
        gs_ab = build_structure(m2, m2.element("ab"))
        gs_ac = build_structure(m2, m2.element("ac"))
        assert gs_aa.order == 1
        assert gs_ab.order == 3
        assert gs_ac.order == 3

        def action(gs):
            return {name: m2.show(gs.phi(m2.element(name)))
                    for name in ("a", "b", "c")}

        cyc_ab = action(gs_ab)
        cyc_ac = action(gs_ac)
        assert cyc_ab == {"a": "c", "b": "a", "c": "b"}
        assert cyc_ac == {"a": "b", "b": "c", "c": "a"}
        assert all(cyc_ab[cyc_ac[x]] == x for x in "abc")
        for ctx in (m1, m2, m3, b3):
            for delta in find_minimal_garside(ctx).minimal:
                gs = build_structure(ctx, delta)
                ball = ctx.enumerate_ball(4)
                assert oracles.centrality_failure(gs, ball) is None


def test_criterion_05_divisor_power_equalities(m1, m3, b3):
    with criterion(5, "Div(delta^k) = Div(delta)^k = RDiv(delta^k) for k <= 3"):
        for ctx, name in ((m1, "aa"), (m3, "bb"), (b3, "s1s2s1")):
            delta = ctx.element(name)
            base = divisors(ctx, delta).members
            power = ctx.one
            products = {ctx.one}
            for k in (1, 2, 3):
                power = ctx.mul(power, delta)
                products = {ctx.mul(x, y) for x in products for y in base}
                left = divisors(ctx, power).members
                right = right_divisors(ctx, power).members
                assert left == frozenset(products)
                assert right == frozenset(products)


def test_criterion_06_form_multiplicity_and_uniformity(m1, m2, m3):
    with criterion(6, "a^4 has exactly two forms; uniform lengths to radius 6; "
                      "uniqueness criterion holds on M2"):
        forms = normalize_all(m1, primitive_closure(m1), m1.element("aaaa"))
        assert {tuple(m1.show(f) for f in seq.factors) for seq in forms} == {
            ("aa", "aa"), ("ab", "ab")}
        unique = {}
        for ctx, names in ((m1, ("aa", "ab")),
                           (m2, ("aa", "ab", "ac")),
                           (m3, ("ac",))):
            for name in names:
                gs = build_structure(ctx, ctx.element(name))
                rep = check_uniform_length(ctx, gs, 6)
                assert rep.passed
                unique[(ctx.presentation.name, name)] = \
                    rep.details["unique_forms"]
        assert unique[("M1", "aa")] and unique[("M1", "ab")]
        assert unique[("M3", "ac")]
        rep = check_normal_uniqueness_criterion(
            m2, build_structure(m2, m2.element("aa")))
        assert rep.passed
        pairs = {tuple(sorted(w["pair"])) for w in rep.details["witnesses"]}
        assert ("ab", "ac") in pairs


def _suffix_products(ctx, seq):
    acc = ctx.one
    out = []
    for x in reversed(seq):
        acc = ctx.mul(x, acc)
        out.append(acc)
    out.reverse()
    return out


def test_criterion_07_local_characterization(m1, m3, b3):
    with criterion(7, "prenormal iff adjacent covering on radius-5 balls; "
                      "maximal-head greediness is not local"):
        for ctx in (m1, m3, b3):
            S = primitive_closure(ctx)
            spheres = {n: sorted(ctx.ball_level(n)) for n in range(1, 5)}
            dsets = {}

            def dset(x, ctx=ctx, S=S, dsets=dsets):
                if x not in dsets:
                    dsets[x] = divisors_in(ctx, S, x)
                return dsets[x]

            sequences = []

            def extend(seq, total):
                if len(seq) >= 2:
                    sequences.append(tuple(seq))
                for n in range(1, min(4, 5 - total) + 1):
                    for x in spheres[n]:
                        seq.append(x)
                        extend(seq, total + n)
                        seq.pop()

            extend([], 0)
            seen = Counter()
            for seq in sequences:
                tails = _suffix_products(ctx, seq)
                prenormal = all(dset(seq[i]) == dset(tails[i])
                                for i in range(len(seq)))
                local = all(covers(ctx, S, seq[i], seq[i + 1])
                            for i in range(len(seq) - 1))
                assert prenormal == local
                seen[prenormal] += 1
            assert seen[True] and seen[False]

        # the maximal-divisor head rule is not local: over Div(aa) in M1
        # both (a, b) and (b, a) have maximal heads, yet in the triple
        # (a, b, a) the head a is no longer maximal in Div(aba) once the
        # larger divisor aa appears
        S = divisors(m1, m1.element("aa"))

        def maxdiv(x):
            ds = [d for d in divisors_in(m1, S, x) if d.norm]
            return {d for d in ds
                    if not any(d != e and m1.divides(d, e) for e in ds)}

        a, b, aa = m1.element("a"), m1.element("b"), m1.element("aa")
        assert a in maxdiv(m1.mul(a, b))
        assert b in maxdiv(m1.mul(b, a))
        aba = m1.mul(m1.mul(a, b), a)
        assert aa in maxdiv(aba)
        assert a not in maxdiv(aba)


def _random_letter_word(rng, letters, max_norm):
    word = []
    total = 0
    target = rng.randint(1, max_norm)
    while total < target:
        fitting = [x for x in letters if x.norm <= target - total]
        if not fitting:
            break
        pick = rng.choice(fitting)
        word.append(pick)
        total += pick.norm
    return tuple(word)


def test_criterion_08_isoperimetric_bounds(m1, m2, m3, b3, ctx_factory):
    with criterion(8, "grid derivations within (p+q)^2/4 + (p+q); "
                      "identity derivations within 5n^2/4"):
        rng = random.Random(SEED)
        contexts = [m1, m2, m3, b3, ctx_factory("free_comm(3)")]
        for ctx in contexts:
            S = primitive_closure(ctx)
            assert is_spanning(ctx, S).passed
            letters = sorted(x for x in S.members if x.norm)
            longest = 0
            rewrites = 0
            for _ in range(200):
                u = _random_letter_word(rng, letters, 8)
                product = ctx.one
                for x in u:
                    product = ctx.mul(product, x)
                v = []
                rest = product
                while rest.norm:
                    s = rng.choice([s for s in letters if ctx.divides(s, rest)])
                    v.append(s)
                    rest = ctx.left_divides(s, rest)
                derivation = grid_prove_equality(ctx, S, u, tuple(v))
                p, q = len(u), len(v)
                assert derivation.relation_count <= (p + q) ** 2 / 4 + (p + q)
                longest = max(longest, p + q)
                rewrites += derivation.relation_count
            assert longest >= 10
            assert rewrites > 0
        for ctx in (m1, m2, m3):
            S = primitive_closure(ctx)
            gens = sorted(atoms(ctx))
            relations = ctx.presentation.relations
            for _ in range(200):
                style = rng.randrange(3)
                if style == 0:
                    w = [rng.choice(gens) for _ in range(rng.randint(1, 5))]
                    word = [(g, 1) for g in w] + [(g, -1) for g in reversed(w)]
                else:
                    lhs, rhs = rng.choice(relations)
                    word = ([(ctx.canonical(ch), 1) for ch in lhs]
                            + [(ctx.canonical(ch), -1) for ch in reversed(rhs)])
                    if style == 2:
                        g = rng.choice(gens)
                        word = [(g, -1)] + word + [(g, 1)]
                n = len(word)
                derivation = prove_group_identity(ctx, S, word)
                assert derivation.relation_count <= 5 * n * n / 4


def _fixture_structures(m1, m2, m3, b3, fc3):
    out = []
    for ctx in (m1, m2, m3, b3, fc3):
        for delta in find_minimal_garside(ctx).minimal:
            out.append((ctx, build_structure(ctx, delta)))
    return out


def test_criterion_09_automaton_language_and_growth(m1, m2, m3, b3,
                                                    ctx_factory):
    with criterion(9, "accepted words = brute-force normal sequences; short "
                      "signed words hit accepted values; growth counts "
                      "elements and obeys its recurrence"):
        structures = _fixture_structures(m1, m2, m3, b3,
                                         ctx_factory("free_comm(3)"))
        for ctx, gs in structures:
            auto = build_automaton(ctx, gs)
            letters = sorted(x for x in gs.div_delta.members if x.norm)
            for n in (1, 2, 3, 4):
                for word in itertools.product(letters, repeat=n):
                    assert auto.accepts(word) == is_normal(
                        ctx, gs.div_delta, word)

            gens = sorted(atoms(ctx))
            signed = [(g, s) for g in gens for s in (1, -1)]
            for n in (1, 2, 3):
                for combo in itertools.product(signed, repeat=n):
                    form = fraction_of_signed(ctx, gs, combo)
                    assert auto.accepts(form.letters(DELTA_INV))

            buckets = Counter()
            for x in ctx.enumerate_ball(4 * gs.delta.norm):
                forms = normalize_all(ctx, gs.div_delta, x)
                assert len(forms) == 1
                buckets[len(next(iter(forms)))] += 1
            series = growth(ctx, gs, 4, mode="monoid", unique_forms=True)
            assert list(series.coefficients) == [buckets.get(n, 0)
                                                 for n in range(5)]
            longer = growth(ctx, gs, 2 * len(letters) + 6, mode="monoid")
            assert longer.check_recurrence()
            assert longer.coefficients[:5] == series.coefficients


def test_criterion_10_fellow_traveller_bounds(m1, m2, m3, b3, ctx_factory):
    with criterion(10, "radius-5 synchronous distances within 2(k-1) and 3k; "
                       "sliding bound 1 for Garside divisor letters"):
        sliding_simple = {}
        for ctx in (m1, m2, m3, b3, ctx_factory("free_comm(3)")):
            gs = build_structure(ctx, find_minimal_garside(ctx).minimal[0])
            report = ftp_probe(ctx, gs, 5, plain_observations=False)
            assert report.passed, report.witness
            details = report.details
            assert details["bound_multiform"] == 2 * (details["k"] - 1)
            assert details["max_multiform"] <= details["bound_multiform"]
            assert details["bound_leftmult"] == 3 * details["k"]
            assert details["max_leftmult"] <= details["bound_leftmult"]
            assert details["bound_sliding"] == 1
            assert details["max_sliding"] <= 1
            sliding_simple[ctx.presentation.name] = \
                details["max_sliding_simple"]
        # for simple letters outside Div(delta) the one-step bound can
        # genuinely fail: a product of two simples may admit only normal
        # forms of three factors, and M3 realizes that with distance 2
        assert sliding_simple["M3"] == 2
        assert all(v == 1 for name, v in sliding_simple.items()
                   if name != "M3")


class _Resample(Exception):
    pass


def _fold_right_fraction(ctx, word, norm_cap=8):
    """Fold a signed word into (u, v) with value u * v^-1, using only
    minimal common multiples and monoid multiplication."""
    u, v = ctx.one, ctx.one
    for g, sign in word:
        if sign == 1:
            m = _common_multiple(ctx, v, g)
            u = ctx.mul(u, ctx.left_divides(v, m))
            v = ctx.left_divides(g, m)
        else:
            v = ctx.mul(g, v)
        if u.norm > norm_cap or v.norm > norm_cap:
            raise _Resample
    return u, v


def _common_multiple(ctx, x, y):
    res = mcms(ctx, x, y)
    if not res.mcms:
        widened = (x.norm + y.norm
                   + 3 * ctx.presentation.max_relation_length)
        res = mcms(ctx, x, y, bound=widened)
    assert res.mcms, "no common right multiple found"
    return min(res.mcms)


def _oracle_equal(ctx, w1, w2):
    u1, v1 = _fold_right_fraction(ctx, w1)
    u2, v2 = _fold_right_fraction(ctx, w2)
    m = _common_multiple(ctx, v1, v2)
    c1 = ctx.left_divides(v1, m)
    c2 = ctx.left_divides(v2, m)
    return ctx.equal(ctx.mul(u1, c1), ctx.mul(u2, c2))


def _random_signed_word(rng, gens, max_len=6, max_inv=2):
    n = rng.randint(1, max_len)
    word = []
    inverses = 0
    for _ in range(n):
        g = rng.choice(gens)
        if inverses < max_inv and rng.random() < 0.35:
            word.append((g, -1))
            inverses += 1
        else:
            word.append((g, 1))
    return word


def _equal_variant(rng, ctx, gens, word):
    """A different signed word with the same group value: rewrite an
    adjacent positive pair by a defining relation, or insert a
    cancelling pair."""
    w = list(word)
    relations = ctx.presentation.relations
    if rng.random() < 0.5:
        starts = list(range(len(w) - 1))
        rng.shuffle(starts)
        for i in starts:
            if w[i][1] != 1 or w[i + 1][1] != 1:
                continue
            pair = w[i][0].canon + w[i + 1][0].canon
            for lhs, rhs in relations:
                other = rhs if pair == lhs else lhs if pair == rhs else None
                if other is not None:
                    w[i:i + 2] = [(ctx.canonical(ch), 1) for ch in other]
                    return w
    g = rng.choice(gens)
    i = rng.randrange(len(w) + 1)
    pair = [(g, 1), (g, -1)] if rng.random() < 0.5 else [(g, -1), (g, 1)]
    return w[:i] + pair + w[i:]


def test_criterion_11_group_word_problem_oracle(m1, m2, m3, b3, ctx_factory):
    with criterion(11, "group_equal agrees with a fraction cross-multiplication "
                       "oracle on 500 random pairs per fixture"):
        rng = random.Random(SEED + 11)
        for ctx in (m1, m2, m3, b3, ctx_factory("free_comm(3)")):
            gs = build_structure(ctx, find_minimal_garside(ctx).minimal[0])
            gens = sorted(atoms(ctx))
            equal_seen = unequal_seen = 0
            done = 0
            while done < 500:
                try:
                    w1 = _random_signed_word(rng, gens)
                    if done % 2 == 0:
                        w2 = _equal_variant(rng, ctx, gens, w1)
                    else:
                        w2 = _random_signed_word(rng, gens)
                    expected = _oracle_equal(ctx, w1, w2)
                except _Resample:
                    continue
                assert group_equal(ctx, gs, w1, w2) == expected
                if expected:
                    equal_seen += 1
                else:
                    unequal_seen += 1
                done += 1
            assert equal_seen >= 250
            assert unequal_seen >= 100
