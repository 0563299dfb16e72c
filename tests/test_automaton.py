import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from garside import (DELTA_INV, MonoidContext, NormalSequence,
                     ResourceLimitExceeded, build_automaton,
                     build_structure, fixture, ftp_probe, growth, is_normal,
                     normalize_all, primitive_closure, synchronous_distance)
from garside.automaton import cayley_distance, charpoly
from garside.delta import _strip
from garside.structure import GarsideTables, SpanKernel
import garside.automaton as automaton
from garside.cli import _delta_summary

import oracles


def structure(ctx, word):
    return build_structure(ctx, ctx.element(word))


def test_automaton_m1_shape(m1):
    auto = build_automaton(m1, structure(m1, "aa"))
    assert [auto.letter_name(l) for l in auto.letters] == [
        "a", "b", "ab", "aa", "D'"]
    assert [auto.state_name(s) for s in auto.states] == [
        "start", "a", "b", "ab", "aa", "D'", "fail"]


def test_automaton_m1_transitions(m1):
    auto = build_automaton(m1, structure(m1, "aa"))
    a, b, ab, aa = (m1.element(w) for w in ("a", "b", "ab", "aa"))
    succ = {}
    for s in auto.states:
        if auto.state_name(s) in ("start", "fail"):
            continue
        succ[auto.state_name(s)] = sorted(
            auto.letter_name(l) for l in auto.letters
            if auto.state_name(auto.step(s, l)) != "fail")
    # a, b and ab are dead ends; the Garside letter fans out to every
    # plain letter; the inverse letter only precedes non-Garside tails
    assert succ == {
        "a": [],
        "b": [],
        "ab": [],
        "aa": ["a", "aa", "ab", "b"],
        "D'": ["D'", "a", "ab", "b"],
    }
    assert auto.accepts(())
    assert auto.accepts((aa, a))
    assert auto.accepts((aa, aa, ab))
    assert not auto.accepts((a, a))
    assert not auto.accepts((ab, aa))
    assert auto.accepts((DELTA_INV, DELTA_INV, a))
    assert not auto.accepts((DELTA_INV, aa))
    assert not auto.accepts((aa, DELTA_INV))
    with pytest.raises(ValueError, match="not an alphabet letter"):
        auto.step(auto.states[0], m1.element("aab"))


def test_automaton_language_is_normality(m1, m3):
    # without the inverse letter, accepted = normal over Div(delta)
    for ctx, d in ((m1, "aa"), (m3, "ac")):
        gs = structure(ctx, d)
        auto = build_automaton(ctx, gs)
        plain = [l for l in auto.letters if l is not DELTA_INV]
        for n in range(5):
            for word in itertools.product(plain, repeat=n):
                assert auto.accepts(word) == is_normal(
                    ctx, gs.div_delta, word), [ctx.show(w) for w in word]


def test_automaton_group_prefix_rule(m1):
    # an inverse block is accepted iff the tail is normal and does not
    # start with the Garside letter
    gs = structure(m1, "aa")
    auto = build_automaton(m1, gs)
    plain = [l for l in auto.letters if l is not DELTA_INV]
    for j in range(3):
        for n in range(3):
            for tail in itertools.product(plain, repeat=n):
                word = (DELTA_INV,) * j + tail
                ok = is_normal(m1, gs.div_delta, tail) and (
                    j == 0 or not tail or tail[0] != gs.delta)
                assert auto.accepts(word) == ok


def test_automaton_dot_and_json(m1):
    auto = build_automaton(m1, structure(m1, "aa"))
    dot = auto.to_dot()
    assert dot.startswith("digraph normal_forms {")
    assert '"aa" -> "aa"' in dot
    assert "fail" not in dot
    assert "fail" in auto.to_dot(include_failure=True)
    data = auto.to_json()
    assert data["alphabet"] == ["a", "b", "ab", "aa", "D'"]
    assert data["initial"] == "start"
    assert "fail" not in data["accepting"]
    assert len(data["transitions"]) == len(auto.states) * len(auto.letters)


def test_growth_frozen(m1, m2, m3, b3):
    expected = {
        ("M1", "aa"): (1, 4, 4, 4, 4, 4, 4),
        ("M2", "aa"): (1, 6, 6, 6, 6, 6, 6),
        ("M3", "ac"): (1, 6, 10, 14, 18, 22, 26),
        ("B3", "s1s2s1"): (1, 5, 13, 29, 61, 125, 253),
        ("free_comm(3)", "abc"): (1, 7, 19, 37, 61, 91, 127),
    }
    ctxs = {"M1": m1, "M2": m2, "M3": m3, "B3": b3,
            "free_comm(3)": MonoidContext(fixture("free_comm(3)"))}
    for (name, d), coeffs in expected.items():
        ctx = ctxs[name]
        g = growth(ctx, structure(ctx, d), 6, unique_forms=True)
        assert g.coefficients == coeffs, name
        assert g.check_recurrence(), name
        assert g.mode == "monoid" and g.counts_elements is True


@pytest.mark.parametrize("name,d", [
    ("M1", "aa"), ("M1", "ab"), ("M2", "aa"), ("M2", "ab"), ("M3", "ac"),
    ("B3", "s1s2s1"), ("free_comm(3)", "abc")])
def test_analyze_growth_is_the_series_without_its_recurrence(
        monkeypatch, ctx_factory, name, d):
    ctx = ctx_factory(name)
    expected = growth(ctx, structure(ctx, d), 6).coefficients

    def refused(matrix):
        raise AssertionError("analyze computed a recurrence")

    monkeypatch.setattr(automaton, "charpoly", refused)
    summary = _delta_summary(ctx, ctx.element(d), 3)
    assert summary["growth"] == list(expected)


def test_growth_group_mode(m1):
    g = growth(m1, structure(m1, "aa"), 4, mode="group")
    assert g.coefficients == (1, 5, 8, 8, 8)
    assert g.recurrence == (2, -1, 0, 0, 0, 0)
    assert g.check_recurrence()
    with pytest.raises(ValueError, match="unknown growth mode"):
        growth(m1, structure(m1, "aa"), 3, mode="ring")


@pytest.mark.parametrize("matrix, coeffs", [
    ([[5]], [1, -5]),
    ([[0, 0, 0]] * 3, [1, 0, 0, 0]),
    ([[2, 1], [1, 3]], [1, -5, 5]),
    ([[0, -1], [1, 0]], [1, 0, 1]),
    ([[0, 0, -6], [1, 0, 5], [0, 1, 2]], [1, -2, -5, 6]),
    ([[2, 7, 1], [0, 3, 4], [0, 0, -1]], [1, -4, 1, 6]),
])
def test_charpoly(matrix, coeffs):
    assert charpoly(matrix) == coeffs


def test_growth_serialization(m1):
    g = growth(m1, structure(m1, "aa"), 3)
    assert g.to_csv().splitlines()[:2] == ["n,count", "0,1"]
    data = g.to_json()
    assert data["coefficients"] == [1, 4, 4, 4]
    assert data["mode"] == "monoid"
    assert data["counts_elements"] is None


def test_cayley_distance(m1):
    gs = structure(m1, "aa")
    key = (0, m1.element("ab"))
    assert cayley_distance(m1, gs, key, key) == 0
    assert cayley_distance(m1, gs, (0, m1.one), (0, m1.element("a"))) == 1
    # ab = a * b needs two atoms but is itself a letter
    assert cayley_distance(m1, gs, (0, m1.one), (0, m1.element("ab"))) == 1
    # delta^-1 is one letter away from the identity
    assert cayley_distance(m1, gs, (0, m1.one), (1, m1.one)) == 1


def test_synchronous_distance_frozen(m1, b3):
    gs = structure(m1, "aa")
    aa, ab = m1.element("aa"), m1.element("ab")
    assert synchronous_distance(m1, gs, (aa, aa), (ab, ab)) == 2
    assert synchronous_distance(m1, gs, (aa, aa), (aa, aa)) == 0
    gsb = structure(b3, "s1s2s1")
    assert synchronous_distance(
        b3, gsb, (b3.element("s1"),),
        (b3.element("s1"), b3.element("s2"))) == 1


def test_ftp_probe_m1(m1):
    rep = ftp_probe(m1, structure(m1, "aa"), 4)
    assert rep.passed
    assert rep.details == {
        "k": 4, "elements": 9, "multiform_pairs": 0, "max_multiform": 0,
        "bound_multiform": 6, "max_leftmult": 1, "bound_leftmult": 12,
        "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
        "max_plain_leftmult": 2, "plain_searches_clamped": 0}


def test_ftp_probe_over_primitive_span(m1):
    # multi-form distances only; a^4 has two normal forms over the
    # primitives and they stay within the 2(k-1) bound
    rep = ftp_probe(m1, structure(m1, "aa"), 4, span=primitive_closure(m1))
    assert rep.passed
    assert rep.details == {
        "k": 3, "elements": 9, "multiform_pairs": 4, "max_multiform": 2,
        "bound_multiform": 4}


def test_ftp_probe_m3_sliding_observation(m3):
    # the distance-1 sliding bound holds for letters dividing the
    # Garside element; over all simple letters the observed maximum is
    # 2 (a product of two simples whose normal forms have length 3)
    rep = ftp_probe(m3, structure(m3, "ac"), 3)
    assert rep.passed
    assert rep.details["max_sliding"] == 1
    assert rep.details["max_sliding_simple"] == 2
    assert rep.details["max_leftmult"] == 2
    assert rep.details["bound_leftmult"] == 15


WARM_CASES = (("B3", "s1s2s1", 3), ("M2", "aa", 3), ("M3", "ac", 2),
              ("free_comm(3)", "abc", 3))


@pytest.mark.parametrize("name,delta,radius", WARM_CASES)
def test_warm_caches_give_the_same_answers(name, delta, radius):
    warm = MonoidContext(fixture(name))
    wgs = structure(warm, delta)
    assert ftp_probe(warm, wgs, radius).passed

    def plain(key):
        return key[0], key[1].canon

    letters = build_automaton(warm, wgs).letters
    for x in sorted(warm.enumerate_ball(2)):
        for k in (0, 1):
            # a fresh context per key, queried before anything warms it
            fresh = MonoidContext(fixture(name))
            fgs = structure(fresh, delta)
            wkey = _strip(wgs, k, x)
            fkey = _strip(fgs, k, fresh.canonical(x.canon))
            assert plain(wkey) == plain(fkey)
            assert (cayley_distance(fresh, fgs, (0, fresh.one), fkey)
                    == cayley_distance(warm, wgs, (0, warm.one), wkey))
            for letter, sign in itertools.product(letters, (1, -1)):
                fletter = (letter if letter is DELTA_INV
                           else fresh.canonical(letter.canon))
                fnext = oracles.step(fgs, fkey, fletter, sign)
                wnext = oracles.step(wgs, wkey, letter, sign)
                assert plain(wnext) == plain(fnext), (x, k, letter, sign)
                assert (cayley_distance(fresh, fgs, fkey, fnext)
                        == cayley_distance(warm, wgs, wkey, wnext))


# (fixture, Garside element, radius) -> the full report details; "B4"
# is the presentation oracles.B4
PROBE_DETAILS = (
    ("B3", "s1s2s1", 4,
     {"k": 6, "elements": 26, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 10, "max_leftmult": 1, "bound_leftmult": 18,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 9, "plain_searches_clamped": 0}),
    ("free_comm(3)", "abc", 3,
     {"k": 8, "elements": 20, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 14, "max_leftmult": 1, "bound_leftmult": 24,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M3", "ac", 2,
     {"k": 5, "elements": 9, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 2, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 2,
      "max_plain_leftmult": 5, "plain_searches_clamped": 0}),
    ("M1", "aa", 5,
     {"k": 4, "elements": 11, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 6, "max_leftmult": 1, "bound_leftmult": 12,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M2", "aa", 3,
     {"k": 5, "elements": 10, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 1, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M2", "ab", 2,
     {"k": 5, "elements": 7, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 1, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("B4", "s1s2s1s3s2s1", 3,
     {"k": 24, "elements": 31, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 46, "max_leftmult": 1, "bound_leftmult": 72,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 7, "plain_searches_clamped": 0}),
    ("B3", "s1s2s1", 7,
     {"k": 6, "elements": 133, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 10, "max_leftmult": 1, "bound_leftmult": 18,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 15, "plain_searches_clamped": 0}),
    ("B3", "s1s2s1", 5,
     {"k": 6, "elements": 46, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 10, "max_leftmult": 1, "bound_leftmult": 18,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 11, "plain_searches_clamped": 0}),
    ("M3", "ac", 3,
     {"k": 5, "elements": 16, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 2, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 2,
      "max_plain_leftmult": 7, "plain_searches_clamped": 0}),
)


@pytest.mark.parametrize("name,delta,radius,details", PROBE_DETAILS)
def test_ftp_probe_details_frozen(name, delta, radius, details):
    ctx = MonoidContext(oracles.B4 if name == "B4" else fixture(name))
    gs = structure(ctx, delta)
    t0 = time.perf_counter()
    rep = ftp_probe(ctx, gs, radius)
    elapsed = time.perf_counter() - t0
    assert rep.passed
    assert rep.details == details
    # on Garside tables every distance is read off a Delta-normal form:
    # no Cayley graph is built, and the probe takes well under a second
    tables = isinstance(gs.arithmetic, GarsideTables)
    assert ("cayley_graph" in ctx.caches) == (not tables)
    if tables:
        assert elapsed < 1.0


# the probes of the ftp benchmark (the first six rows), B3 at radius 5
# and M3 at radius 3
SLIDE_PROBES = PROBE_DETAILS[:6] + PROBE_DETAILS[-2:]


@pytest.mark.parametrize("name,delta,radius,details", SLIDE_PROBES)
def test_ftp_probe_finds_every_slide_among_the_targets(monkeypatch, name,
                                                       delta, radius,
                                                       details):
    # each slid form is a normal form of y * x, so no slide needs the
    # checks of left_mult_update
    def checked(*args):
        raise AssertionError("a slid form was not among the targets")

    monkeypatch.setattr(automaton, "left_mult_update", checked)
    ctx = MonoidContext(fixture(name))
    assert ftp_probe(ctx, structure(ctx, delta), radius).details == details


@pytest.mark.parametrize("name,delta,radius",
                         [("B3", "s1s2s1", 2), ("M1", "aa", 3)])
def test_a_slide_outside_the_targets_fails_left_mult_update(monkeypatch,
                                                             name, delta,
                                                             radius):
    # a slide that drops y is no normal form of y * x: it is not among
    # the targets, and left_mult_update's check of it raises, on the
    # tables (B3) and on the kernel (M1)
    def dropped(self, y, factors):
        return tuple(factors)

    monkeypatch.setattr(SpanKernel, "slid", dropped)
    monkeypatch.setattr(GarsideTables, "slid", dropped)
    ctx = MonoidContext(fixture(name))
    with pytest.raises(RuntimeError, match="sliding update"):
        ftp_probe(ctx, structure(ctx, delta), radius)


@pytest.mark.parametrize("name,delta,radius",
                         [row[:3] for row in SLIDE_PROBES])
def test_every_normal_form_of_a_target_is_normal_with_its_product(
        name, delta, radius):
    # what ftp_probe's check by membership relies on: each form from
    # normalize_all, of x and of every y * x, is normal, and its product
    # on the kernel is that element
    ctx = MonoidContext(fixture(name))
    gs = structure(ctx, delta)
    S = gs.div_delta
    letters = [y for y in build_automaton(ctx, gs).letters
               if y is not DELTA_INV]
    for x in ctx.enumerate_ball(radius):
        for e in [x] + [ctx.mul(y, x) for y in letters]:
            forms = normalize_all(ctx, S, e)
            assert forms
            for p in forms:
                assert is_normal(ctx, S, p), (e, p)
                assert ctx.canonical("".join(f.canon for f in p)) == e


# (fixture, Garside element, radius, keyword arguments); "primitives"
# stands for the primitive closure as the span
ORACLE_PROBES = (
    ("B3", "s1s2s1", 4, {}), ("free_comm(3)", "abc", 3, {}),
    ("M3", "ac", 2, {}), ("M1", "aa", 5, {}), ("M2", "aa", 3, {}),
    ("M2", "ab", 2, {}), ("B3", "s1s2s1", 5, {}), ("M3", "ac", 3, {}),
    ("M1", "aa", 6, {}), ("M2", "aa", 4, {}),
    ("free_comm(3)", "abc", 3, {"plain_observations": False}),
    ("M1", "aa", 4, {"span": "primitives"}),
)


@pytest.mark.parametrize("name,delta,radius,kwargs", ORACLE_PROBES)
def test_ftp_probe_matches_the_per_call_loop(name, delta, radius, kwargs):
    reports = []
    for probe in (ftp_probe, oracles.ftp_probe_per_call):
        ctx = MonoidContext(fixture(name))
        kw = dict(kwargs)
        if kw.get("span") == "primitives":
            kw["span"] = primitive_closure(ctx)
        reports.append(probe(ctx, structure(ctx, delta), radius, **kw))
    got, want = reports
    assert got.passed and want.passed
    assert got.details == want.details
    if kwargs.get("span"):
        assert got.details["multiform_pairs"] == 4


# every distance forced to one value: the probe fails on its first
# pair of forms, letter or slide, named in the witness
@pytest.mark.parametrize("primitives,radius,value,witness", [
    (True, 4, 99, {"element": "aaa", "forms": [["aa", "a"], ["ab", "b"]],
                   "distance": 99, "allowed": 4}),
    (False, 2, 99, {"element": "1", "letter": "a", "distance": 99,
                    "allowed": 12}),
    (False, 2, 2, {"element": "1", "letter": "a", "sliding_distance": 2,
                   "allowed": 1})], ids=["multiform", "leftmult", "sliding"])
def test_a_failing_probe_names_its_first_witness(monkeypatch, m1, primitives,
                                                  radius, value, witness):
    monkeypatch.setattr(automaton, "_chain_distance",
                        lambda *args: value)
    span = primitive_closure(m1) if primitives else None
    rep = ftp_probe(m1, structure(m1, "aa"), radius, span=span)
    assert rep.status == "fail"
    assert rep.witness == witness


def test_ftp_probe_rejects_a_negative_radius(m1):
    with pytest.raises(ValueError, match="radius"):
        ftp_probe(m1, structure(m1, "aa"), -1)


def plain_observations(ctx, gs, radius):
    """max_plain_leftmult and plain_searches_clamped recomputed with the
    public, unpruned synchronous_distance over ftp_probe's loop."""
    S = gs.div_delta
    bound_left = 3 * len(S)

    def forms_of(x):
        return sorted(normalize_all(ctx, S, x), key=NormalSequence.sort_key)

    best = clamped = 0
    for x in ctx.enumerate_ball(radius):
        forms = forms_of(x)
        for y in build_automaton(ctx, gs).letters:
            if y is DELTA_INV:
                rest = ctx.left_divides(gs.delta, x)
                targets = ([(DELTA_INV,) + f.factors for f in forms]
                           if rest is None
                           else [f.factors for f in forms_of(rest)])
            else:
                targets = [f.factors for f in forms_of(ctx.mul(y, x))]
            for p in forms:
                for q in targets:
                    try:
                        best = max(best, synchronous_distance(
                            ctx, gs, p.factors, q, max_dist=bound_left))
                    except ResourceLimitExceeded:
                        clamped += 1
    return best, clamped


@pytest.mark.parametrize("name,delta,radius", (("B3", "s1s2s1", 3),
                                               ("M3", "ac", 2)))
def test_plain_observation_matches_the_unpruned_supremum(name, delta, radius):
    ctx = MonoidContext(fixture(name))
    gs = structure(ctx, delta)
    rep = ftp_probe(ctx, gs, radius)
    oracle = MonoidContext(fixture(name))
    assert plain_observations(oracle, structure(oracle, delta), radius) == (
        rep.details["max_plain_leftmult"],
        rep.details["plain_searches_clamped"])


def factor_words(letters):
    return st.lists(st.sampled_from(letters), max_size=4)


@pytest.mark.parametrize("name,delta", (("B3", "s1s2s1"), ("M2", "aa")))
def test_floored_supremum_is_exact_above_the_floor(ctx_factory, name, delta):
    ctx = ctx_factory(name)
    gs = structure(ctx, delta)
    letters = build_automaton(ctx, gs).letters
    # translations by the identity (the plain convention) and by letters
    y_keys = [(0, ctx.one)] + [(1, ctx.one) if y is DELTA_INV else (0, y)
                               for y in letters]
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(factor_words(letters), factor_words(letters),
           st.sampled_from(y_keys), st.integers(0, 8))
    def check(u, v, y_key, floor):
        exact = oracles.chain_distance(gs, y_key, u, v, 16, 200_000)
        if y_key == (0, ctx.one):
            assert synchronous_distance(ctx, gs, u, v) == exact
        got = oracles.chain_distance(gs, y_key, u, v, 16, 200_000,
                                     floor)
        # the package's chains, against the oracle's own loop
        arith = gs.arithmetic
        pk = automaton._chain(gs, arith.key(y_key), u)
        qk = automaton._chain(gs, (0, arith.one), v)
        assert [automaton._chain_distance(gs, pk, qk, 16, 200_000, f)
                for f in (None, floor)] == [exact, got]
        if exact > floor:
            assert got == exact
            outcomes.add("exact")
        else:
            assert got <= floor
            outcomes.add("pruned" if got < exact else "at or below")

    check()
    # both sides of the floor occur, and some pruning lowered the result
    assert outcomes == {"exact", "pruned", "at or below"}


@pytest.mark.parametrize("name,delta", (("B3", "s1s2s1"), ("M2", "aa")))
def test_position_zero_of_a_translated_chain_is_not_measured(ctx_factory,
                                                             name, delta):
    # y * 1 and y are one element at position 1, the clamped end of the
    # empty word; position 0 compares y with 1 and only seeds the floor
    ctx = ctx_factory(name)
    gs = structure(ctx, delta)
    one = (0, gs.arithmetic.one)
    for y in build_automaton(ctx, gs).letters[:-1]:
        assert oracles.chain_distance(gs, (0, y), (), (y,), 16, 200_000) == 0
        pk = [gs.arithmetic.key((0, y))]
        qk = automaton._chain(gs, one, (y,))
        assert automaton._chain_distance(gs, pk, qk, 16, 200_000) == 0
