"""Garside tables against the kernel path.

Where Div(delta) is a lattice and its germ proves delta Garside, the
span's arithmetic is tables on the simples, and fraction keys, normal
forms, covering and the automaton are read off them.  Here every such
answer is compared with the kernel path: fraction keys folded by
``oracles._step`` and ``_strip`` letter by letter, and normal forms and
covering on a context of its own whose span has a ``SpanKernel``
registered by hand (``oracles.kernel_span``), so that it has no
tables.  The fold that defers phi is checked against the same steps
where phi is not the identity, on the kernel and on the tables.  Long
words are checked against oracles that share no code with the package:
the reduced Burau representation on B3 (``test_burau``) and exponent
vectors on free_comm(3), whose group is Z^3."""

import itertools
import json
import pathlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from garside import (DELTA_INV, ElementSet, MonoidContext,
                     PresentationError, ResourceLimitExceeded,
                     VerificationReport,
                     build_automaton, build_structure, combine, covers,
                     divisors, fixture, fraction_of_signed, group_equal,
                     is_garside, is_normal, left_mult_update, normalize,
                     normalize_all, parse_presentation, synchronous_distance,
                     to_fraction)
from garside.automaton import _cayley_graph, cayley_distance
from garside import delta as delta_layer, structure as structure_layer
from garside.cli import main
from garside.delta import FractionKernel, _strip
from garside.presentation import serialize_presentation
from garside.structure import (GarsideTables, SpanKernel, divisors_in,
                               enumerate_simples, garside_tables,
                               span_arithmetic)
from oracles import _step, kernel_span, public, step
from test_burau import image, symbols
from test_cli import run_python

B5_FILE = pathlib.Path(__file__).parent / "data" / "b5.txt"
B5_DELTA = "s1s2s1s3s2s1s4s3s2s1"
# the Artin monoid of type B3: m(a, b) = 4, m(b, c) = 3, m(a, c) = 2;
# delta = (abc)^3 has norm 9, the number of reflections
ARTIN_B3 = parse_presentation("gens: a b c\n"
                              "rels: abab = baba; bcb = cbc; ac = ca",
                              name="artin(B3)")

# B3 on the Birman-Ko-Lee generators a = s2, b = s1, c = s2 s1 s2^-1,
# with delta = ab = s2 s1: phi permutes a, b, c cyclically, so
# phi^-1 != phi
BKL_B3 = parse_presentation("gens: a b c\nrels: ab = bc = ca", name="BKL(B3)")

# presentation, Garside element, and the reach of the kernel path:
# the largest norm(x) + norm(y) at which covering is compared, and the
# largest norm of a word whose key is compared, each inverse letter
# counted as norm(delta).  The kernel multiplies an inverse simple in
# through its complement in delta, so that bounds the norms it reduces;
# the completions of B4 and type B3 are infinite and do not finish at
# norm 16.
GATED = (
    (fixture("B3"), "s1s2s1", 6, 24),
    (fixture("free_comm(3)"), "abc", 6, 24),
    (oracles.B4, "s1s2s1s3s2s1", 12, 14),
    (ARTIN_B3, "abcabcabc", 12, 11),
    (BKL_B3, "ab", 4, 12),
)
GATED_IDS = [p.name for p, *_ in GATED]


def structure(presentation, delta):
    ctx = MonoidContext(presentation)
    return ctx, build_structure(ctx, ctx.element(delta))


def kernel_step(gs, key, g, sign):
    """The stripped key (k, x) times g^sign by ``oracles._step``, which
    applies phi at each inverse letter."""
    m, y = _step(gs, key[1], g, sign)
    return _strip(gs, key[0] + m, y)


def kernel_keys(gs, word):
    """The stripped key (k, x) after each letter of a signed word,
    folded by ``kernel_step``."""
    key = (0, gs.ctx.one)
    keys = [key]
    for g, sign in word:
        key = kernel_step(gs, key, g, sign)
        keys.append(key)
    return keys


# phi != id: M2 with delta = ab has no tables (phi of order 3), and B3
# and BKL(B3) are folded with their tables and with them set aside
# (orders 2 and 3); the largest norm of a word's positive letters
TWISTED = (
    (fixture("M2"), "ab", 3, 10),
    (fixture("B3"), "s1s2s1", 2, 14),
    (BKL_B3, "ab", 3, 10),
)


def twisted_words(rng, gs, reach, count):
    """Random signed words of atoms, non-atom simples, delta and
    elements that are not simple, each inverse letter drawn as often as
    its letter, plus runs of delta^-1 between atoms."""
    ctx = gs.ctx
    atoms = sorted(ctx.ball_level(1))
    simples = sorted(x for x in gs.simples if x.norm > 1)
    others = sorted(x for x in ctx.ball_level(2) | ctx.ball_level(3)
                    if x not in gs.simples.members)
    assert simples and others and gs.delta in simples
    letters = atoms + simples + others + [gs.delta]
    words = []
    while len(words) < count:
        word = [(rng.choice(letters), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))]
        if sum(g.norm for g, s in word if s > 0) <= reach:
            words.append(word)
    for a in atoms:
        words.append([(a, 1), (gs.delta, -1), (a, 1), (gs.delta, -1),
                      (gs.delta, -1), (a, -1), (a, 1)])
    return words


@pytest.mark.parametrize("presentation,delta,order,reach", TWISTED,
                         ids=[p.name for p, *_ in TWISTED])
def test_the_deferred_twist_equals_the_per_letter_steps(
        presentation, delta, order, reach):
    # build_structure keeps one structure per delta on a context, so the
    # kernel's structure is built on a context of its own
    _, gated = structure(presentation, delta)
    ctx, gs = structure(presentation, delta)
    assert gs is not gated
    gs.arithmetic = FractionKernel(gs)
    assert gs.order == order
    words = twisted_words(random.Random(1995), gs, reach, 80)
    twisted = 0
    for word in words:
        expected = kernel_keys(gs, word)
        key = (0, ctx.one)
        for (g, sign), want in zip(word, expected[1:]):
            key = step(gs, key, g, sign)
            assert key == want, (word, g, sign)
        assert gs.arithmetic.fold((0, ctx.one), word) == expected[-1], word
        if isinstance(gated.arithmetic, GarsideTables):
            assert (public(gated, gated.arithmetic.fold((0, ()), word))
                    == expected[-1]), word
            key = (0, ctx.one)
            for (g, sign), want in zip(word, expected[1:]):
                key = step(gated, key, g, sign)
                assert key == want, (word, g, sign)
        twisted += sum(gs.embedding_exponent(g) for g, s in word
                       if s < 0) % order != 0
    # many words end with phi^t pending, t not a multiple of the order
    assert twisted >= len(words) // 3, twisted


def test_cayley_neighbours_under_a_twist():
    # the graph of the ftp probe on M2 with delta = ab, phi of order 3
    ctx, gs = structure(fixture("M2"), "ab")
    graph = _cayley_graph(ctx, gs)
    frontier = [graph.intern((0, ctx.one))]
    for _ in range(3):
        nodes, frontier = frontier, []
        for node in nodes:
            key = graph.keys[node]
            want = [kernel_step(gs, key, g, sign)
                    for g in graph.letters for sign in (1, -1)]
            got = graph.neighbours(node)
            assert [graph.keys[n] for n in got] == want, key
            frontier += got
    assert len(graph.keys) > 30


def test_the_gate_fails_where_mcms_are_not_unique():
    for name, delta in (("M1", "aa"), ("M1", "ab"), ("M2", "aa"),
                        ("M2", "ab"), ("M3", "ac")):
        ctx, gs = structure(fixture(name), delta)
        assert not isinstance(gs.arithmetic, GarsideTables), (name, delta)


@pytest.mark.parametrize("presentation,delta,_,__", GATED, ids=GATED_IDS)
def test_the_gate_passes_on_lattices(presentation, delta, _, __):
    ctx, gs = structure(presentation, delta)
    tables = gs.arithmetic
    assert isinstance(tables, GarsideTables)
    assert tables.elements == sorted(gs.div_delta.members)
    assert tables.elements[tables.delta] == gs.delta
    for i, s in enumerate(tables.elements):
        assert tables.elements[tables.dual[i]] == gs.star[s]
        assert tables.elements[tables.phi[i]] == gs.phi(s)
        assert tables.elements[tables.twists[-1][i]] == gs.phi(s, -1)


def test_phi_has_order_three_on_the_birman_ko_lee_generators():
    ctx, gs = structure(BKL_B3, "ab")
    assert gs.order == 3
    assert gs.arithmetic.phi != gs.arithmetic.twists[-1]


def test_the_gate_rejects_a_poset_that_is_no_lattice_or_not_cancellative():
    # in free_comm(3), abc and abb have the common divisors 1, a and b
    # within this set, and no greatest one
    ctx = MonoidContext(fixture("free_comm(3)"))
    S = element_set(ctx, ("", "a", "b", "c", "abc", "abb"))
    assert garside_tables(ctx, S) is None
    # with ab added the set is a lattice under left division, but abb
    # does not divide its last element abc: no Div(abc), no complements
    S = element_set(ctx, ("", "a", "b", "c", "ab", "abc", "abb"))
    assert garside_tables(ctx, S) is None
    # Div(abc) itself passes, with the complements s s* = abc
    S = element_set(ctx, ("", "a", "b", "c", "ab", "ac", "bc", "abc"))
    tables = garside_tables(ctx, S)
    assert tables is not None
    for i, s in enumerate(tables.elements):
        star = tables.elements[tables.dual[i]]
        assert ctx.mul(s, star) == ctx.element("abc")
    # Div(ab) is a lattice with complements, but lacks the atom c
    S = element_set(ctx, ("", "a", "b", "ab"))
    assert garside_tables(ctx, S) is None
    # in ab = aa, a a = a b: aa has two left quotients by a
    ctx = MonoidContext(oracles.NOT_LEFT_CANCELLATIVE)
    S = element_set(ctx, ("", "a", "b", "aa"))
    assert garside_tables(ctx, S) is None
    # in ba = aa, a a = b a: a and b have the same complement a in aa
    ctx = MonoidContext(oracles.NOT_RIGHT_CANCELLATIVE)
    S = element_set(ctx, ("", "a", "b", "aa"))
    assert garside_tables(ctx, S) is None


def element_set(ctx, words):
    return ElementSet(frozenset(ctx.canonical(w) for w in words), "set")


def kernel_words(rng, letters, delta_norm, reach, count):
    """Random signed words of up to 6 letters within the kernel's
    reach."""
    words = []
    while len(words) < count:
        word = [(rng.choice(letters), rng.choice((1, -1)))
                for _ in range(rng.randrange(7))]
        if sum(g.norm if s > 0 else delta_norm for g, s in word) <= reach:
            words.append(word)
    return words


@pytest.mark.parametrize("presentation,delta,_,reach", GATED, ids=GATED_IDS)
def test_table_keys_equal_kernel_keys(presentation, delta, _, reach):
    ctx, gs = structure(presentation, delta)
    rng = random.Random(2015)
    atoms = sorted(ctx.ball_level(1))
    # every alphabet letter, D' as delta^-1
    simple = [gs.delta if l is DELTA_INV else l
              for l in build_automaton(ctx, gs).letters]
    words = [kernel_words(rng, letters, gs.delta.norm, reach, 40)
             for letters in (atoms, atoms + [gs.delta], simple)]
    for word in words[0] + words[1] + words[2]:
        expected = kernel_keys(gs, word)
        key = (0, ctx.one)
        for (g, sign), want in zip(word, expected[1:]):
            key = step(gs, key, g, sign)
            assert key == want, (word, g, sign)
        arith = gs.arithmetic
        assert (public(gs, arith.fold((0, arith.one), word))
                == expected[-1]), word
        form = fraction_of_signed(ctx, gs, word)
        assert ((form.k, form.tail.product(ctx))
                == _strip(gs, *expected[-1]))


@pytest.mark.parametrize("presentation,delta,max_norm,_", GATED,
                         ids=GATED_IDS)
def test_normal_forms_and_covering_equal_the_kernel_path(
        presentation, delta, max_norm, _):
    ctx, gs = structure(presentation, delta)
    ref = MonoidContext(presentation)
    ref_div = kernel_span(ref, divisors(ref, ref.element(delta)))

    def words(seq):
        return [f.canon for f in seq.factors]

    for x in sorted(ctx.enumerate_ball(5)):
        rx = ref.canonical(x.canon)
        got = normalize(ctx, gs.div_delta, x)
        assert words(got) == words(normalize(ref, ref_div, rx)), x
        assert ({tuple(words(f)) for f in normalize_all(ctx, gs.div_delta,
                                                           x)}
                == {tuple(words(f))
                    for f in normalize_all(ref, ref_div, rx)}), x
        assert got.span_label == ref_div.label
    simples = sorted(gs.div_delta.members)
    compared = 0
    for x, y in itertools.product(simples, simples):
        if x.norm + y.norm <= max_norm:
            rx, ry = ref.canonical(x.canon), ref.canonical(y.canon)
            assert (covers(ctx, gs.div_delta, x, y)
                    == covers(ref, ref_div, rx, ry)), (x, y)
            compared += 1
    assert compared >= 0.75 * len(simples) ** 2
    # the automaton's transitions between plain letters are covering
    auto = build_automaton(ctx, gs)
    plain = [l for l in auto.letters if l is not DELTA_INV and l != gs.delta]
    for y, x in itertools.product(plain, plain):
        if x.norm + y.norm <= max_norm:
            rx, ry = ref.canonical(x.canon), ref.canonical(y.canon)
            expected = x if covers(ref, ref_div, ry, rx) else None
            got = auto.table[(y, x)]
            assert (got if got == x else None) == expected, (y, x)


@pytest.mark.parametrize("presentation,delta,_,__", GATED[:3],
                         ids=GATED_IDS[:3])
def test_normality_on_the_tables_equals_the_kernel(presentation, delta, _,
                                                   __):
    # every sequence of at most three items from Div(delta), the
    # identity and two elements that are not simple
    ctx, gs = structure(presentation, delta)
    assert isinstance(gs.arithmetic, GarsideTables)
    ref = MonoidContext(presentation)
    ref_div = kernel_span(ref, divisors(ref, ref.element(delta)))
    others = sorted(x for x in ctx.ball_level(2)
                    if x not in gs.simples.members)[:2]
    assert len(others) == 2
    items = sorted(gs.div_delta.members) + [ctx.one] + others
    answers = Counter()
    for n in range(4):
        for seq in itertools.product(items, repeat=n):
            got = is_normal(ctx, gs.div_delta, seq)
            assert got == is_normal(ref, ref_div, seq), seq
            answers[n, got] += 1
    assert span_arithmetic(ref, ref_div).__class__ is SpanKernel
    assert answers[0, True] == 1
    assert all(answers[n, True] and answers[n, False] for n in (1, 2, 3))


@pytest.mark.parametrize("presentation,delta,max_norm,_", GATED,
                         ids=GATED_IDS)
def test_the_slides_built_at_the_gate_equal_the_kernel(
        presentation, delta, max_norm, _):
    # the slide of s|t is None exactly where s covers t, and otherwise
    # a pair a|b with a b = s t, a covering b, and a != s; pairs beyond
    # the kernel's reach (type B3 past norm 12) are not compared
    ctx, gs = structure(presentation, delta)
    tables = gs.arithmetic
    ref = MonoidContext(presentation)
    ref_div = kernel_span(ref, divisors(ref, ref.element(delta)))
    simple = [ref.canonical(s.canon) for s in tables.elements]
    n = len(simple)
    compared = 0
    for (i, s), (j, t) in itertools.product(enumerate(simple), repeat=2):
        if s.norm + t.norm > max_norm:
            continue
        compared += 1
        got = tables._slides[i * n + j]
        assert (got is None) == covers(ref, ref_div, s, t), (s, t)
        if got is not None:
            a, b = (simple[k] for k in got)
            assert ref.mul(a, b) == ref.mul(s, t), (s, t)
            assert covers(ref, ref_div, a, b), (s, t)
            assert a != s, (s, t)
    assert compared >= 0.75 * n * n


# a seeded 256-letter B4 word, normalised raw within 2 GB of address
# space; the kernel's covering is checked on a context of its own
RAW_B4 = """
import random, resource, sys
limit = 2_000_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {tests!r})
import oracles
from garside import MonoidContext, build_structure, covers, divisors, normalize
ctx = MonoidContext(oracles.B4)
gs = build_structure(ctx, ctx.element("s1s2s1s3s2s1"))
rng = random.Random(256)
w = "".join(rng.choice(oracles.B4.chars) for _ in range(256))
form = normalize(ctx, gs.div_delta, w)
assert w not in ctx._canon
assert sum(f.norm for f in form.factors) == 256
ref = MonoidContext(oracles.B4)
ref_div = oracles.kernel_span(ref, divisors(ref,
                                           ref.element("s1s2s1s3s2s1")))
pairs = list(zip(form.factors, form.factors[1:]))
assert pairs and all(covers(ref, ref_div, ref.canonical(x.canon),
                            ref.canonical(y.canon)) for x, y in pairs)
print(len(form))
"""


def test_a_raw_256_letter_b4_word_is_normalised_without_the_kernel():
    tests = str(pathlib.Path(__file__).resolve().parent)
    proc = run_python(["-c", RAW_B4.format(tests=tests)])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 256 // 6


# the normal form of a seeded raw 40-letter B5 word (15 factors) times
# s1 within 2 GB of address space: the slide is checked against the
# tables' normal form of the word, with no product on the kernel, whose
# completion of B5 is infinite
B5_LEFT_MULT = """
import random, resource
limit = 2_000_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from garside import (MonoidContext, build_structure, is_normal,
                     left_mult_update, normalize, parse_presentation)
ctx = MonoidContext(parse_presentation(open({path!r}).read()))
gs = build_structure(ctx, ctx.element({delta!r}))
S = gs.div_delta
rng = random.Random(1)
w = "".join(rng.choice(ctx.presentation.chars) for _ in range(40))
form = normalize(ctx, S, w)
assert len(form) == 15
s1 = ctx.element("s1")
out = left_mult_update(ctx, S, s1, form)
assert is_normal(ctx, S, out)
assert sum(f.norm for f in out.factors) == 41
assert out == normalize(ctx, S, s1.canon + w)
print(len(out))
"""


def test_left_mult_update_on_a_raw_40_letter_b5_word_within_2_gb():
    proc = run_python(["-c", B5_LEFT_MULT.format(path=str(B5_FILE),
                                                 delta=B5_DELTA)])
    assert proc.returncode == 0, proc.stderr
    # s1 x has at least as many factors as x
    assert int(proc.stdout) >= 15


def test_a_raw_200_letter_b3_word_against_burau(b3_structure):
    ctx, gs = b3_structure
    rng = random.Random(200)
    word = [rng.choice(("s1", "s2")) for _ in range(200)]
    raw = "".join(ctx.element(g).canon for g in word)
    form = normalize(ctx, gs.div_delta, raw)
    assert raw not in ctx._canon
    assert sum(f.norm for f in form.factors) == 200
    product = [s for f in form.factors for s in symbols(ctx, f)]
    assert image(product) == image([(g, 1) for g in word])
    assert normalize_all(ctx, gs.div_delta, raw) == {form}


@pytest.mark.parametrize("tables", [True, False])
def test_span_inputs_are_checked_with_and_without_tables(tables):
    ctx = MonoidContext(fixture("B3"))
    delta = ctx.element("s1s2s1")
    span = (build_structure(ctx, delta).div_delta if tables
            else kernel_span(ctx, divisors(ctx, delta)))
    assert isinstance(span_arithmetic(ctx, span), GarsideTables) == tables
    for f in (normalize, normalize_all):
        with pytest.raises(PresentationError):
            f(ctx, span, "ab?")
        with pytest.raises(TypeError):
            f(ctx, span, 42)
        with pytest.raises(TypeError):
            f(ctx, span, ["a", "b"])
    # a cap below 1 binds on every element but the identity
    with pytest.raises(ResourceLimitExceeded):
        normalize_all(ctx, span, "ab", cap=0)
    assert len(normalize_all(ctx, span, "", cap=0)) == 1


# -- one arithmetic object per span -----------------------------------


def seeded_words(presentation, reach, count, seed=1):
    """Raw words of 0 to ``reach`` letters, seeded."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice(presentation.chars)
                for _ in range(rng.randint(0, reach)))
        for _ in range(count)]


@pytest.mark.parametrize("presentation,delta,_,reach", GATED, ids=GATED_IDS)
def test_least_words_read_off_the_tables_equal_the_kernel(
        presentation, delta, _, reach, tmp_path, capsys):
    # the kernel reduces each word in a context that has no tables
    ctx, gs = structure(presentation, delta)
    ref = MonoidContext(presentation)
    words = seeded_words(presentation, reach, 40)
    assert max(map(len, words)) == reach
    for w in words:
        assert gs.arithmetic.least_word(w) == ref.canonical(w).canon, w
    # the CLI reads the element off the tables, as the kernel shows it
    path = tmp_path / "presentation.txt"
    path.write_text(serialize_presentation(presentation))
    for w in sorted(words, key=len)[-4:]:
        for command in ("normalize", "all-normal-forms"):
            assert main([command, "--json", "--file", str(path), "--delta",
                         ctx.show(gs.delta), ref.show(w)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["element"] == ref.show(ref.canonical(w)), w


def test_covering_of_elements_that_are_not_simple_equals_the_kernel():
    for name, delta in (("B3", "s1s2s1"), ("free_comm(3)", "abc")):
        ctx, gs = structure(fixture(name), delta)
        ref = MonoidContext(fixture(name))
        ref_div = kernel_span(ref, divisors(ref, ref.element(delta)))
        ball = sorted(ctx.enumerate_ball(3))
        for x, y in itertools.product(ball, repeat=2):
            rx, ry = ref.canonical(x.canon), ref.canonical(y.canon)
            assert (covers(ctx, gs.div_delta, x, y)
                    == covers(ref, ref_div, rx, ry)), (name, x, y)


def test_the_proof_of_delta_is_asked_for_only_past_the_gate(monkeypatch):
    def failed(ctx, d):
        return VerificationReport("garside", "fail")

    def unasked(ctx, d):
        raise AssertionError("is_garside asked before the gate passed")

    # M3 with delta = ac fails the gate: the kernel, with no proof asked
    monkeypatch.setattr(delta_layer, "is_garside", unasked)
    ctx = MonoidContext(fixture("M3"))
    got = span_arithmetic(ctx, divisors(ctx, ctx.element("ac")))
    assert got.__class__ is SpanKernel
    assert span_arithmetic(ctx, divisors(ctx, ctx.element("ac"))) is got
    # B3 passes the gate, and where both proofs fail, the germ's and
    # is_garside, the kernel is kept and no structure is built
    monkeypatch.setattr(delta_layer, "is_garside", failed)
    monkeypatch.setattr(structure_layer, "_proved_tables", no_germ)
    ctx = MonoidContext(fixture("B3"))
    div = divisors(ctx, ctx.element("s1s2s1"))
    assert span_arithmetic(ctx, div).__class__ is SpanKernel
    with pytest.raises(ValueError, match="not a Garside element"):
        build_structure(ctx, ctx.element("s1s2s1"))
    monkeypatch.undo()
    other = MonoidContext(fixture("B3"))
    assert isinstance(span_arithmetic(other, divisors(
        other, other.element("s1s2s1"))), GarsideTables)


# -- delta proved on its germ -----------------------------------------

GERMS = (
    (fixture("B3"), "s1s2s1"),
    (fixture("free_comm(3)"), "abc"),
    (fixture("free_comm(4)"), "abcd"),
    (oracles.B4, "s1s2s1s3s2s1"),
)


def no_germ(ctx, div):
    return None


@pytest.mark.parametrize("presentation,delta", GERMS,
                         ids=[p.name for p, _ in GERMS])
def test_build_structure_proves_delta_on_its_germ(presentation, delta,
                                                  monkeypatch):
    def unasked(*args, **kwargs):
        raise AssertionError("the kernel proof was asked")

    for layer, name in ((delta_layer, "is_garside"),
                        (delta_layer, "is_spanning"),
                        (delta_layer, "enumerate_simples"),
                        (structure_layer, "is_spanning"),
                        (structure_layer, "enumerate_simples"),
                        (structure_layer, "mcms")):
        monkeypatch.setattr(layer, name, unasked)
    ctx = MonoidContext(presentation)
    gs = build_structure(ctx, ctx.element(delta))
    assert isinstance(gs.arithmetic, GarsideTables)
    # the structure the kernel proves, with the germ check set aside,
    # and the tables of its span
    monkeypatch.undo()
    monkeypatch.setattr(structure_layer, "_proved_tables", no_germ)
    ref = MonoidContext(presentation)
    kernel = build_structure(ref, ref.element(delta))
    for field in ("delta", "div_delta", "simples", "star", "phi_atoms",
                  "order"):
        assert getattr(gs, field) == getattr(kernel, field), field
    tables = gs.arithmetic
    ref_tables = garside_tables(ref, kernel.div_delta)
    assert tables.elements == ref_tables.elements
    assert tables.dual == ref_tables.dual
    assert tables._slides == ref_tables._slides
    # the simples, enumerated on a context that proved nothing
    other = MonoidContext(presentation)
    assert gs.simples == enumerate_simples(
        other, divisors(other, other.element(delta)))
    # the germ's simples are those of the span for every later caller
    assert enumerate_simples(ctx, gs.div_delta) is gs.simples
    assert gs.simples.members == gs.div_delta.members


THIN = [("M1", "aa"), ("M1", "ab"), ("M2", "aa"), ("M2", "ab"),
        ("M2", "ac"), ("M3", "ac")]


@pytest.mark.parametrize("name,delta", THIN,
                         ids=[f"{n}-{d}" for n, d in THIN])
def test_build_structure_enumerates_no_simple(name, delta, monkeypatch):
    # the thin spans are proved on the kernel, and their simples strictly
    # contain Div(delta): none is enumerated until the structure is read
    def unasked(*args, **kwargs):
        raise AssertionError("the simples were enumerated")

    for layer in (delta_layer, structure_layer):
        monkeypatch.setattr(layer, "enumerate_simples", unasked)
    ctx = MonoidContext(fixture(name))
    gs = build_structure(ctx, ctx.element(delta))
    assert isinstance(gs.arithmetic, FractionKernel)
    # nor by the word problem: the fold reads no simple
    a, b = ctx.element("a"), ctx.element("b")
    assert (group_equal(ctx, gs, [(a, 1), (b, 1), (a, -1)], [(b, 1)])
            == (ctx.mul(a, b) == ctx.mul(b, a)))
    for lhs, rhs in ctx.presentation.relations:
        word = ([(ctx.canonical(c), 1) for c in lhs]
                + [(ctx.canonical(c), -1) for c in reversed(rhs)])
        assert group_equal(ctx, gs, word, [])
    assert "simples" not in ctx.caches
    monkeypatch.undo()
    # the first read is the span's memo, and the simples of a context
    # that built no structure
    other = MonoidContext(fixture(name))
    want = enumerate_simples(other, divisors(other, other.element(delta)))
    assert gs.simples == want
    assert gs.simples is ctx.caches["simples"][gs.div_delta.members]
    assert gs.simples is enumerate_simples(ctx, gs.div_delta)
    assert gs.simples.members > gs.div_delta.members


def test_repr_and_equality_enumerate_no_simple(monkeypatch):
    def unasked(*args, **kwargs):
        raise AssertionError("the simples were enumerated")

    for layer in (delta_layer, structure_layer):
        monkeypatch.setattr(layer, "enumerate_simples", unasked)
    ctx = MonoidContext(fixture("M3"))
    gs = build_structure(ctx, ctx.element("ac"))
    assert "_simples=None" in repr(gs)
    assert gs == gs


def test_simples_are_kept_as_given():
    ctx = MonoidContext(fixture("M3"))
    gs = build_structure(ctx, ctx.element("ac"))
    given = ElementSet(frozenset([ctx.one]), "given")
    object.__setattr__(gs, "simples", given)
    assert gs.simples is given
    assert "simples" not in ctx.caches
    gs.simples = None
    assert len(gs.simples) == 7 and "simples" in ctx.caches


def left_set_masks(ctx, elements, ids):
    """The left divisor sets within the set, as bitmasks of ids, by one
    ``divides`` per pair."""
    div = ElementSet(frozenset(elements), "set")
    return [sum(1 << ids[d.canon] for d in divisors_in(ctx, div, e))
            for e in elements]


@pytest.mark.parametrize("presentation,delta", GERMS + (
    (parse_presentation(B5_FILE.read_text()), B5_DELTA),),
    ids=[p.name for p, _ in GERMS] + ["B5"])
def test_the_left_sets_from_products_are_the_divisor_sets(presentation,
                                                          delta):
    ctx = MonoidContext(presentation)
    elements = sorted(divisors(ctx, ctx.element(delta)))
    ids = {e.canon: i for i, e in enumerate(elements)}
    got = structure_layer._left_sets(ctx, elements, ids,
                                 sorted(ctx.ball_level(1)))
    assert got == left_set_masks(MonoidContext(presentation), elements, ids)


def test_the_left_sets_the_gate_reaches_on_random_presentations(
        monkeypatch):
    # every Div(Delta) of norm <= 4 in the seeded presentations whose
    # gate gets as far as the left sets
    reached = []

    def recorded(ctx, elements, ids, atoms):
        got = left_sets(ctx, elements, ids, atoms)
        reached.append((ctx.presentation, elements, ids, got))
        return got

    left_sets = structure_layer._left_sets
    monkeypatch.setattr(structure_layer, "_left_sets", recorded)
    for seed in range(60):
        presentation = oracles.random_presentation(seed)
        for d in sorted(MonoidContext(presentation).enumerate_ball(4)):
            ctx = MonoidContext(presentation)
            garside_tables(ctx, divisors(ctx, ctx.element(d.canon)))
    assert len(reached) > 60
    for presentation, elements, ids, got in reached:
        ref = MonoidContext(presentation)
        assert got == left_set_masks(ref, elements, ids), elements


# past the gate, each presentation fails one germ condition: ab right
# divides aaa (= aab) but does not left divide it, and aaa = bbb lies
# outside Div(aba); Delta is no Garside element of either.  In the
# others a relation side lies outside Div(Delta), and is_garside passes
# Delta, so the structure is built on the kernel: aab = aba follows from
# ab = ba; a and b have the common multiple aaaa = bbbb, which ab does
# not divide, so ab is no Garside element, but is_garside's clean-level
# certificate passes it; and oracles.random_presentation(51), committed
# as a file for the CLI, is not cancellative, which build_structure's
# check on the kernel route refutes
LEFT_IS_NOT_RIGHT = parse_presentation("gens: a b\nrels: aaa = bbb; aab = bbb",
                                       name="left-is-not-right")
LONG_RELATION = parse_presentation("gens: a b\nrels: aba = bab; aaa = bbb",
                                   name="long-relation")
REDUNDANT = parse_presentation("gens: a b\nrels: ab = ba; aab = aba",
                               name="redundant")
FOUR_POWERS = parse_presentation("gens: a b\nrels: ab = ba; aaaa = bbbb",
                                 name="four-powers")
RANDOM_51_FILE = pathlib.Path(__file__).parent / "data" / "random51.txt"
RANDOM_51 = parse_presentation(RANDOM_51_FILE.read_text(), name="random(51)")


@pytest.mark.parametrize("presentation,delta,garside,refusal", [
    (LEFT_IS_NOT_RIGHT, "aaa", False, "not a Garside element"),
    (LONG_RELATION, "aba", False, "not a Garside element"),
    (REDUNDANT, "ab", True, None), (FOUR_POWERS, "ab", True, None),
    (RANDOM_51, "aa", True, "not cancellative")],
    ids=["left-is-not-right", "long-relation", "redundant", "four-powers",
         "random51"])
def test_the_germ_proves_nothing_where_a_condition_fails(presentation, delta,
                                                         garside, refusal):
    ctx = MonoidContext(presentation)
    d = ctx.element(delta)
    div = divisors(ctx, d)
    assert garside_tables(ctx, div) is not None
    assert structure_layer._proved_tables(ctx, div) is None
    assert "simples" not in ctx.caches
    assert is_garside(ctx, d).passed == garside
    other = MonoidContext(presentation)
    got = span_arithmetic(other, divisors(other, other.element(delta)))
    assert got.__class__ is SpanKernel
    if refusal:
        with pytest.raises(ValueError, match=refusal):
            build_structure(ctx, d)
        return
    # is_garside, the simples on the kernel, and no tables
    gs = build_structure(ctx, d)
    assert isinstance(gs.arithmetic, FractionKernel)
    assert gs.simples == enumerate_simples(MonoidContext(presentation), div)


def test_powers_of_four_are_equal_where_ab_is_no_garside_element(capsys,
                                                                 tmp_path):
    ctx, gs = structure(FOUR_POWERS, "ab")
    a, b = ctx.element("a"), ctx.element("b")
    assert group_equal(ctx, gs, [(a, 1)] * 4, [(b, 1)] * 4)
    # no simple of Div(ab) heads aaaa: the CLI says so, and prints no
    # normal form
    path = tmp_path / "presentation.txt"
    path.write_text(serialize_presentation(FOUR_POWERS))
    assert main(["normalize", "--file", str(path), "--delta", "ab",
                 "bbbb"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("pick", ["build_structure", "span_arithmetic"])
def test_random_51_normalises_as_its_kernel(pick):
    assert RANDOM_51.relations == oracles.random_presentation(51).relations
    ctx = MonoidContext(RANDOM_51)
    d = ctx.element("aa")
    div = divisors(ctx, d)
    if pick == "build_structure":
        # refused, after the span got its arithmetic: a.ab = a.ba
        with pytest.raises(ValueError, match="not cancellative"):
            build_structure(ctx, d)
    else:
        span_arithmetic(ctx, div)
    ref = MonoidContext(RANDOM_51)
    ref_div = divisors(ref, ref.element("aa"))
    want = normalize(ref, ref_div, "aba")
    assert [f.canon for f in want.factors] == ["aa", "b"]
    assert normalize(ctx, div, "aba") == want
    got = span_arithmetic(ctx, div).least_word("aba")
    assert got == span_arithmetic(ref, ref_div).least_word("aba") == "aab"


def test_random_51_has_no_structure_and_no_group_answer(capsys):
    # a.ab = a.ba, so ab = ba in the group; build_structure names that
    # witness, and the word problem answers neither way
    ctx = MonoidContext(RANDOM_51)
    with pytest.raises(ValueError) as exc:
        build_structure(ctx, ctx.element("aa"))
    assert str(exc.value) == ("the monoid is not cancellative: {'x': 'a', "
                              "'y': 'ab', 'y2': 'ba', 'side': 'left'}")
    for left, right in (("a b", "b a"), ("a a b", "a b a")):
        assert main(["word-problem", "--file", str(RANDOM_51_FILE),
                     "--delta", "aa", left, right]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {exc.value}\n"


def test_the_tables_answer_as_the_kernel_on_random_presentations():
    # every Delta of norm <= 4 that build_structure puts on tables, in
    # the seeded presentations: each raw word of length <= 5 has the
    # normal form of a context whose span keeps the kernel.  Tables
    # need the gate, so the others are not built
    structures = 0
    for seed in range(60):
        presentation = oracles.random_presentation(seed)
        words = ["".join(w) for n in range(6)
                 for w in itertools.product(presentation.chars, repeat=n)]
        for d in sorted(MonoidContext(presentation).enumerate_ball(4)):
            ctx = MonoidContext(presentation)
            div = divisors(ctx, ctx.element(d.canon))
            if garside_tables(ctx, div) is None:
                continue
            try:
                gs = build_structure(ctx, ctx.element(d.canon))
            except (ValueError, ResourceLimitExceeded):
                continue
            if not isinstance(gs.arithmetic, GarsideTables):
                continue
            structures += 1
            ref = MonoidContext(presentation)
            ref_div = kernel_span(ref, divisors(ref, ref.element(d.canon)))
            for w in words:
                assert (normalize(ctx, div, w)
                        == normalize(ref, ref_div, w)), (seed, d, w)
    assert structures > 30


# every element up to a norm; on the lattices the germ proves exactly
# what is_garside proves, on the paper's thin monoids it proves nothing
SWEEP = (
    (fixture("M1"), 6, "thin"), (fixture("M2"), 6, "thin"),
    (fixture("M3"), 6, "thin"), (fixture("B3"), 6, "lattice"),
    (fixture("free_comm(3)"), 6, "lattice"), (oracles.B4, 6, "lattice"),
    (LEFT_IS_NOT_RIGHT, 5, None), (LONG_RELATION, 5, None),
)


@pytest.mark.parametrize("presentation,norm,kind", SWEEP,
                         ids=[p.name for p, *_ in SWEEP])
def test_a_germ_proof_is_a_garside_proof(presentation, norm, kind):
    ctx = MonoidContext(presentation)
    ref = MonoidContext(presentation)
    germ, kernel = set(), set()
    for n in range(norm + 1):
        for d in ctx.ball_level(n):
            if structure_layer._proved_tables(ctx, divisors(ctx, d)):
                germ.add(d.canon)
            if is_garside(ref, d.canon).passed:
                kernel.add(d.canon)
    assert germ <= kernel, germ - kernel
    if kind == "lattice":
        assert germ == kernel and germ
    elif kind == "thin":
        assert not germ and kernel


LATTICES = ("B3", "free_comm(3)", "B4")


@pytest.mark.parametrize("name,delta", [
    ("M1", "aa"), ("M1", "ab"), ("M2", "aa"), ("M2", "ab"), ("M2", "ac"),
    ("M3", "ac"), ("B3", "s1s2s1"), ("free_comm(3)", "abc"),
    ("B4", "s1s2s1s3s2s1")])
def test_normal_forms_stay_when_the_span_gets_its_arithmetic(name, delta):
    # the arithmetic span_arithmetic chose before build_structure
    # answers after it too, with the same memos: normal forms, covering
    # and normality do not depend on the order of the calls
    ctx = MonoidContext(oracles.B4 if name == "B4" else fixture(name))
    d = ctx.element(delta)
    div = divisors(ctx, d)
    ball = sorted(ctx.enumerate_ball(6))
    pairs = list(itertools.product(sorted(ctx.enumerate_ball(2)), repeat=2))

    def forms():
        return ([(normalize(ctx, div, x), normalize_all(ctx, div, x))
                 for x in ball]
                + [(covers(ctx, div, x, y), is_normal(ctx, div, (x, y)))
                   for x, y in pairs])

    before = span_arithmetic(ctx, div)
    assert isinstance(before, GarsideTables) == (name in LATTICES)
    expected = forms()
    gs = build_structure(ctx, d)
    assert span_arithmetic(ctx, div) is before
    assert (gs.arithmetic is before) == (name in LATTICES)
    assert forms() == expected


@pytest.mark.parametrize("presentation,delta,tables", [
    (fixture("B3"), "s1s2s1", True), (fixture("free_comm(3)"), "abc", True),
    (oracles.B4, "s1s2s1s3s2s1", True),
    (parse_presentation(B5_FILE.read_text()), B5_DELTA, True),
    (fixture("M1"), "aa", False), (fixture("M1"), "ab", False),
    (fixture("M2"), "aa", False), (fixture("M2"), "ab", False),
    (fixture("M2"), "ac", False), (fixture("M3"), "ac", False),
    (RANDOM_51, "aa", False), (FOUR_POWERS, "ab", False)],
    ids=["B3", "free_comm(3)", "B4", "B5", "M1-aa", "M1-ab", "M2-aa",
         "M2-ab", "M2-ac", "M3-ac", "random51", "four-powers"])
def test_a_span_gets_one_arithmetic_on_a_fresh_context(presentation, delta,
                                                      tables):
    ctx = MonoidContext(presentation)
    d = ctx.element(delta)
    div = divisors(ctx, d)
    got = span_arithmetic(ctx, div)
    assert got.__class__ is (GarsideTables if tables else SpanKernel)
    if presentation is RANDOM_51:
        # not cancellative: no structure, and the span keeps its kernel
        with pytest.raises(ValueError, match="not cancellative"):
            build_structure(ctx, d)
        assert span_arithmetic(ctx, div) is got
        return
    gs = build_structure(ctx, d)
    assert span_arithmetic(ctx, div) is got
    if tables:
        assert gs.arithmetic is got
    else:
        # the structure's fraction keys take their forms from the span
        assert gs.arithmetic.factors == got.normal_form


def test_cold_left_mult_update_and_is_normal_enumerate_no_simple(
        monkeypatch):
    # on B4 the span gets its tables, and their simples, before any
    # simple is asked for
    def unasked(*args, **kwargs):
        raise AssertionError("a simple was enumerated on the kernel")

    monkeypatch.setattr(structure_layer, "_codim1_divisors", unasked)
    for call in ("left_mult_update", "is_normal"):
        ctx = MonoidContext(oracles.B4)
        div = divisors(ctx, ctx.element("s1s2s1s3s2s1"))
        s1, s2s1 = ctx.element("s1"), ctx.element("s2s1")
        if call == "left_mult_update":
            got = left_mult_update(ctx, div, s1, [s2s1])
            assert [f.canon for f in got.factors] == [ctx.mul(s1, s2s1).canon]
        else:
            assert is_normal(ctx, div, [s2s1, s1])
            assert not is_normal(ctx, div, [s1, s2s1])
        assert isinstance(span_arithmetic(ctx, div), GarsideTables)


# a dual that sends two ids to one: the orbit of its square never
# returns to the identity, so building the twists would not end
BAD_DUAL = """
from garside import MonoidContext, fixture
from garside.structure import GarsideTables
ctx = MonoidContext(fixture("B3"))
try:
    GarsideTables(ctx, sorted(ctx.enumerate_ball(1)), [1, 1, 0], [None] * 9,
                  {})
except ValueError as exc:
    print(exc)
"""


def test_tables_reject_a_dual_that_is_no_permutation():
    proc = run_python(["-c", BAD_DUAL])
    assert proc.returncode == 0, proc.stderr
    assert "must permute the ids" in proc.stdout


# normalize and all-normal-forms on a seeded raw 256-letter B5 word
# within 2 GB of address space: the CLI passes the word to the tables
B5_CLI = """
import contextlib, io, json, random, resource
limit = 2_000_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from garside import parse_presentation
from garside.cli import main
pres = parse_presentation(open({path!r}).read())
rng = random.Random(256)
w = pres.decode_word("".join(rng.choice(pres.chars) for _ in range(256)))
for command in ("normalize", "all-normal-forms"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--json", "--file", {path!r}, "--delta",
                     {delta!r}, w]) == 0
    got = json.loads(out.getvalue())
    forms = got["forms"] if "forms" in got else [got["factors"]]
    assert len(forms) == 1
    norms = [len(pres.encode_word(f)) for f in forms[0]]
    print(sum(norms), len(pres.encode_word(got["element"])))
"""


def test_the_cli_normalises_a_raw_256_letter_b5_word_within_2_gb():
    proc = run_python(["-c", B5_CLI.format(path=str(B5_FILE),
                                           delta=B5_DELTA)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["256"] * 4


def test_b5_passes_the_gate_and_builds_its_automaton_fast():
    ctx, gs = structure(parse_presentation(B5_FILE.read_text()), B5_DELTA)
    assert isinstance(gs.arithmetic, GarsideTables)
    assert len(gs.div_delta) == len(gs.simples) == 120
    t0 = time.perf_counter()
    auto = build_automaton(ctx, gs)
    assert time.perf_counter() - t0 < 1.0
    # 118 plain letters, delta and D'
    assert len(auto.letters) == 120
    # the left-weighted pairs of S5 simples: s|t is left-weighted iff
    # every atom that starts t ends s; s1|s1 is, s1|s2 is not
    s1, s2 = ctx.element("s1"), ctx.element("s2")
    assert auto.table[(s1, s1)] == s1
    assert auto.table[(s1, s2)] is not s2


# -- long words against oracles ---------------------------------------


LONG = settings(derandomize=True, deadline=None, max_examples=40)
BRAID_RELATOR = [("s1", 1), ("s2", 1), ("s1", 1), ("s2", -1), ("s1", -1),
                 ("s2", -1)]


@st.composite
def long_pairs(draw, gens, relators, min_size=64):
    """A long signed word and a second one: the same with relators and
    cancelling pairs inserted (equal), with two letters swapped or one
    sign flipped (often unequal), or an unrelated word."""
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    w1 = draw(st.lists(letters, min_size=min_size, max_size=min_size + 32))
    kind = draw(st.sampled_from(("planted", "swapped", "flipped",
                                 "unrelated")))
    w2 = list(w1)
    if kind == "planted":
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(w2)))
            r = draw(st.sampled_from(relators))
            if draw(st.booleans()):
                r = [(g, -s) for g, s in reversed(r)]
            w2[i:i] = r
    elif kind == "swapped":
        i = draw(st.integers(0, len(w2) - 2))
        w2[i], w2[i + 1] = w2[i + 1], w2[i]
    elif kind == "flipped":
        i = draw(st.integers(0, len(w2) - 1))
        w2[i] = (w2[i][0], -w2[i][1])
    else:
        w2 = draw(st.lists(letters, min_size=min_size,
                           max_size=min_size + 32))
    return w1, w2


def elements(ctx, word):
    return [(ctx.element(g), s) for g, s in word]


@LONG
@given(long_pairs(("s1", "s2"), (BRAID_RELATOR,
                                 [("s1", 1), ("s1", -1)])))
def test_long_b3_words_against_burau(b3_structure, pair):
    ctx, gs = b3_structure
    w1, w2 = pair
    expected = image(w1) == image(w2)
    assert group_equal(ctx, gs, elements(ctx, w1),
                       elements(ctx, w2)) == expected


@LONG
@given(long_pairs(("a", "b", "c"), ([("a", 1), ("b", 1), ("a", -1),
                                     ("b", -1)],
                                    [("b", 1), ("c", -1), ("b", -1),
                                     ("c", 1)])))
def test_long_free_comm_words_against_exponent_vectors(fc3_structure,
                                                       pair):
    ctx, gs = fc3_structure
    w1, w2 = pair

    def vector(word):
        sums = Counter()
        for g, s in word:
            sums[g] += s
        return sums["a"], sums["b"], sums["c"]

    assert group_equal(ctx, gs, elements(ctx, w1),
                       elements(ctx, w2)) == (vector(w1) == vector(w2))


@pytest.fixture(scope="module")
def b3_structure():
    return structure(fixture("B3"), "s1s2s1")


@pytest.fixture(scope="module")
def fc3_structure():
    return structure(fixture("free_comm(3)"), "abc")


def planted_b4(rng, word, count):
    """The word with ``count`` rewrites that keep the braid: a relation
    applied to a positive or negative run, or a cancelling pair
    inserted."""
    rewrites = []
    for lhs, rhs in oracles.B4.relations:
        u = [oracles.B4.symbol_of(c) for c in lhs]
        v = [oracles.B4.symbol_of(c) for c in rhs]
        rewrites += [(u, v), (v, u)]
    w = list(word)
    for _ in range(count):
        moves = []
        for u, v in rewrites:
            pos = [(g, 1) for g in u]
            neg = [(g, -1) for g in reversed(u)]
            for i in range(len(w) - len(u) + 1):
                if w[i:i + len(u)] == pos:
                    moves.append((i, len(u), [(g, 1) for g in v]))
                elif w[i:i + len(u)] == neg:
                    moves.append((i, len(u),
                                  [(g, -1) for g in reversed(v)]))
        if moves and rng.random() < 0.7:
            i, n, new = rng.choice(moves)
            w[i:i + n] = new
        else:
            g, s = rng.choice(("s1", "s2", "s3")), rng.choice((1, -1))
            i = rng.randrange(len(w) + 1)
            w[i:i] = [(g, s), (g, -s)]
    return w


def test_b4_200_letter_words_in_milliseconds():
    ctx, gs = structure(oracles.B4, "s1s2s1s3s2s1")
    rng = random.Random(200)
    # mostly positive, so that many relations apply
    w1 = [(rng.choice(("s1", "s2", "s3")), 1 if rng.random() < 0.8 else -1)
          for _ in range(200)]
    w2 = planted_b4(rng, w1, 60)
    assert w2 != w1 and len(w2) >= 200
    e1, e2 = elements(ctx, w1), elements(ctx, w2)
    t0 = time.perf_counter()
    assert group_equal(ctx, gs, e1, e2)
    assert time.perf_counter() - t0 < 1.0
    identity = e1 + [(g, -s) for g, s in reversed(e2)]
    t0 = time.perf_counter()
    assert group_equal(ctx, gs, identity, [])
    assert time.perf_counter() - t0 < 1.0
    arith = gs.arithmetic
    one = (0, arith.one)
    assert arith.fold(one, identity) == arith.fold(one, [])
    # one sign flipped is another braid (another degree), and one
    # letter changed is another braid of the same degree
    flipped = e2[:100] + [(e2[100][0], -e2[100][1])] + e2[101:]
    assert not group_equal(ctx, gs, e1, flipped)
    other = ctx.element("s1" if w2[100][0] != "s1" else "s2")
    changed = e2[:100] + [(other, e2[100][1])] + e2[101:]
    assert not group_equal(ctx, gs, e1, changed)


@pytest.mark.parametrize("name,delta", [("B3", "s1s2s1"),
                                        ("free_comm(3)", "abc")])
def test_folds_on_tables_reduce_no_word_longer_than_delta(name, delta):
    # fraction forms hold Delta-normal forms, so folding a long word,
    # combining two forms and forming a fraction reduce no long product
    ctx, gs = structure(fixture(name), delta)
    atoms = sorted(ctx.ball_level(1))
    rng = random.Random(40)
    # mostly positive, so that the forms are long
    word = [(rng.choice(atoms), 1 if rng.random() < 0.8 else -1)
            for _ in range(40)]
    before = set(ctx._canon)
    f = fraction_of_signed(ctx, gs, word)
    combine(ctx, gs, fraction_of_signed(ctx, gs, word[:7]), f)
    to_fraction(ctx, gs, gs.delta, atoms[0])
    added = set(ctx._canon) - before
    assert not [w for w in added if len(w) > gs.delta.norm], added


# -- word lengths read off Delta-normal forms --------------------------


def outcome(distance, *args, **limits):
    """The distance, or the message of the ResourceLimitExceeded."""
    try:
        return distance(*args, **limits)
    except ResourceLimitExceeded as exc:
        return ("raised", str(exc))


def public_ball_keys(gs):
    """Stripped keys (k, x) for x in the radius-2 ball and k <= 2."""
    return sorted({_strip(gs, k, x) for x in gs.ctx.enumerate_ball(2)
                   for k in (0, 1, 2)})


@pytest.mark.parametrize("presentation,delta,_,__", GATED, ids=GATED_IDS)
def test_table_lengths_equal_the_cayley_search(presentation, delta, _, __):
    # the search runs in a context of its own, so it shares no memo
    ctx, gs = structure(presentation, delta)
    ref, rgs = structure(presentation, delta)
    keys = public_ball_keys(gs)
    rkeys = [(k, ref.canonical(x.canon)) for k, x in keys]
    internal = [gs.arithmetic.key(key) for key in keys]
    table_distance = gs.arithmetic.distance
    lengths = Counter()
    for (a, ra), (b, rb) in itertools.product(zip(internal, rkeys),
                                              repeat=2):
        d = table_distance(a, b, 16)
        assert d == cayley_distance(ref, rgs, ra, rb), (a, b)
        lengths[d] += 1
        # max_dist binds as in the search
        assert (outcome(table_distance, a, b, max_dist=d - 1)
                == outcome(cayley_distance, ref, rgs, ra, rb,
                           max_dist=d - 1))
    assert set(lengths) == {0, 1, 2, 3, 4}


def searched_synchronous_distance(gs, u, v, max_dist):
    """synchronous_distance with every prefix distance a Cayley search,
    the keys folded letter by letter through ``oracles.step``."""
    one = (0, gs.ctx.one)
    keys = []
    for word in (u, v):
        keys.append([one])
        for letter in word:
            keys[-1].append(step(gs, keys[-1][-1], letter))
    pk, qk = keys
    return max(cayley_distance(gs.ctx, gs, pk[min(i, len(u))],
                               qk[min(i, len(v))], max_dist=max_dist)
               for i in range(1, max(len(u), len(v), 1) + 1))


@pytest.mark.parametrize("presentation,delta,_,__", GATED, ids=GATED_IDS)
def test_synchronous_distance_on_tables_matches_a_search(presentation, delta,
                                                         _, __):
    ctx, gs = structure(presentation, delta)
    ref, rgs = structure(presentation, delta)
    letters = build_automaton(ctx, gs).letters
    rletters = build_automaton(ref, rgs).letters
    rng = random.Random(1995)
    seen = Counter()
    # on the larger alphabets (B4, type B3) words of at most two letters
    # keep the search within distance 4
    longest = 4 if len(letters) <= 8 else 2
    for _ in range(60):
        u, v = ([rng.randrange(len(letters))
                 for _ in range(rng.randint(0, longest))] for _ in range(2))
        for max_dist in (1, 2, 16):
            got = outcome(synchronous_distance, ctx, gs,
                          [letters[i] for i in u], [letters[i] for i in v],
                          max_dist=max_dist)
            assert got == outcome(
                searched_synchronous_distance, rgs, [rletters[i] for i in u],
                [rletters[i] for i in v], max_dist), (u, v, max_dist)
            seen[got if isinstance(got, int) else got[1]] += 1
    assert "no path of length <= 1 between the elements" in seen
    assert max(d for d in seen if isinstance(d, int)) >= 3
    # the explicit search was not run on the tables' side
    assert "cayley_graph" not in ctx.caches


def test_b4_synchronous_distance_beyond_the_node_cap_of_the_search():
    # the bidirectional search exceeds its default 200000-node cap on
    # this pair; the lengths are read off the normal forms at once
    ctx, gs = structure(oracles.B4, "s1s2s1s3s2s1")
    s1, s2 = ctx.element("s1"), ctx.element("s2")
    t0 = time.perf_counter()
    assert synchronous_distance(ctx, gs, [s1] * 6, [s2] * 6) == 12
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ResourceLimitExceeded,
                       match="no path of length <= 11 between"):
        synchronous_distance(ctx, gs, [s1] * 6, [s2] * 6, max_dist=11)
