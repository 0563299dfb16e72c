"""Class-based oracles for the tests, and the extra presentations they
are run on.

The oracles share no code with the package's word problem, except
``cancellation_scan``.  A congruence class is enumerated here by
breadth-first closure under single relation applications; the package
enumerates none, so this is the only BFS over classes.  Divisibility,
minimal common multiples and simple elements are read off classes by
their definitions.  Elements come back as ``Element`` of the
least word of their class; arguments may be elements or internal words.

``cancellation_scan`` runs on the context's products and balls: it
searches every pair of ball levels by norm for a cancellation failure,
and is the reference for the whole reports of
``check_cancellative_bounded``, witness included.

``ftp_probe_per_call`` is the reference loop of ``ftp_probe``: it
recomputes every normal form through ``normalize_all``, measures every
sliding form, and takes every synchronous distance, parts (a) and (b),
from ``chain_distance``, where ``ftp_probe`` does each of these once per
call on the span arithmetic's own forms.

``_step`` is a per-letter step of a fraction key on the kernel that
multiplies an inverse in through its complement in a power of delta and
applies phi^(-m) at once: the reference of ``FractionKernel.fold``,
which defers phi to the end of the word.

``step`` multiplies a public or internal fraction key by one letter on
the span's arithmetic, its ``key`` then its ``fold``, and returns the
public key (k, x), x the product of the ``factors`` of the form
(``public``).  ``chain_distance`` is ``synchronous_distance`` with the
first word translated by a key, and shares no code with the package's
chains: each prefix is folded afresh by ``step``, each word clamped at
its own length, the floor applied here, and only each position's
distance is the structure arithmetic's ``distance``.

``kernel_span`` registers a ``SpanKernel`` for a span by hand, where
``structure.span_arithmetic`` would choose the Garside tables, so that
the kernel stays the reference of the tables' normal forms, covering
and slides.
"""

import random
from functools import lru_cache

from garside import (DELTA_INV, Element, GarsideStructure, NormalSequence,
                     Presentation, ResourceLimitExceeded, VerificationReport,
                     build_automaton, left_mult_update, normalize_all,
                     parse_presentation)
from garside.automaton import cayley_distance
from garside.structure import SpanKernel, _coerce_set

LENGTH_ONE = Presentation(["s1", "s2", "s3"],
                          [("s1s2s1", "s2s1s2"), ("s3", "s1")])
NOT_LEFT_CANCELLATIVE = Presentation(["a", "b"], [("ab", "aa")])
NOT_RIGHT_CANCELLATIVE = Presentation(["a", "b"], [("ba", "aa")])
# two presentations whose completions need the critical pairs of a new
# rule on both sides of every older one
B4 = parse_presentation("gens: s1 s2 s3\n"
                        "rels: s1s3 = s3s1; s1s2s1 = s2s1s2; s2s3s2 = s3s2s3",
                        name="B4")
CYCLIC = parse_presentation("gens: a b c\nrels: abc = bca = cab",
                            name="cyclic")


def kernel_span(ctx, S):
    """The span S, with a ``SpanKernel`` registered for it on ctx as
    its arithmetic: its normal forms and covering are the kernel's."""
    S = _coerce_set(ctx, S)
    ctx.caches["arithmetic"][S.members] = SpanKernel(ctx, S)
    return S


def random_presentation(seed) -> Presentation:
    """2 to 4 generators and 1 to 3 relations between random words of
    one length from 1 to 4, seeded."""
    rng = random.Random(seed)
    gens = "abcd"[:rng.randint(2, 4)]
    rels = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 4)
        u = v = ""
        while u == v:
            u, v = ("".join(rng.choice(gens) for _ in range(n))
                    for _ in "uv")
        rels.append((u, v))
    return Presentation(list(gens), rels, name=f"random({seed})")


def _rules(relations):
    return [(u, v) for u, v in relations] + [(v, u) for u, v in relations]


def _rewrites(rules, w):
    """The words one relation application away from w."""
    for lhs, rhs in rules:
        i = w.find(lhs)
        while i >= 0:
            yield w[:i] + rhs + w[i + len(lhs):]
            i = w.find(lhs, i + 1)


@lru_cache(maxsize=None)
def _class(relations, word):
    rules = _rules(relations)
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for w2 in _rewrites(rules, w):
                if w2 not in seen:
                    seen.add(w2)
                    new.append(w2)
        frontier = new
    return frozenset(seen)


def congruent(ctx, u, v) -> bool:
    """Are the words u and v congruent?  A breadth-first search from
    both ends, which stops where they meet instead of enumerating the
    class."""
    if u == v:
        return True
    rules = _rules(ctx.presentation.relations)
    mine, other = {u}, {v}
    frontier, across = [u], [v]
    while frontier and across:
        if len(frontier) > len(across):
            mine, other, frontier, across = other, mine, across, frontier
        new = []
        for w in frontier:
            for w2 in _rewrites(rules, w):
                if w2 in other:
                    return True
                if w2 not in mine:
                    mine.add(w2)
                    new.append(w2)
        frontier = new
    return False


def _word(x):
    return x.canon if isinstance(x, Element) else x


def word_class(ctx, x) -> frozenset:
    return _class(ctx.presentation.relations, _word(x))


def least(ctx, x) -> Element:
    return Element(min(word_class(ctx, x)))


def left_complements(ctx, x, y) -> frozenset:
    """Every z with x z = y."""
    n = len(_word(x))
    xcls = word_class(ctx, x)
    return frozenset(least(ctx, w[n:]) for w in word_class(ctx, y)
                     if w[:n] in xcls)


def right_complements(ctx, x, y) -> frozenset:
    """Every z with z x = y."""
    n = len(_word(x))
    xcls = word_class(ctx, x)
    return frozenset(least(ctx, w[:len(w) - n]) for w in word_class(ctx, y)
                     if len(w) >= n and w[len(w) - n:] in xcls)


def right_divides(ctx, x, y):
    """The least z with z x = y, or None."""
    return min(right_complements(ctx, x, y), default=None)


def divisors(ctx, x) -> frozenset:
    return frozenset(least(ctx, w[:k]) for w in word_class(ctx, x)
                     for k in range(len(w) + 1))


def right_divisors(ctx, x) -> frozenset:
    return frozenset(least(ctx, w[k:]) for w in word_class(ctx, x)
                     for k in range(len(w) + 1))


def _multiples(ctx, x, top):
    """The right multiples of x of each norm up to ``top``, by norm."""
    out = {x.norm: frozenset([x])}
    for n in range(x.norm + 1, top + 1):
        out[n] = frozenset(least(ctx, z.canon + c) for z in out[n - 1]
                           for c in ctx.presentation.chars)
    return out


def mcms(ctx, x, y, bound):
    """(minimal common multiples, complete) as ``structure.mcms``
    defines them: a common multiple is minimal when no proper left
    divisor of it is a common multiple, and the listing is complete when
    a norm level within the bound, above the last one found, holds only
    proper multiples of those found."""
    x, y = least(ctx, x), least(ctx, y)
    if left_complements(ctx, x, y):
        return frozenset([y]), True
    if left_complements(ctx, y, x):
        return frozenset([x]), True
    mx = _multiples(ctx, x, bound)
    my = _multiples(ctx, y, bound)
    common = set()
    found = set()
    for n in range(max(x.norm, y.norm) + 1, bound + 1):
        cm = mx[n] & my[n]
        new = {z for z in cm if not divisors(ctx, z) & common}
        if found and not new and all(
                any(left_complements(ctx, m, z) for m in found) for z in cm):
            return frozenset(found), True
        found |= new
        common |= cm
    return frozenset(found), False


def simples(ctx, S, top) -> frozenset:
    """The S-simple elements of norm at most ``top``: no proper left
    divisor has the same divisors in S."""
    S = frozenset(S)
    out = set()
    for level in _multiples(ctx, Element(""), top).values():
        for x in level:
            div = divisors(ctx, x)
            own = S & div
            if all(S & divisors(ctx, d) != own for d in div if d != x):
                out.add(x)
    return frozenset(out)


def conjugation_failure(gs, ball):
    """An x of ``ball`` with x delta != delta phi(x), or None."""
    ctx = gs.ctx
    delta = gs.delta.canon
    for x in sorted(ball):
        if not congruent(ctx, x.canon + delta, delta + gs.phi(x).canon):
            return x
    return None


def centrality_failure(gs, ball):
    """An x of ``ball`` that does not commute with delta^order, or None."""
    ctx = gs.ctx
    power = gs.delta.canon * gs.order
    for x in sorted(ball):
        if not congruent(ctx, x.canon + power, power + x.canon):
            return x
    return None


def cancellation_scan(ctx, n) -> VerificationReport:
    """Search for a cancellation failure among triples with
    norm(x) + norm(y) <= n, on both sides."""
    counterexample = None
    for total in range(2, n + 1):
        for i in range(1, total):
            j = total - i
            for x in sorted(ctx.ball_level(i)):
                seen_l: dict[Element, Element] = {}
                seen_r: dict[Element, Element] = {}
                for y in sorted(ctx.ball_level(j)):
                    p = ctx.mul(x, y)
                    other = seen_l.get(p)
                    if other is not None and other != y:
                        counterexample = (x, other, y, "left")
                        break
                    seen_l[p] = y
                    q = ctx.mul(y, x)
                    other = seen_r.get(q)
                    if other is not None and other != y:
                        counterexample = (x, other, y, "right")
                        break
                    seen_r[q] = y
                if counterexample:
                    break
            if counterexample:
                break
        if counterexample:
            break
    if counterexample is None:
        return VerificationReport(
            "cancellativity", "pass", details={"radius": n})
    x, y, y2, side = counterexample
    return VerificationReport(
        "cancellativity", "fail",
        witness={"x": ctx.show(x), "y": ctx.show(y),
                 "y2": ctx.show(y2), "side": side},
        details={"radius": n})


def ftp_probe_per_call(ctx, gs, radius, span=None, plain_observations=True):
    """``ftp_probe``'s report, each distance computed on its own, with
    its bounds: distances of at most 24, searches of at most 200,000
    nodes."""
    max_dist, node_cap = 24, 200_000
    auto = build_automaton(ctx, gs)
    if span is None:
        S = gs.div_delta
        delta_mode = True
    else:
        S = _coerce_set(ctx, span)
        delta_mode = False
    k = len(S)
    bound_multi = 2 * (k - 1)
    bound_left = 3 * k
    max_multi = max_left = max_sliding = max_sliding_simple = 0
    max_plain = plain_clamped = checked = multi_pairs = 0

    def forms_of(x):
        return sorted(normalize_all(ctx, S, x), key=NormalSequence.sort_key)

    one = gs.arithmetic.key((0, ctx.one))
    for x in sorted(ctx.enumerate_ball(radius)):
        forms = forms_of(x)
        checked += 1
        for i, p in enumerate(forms):
            for q in forms[i + 1:]:
                multi_pairs += 1
                d = chain_distance(gs, one, p.factors, q.factors, max_dist,
                                   node_cap)
                max_multi = max(max_multi, d)
                if d > bound_multi:
                    return VerificationReport(
                        "fellow-traveller", "fail", bound=radius,
                        witness={"element": ctx.show(x),
                                 "forms": [p.to_json(ctx), q.to_json(ctx)],
                                 "distance": d,
                                 "allowed": bound_multi})
        if not delta_mode:
            continue
        for y in auto.letters:
            if y is DELTA_INV:
                y_key = gs.arithmetic.key((1, ctx.one))
                rest = ctx.left_divides(gs.delta, x)
                if rest is None:
                    targets = [(DELTA_INV,) + f.factors for f in forms_of(x)]
                else:
                    targets = [f.factors for f in forms_of(rest)]
            else:
                y_key = gs.arithmetic.key((0, y))
                targets = [f.factors for f in forms_of(ctx.mul(y, x))]
            for p in forms:
                dists = []
                for q in targets:
                    dists.append(chain_distance(
                        gs, y_key, p.factors, q, max_dist, node_cap))
                    if not plain_observations:
                        continue
                    try:
                        max_plain = max(max_plain, chain_distance(
                            gs, one, p.factors, q, bound_left,
                            node_cap, max_plain))
                    except ResourceLimitExceeded:
                        plain_clamped += 1
                dmin = min(dists)
                max_left = max(max_left, dmin)
                if dmin > bound_left:
                    return VerificationReport(
                        "fellow-traveller", "fail", bound=radius,
                        witness={"element": ctx.show(x),
                                 "letter": auto.letter_name(y),
                                 "distance": dmin,
                                 "allowed": bound_left})
                if y is DELTA_INV:
                    continue
                slid = left_mult_update(ctx, S, y, p)
                d = chain_distance(gs, y_key, p.factors, slid.factors,
                                   max_dist, node_cap)
                max_sliding_simple = max(max_sliding_simple, d)
                if y not in S.members:
                    continue
                max_sliding = max(max_sliding, d)
                if d > 1:
                    return VerificationReport(
                        "fellow-traveller", "fail", bound=radius,
                        witness={"element": ctx.show(x),
                                 "letter": ctx.show(y),
                                 "sliding_distance": d,
                                 "allowed": 1})
    details = {
        "k": k,
        "elements": checked,
        "multiform_pairs": multi_pairs,
        "max_multiform": max_multi,
        "bound_multiform": bound_multi,
    }
    if delta_mode:
        details.update({
            "max_leftmult": max_left,
            "bound_leftmult": bound_left,
            "max_sliding": max_sliding,
            "bound_sliding": 1,
            "max_sliding_simple": max_sliding_simple,
        })
        if plain_observations:
            details["max_plain_leftmult"] = max_plain
            details["plain_searches_clamped"] = plain_clamped
    return VerificationReport("fellow-traveller", "pass", bound=radius,
                              details=details)


def _step(gs: GarsideStructure, x: Element, g: Element, sign: int):
    """(m, y) with x g^sign = delta^(-m) y."""
    ctx = gs.ctx
    if sign == 1:
        return 0, ctx.mul(x, g)
    if sign == -1:
        m = gs.embedding_exponent(g)
        comp = ctx.left_divides(g, gs.delta_power(m))
        return m, gs.phi(ctx.mul(x, comp), -m)
    raise ValueError(f"bad sign {sign!r}")


def public(gs, key):
    """The public fraction key (k, x) of an internal key."""
    k, x = key
    return k, gs.ctx.canonical("".join(f.canon
                                       for f in gs.arithmetic.factors(x)))


def step(gs, key, letter, sign=1):
    """The public key of key * letter^sign, key public or internal and
    D' read as delta^-1."""
    if letter is DELTA_INV:
        letter, sign = gs.delta, -sign
    arith = gs.arithmetic
    return public(gs, arith.fold(arith.key(key), ((letter, sign),)))


def chain_distance(gs, y_key, p, q, max_dist, node_cap, floor=None):
    """Supremum over positions i = 1 .. max(len(p), len(q), 1) of
    dist(y * p[:i], q[:i]), each word clamped at its own length, for
    y_key a public or internal key.  With a floor f a position whose
    bound (0 or 1 at position 0, plus one per word that moved since) is
    <= f is skipped, and the bound becomes the distance where one is
    measured."""
    arith = gs.arithmetic

    def prefix(start, word, i):
        key = start
        for letter in word[:i]:
            key = step(gs, key, letter)
        return arith.key(key)

    one = (0, gs.ctx.one)
    best = 0
    bound = int(prefix(y_key, p, 0) != prefix(one, q, 0))
    for i in range(1, max(len(p), len(q), 1) + 1):
        bound += (i <= len(p)) + (i <= len(q))
        if floor is not None and bound <= floor:
            continue
        bound = arith.distance(prefix(y_key, p, i), prefix(one, q, i),
                               max_dist, node_cap, cayley_distance)
        best = max(best, bound)
    return best
