"""Greedy normal sequences over a spanning set, and word derivations.

A sequence of non-identity S-simple factors is normal when every factor
covers the next one; the greedy normal form of x repeatedly splits off
a simple divisor carrying the whole S-divisor set of the remainder.
Normal forms are not unique in general, so ``normalize_all`` enumerates
every decomposition.  The span's arithmetic computes them
(``structure.span_arithmetic``): greedily on the kernel, or off the
Garside tables.

``grid_prove_equality`` turns two equal words over S into an explicit
derivation: a rectangular grid of relation cells whose row-by-row
replay rewrites one padded word into the other.  The counted steps all
apply relations of the form s t' = t s' with all four entries in S.
"""

from __future__ import annotations

from .congruence import Element, MonoidContext
from .reports import FrozenRecord, GridError, Record
from .structure import (_coerce_set, enumerate_simples, mcms,
                        span_arithmetic)

__all__ = [
    "NormalSequence",
    "is_normal",
    "normalize",
    "normalize_all",
    "left_mult_update",
    "DerivationStep",
    "Derivation",
    "GridError",
    "grid_prove_equality",
    "prove_group_identity",
]


class NormalSequence(FrozenRecord):
    _fields = ("factors", "span_label")

    def __init__(self, factors, span_label=""):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "span_label", span_label)

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def product(self, ctx) -> Element:
        return ctx.canonical("".join(f.canon for f in self.factors))

    def sort_key(self):
        return tuple(f.canon for f in self.factors)

    def to_json(self, ctx):
        return [ctx.show(f) for f in self.factors]


def _normal(arith, simples, factors) -> bool:
    """Are the factors non-identity simples, each covering the next
    over the span of ``arith``?"""
    return (all(f.norm and f in simples for f in factors)
            and all(arith.covers(x, y) for x, y in zip(factors, factors[1:])))


def is_normal(ctx: MonoidContext, S, seq) -> bool:
    """Is the sequence normal over S: every factor a non-identity
    S-simple, each covering the next?  On a span with Garside tables a
    pair of simples covers when its slide is empty."""
    factors = seq.factors if isinstance(seq, NormalSequence) else seq
    S = _coerce_set(ctx, S)
    return _normal(span_arithmetic(ctx, S), enumerate_simples(ctx, S).members,
                   [ctx.canonical(f) for f in factors])


def normalize(ctx: MonoidContext, S, x) -> NormalSequence:
    """Greedy normal form: each head is the lex-least simple divisor
    whose S-divisor set equals that of the remainder.  Over a span with
    Garside tables the head is unique, and the form is read off the
    tables letter by letter, with no reduction of x on the kernel."""
    S = _coerce_set(ctx, S)
    return NormalSequence(span_arithmetic(ctx, S).normal_form(x), S.label)


def normalize_all(ctx: MonoidContext, S, x, cap=10_000) -> frozenset:
    """Every normal decomposition of x, as a set of NormalSequence.
    Over a span with Garside tables that is the one normal form."""
    S = _coerce_set(ctx, S)
    return frozenset(NormalSequence(f, S.label)
                     for f in span_arithmetic(ctx, S).normal_forms(x, cap))


def left_mult_update(ctx: MonoidContext, S, y, seq) -> NormalSequence:
    """Normal sequence for y times the value of ``seq``, built by the
    sliding scheme: push a carry through the factors, splitting each
    product carry * factor into a simple head and a new carry.

    A carry that is again simple keeps the update local (each prefix of
    the result differs from the matching prefix of the input by one
    letter); such a choice is preferred but does not always exist, not
    even for simple y: a product of two simple elements can have only
    normal forms of three or more factors.  In that case the greedy
    head is used and the carry degenerates into an arbitrary element,
    normalized at the end; the result is still a normal form of the
    product, only the locality degrades.  Over Garside tables each
    split is the tables' slide, and the carry stays simple.

    y must be simple and ``seq`` normal, else ValueError.  The result
    must be normal with the least word of y f1 ... fk, else
    RuntimeError; over Garside tables both least words are read off
    forms folded letter by letter, and nothing is reduced."""
    S = _coerce_set(ctx, S)
    y = ctx.canonical(y)
    if isinstance(seq, NormalSequence):
        factors = seq.factors
    else:
        factors = tuple(ctx.canonical(f) for f in seq)
    if not y.norm:
        return NormalSequence(factors, S.label)
    # the arithmetic first: choosing the tables registers the simples
    arith = span_arithmetic(ctx, S)
    simples = enumerate_simples(ctx, S).members
    if y not in simples:
        raise ValueError(f"{ctx.show(y)} is not simple over the given set")
    if not _normal(arith, simples, factors):
        raise ValueError("input sequence is not normal over the given set")
    result = arith.slid(y, factors)
    if not (_normal(arith, simples, result) and arith.least_word(
            y.canon + "".join(f.canon for f in factors))
            == arith.least_word("".join(f.canon for f in result))):
        raise RuntimeError(
            f"sliding update produced a non-normal sequence for "
            f"{ctx.show(y)} * {'|'.join(ctx.show(f) for f in factors)}")
    return NormalSequence(result, S.label)


# -- derivations -------------------------------------------------------


class DerivationStep(FrozenRecord):
    """Replace ``before`` by ``after`` at letter position ``pos``.

    Kinds: ``rewrite`` (a relation between two-letter words over S),
    ``swap`` (the signed variant moving an inverse letter rightward),
    ``insert_unit``/``remove_unit`` and ``cancel``; only ``rewrite`` and
    ``swap`` count as relation applications.
    """

    _fields = ("kind", "pos", "before", "after")

    def __init__(self, kind, pos, before, after):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)

    @property
    def counted(self):
        return self.kind in ("rewrite", "swap")


class Derivation(Record):
    _fields = ("source", "target", "steps")

    def __init__(self, source, target, steps=None):
        self.source = source
        self.target = target
        self.steps = [] if steps is None else steps

    @property
    def relation_count(self):
        return sum(1 for s in self.steps if s.counted)

    def replay(self):
        word = list(self.source)
        for st in self.steps:
            window = tuple(word[st.pos:st.pos + len(st.before)])
            if window != st.before:
                raise GridError(
                    f"replay mismatch at position {st.pos}: "
                    f"expected {st.before}, found {window}")
            word[st.pos:st.pos + len(st.before)] = list(st.after)
        return tuple(word)

    def verify(self):
        return self.replay() == tuple(self.target)

    def to_json(self, ctx):
        def letter(t):
            if isinstance(t, Element):
                return ctx.show(t)
            e, sign = t
            return ctx.show(e) + ("'" if sign < 0 else "")

        def word(w):
            return [letter(t) for t in w]

        return {
            "source": word(self.source),
            "target": word(self.target),
            "relation_count": self.relation_count,
            "steps": [
                {"kind": s.kind, "pos": s.pos,
                 "before": word(s.before), "after": word(s.after)}
                for s in self.steps],
        }


def _check_letters(ctx, S, letters, what):
    out = []
    for x in letters:
        x = ctx.canonical(x)
        if x not in S:
            raise ValueError(
                f"{what} letter {ctx.show(x)} is not in the spanning set")
        out.append(x)
    return tuple(out)


def grid_prove_equality(ctx: MonoidContext, S, u, v) -> Derivation:
    """Derive the letter word v from the letter word u (both over S and
    equal in the monoid) using only relations s t' = t s', by filling a
    rectangular grid of cells and replaying its flips.

    The derivation operates on padded words: u followed by |v| unit
    letters rewrites into v followed by |u| unit letters.
    """
    S = _coerce_set(ctx, S)
    u = _check_letters(ctx, S, u, "source")
    v = _check_letters(ctx, S, v, "target")
    uprod = ctx.canonical("".join(x.canon for x in u))
    vprod = ctx.canonical("".join(x.canon for x in v))
    if uprod != vprod:
        raise GridError("the words are not equal in the monoid")
    p, q = len(u), len(v)
    one = ctx.one
    source = u + (one,) * q
    target = v + (one,) * p
    if u == v:
        return Derivation(source, target, [])

    members = sorted(S.members)
    pairs = sorted(((xp, yp) for xp in members for yp in members),
                   key=lambda t: (t[0].canon, t[1].canon))
    prod = {(s, t): ctx.mul(s, t) for s in members for t in members}

    # xgrid[i][j] and ygrid[i][j] are the right and bottom labels of
    # cell (i, j); row 0 and column 0 hold the border words v and u.
    xgrid = [[None] * (q + 1) for _ in range(p + 1)]
    ygrid = [[None] * (q + 1) for _ in range(p + 1)]
    for j in range(1, q + 1):
        ygrid[0][j] = v[j - 1]
    for i in range(1, p + 1):
        xgrid[i][0] = u[i - 1]

    top = list(v)
    for i in range(1, p + 1):
        row_prod = ctx.canonical("".join(t.canon for t in top))
        rem = ctx.left_divides(u[i - 1], row_prod)
        if rem is None:
            raise GridError(
                f"cell ({i},1) cannot be closed; the set is not spanning "
                f"for this pair")
        left = u[i - 1]
        newrow = []
        for j in range(1, q + 1):
            t = top[j - 1]
            for xp, yp in pairs:
                if prod[(t, xp)] != prod[(left, yp)]:
                    continue
                if not ctx.divides(yp, rem):
                    continue
                break
            else:
                raise GridError(
                    f"cell ({i},{j}) cannot be closed; the set is not "
                    f"spanning for this pair")
            xgrid[i][j] = xp
            ygrid[i][j] = yp
            rem = ctx.left_divides(yp, rem)
            left = xp
            newrow.append(yp)
        if left.norm:
            raise GridError("grid row failed to close on the identity")
        top = newrow
    if any(t.norm for t in top):
        raise GridError("grid bottom row failed to close on the identity")

    steps = []
    for i in range(p, 0, -1):
        for j in range(1, q + 1):
            before = (xgrid[i][j - 1], ygrid[i][j])
            after = (ygrid[i - 1][j], xgrid[i][j])
            if before != after:
                steps.append(DerivationStep("rewrite", i + j - 2, before, after))
    d = Derivation(source, target, steps)
    if not d.verify():
        raise GridError("internal error: derivation replay failed")
    return d


def prove_group_identity(ctx: MonoidContext, S, letters) -> Derivation:
    """Derive the empty word from a signed word over S that represents
    the identity of the enveloping group.

    Counted steps are ``swap`` (one relation x y' = y x' moving an
    inverse past a plain letter) and the ``rewrite`` steps of the final
    grid; unit bookkeeping and free cancellations are not counted.
    """
    S = _coerce_set(ctx, S)
    word = []
    for item in letters:
        e, sign = item
        e = ctx.canonical(e)
        if e not in S:
            raise ValueError(
                f"letter {ctx.show(e)} is not in the spanning set")
        if sign not in (1, -1):
            raise ValueError(f"bad sign {sign!r}")
        word.append((e, sign))
    source = tuple(word)
    steps = []

    def remove_unit_at(pos):
        steps.append(DerivationStep("remove_unit", pos, (word[pos],), ()))
        del word[pos]

    def sweep_units():
        i = 0
        while i < len(word):
            if not word[i][0].norm:
                remove_unit_at(i)
            else:
                i += 1

    sweep_units()
    one = ctx.one
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i][1] < 0 and word[i + 1][1] > 0:
            x = word[i][0]
            y = word[i + 1][0]
            res = mcms(ctx, x, y)
            if not res.mcms:
                raise GridError(
                    f"no common multiple of {ctx.show(x)} and {ctx.show(y)}; "
                    f"cannot sort the word")
            m = min(res.mcms)
            yp = res.complements_left[m]   # x yp = m
            xp = res.complements_right[m]  # y xp = m
            before = (word[i], word[i + 1])
            after = ((yp, 1), (xp, -1))
            steps.append(DerivationStep("swap", i, before, after))
            word[i:i + 2] = list(after)
            if not xp.norm:
                remove_unit_at(i + 1)
            if not yp.norm:
                remove_unit_at(i)
            i = max(i - 1, 0)
        else:
            i += 1

    split = 0
    while split < len(word) and word[split][1] > 0:
        split += 1
    if any(sign > 0 for _, sign in word[split:]):
        raise GridError("internal error: word failed to sort")
    pos_letters = tuple(e for e, _ in word[:split])
    neg_letters = tuple(e for e, _ in word[split:])
    rev_neg = tuple(reversed(neg_letters))
    pprod = ctx.canonical("".join(e.canon for e in pos_letters))
    nprod = ctx.canonical("".join(e.canon for e in rev_neg))
    if pprod != nprod:
        raise GridError("the word does not represent the identity")

    a, b = len(pos_letters), len(rev_neg)
    if pos_letters != rev_neg:
        grid = grid_prove_equality(ctx, S, pos_letters, rev_neg)
        # embed: pad with b units between the positive part and the tail
        for k in range(b):
            steps.append(DerivationStep("insert_unit", a + k, (), ((one, 1),)))
            word.insert(a + k, (one, 1))
        for st in grid.steps:
            before = tuple((e, 1) for e in st.before)
            after = tuple((e, 1) for e in st.after)
            steps.append(DerivationStep(st.kind, st.pos, before, after))
            word[st.pos:st.pos + len(before)] = list(after)
        # the grid leaves a trailing identity pad of length a
        for _ in range(a):
            remove_unit_at(b)
    while word:
        mid = len(word) // 2 - 1
        lhs, rhs = word[mid], word[mid + 1]
        if lhs[0] != rhs[0] or lhs[1] != 1 or rhs[1] != -1:
            raise GridError("internal error: cancellation failed")
        steps.append(DerivationStep("cancel", mid, (lhs, rhs), ()))
        del word[mid:mid + 2]

    d = Derivation(source, (), steps)
    if not d.verify():
        raise GridError("internal error: derivation replay failed")
    return d
