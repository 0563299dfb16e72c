"""Garside elements and the group of fractions.

An element d is a Garside element when its left and right divisors
coincide and Div(d) spans the monoid.  The star map sends each divisor
x to the complement x* with x x* = d; its square phi = ** permutes the
atoms and extends letterwise to an automorphism with x d = d phi(x),
and d^e is central where e is the order of phi.  ``build_structure``
proves d a Garside element on its germ, Div(d) with the partial
product st defined where st lies in Div(d), where the span has Garside
tables, and with ``is_garside``'s mcm search on the kernel elsewhere.
It proves both identities on the whole monoid from the atoms and the
relations alone, and enumerates no simple: the structure reads them
on first use, and the fold reads none.  A group element is the
fraction key (k, x) meaning d^(-k) x with k minimal, which gives a
normal form and a word problem for the enveloping group of fractions.

Keys are multiplied by one fold, ``fold`` on the structure's
arithmetic (below).  It carries d^(-k) phi^(-t)(x): since
y d^(-1) = d^(-1) phi^(-1)(y), a letter g multiplies x by phi^t(g), and
an inverse g^(-1), written c d^(-m) with g c = d^m, multiplies x by
phi^t(c) and adds m to k and to t.  So each letter is one right
multiplication, phi is applied once per word, and leading powers of d
are stripped as the fold goes (phi fixes d).

``build_structure`` reads the arithmetic ``structure.span_arithmetic``
chose for the span Div(d).  On the Garside tables, whose germ is the
proof, the structure's arithmetic is the tables; elsewhere it is a
``FractionKernel``, which takes its normal forms from the span's
``SpanKernel``.  Both answer the five calls on fraction keys: the
identity ``one``, ``key``, the fold, the form's factors and the
distance.  On the tables a key is (k, f), f the table ids of the
Delta-normal form of x, and no word longer than d is reduced.  Keys
take the public form (k, x) only at the arguments of
``automaton.cayley_distance``; ``key`` strips a public key on either
arithmetic, so (k + 1, d x) and (k, x) are one key.

"Delta-simple" and "Delta-normal" mean simple/normal with respect to
the span Div(delta); the simple elements usually form a strictly
larger set than the divisors themselves.
"""

from __future__ import annotations

from .congruence import Element, MonoidContext
from .reports import FrozenRecord, Record, VerificationReport
from .structure import (ElementSet, GarsideTables, _codim1_divisors,
                        divisors, divisors_in, enumerate_simples,
                        is_spanning, mcms, primitive_closure, right_divisors,
                        span_arithmetic)
from .normal import NormalSequence, normalize_all

__all__ = [
    "is_garside",
    "GarsideSearchResult",
    "find_minimal_garside",
    "GarsideStructure",
    "build_structure",
    "FractionForm",
    "to_fraction",
    "fraction_of_signed",
    "group_equal",
    "combine",
    "check_uniform_length",
    "check_normal_uniqueness_criterion",
]


def is_garside(ctx: MonoidContext, d) -> VerificationReport:
    """Is Div(d) spanning, with left divisors equal to right divisors?"""
    d = ctx.canonical(d)
    div = divisors(ctx, d)
    rdiv = right_divisors(ctx, d)
    if div.members != rdiv.members:
        left_only = sorted(ctx.show(x) for x in div.members - rdiv.members)
        right_only = sorted(ctx.show(x) for x in rdiv.members - div.members)
        return VerificationReport(
            "garside", "fail",
            witness={"element": ctx.show(d), "left_only": left_only,
                     "right_only": right_only},
            details={"reason": "left and right divisors differ"})
    rep = is_spanning(ctx, div)
    return VerificationReport(
        "garside", rep.status, complete=rep.complete, witness=rep.witness,
        details={"element": ctx.show(d), "divisors": len(div)})


class GarsideSearchResult(Record):
    _fields = ("minimal", "candidates_checked", "max_norm",
               "primitive_mcm_probe")

    def __init__(self, minimal, candidates_checked, max_norm,
                 primitive_mcm_probe=()):
        self.minimal = minimal
        self.candidates_checked = candidates_checked
        self.max_norm = max_norm
        # Garside status of each mcm of a pair of primitive elements,
        # probing whether such mcms always are Garside elements.
        self.primitive_mcm_probe = primitive_mcm_probe

    @property
    def found(self):
        return bool(self.minimal)


def _atoms_divide(ctx: MonoidContext, d: Element, atoms) -> bool:
    """Does every atom divide d on both sides?  The divisors of a
    Garside element span, so they hold every atom, and its left and
    right divisors agree: a necessary condition for ``is_garside``, and
    a cheap one."""
    if not all(ctx.divides(a, d) for a in atoms):
        return False
    quotients = _codim1_divisors(ctx, d)
    return all(any(ctx.mul(p, a) == d for p in quotients) for a in atoms)


def find_minimal_garside(ctx: MonoidContext, max_norm: int = 4) -> GarsideSearchResult:
    """Garside elements of norm at most max_norm with no proper Garside
    divisor, in shortlex order, plus the primitive-mcm probe.  A
    candidate that some atom fails to divide on either side is not a
    Garside element (``_atoms_divide``) and is not checked further."""
    atoms = sorted(ctx.ball_level(1))
    found = []
    checked = 0
    for n in range(1, max_norm + 1):
        for d in sorted(ctx.ball_level(n)):
            checked += 1
            if any(ctx.divides(g, d) for g in found):
                continue
            if _atoms_divide(ctx, d, atoms) and is_garside(ctx, d).passed:
                found.append(d)
    probe = []
    prims = sorted(x for x in primitive_closure(ctx) if x.norm)
    seen = set()
    for i, x in enumerate(prims):
        for y in prims[i + 1:]:
            for z in sorted(mcms(ctx, x, y).mcms):
                if z not in seen:
                    seen.add(z)
                    probe.append((z, _atoms_divide(ctx, z, atoms)
                                  and is_garside(ctx, z).passed))
    probe.sort(key=lambda t: t[0])
    return GarsideSearchResult(tuple(sorted(found)), checked, max_norm,
                               tuple(probe))


class GarsideStructure(Record):
    """A Garside element with its divisors, star map and the
    automorphism phi, certified by ``build_structure``:
    x delta = delta phi(x) for every x, and delta^order is central.
    ``arithmetic`` is the span's Garside tables where their germ proved
    delta, else a ``FractionKernel``.  The simples are not part of the
    proof: where ``simples`` is None they are ``enumerate_simples`` of
    the span, read on first use (its memo, so Div(delta) itself where
    the germ proved delta)."""

    # the simples as stored, None until read: == and repr enumerate none
    _fields = ("ctx", "delta", "div_delta", "_simples", "star", "phi_atoms",
               "order")

    def __init__(self, ctx: MonoidContext, delta: Element,
                 div_delta: ElementSet, simples: ElementSet | None,
                 star: dict, phi_atoms: tuple, order: int):
        self.ctx = ctx
        self.delta = delta
        self.div_delta = div_delta  # the span: left = right divisors of delta
        self.simples = simples      # Div(delta)-simple elements, or None
        self.star = star            # x -> x* with x x* = delta, on div_delta
        self.phi_atoms = phi_atoms  # phi_atoms[m][a] = phi^m(atom a), m < e
        self.order = order          # e with phi^e = identity
        # _strip's quotients, not a field so that == and repr do not see
        # how warm it is: y.canon -> [y, y/delta, y/delta^2, ...], ended
        # by None once delta no longer left divides
        self._quotients = {}
        self._translations = tuple(str.maketrans(t) for t in phi_atoms)

    @property
    def simples(self) -> ElementSet:
        """The Div(delta)-simple elements; may raise
        ``ResourceLimitExceeded`` on the first read."""
        got = self._simples
        if got is None:
            got = self._simples = enumerate_simples(self.ctx, self.div_delta)
        return got

    @simples.setter
    def simples(self, value):
        self._simples = value

    def delta_power(self, k: int) -> Element:
        if k < 0:
            raise ValueError("negative power of the Garside element")
        return self.ctx.canonical(self.delta.canon * k)

    def phi(self, x, power: int = 1) -> Element:
        """phi^power(x): the canonical word translated letterwise, then
        reduced."""
        x = self.ctx.canonical(x)
        return self.ctx.canonical(
            x.canon.translate(self._translations[power % self.order]))

    def embedding_exponent(self, x) -> int:
        """Least m with x dividing delta^m (at most norm(x))."""
        x = self.ctx.canonical(x)
        m = 0
        while not self.ctx.divides(x, self.delta_power(m)):
            m += 1
            if m > max(x.norm, 1):
                raise RuntimeError(
                    f"{self.ctx.show(x)} does not divide any power of the "
                    f"Garside element up to {m - 1}")
        return m


def _check_preserves_relations(ctx: MonoidContext, letter_map: dict):
    """Raise ValueError unless the letter map sends both sides of every
    relation to congruent words."""
    table = str.maketrans(letter_map)
    for lhs, rhs in ctx.presentation.relations:
        if not ctx.equal(lhs.translate(table), rhs.translate(table)):
            raise ValueError(
                f"phi does not preserve the relation "
                f"{ctx.show(lhs)} = {ctx.show(rhs)}")


def build_structure(ctx: MonoidContext, delta) -> GarsideStructure:
    """Prove delta a Garside element and compute the star map, phi and
    its order.  Where the span's arithmetic (``span_arithmetic``) is
    the Garside tables, their germ proved delta, the simples are
    Div(delta) itself, and no mcm is searched on the kernel.  Elsewhere
    the proof is ``is_garside``, whose clean-level certificate is no
    proof to build tables on, and the arithmetic a ``FractionKernel``.
    No simple is enumerated here: the structure reads them on first
    use (``GarsideStructure.simples``), and the fold reads none.
    Raises ValueError unless delta is a Garside element and phi is an
    automorphism with x delta = delta phi(x) for every x; then delta^e
    is central.  On the kernel, past the star map, it also raises where
    ``check_cancellative_bounded`` finds a cancellation failure up to
    twice the longest relation, naming its witness.  The proof of phi
    uses the atoms and the relations only, so no ball beyond the atoms
    is enumerated.  The structure is
    memoised per delta on the context, so its arithmetic and that
    arithmetic's memos are kept."""
    delta = ctx.canonical(delta)
    cache = ctx.caches["structure"]
    got = cache.get(delta)
    if got is not None:
        return got
    div = divisors(ctx, delta)
    arithmetic = span_arithmetic(ctx, div)
    tables = isinstance(arithmetic, GarsideTables)
    if not tables:
        rep = is_garside(ctx, delta)
        if not rep.passed:
            raise ValueError(f"not a Garside element: {rep.summary()}")

    star = {}
    for x in div:
        comp = ctx.left_divides(x, delta)
        if comp is None or comp not in div.members:
            raise ValueError(
                f"complement of {ctx.show(x)} in the Garside element "
                f"is missing or not a divisor")
        star[x] = comp
    if len(set(star.values())) != len(star):
        raise ValueError("the star map is not a bijection; "
                         "the monoid is probably not cancellative")
    if not tables:
        # the kernel's fractions need a cancellative monoid, which the
        # bijection does not prove: in <a, b | aa = bb, bbbb = baaa,
        # aba = bbb> it holds, yet a.ab = a.ba, and the completions
        # find that witness
        cancel = ctx.check_cancellative_bounded(
            2 * ctx.presentation.max_relation_length)
        if not cancel.passed:
            raise ValueError(f"the monoid is not cancellative: "
                             f"{cancel.witness}")

    # phi on the atoms determines phi everywhere (letterwise).
    base = {}
    for a in sorted(ctx.ball_level(1)):
        img = star[star[a]]
        if img.norm != 1:
            raise ValueError(
                f"star^2 does not permute the atoms: {ctx.show(a)} maps "
                f"to {ctx.show(img)}")
        base[a.canon] = img.canon
    chars = ctx.presentation.chars
    # with a relation of length 1 some letters are not atoms, so the
    # map is extended to every letter through its atom
    _check_preserves_relations(
        ctx, {c: base[ctx.canonical(c).canon] for c in chars})
    # phi^m on the atoms for m below the order of phi
    rows = [{c: c for c in base}]
    while (row := {c: base[t] for c, t in rows[-1].items()}) != rows[0]:
        rows.append(row)
    gs = GarsideStructure(ctx, delta, div, None, star, tuple(rows),
                          len(rows))

    # star^2 must agree with the letterwise map on every divisor
    for x in div:
        if star[star[x]] != gs.phi(x):
            raise ValueError(f"star^2 is not letterwise at {ctx.show(x)}")
    # These checks prove the structure on the whole monoid.  The
    # letter map preserves every relation, so phi is a monoid
    # endomorphism; it permutes the atoms, so it is an automorphism
    # with phi^e = identity.  For an atom a, a a* = delta = a* a**
    # gives a delta = a a* a** = delta phi(a), and induction on the
    # length of a word gives x delta = delta phi(x) for every x.  Hence
    # x delta^e = delta^e phi^e(x) = delta^e x: delta^e is central.
    gs.arithmetic = arithmetic if tables else FractionKernel(gs)
    cache[delta] = gs
    return gs


# -- fractions ---------------------------------------------------------


class FractionForm(FrozenRecord):
    """The group element delta^(-k) * product(tail), with k minimal:
    either k = 0 or delta does not left divide the product; hence the
    tail's head factor is never delta when k > 0.  The tail is a function
    of the product, so forms are equal exactly when their elements are."""

    _fields = ("k", "tail")

    def __init__(self, k: int, tail: NormalSequence):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "tail", tail)

    def __len__(self):
        return self.k + len(self.tail)

    def letters(self, delta_inv):
        """The automaton word: k copies of the formal inverse letter,
        then the tail factors."""
        return (delta_inv,) * self.k + self.tail.factors

    def to_json(self, ctx):
        return {"k": self.k, "factors": self.tail.to_json(ctx)}

    def describe(self, ctx) -> str:
        head = "D' " * self.k
        body = (" ".join(ctx.show(f) for f in self.tail.factors)
                if len(self.tail) else "1")
        return head + body


def _strip(gs: GarsideStructure, k: int, x: Element):
    """(k - i, x / delta^i) for the largest i <= k with delta^i left
    dividing x.  The chain of quotients of x is extended only as far as
    this k needs."""
    if k <= 0:
        return k, x
    chain = gs._quotients.get(x.canon)
    if chain is None:
        chain = gs._quotients[x.canon] = [x]
    i = 0
    while i < k:
        if i + 1 == len(chain):
            chain.append(gs.ctx.left_divides(gs.delta, chain[i]))
        if chain[i + 1] is None:
            break
        i += 1
    return k - i, chain[i]


class FractionKernel:
    """The arithmetic of a structure whose span has no Garside tables:
    fraction keys (k, x) folded on the kernel.  It answers the five
    fraction-key calls, ``one``, ``key``, ``fold``, ``factors`` and
    ``distance``; the span calls, and the normal forms of ``factors``,
    are the span's one ``SpanKernel`` (``span_arithmetic``)."""

    def __init__(self, gs: GarsideStructure):
        self.gs = gs
        self.one = gs.ctx.one
        self.factors = span_arithmetic(gs.ctx, gs.div_delta).normal_form
        # the fold's letters: (g.canon, sign) -> (m, twisted) with
        # g^sign = c delta^(-m) and twisted[t] the word of phi^t(c)
        self._letters = {}

    def key(self, key):
        """The stripped key (k, x): the public key is the internal one."""
        return _strip(self.gs, *key)

    def fold(self, key, letters):
        """The fold of the module docstring: x's word is canonical, so
        each letter is reduced incrementally, its (m, phi^t(c))
        memoised (``_letter``)."""
        gs = self.gs
        k, x = key
        t = 0
        reduced = gs.ctx._reduced
        memo = self._letters
        for g, sign in letters:
            got = memo.get((g.canon, sign))
            if got is None:
                got = memo[(g.canon, sign)] = _letter(gs, g, sign)
            m, twisted = got
            w = x.canon
            x = reduced(w + twisted[t], len(w))
            if m:
                k += m
                t = (t + m) % gs.order
            if k:
                k, x = _strip(gs, k, x)
        return (k, gs.phi(x, -t)) if t else (k, x)

    def distance(self, key1, key2, max_dist, node_cap, search):
        """The bounded ``search``, ``automaton.cayley_distance``: its
        layer is above this one, so the caller passes it."""
        return search(self.gs.ctx, self.gs, key1, key2, max_dist, node_cap)


def _letter(gs: GarsideStructure, g: Element, sign: int):
    """(m, twisted) with g^sign = c delta^(-m) and twisted the canonical
    words of c, phi(c), ..., phi^(e-1)(c): c = g and m = 0 for a
    letter, and for an inverse the least m with g c = delta^m."""
    if sign == 1:
        m, c = 0, g
    elif sign == -1:
        m = gs.embedding_exponent(g)
        c = gs.ctx.left_divides(g, gs.delta_power(m))
    else:
        raise ValueError(f"bad sign {sign!r}")
    return m, tuple(gs.phi(c, t).canon for t in range(gs.order))


def to_fraction(ctx: MonoidContext, gs: GarsideStructure, numerator,
                denominator) -> FractionForm:
    """The group element numerator * denominator^(-1) as a fraction
    form with k minimal."""
    return fraction_of_signed(ctx, gs, [(numerator, 1), (denominator, -1)])


def _reduced(word) -> list:
    """A signed word read by ``_checked`` with every adjacent g g^-1 or
    g^-1 g cancelled."""
    out = []
    for g, sign in word:
        if out:
            h, s = out[-1]
            if s != sign and h.canon == g.canon:
                out.pop()
                continue
        out.append((g, sign))
    return out


def fraction_of_signed(ctx: MonoidContext, gs: GarsideStructure,
                       letters) -> FractionForm:
    """Fold a signed word (pairs (element, +-1)) into a fraction form,
    after free reduction."""
    arith = gs.arithmetic
    k, x = arith.fold((0, arith.one), _reduced(_checked(ctx, letters)[0]))
    return FractionForm(k, NormalSequence(arith.factors(x),
                                          gs.div_delta.label))


def combine(ctx: MonoidContext, gs: GarsideStructure, f1: FractionForm,
            f2: FractionForm) -> FractionForm:
    """Product of two fraction forms: the letters of f1, then those of
    f2, folded with each inverse letter (None) read as delta^(-1)."""
    word = f1.letters(None) + f2.letters(None)
    return fraction_of_signed(
        ctx, gs, [(gs.delta, -1) if x is None else (x, 1) for x in word])


def _checked(ctx: MonoidContext, word):
    """(word, degree) for a signed word, read once: every sign is
    checked and the degree sum(sign * norm(g)) summed.  The word is
    copied, its letters made canonical, only if some letter is not an
    ``Element``."""
    if word.__class__ is not list and word.__class__ is not tuple:
        word = list(word)
    degree = 0
    for g, sign in word:
        if sign != 1 and sign != -1:
            raise ValueError(f"bad sign {sign!r}")
        if g.__class__ is not Element:
            return _checked(ctx, [(ctx.canonical(h), s) for h, s in word])
        degree += sign * len(g.canon)
    return word, degree


def _middles(w1, w2):
    """The two signed words without their longest common prefix and
    then their longest common suffix, bounded so that the two never
    overlap."""
    n = min(len(w1), len(w2))
    i = 0
    while i < n:
        (g, s), (h, t) = w1[i], w2[i]
        if s != t or g.canon != h.canon:
            break
        i += 1
    j = 0
    while j < n - i:
        (g, s), (h, t) = w1[-1 - j], w2[-1 - j]
        if s != t or g.canon != h.canon:
            break
        j += 1
    return w1[i:len(w1) - j], w2[i:len(w2) - j]


def group_equal(ctx: MonoidContext, gs: GarsideStructure, w1, w2) -> bool:
    """Word problem for the group of fractions on signed words.

    Each word is read once, every sign checked and its degree
    sum(sign * norm(g)) summed, before anything is reduced or dropped.
    Relations preserve length and free reduction preserves the degree,
    so the degree is a homomorphism onto the integers: words of
    different degree are unequal, and nothing is reduced or folded for
    them.  A group is cancellative, so p u s = p v s exactly when
    u = v, whether or not p and s are reduced: the longest common
    prefix and then suffix of the raw words are dropped, and only the
    middles are freely reduced.  Where that shortens either middle, a
    cancellation may have hidden more common letters, so the strip is
    repeated on the reduced middles; then the two are folded."""
    w1, degree = _checked(ctx, w1)
    w2, other = _checked(ctx, w2)
    if degree != other:
        return False
    u, v = _middles(w1, w2)
    ru, rv = _reduced(u), _reduced(v)
    if len(ru) < len(u) or len(rv) < len(v):
        ru, rv = _middles(ru, rv)
    arith = gs.arithmetic
    one = (0, arith.one)
    return arith.fold(one, ru) == arith.fold(one, rv)


# -- structural checks -------------------------------------------------


def check_uniform_length(ctx: MonoidContext, gs: GarsideStructure,
                         radius: int) -> VerificationReport:
    """Do all Delta-normal decompositions of each ball element have the
    same length?  Also reports whether the forms are unique outright.
    """
    multi = 0
    checked = 0
    for x in ctx.enumerate_ball(radius):
        if not x.norm:
            continue
        forms = normalize_all(ctx, gs.div_delta, x)
        checked += 1
        if len(forms) > 1:
            multi += 1
        lengths = {len(f) for f in forms}
        if len(lengths) > 1:
            return VerificationReport(
                "uniform-length", "fail", bound=radius,
                witness={"element": ctx.show(x),
                         "lengths": sorted(lengths)},
                details={"unique_forms": False})
    return VerificationReport(
        "uniform-length", "pass", bound=radius,
        details={"elements": checked, "with_several_forms": multi,
                 "unique_forms": multi == 0})


def check_normal_uniqueness_criterion(ctx: MonoidContext,
                                      gs: GarsideStructure) -> VerificationReport:
    """Sufficient condition for a unique greedy head: whenever two
    distinct non-identity Delta-simples s, t have the same divisor set
    D within Div(delta), no common multiple of s and t may again have
    divisor set D.  Since divisor sets only grow along divisibility,
    it is enough that every mcm of the pair have a divisor set strictly
    containing D; the witness element separating the pair is recorded.
    """
    div = gs.div_delta
    nontrivial = sorted(s for s in gs.simples if s.norm)
    pairs = []
    for i, s in enumerate(nontrivial):
        for t in nontrivial[i + 1:]:
            if divisors_in(ctx, div, s) == divisors_in(ctx, div, t):
                pairs.append((s, t))
    witnesses = []
    for s, t in pairs:
        d = divisors_in(ctx, div, s)
        res = mcms(ctx, s, t)
        if not res.complete:
            return VerificationReport(
                "normal-uniqueness-criterion", "fail", complete=False,
                witness={"pair": [ctx.show(s), ctx.show(t)],
                         "reason": "mcm search incomplete"})
        for z in sorted(res.mcms):
            dz = divisors_in(ctx, div, z)
            if not (d < dz):
                return VerificationReport(
                    "normal-uniqueness-criterion", "fail",
                    witness={"pair": [ctx.show(s), ctx.show(t)],
                             "mcm": ctx.show(z)})
            sep = min(dz - d)
            witnesses.append({"pair": [ctx.show(s), ctx.show(t)],
                              "mcm": ctx.show(z),
                              "separator": ctx.show(sep)})
    return VerificationReport(
        "normal-uniqueness-criterion", "pass",
        details={"pairs": len(pairs), "witnesses": witnesses,
                 "vacuous": not pairs})
