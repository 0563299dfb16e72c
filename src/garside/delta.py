"""Garside elements and the group of fractions.

An element d is a Garside element when its left and right divisors
coincide and Div(d) spans the monoid.  The star map sends each divisor
x to the complement x* with x x* = d; its square phi = ** permutes the
atoms and extends letterwise to an automorphism with x d = d phi(x),
and d^e is central where e is the order of phi.  ``build_structure``
proves d a Garside element on its germ, Div(d) with the partial
product st defined where st lies in Div(d), wherever the tables' gate
passes (``_proved_tables``), and with ``is_garside``'s mcm search on
the kernel elsewhere.  It proves both identities on the whole monoid
from the atoms and the relations alone, and enumerates no simple: the
structure reads them on first use, and the fold reads none.  A group
element is the fraction key (k, x) meaning d^(-k) x with k minimal,
which gives a normal form and a word problem for the enveloping group
of fractions.

Keys are multiplied by one fold, ``fold`` on the span's arithmetic
object (below).  It carries d^(-k) phi^(-t)(x): since
y d^(-1) = d^(-1) phi^(-1)(y), a letter g multiplies x by phi^t(g), and
an inverse g^(-1), written c d^(-m) with g c = d^m, multiplies x by
phi^t(c) and adds m to k and to t.  So each letter is one right
multiplication, phi is applied once per word, and leading powers of d
are stripped as the fold goes (phi fixes d).

Each span Div(d) has one arithmetic object, chosen once by
``build_structure``, or by ``choose_arithmetic`` where no structure is
built, and registered for the span: its ``GarsideTables`` where Div(d)
passes their gate and its germ proves d Garside (``_proved_tables``,
the only route onto the tables), else the kernel's ``FractionKernel``
(``SpanKernel`` without a structure).  Both answer the same ten calls,
so no caller asks which it holds: the normal form and all normal forms
of a raw word, ``covers``, the slide, the least word, and on fraction
keys the identity ``one``, ``key``, the fold, the form's factors and
the distance.  Normality is one test on top of them,
``normal.is_normal``.  On the tables a key is (k, f), f the table ids
of the Delta-normal form of x, and no word longer than d is reduced.
Keys take the public form (k, x) only at the arguments of
``automaton.cayley_distance``; ``key`` strips a public key on either
arithmetic, so (k + 1, d x) and (k, x) are one key.

"Delta-simple" and "Delta-normal" mean simple/normal with respect to
the span Div(delta); the simple elements usually form a strictly
larger set than the divisors themselves.
"""

from __future__ import annotations

from .congruence import Element, MonoidContext, ResourceLimitExceeded
from .reports import FrozenRecord, Record, VerificationReport
from .structure import (ElementSet, SpanKernel, _codim1_divisors,
                        _too_many, divisors, divisors_in, enumerate_simples,
                        is_spanning, mcms, primitive_closure, right_divisors)
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
    ``arithmetic`` is the span's arithmetic, which it chose.  The
    simple elements are not part of the proof: where ``simples`` is
    None they are ``enumerate_simples`` of the span, read on first use
    (its memo, so Div(delta) itself where the germ proved delta)."""

    _fields = ("ctx", "delta", "div_delta", "simples", "star", "phi_atoms",
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
    its order.  The proof is the germ's where Div(delta) passes the
    tables' gate and its germ conditions (``_proved_tables``): the
    simples are then Div(delta) itself, and no mcm is searched on the
    kernel.  Elsewhere it is ``is_garside``, and the arithmetic is the
    kernel's ``FractionKernel``: ``is_garside`` rests on the mcm
    search's clean-level certificate, which is not a proof, so no
    tables are built on it.  No simple is enumerated here: the
    structure reads them on first use (``GarsideStructure.simples``),
    and the fold reads none.  Raises ValueError unless delta is a
    Garside element and phi is an automorphism with x delta = delta
    phi(x) for every x; then delta^e is central.  The proof of phi uses
    the atoms and the relations only, so no ball beyond the atoms is
    enumerated.  The structure is memoised per delta on the context, so
    its arithmetic and that arithmetic's memos are kept."""
    delta = ctx.canonical(delta)
    cache = ctx.caches["structure"]
    got = cache.get(delta)
    if got is not None:
        return got
    div = divisors(ctx, delta)
    tables = _proved_tables(ctx, delta, div)
    if tables is None:
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
    gs.arithmetic = ctx.caches["arithmetic"][div.members] = (
        tables or FractionKernel(gs))
    cache[delta] = gs
    return gs


def choose_arithmetic(ctx: MonoidContext, delta):
    """Choose the arithmetic of the span Div(delta) and register it for
    the span (``structure.span_arithmetic``) without building a
    structure: the ``GarsideTables`` where delta is proved a Garside
    element on its germ (``_proved_tables``), else the kernel's
    ``SpanKernel``.  No mcm is searched and no simple enumerated."""
    delta = ctx.canonical(delta)
    div = divisors(ctx, delta)
    tables = _proved_tables(ctx, delta, div) or SpanKernel(ctx, div)
    ctx.caches["arithmetic"][div.members] = tables
    return tables


# -- Garside tables ------------------------------------------------------


class GarsideTables:
    """Div(delta) as a lattice, with the simples numbered in shortlex
    order: id 0 is the identity and the last id is delta.  ``ids`` maps
    the canonical word of each simple to its id.  Past their gate, with
    delta proved Garside on its germ (``_proved_tables``), the tables
    are the span's arithmetic: they answer the calls of
    ``FractionKernel``, and only this class reads the ids.

    Where any two simples have a greatest common divisor in Div(delta)
    on each side, every Delta-normal form is read off tables on the ids
    (Dehornoy et al., *Foundations of Garside Theory*, 2015, ch. I and
    III): ``dual`` is the complement s -> s* with s s* = delta, ``phi``
    its square, and the slide of a pair s|t makes it left-weighted,
    s(s* ^ t) | (s* ^ t)^-1 t.  A pair is left-weighted, i.e. s covers
    t over Div(delta), exactly when s* ^ t = 1; its slide is then None.
    ``garside_tables`` builds every slide from words of norm at most
    norm(delta); the |Div(delta)|^2 entries count against no cap, nor
    do the word lengths memoised per pair of keys in ``lengths``.
    """

    __slots__ = ("ctx", "elements", "ids", "n", "delta", "dual", "phi",
                 "twists", "lengths", "_atoms", "_slides")
    one = ()  # the x of the identity key (0, x)

    def __init__(self, ctx, elements, dual, slides, atoms):
        n = len(elements)
        if sorted(dual) != list(range(n)):
            raise ValueError("the dual of Garside tables must permute "
                             "the ids")
        self.ctx = ctx
        self.elements = elements
        self.ids = {e.canon: i for i, e in enumerate(elements)}
        self.n = n
        self.delta = n - 1
        self.dual = dual
        self.phi = [dual[d] for d in dual]
        # twists[t] is the row of phi^t, for t below the order of phi
        identity = list(range(n))
        self.twists = [identity]
        row = self.phi
        while row != identity:
            self.twists.append(row)
            row = [self.phi[i] for i in row]
        self.lengths = {}
        self._atoms = atoms    # letter -> id of its atom
        self._slides = slides  # i * n + j -> the slide of s_i|s_j

    def cancellative(self) -> bool:
        """Is the partial product s.t = st, defined where st is in
        Div(delta), cancellative on each side?  It is read off the
        slides, s|t sliding to st|1 exactly where st is defined, and no
        row and no column of its table may repeat a product."""
        n = self.n
        slides = self._slides
        products = [(i, j, got[0]) for i in range(n) for j in range(1, n)
                    if (got := slides[i * n + j]) is not None
                    and not got[1]]
        return (len({(i, p) for i, _, p in products}) == len(products)
                == len({(j, p) for _, j, p in products}))

    def times(self, form, t) -> tuple:
        """The normal form of form * s_t: s_t is appended and the pairs
        are made left-weighted from the right, up to the first pair
        that already is; identity factors can only end up last."""
        if not t or not form:
            return (t,) if t else form
        slides = self._slides
        n = self.n
        got = slides[form[-1] * n + t]
        if got is None:
            return form + (t,)
        f = list(form)
        f[-1], last = got
        i = len(f) - 1
        while i:
            got = slides[f[i - 1] * n + f[i]]
            if got is None:
                break
            f[i - 1], f[i] = got
            i -= 1
        if last:
            f.append(last)
        while f and not f[-1]:
            f.pop()
        return tuple(f)

    def form(self, word: str) -> tuple:
        """The ids of the Delta-normal form of a word, canonical or not."""
        got = self.ids.get(word)
        if got is not None:
            return (got,) if got else ()
        form = ()
        atoms = self._atoms
        for c in word:
            form = self.times(form, atoms[c])
        return form

    def factors(self, form) -> tuple:
        """The simples of a form of ids."""
        return tuple(self.elements[i] for i in form)

    def normal_form(self, x) -> tuple:
        """The normal form of an element or a raw word, not reduced."""
        return self.factors(self.form(self.ctx._word_of(x)))

    def normal_forms(self, x, cap) -> frozenset:
        if cap < 1 and self.ctx._word_of(x):
            raise _too_many(self.ctx, cap, x)
        return frozenset([self.normal_form(x)])

    def covers(self, x: Element, y: Element) -> bool:
        """Is the pair x|y left-weighted?  Past the simples, x covers y
        when x y has the head of x: Div(z) meets Div(delta) in Div(head)."""
        i = self.ids.get(x.canon)
        j = self.ids.get(y.canon)
        if i is None or j is None:
            f = self.form(x.canon)
            return f[:1] == self.fold((0, f), ((y, 1),))[1][:1]
        return self._slides[i * self.n + j] is None

    def _slid(self, cur: int, form) -> list:
        """The normal form of s_cur times the normal form ``form``: the
        carry is slid through the factors, one slide each."""
        out = []
        for f in form:
            head, cur = self._slides[cur * self.n + f] or (cur, f)
            out.append(head)
        if cur:
            out.append(cur)
        return out

    def slid(self, y: Element, factors) -> tuple:
        """The normal form of y times a normal sequence, y simple."""
        return self.factors(self._slid(self.ids[y.canon],
                                       [self.ids[f.canon] for f in factors]))

    def least_word(self, x) -> str:
        """The canonical word of an element or a raw word, read off its
        normal form: the least letter that left divides it is the first
        letter of the head's canonical word, whose rest, a simple, is
        slid through the remaining factors, and so on."""
        form = self.form(self.ctx._word_of(x))
        letters = []
        while form:
            word = self.elements[form[0]].canon
            letters.append(word[0])
            form = self._slid(self.ids[word[1:]], form[1:])
        return "".join(letters)

    # -- fraction keys (k, f), f a form of ids: see ``fold``

    def key(self, key):
        """The internal key of a public or internal fraction key."""
        if key[1].__class__ is not Element:
            return key
        return self._strip(key[0], self.form(key[1].canon))

    def _strip(self, k: int, form: tuple):
        """_strip on a Delta-normal form: its leading delta factors."""
        i = 0
        while i < k and i < len(form) and form[i] == self.delta:
            i += 1
        return k - i, form[i:]

    def fold(self, key, letters):
        """The fold of the module docstring: each factor s of a letter's
        normal form is one ``times`` through the row of phi^t, s^(-1) as
        s* delta^(-1)."""
        k, x = key
        t = 0
        ids = self.ids
        dual = self.dual
        twists = self.twists
        row = twists[0]
        for g, sign in letters:
            i = ids.get(g.canon)
            factors = (i,) if i is not None else self.form(g.canon)
            if sign == 1:
                for i in factors:
                    x = self.times(x, row[i])
            elif sign == -1:
                for i in reversed(factors):
                    x = self.times(x, row[dual[i]])
                    t = (t + 1) % len(twists)
                    row = twists[t]
                k += len(factors)
            else:
                raise ValueError(f"bad sign {sign!r}")
            if k and x and x[0] == self.delta:
                k, x = self._strip(k, x)
        if not t:
            return k, x
        row = twists[-t]
        return k, tuple([row[i] for i in x])

    def distance(self, key1, key2, max_dist, node_cap=None, search=None):
        """The Cayley distance of internal keys a = (k_a, f_a) and
        b = (k_b, f_b), with no search (``node_cap`` and ``search`` are
        the kernel's): the word length over Div(delta) minus 1 of
        a^-1 b = f_a^-1 delta^(k_a - k_b) f_b, folded from the identity.
        For its key (k, f) with m leading delta factors in f, it is
        max(sup, 0) - min(inf, 0) with inf = m - k and sup = len(f) - k
        (Charney, *Math. Ann.* 301, 1995; Charney and Meier, *Math. Z.*
        248, 2004); the key is stripped, so that is max(len(f), k)."""
        if key1 == key2:
            return 0
        pair = (key1, key2) if key1 <= key2 else (key2, key1)
        dist = self.lengths.get(pair)
        if dist is None:
            (ka, fa), (kb, fb) = pair
            simple = self.elements
            word = [(simple[i], -1) for i in reversed(fa)]
            word += [(simple[-1], 1 if ka > kb else -1)] * abs(ka - kb)
            word += [(simple[i], 1) for i in fb]
            k, f = self.fold((0, ()), word)
            dist = self.lengths[pair] = max(len(f), k)
        if dist > max_dist:
            raise _no_path(max_dist)
        return dist


def _no_path(max_dist) -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"no path of length <= {max_dist} between the elements")


def garside_tables(ctx: MonoidContext, div: ElementSet):
    """The tables of Div(delta), or None where the gate fails.

    The gate: Div(delta) holds every atom, left division by an atom
    is unique within it, the left divisor sets (and the right ones) of
    any two elements intersect in the divisor set of an element, and
    every element s has a complement s* = s^-1 delta in the set, delta
    its last element, with s -> s* a bijection.  The sets are int
    bitmasks, so each pair is one dict lookup per side.  Past the gate
    every slide is built from the left gcds and the left quotients.
    The gate proves nothing about delta; the germ conditions of
    ``_proved_tables``, its only caller, do.

    The divisor sets come from products, with no divisibility test:
    the left ones from the products p a (``_left_sets``), and the right
    set of b from those of the c^-1 b, c an atom.  The right sets are
    exact where Div(delta) is closed under right divisors, as it is
    where its left divisors are its right ones, which
    ``_proved_tables`` checks first."""
    elements = sorted(div.members)
    n = len(elements)
    ids = {e.canon: i for i, e in enumerate(elements)}
    atoms = {c: ids.get(ctx.canonical(c).canon)
             for c in ctx.presentation.chars}
    if None in atoms.values():
        return None
    atom_list = sorted(ctx.ball_level(1))
    # quotients[c][b]: the id of c^-1 b for an atom c, else -1; the
    # extra last entry is -1 too, so that a row read at -1 gives -1
    quotients = {}
    for a in atom_list:
        row = [-1] * (n + 1)
        for y, e in enumerate(elements):
            b = ids.get(ctx.mul(a, e).canon)
            if b is not None:
                if row[b] >= 0:
                    return None
                row[b] = y
        quotients[a.canon] = row
    right = [1] * n
    for b in range(1, n):
        mask = 1 << b
        for row in quotients.values():
            if row[b] >= 0:
                mask |= right[row[b]]
        right[b] = mask
    left = _left_sets(ctx, elements, ids, atom_list)
    # each set holds its element, so no two elements share one
    left_of = {m: i for i, m in enumerate(left)}
    right_of = {m: i for i, m in enumerate(right)}
    meet = [0] * (n * n)
    for i in range(n):
        li, ri = left[i], right[i]
        for j in range(i, n):
            m = left_of.get(li & left[j])
            if m is None or ri & right[j] not in right_of:
                return None
            meet[i * n + j] = meet[j * n + i] = m
    # below[m][b]: the id of m^-1 b, else -1.  A prefix of a canonical
    # word is canonical, so m = p c with p shortlex before m and c an
    # atom, m^-1 b = c^-1 (p^-1 b), and a set without p is no Div(delta)
    below = [list(range(n)) + [-1]]
    for e in elements[1:]:
        p = ids.get(e.canon[:-1])
        if p is None:
            return None
        row = quotients[e.canon[-1]]
        below.append([row[b] for b in below[p]])
    # s* = s^-1 delta, delta the last id: where some s has none, or two
    # share one, the set is no Div(delta) of a cancellative monoid
    dual = [row[n - 1] for row in below]
    if -1 in dual or len(set(dual)) < n:
        return None
    dual_inv = sorted(range(n), key=dual.__getitem__)  # the inverse of dual
    # the slide of s_i|s_j with m = s_i* ^ s_j: (s_i m)* = m^-1 s_i*
    slides = [None] * (n * n)
    for i, d in enumerate(dual):
        for j in range(n):
            m = meet[d * n + j]
            if m:
                q = below[m]
                slides[i * n + j] = (dual_inv[q[d]], q[j])
    return GarsideTables(ctx, elements, dual, slides, atoms)


def _left_sets(ctx: MonoidContext, elements, ids, atoms) -> list:
    """The left divisor sets within Div(delta) of its elements, shortlex
    sorted, as bitmasks of their ids: |Div(delta)| times |atoms|
    products and no divisibility test.  A proper left divisor of b
    divides some p with p a = b, a an atom, so the set of b is b joined
    with the sets of those p, each complete before b in shortlex order.
    That is exact because Div(delta) is closed under left divisors, so
    every such p lies in it."""
    left = [1 << b for b in range(len(elements))]
    for p, e in enumerate(elements):
        for a in atoms:
            b = ids.get(ctx.mul(e, a).canon)
            if b is not None:
                left[b] |= left[p]
    return left


def _proved_tables(ctx: MonoidContext, delta: Element, div: ElementSet):
    """The tables of div = Div(delta) where the gate passes and the germ
    of the span proves delta a Garside element, else None.

    The germ is Div(delta) with the partial product s.t = st, defined
    where st lies in Div(delta).  Past the gate its divisibility is a
    lattice on each side, and it proves delta Garside (Dehornoy et al.,
    *Foundations of Garside Theory*, 2015, ch. VI, the recognition of
    Garside germs; Dehornoy and Paris, *Proc. LMS* 79, 1999) when
    - the left divisors of delta are its right divisors, so that the
      germ is associative;
    - both sides of every relation lie in Div(delta), so that the germ
      presents the monoid: their prefixes do too;
    - the partial product is cancellative on each side
      (``GarsideTables.cancellative``).
    The first two need no tables, so a span that fails them builds
    none.  Where all pass, the simples are Div(delta): they are
    registered for the span (``enumerate_simples`` reads them), so none
    is enumerated."""
    if right_divisors(ctx, delta).members != div.members:
        return None
    # the two sides of a relation are one element
    if any(ctx.canonical(lhs) not in div.members
           for lhs, _ in ctx.presentation.relations):
        return None
    tables = garside_tables(ctx, div)
    if tables is None or not tables.cancellative():
        return None
    ctx.caches["simples"][div.members] = ElementSet(
        div.members, f"simples({div.label or len(div)})")
    return tables


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


class FractionKernel(SpanKernel):
    """The arithmetic of a structure whose span fails the tables' gate:
    ``SpanKernel``, and fraction keys (k, x) folded on the kernel."""

    def __init__(self, gs: GarsideStructure):
        super().__init__(gs.ctx, gs.div_delta)
        self.gs = gs
        self.one = gs.ctx.one
        # the fold's letters: (g.canon, sign) -> (m, twisted) with
        # g^sign = c delta^(-m) and twisted[t] the word of phi^t(c)
        self._letters = {}

    def key(self, key):
        """The stripped key (k, x): the public key is the internal one."""
        return _strip(self.gs, *key)

    factors = SpanKernel.normal_form

    def fold(self, key, letters):
        """The fold of the module docstring: x's word is canonical, so
        each letter is reduced incrementally, its (m, phi^t(c))
        memoised (``_letter``)."""
        gs = self.gs
        k, x = key
        t = 0
        reduced = self.ctx._reduced
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
        return search(self.ctx, self.gs, key1, key2, max_dist, node_cap)


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
