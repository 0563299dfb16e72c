"""Divisibility structure: minimal common multiples, primitive elements,
spanning sets, simple elements, the covering relation, and the
arithmetic of a span, which ``span_arithmetic`` alone chooses on first
use: the Garside tables where the span is Div(delta) and its germ
proves delta Garside, else the kernel's greedy heads (``SpanKernel``).

All searches are norm-bounded and honest about it: results carry a
``complete`` flag (or notes) when a bound was exhausted.  Everything
runs on the rewriting kernel; only where it cannot certify left
cancellation are complements read off the ball (``complements``).
"""

from __future__ import annotations

from .congruence import Element, MonoidContext, ResourceLimitExceeded
from .reports import FrozenRecord, Record, VerificationReport

__all__ = [
    "ElementSet",
    "McmResult",
    "atoms",
    "mcms",
    "primitive_closure",
    "is_spanning",
    "check_ore",
    "divisors",
    "right_divisors",
    "divisors_in",
    "enumerate_simples",
    "covers",
]


class ElementSet(FrozenRecord):
    """A finite set of elements with a label for reports and exports.
    ``members`` keys the per-span caches; a frozenset caches its hash."""

    _fields = ("members", "label", "notes")

    def __init__(self, members, label="", notes=()):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "notes", notes)

    def __contains__(self, x):
        return x in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    @property
    def max_norm(self):
        return max((e.norm for e in self.members), default=0)


def _coerce_set(ctx, S):
    if isinstance(S, ElementSet):
        return S
    return ElementSet(frozenset(ctx.canonical(x) for x in S))


def atoms(ctx: MonoidContext) -> ElementSet:
    return ElementSet(ctx.ball_level(1), "atoms")


class McmResult(Record):
    """Minimal common multiples of an ordered pair.

    ``complements_left[m]`` is the element c with x c = m (complement of
    the first coordinate); ``complements_right[m]`` the one with y c = m.
    ``complete`` is True when a whole norm level above the last minimal
    common multiple contained only proper multiples of those found, so
    the listing is exhaustive.
    """

    _fields = ("pair", "mcms", "complements_left", "complements_right",
               "search_bound", "complete")

    def __init__(self, pair, mcms, complements_left, complements_right,
                 search_bound, complete):
        self.pair = pair
        self.mcms = mcms
        self.complements_left = complements_left
        self.complements_right = complements_right
        self.search_bound = search_bound
        self.complete = complete


def _multiples(ctx: MonoidContext, x: Element, norm: int) -> frozenset:
    """Canonical words of the right multiples of x at the given norm,
    memoized per x level by level; each level is the union of the
    letter successors (per-word tuples, memoized too) of the one below."""
    levels = ctx.caches["multiples"].setdefault(x.canon,
                                                [frozenset([x.canon])])
    successors = ctx.caches["successors"]
    chars = ctx.presentation.chars
    while x.norm + len(levels) <= norm:
        nxt = set()
        for c in levels[-1]:
            succ = successors.get(c)
            if succ is None:
                succ = successors[c] = tuple(ctx.canonical(c + ch).canon
                                             for ch in chars)
            nxt.update(succ)
        levels.append(frozenset(nxt))
    return levels[norm - x.norm]


def mcms(ctx: MonoidContext, x, y, bound=None) -> McmResult:
    x = ctx.canonical(x)
    y = ctx.canonical(y)
    if bound is None:
        bound = x.norm + y.norm + max(ctx.presentation.max_relation_length, 1)
    if ctx.divides(x, y):
        return McmResult((x, y), frozenset([y]),
                         {y: ctx.left_divides(x, y)}, {y: ctx.one},
                         bound, True)
    if ctx.divides(y, x):
        return McmResult((x, y), frozenset([x]),
                         {x: ctx.one}, {x: ctx.left_divides(y, x)},
                         bound, True)

    found: list[Element] = []
    complete = False
    prev_cm: frozenset = frozenset()
    successors = ctx.caches["successors"]
    level = max(x.norm, y.norm) + 1
    while level <= bound:
        cm = _multiples(ctx, x, level) & _multiples(ctx, y, level)
        # a common multiple is not minimal exactly when it is m c for a
        # common multiple m one level down (its successors were built
        # with the multiples of x) and a letter c
        below = {s for m in prev_cm for s in successors[m]}
        new = [Element(zc) for zc in sorted(cm) if zc not in below]
        if found and not new:
            # one full level above the last minimal common multiple:
            # exhaustive iff everything here sits above something found
            if all(any(ctx.divides(m, Element(zc)) for m in found)
                   for zc in cm):
                complete = True
                break
        found.extend(new)
        prev_cm = cm
        level += 1
    comp_l = {m: ctx.left_divides(x, m) for m in found}
    comp_r = {m: ctx.left_divides(y, m) for m in found}
    return McmResult((x, y), frozenset(found), comp_l, comp_r, bound, complete)


def primitive_closure(ctx: MonoidContext, cap=10_000) -> ElementSet:
    """Close {1} and the atoms under complements of minimal common
    multiples.  Stops at a fixpoint, or at ``cap`` elements with a note
    (closedness then undetermined).  Memoised per cap."""
    cache = ctx.caches["primitives"]
    if cap not in cache:
        cache[cap] = _primitive_closure(ctx, cap)
    return cache[cap]


def _primitive_closure(ctx: MonoidContext, cap) -> ElementSet:
    members = {ctx.one} | set(ctx.ball_level(1))
    notes: list[str] = []
    done: set[frozenset] = set()
    reach = max(max(e.norm for e in members),
                ctx.presentation.max_relation_length)
    pending = [(a, b) for a in sorted(members) for b in sorted(members)
               if a != b and a.norm and b.norm]
    while pending:
        x, y = pending.pop()
        key = frozenset((x, y))
        if key in done:
            continue
        done.add(key)
        # one level past the default so the exhaustiveness certificate
        # (a clean level above the last mcm) has room to fire
        res = mcms(ctx, x, y, bound=x.norm + y.norm + reach + 1)
        if not res.complete:
            notes.append(
                f"mcm search incomplete for pair "
                f"({ctx.show(x)}, {ctx.show(y)})")
        for m in sorted(res.mcms):
            for comp in (res.complements_left[m], res.complements_right[m]):
                if comp not in members:
                    if len(members) >= cap:
                        notes.append(f"closure stopped at cap {cap}; not a fixpoint")
                        return ElementSet(frozenset(members), "primitives",
                                          tuple(notes))
                    members.add(comp)
                    reach = max(reach, comp.norm)
                    pending.extend(
                        (comp, s) for s in sorted(members)
                        if s != comp and s.norm and comp.norm)
    return ElementSet(frozenset(members), "primitives", tuple(notes))


def is_spanning(ctx: MonoidContext, S, bound=None) -> VerificationReport:
    """Check that S contains 1 and the atoms and is closed under
    complements of minimal common multiples of its pairs."""
    S = _coerce_set(ctx, S)
    if ctx.one not in S:
        return VerificationReport("spanning", "fail", bound=bound,
                                  witness={"missing": "1"})
    for a in sorted(ctx.ball_level(1)):
        if a not in S:
            return VerificationReport(
                "spanning", "fail", bound=bound,
                witness={"missing_atom": ctx.show(a)})
    members = sorted(S.members)
    maxnorm = S.max_norm
    complete = True
    used_bound = bound
    for i, x in enumerate(members):
        if not x.norm:
            continue
        for y in members[i:]:
            if not y.norm or x == y:
                continue
            b = bound if bound is not None else x.norm + y.norm + maxnorm
            used_bound = b if used_bound is None else max(used_bound, b)
            res = mcms(ctx, x, y, bound=b)
            complete = complete and res.complete
            for m in sorted(res.mcms):
                for side, comp in (("left", res.complements_left[m]),
                                   ("right", res.complements_right[m])):
                    if comp not in S:
                        return VerificationReport(
                            "spanning", "fail", bound=used_bound,
                            witness={"pair": [ctx.show(x), ctx.show(y)],
                                     "mcm": ctx.show(m),
                                     "complement": ctx.show(comp),
                                     "side": side},
                            complete=complete,
                            details={"set": S.label or len(S)})
    return VerificationReport("spanning", "pass", bound=used_bound,
                              complete=complete,
                              details={"set": S.label or len(S)})


def check_ore(ctx: MonoidContext, S, bound=None) -> VerificationReport:
    """Every pair from S must admit a common multiple within the bound."""
    S = _coerce_set(ctx, S)
    members = sorted(S.members)
    maxnorm = S.max_norm
    complete = True
    used_bound = bound
    for i, x in enumerate(members):
        if not x.norm:
            continue
        for y in members[i:]:
            if not y.norm:
                continue
            b = bound if bound is not None else x.norm + y.norm + maxnorm
            used_bound = b if used_bound is None else max(used_bound, b)
            res = mcms(ctx, x, y, bound=b)
            complete = complete and res.complete
            if not res.mcms:
                return VerificationReport(
                    "common-multiples", "fail", bound=used_bound,
                    witness={"pair": [ctx.show(x), ctx.show(y)]},
                    complete=False,
                    details={"set": S.label or len(S)})
    return VerificationReport("common-multiples", "pass", bound=used_bound,
                              complete=complete,
                              details={"set": S.label or len(S)})


def _factorisations(ctx: MonoidContext, x: Element) -> frozenset:
    """The pairs (p, z) with p z = x, memoized per x.

    Walked from (1, x): each pair (p, z) leads to (p a, z') for every
    atom a and every z' with a z' = z.  Induction on the letters of p
    reaches every factorisation, with or without cancellation, since
    ``complements`` lists every z'."""
    cache = ctx.caches["factorisations"]
    got = cache.get(x)
    if got is None:
        atom_list = sorted(ctx.ball_level(1))
        pairs = {(ctx.one, x)}
        frontier = [(ctx.one, x)]
        while frontier:
            nxt = []
            for p, z in frontier:
                for a in atom_list:
                    for rest in ctx.complements(a, z):
                        pair = (ctx.mul(p, a), rest)
                        if pair not in pairs:
                            pairs.add(pair)
                            nxt.append(pair)
            frontier = nxt
        got = cache[x] = frozenset(pairs)
    return got


def divisors(ctx: MonoidContext, x) -> ElementSet:
    """All left divisors of x (canonical representatives)."""
    x = ctx.canonical(x)
    return ElementSet(frozenset(p for p, _ in _factorisations(ctx, x)),
                      f"Div({ctx.show(x)})")


def right_divisors(ctx: MonoidContext, x) -> ElementSet:
    x = ctx.canonical(x)
    return ElementSet(frozenset(z for _, z in _factorisations(ctx, x)),
                      f"RDiv({ctx.show(x)})")


def divisors_in(ctx: MonoidContext, S, x) -> frozenset:
    """The left divisors of x that lie in S, memoized per spanning set."""
    S = _coerce_set(ctx, S)
    x = ctx.canonical(x)
    cache = ctx.caches[("div_in", S.members)]
    got = cache.get(x)
    if got is None:
        got = frozenset(s for s in S.members if ctx.divides(s, x))
        cache[x] = got
    return got


def covers(ctx: MonoidContext, S, x, y) -> bool:
    """x covers y over S: multiplying x by y adds no new S-divisors,
    i.e. Div(x y) and Div(x) meet S in the same set; true for y = 1 by
    convention.  The span's arithmetic answers (``span_arithmetic``)."""
    x = ctx.canonical(x)
    y = ctx.canonical(y)
    if not y.norm:
        return True
    return span_arithmetic(ctx, _coerce_set(ctx, S)).covers(x, y)


def _codim1_divisors(ctx: MonoidContext, x: Element) -> set:
    """The left divisors p of x with p a = x for an atom a.

    Read backwards, a right-divides x exactly when the reversed word of
    x reduces, in the reversed completion where a is least, to a word
    that starts with a; where a cancels there on the left, the rest of
    that word, read backwards, is the one such p.  Where it does not,
    the factorisations of x are walked instead."""
    word = x.canon[::-1]
    out = set()
    for a in sorted(ctx.ball_level(1)):
        kernel = ctx._least_reversed[a.canon]
        if not kernel.left_cancellative(x.norm):
            return {p for p, z in _factorisations(ctx, x) if z.norm == 1}
        rev = kernel.reduce(word)
        if rev[0] == a.canon:
            out.add(ctx.canonical(rev[:0:-1]))
    return out


def enumerate_simples(ctx: MonoidContext, S) -> ElementSet:
    """The S-simple elements: x such that no proper divisor of x has the
    same S-divisor set.

    Enumerated level by level; by the right-divisor argument every
    norm-(l+1) simple element is an atom times a norm-l simple one, so
    the search stops at the first empty level.  Requires S to span.
    """
    S = _coerce_set(ctx, S)
    cache = ctx.caches["simples"]
    got = cache.get(S.members)
    if got is not None:
        return got
    atom_list = sorted(ctx.ball_level(1))
    norm_cap = len(S.members) * max(S.max_norm, 1)
    simple = {ctx.one}
    level = [ctx.one]
    while level:
        nxt = []
        seen = set()
        for a in atom_list:
            for s in level:
                cand = ctx.mul(a, s)
                if cand in seen:
                    continue
                seen.add(cand)
                if cand.norm > norm_cap:
                    raise ResourceLimitExceeded(
                        f"simple-element search passed norm cap {norm_cap}; "
                        f"is the set spanning?")
                dset = divisors_in(ctx, S, cand)
                if all(divisors_in(ctx, S, d) != dset
                       for d in _codim1_divisors(ctx, cand)):
                    nxt.append(cand)
        simple.update(nxt)
        level = nxt
    result = ElementSet(frozenset(simple),
                        f"simples({S.label or len(S)})")
    cache[S.members] = result
    return result


def span_arithmetic(ctx: MonoidContext, S: ElementSet):
    """The arithmetic of the span S, chosen on its first use and kept:
    the ``GarsideTables`` where S is Div(delta) and its germ proves
    delta Garside (``_proved_tables``), else a ``SpanKernel``.  Nothing
    else registers one, so every caller of a span gets one object."""
    cache = ctx.caches["arithmetic"]
    got = cache.get(S.members)
    if got is None:
        got = cache[S.members] = _proved_tables(ctx, S) or SpanKernel(ctx, S)
    return got


def _too_many(ctx, cap, x) -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"more than {cap} normal decompositions for {ctx.show(x)}")


class SpanKernel:
    """The arithmetic of a span S on the rewriting kernel: the five span
    calls, which ``GarsideTables`` answers on tables.  A greedy head of
    x is a simple divisor with the S-divisor set of x, the lex-least one
    in ``normal_form``; covering compares divisor sets.  Normal forms
    are tuples of elements, which ``normal`` labels.  The head index and
    the normal forms of ``normal_forms`` are memoised on the object."""

    def __init__(self, ctx: MonoidContext, S: ElementSet):
        self.ctx = ctx
        self.S = S
        self._head_index = None
        self._forms = {}  # element -> frozenset of its normal forms

    def _index(self):
        """The non-identity simples grouped by S-divisor set, each group
        in plain lex order of the words (the tie-break of greedy heads)."""
        got = self._head_index
        if got is None:
            ctx, S = self.ctx, self.S
            got = {}
            for s in sorted((s for s in enumerate_simples(ctx, S).members
                             if s.norm), key=lambda e: e.canon):
                got.setdefault(divisors_in(ctx, S, s), []).append(s)
            self._head_index = got
        return got

    def _heads(self, index, x):
        """Lazily the pairs (h, rest) with h rest = x, h in ``index``
        with the S-divisor set of x, in tie-break order."""
        ctx = self.ctx
        for h in index.get(divisors_in(ctx, self.S, x), ()):
            if ctx.divides(h, x):
                yield h, ctx.left_divides(h, x)

    def _first_head(self, index, x):
        head = next(self._heads(index, x), None)
        if head is None:
            raise ValueError(f"no simple head divides {self.ctx.show(x)}; "
                             f"is the set spanning?")
        return head

    def normal_form(self, x) -> tuple:
        x = self.ctx.canonical(x)
        index = self._index()
        factors = []
        while x.norm:
            h, x = self._first_head(index, x)
            factors.append(h)
        return tuple(factors)

    def normal_forms(self, x, cap) -> frozenset:
        ctx = self.ctx
        x = ctx.canonical(x)
        index = self._index()
        memo = self._forms

        def rec(e) -> frozenset:
            if not e.norm:
                return frozenset([()])
            got = memo.get(e)
            if got is not None:
                return got
            out = set()
            for h, rest in self._heads(index, e):
                for tail in rec(rest):
                    out.add((h,) + tail)
                    if len(out) > cap:
                        raise _too_many(ctx, cap, x)
            got = memo[e] = frozenset(out)
            return got

        return rec(x)

    def covers(self, x, y) -> bool:
        ctx, S = self.ctx, self.S
        return divisors_in(ctx, S, ctx.mul(x, y)) == divisors_in(ctx, S, x)

    def slid(self, y, factors) -> tuple:
        """A normal form of y times the normal sequence ``factors``, y
        simple: of carry * f, the first head that leaves a simple carry,
        else the greedy head; the last carry is normalised."""
        ctx = self.ctx
        index = self._index()
        simples = enumerate_simples(ctx, self.S).members
        cur = y
        out = []
        for f in factors:
            z = ctx.mul(cur, f)
            h, cur = next(((h, rest) for h, rest in self._heads(index, z)
                           if not rest.norm or rest in simples),
                          None) or self._first_head(index, z)
            out.append(h)
        return tuple(out) + self.normal_form(cur)

    def least_word(self, x) -> str:
        """The canonical word of an element or a raw word."""
        return self.ctx.canonical(x).canon


# -- Garside tables ------------------------------------------------------


class GarsideTables:
    """Div(delta) as a lattice, with the simples numbered in shortlex
    order: id 0 is the identity and the last id is delta.  ``ids`` maps
    the canonical word of each simple to its id.  Past their gate, with
    delta proved Garside on its germ (``_proved_tables``), the tables
    are the span's arithmetic (``span_arithmetic``).  They answer all
    ten calls: the five span calls of ``SpanKernel`` (``normal_form``,
    ``normal_forms``, ``covers``, ``slid`` and ``least_word``) and the
    five on fraction keys of ``delta.FractionKernel``.  Only this class
    reads the ids.

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


def _proved_tables(ctx: MonoidContext, div: ElementSet):
    """The tables of the span div where it is Div(delta), the gate
    passes and the germ proves delta a Garside element, else None.  The
    span is Div(delta) where it holds every atom, has one element delta
    of top norm, and is the left divisors of delta; a span that fails
    the first two, such as most primitive closures, walks no divisors.

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
    is enumerated.  ``span_arithmetic`` is the only caller."""
    members = div.members
    top = div.max_norm
    tops = [e for e in members if e.norm == top]
    if not ctx.ball_level(1) <= members or len(tops) != 1:
        return None
    pairs = _factorisations(ctx, tops[0])
    if not members == {p for p, _ in pairs} == {z for _, z in pairs}:
        return None
    # the two sides of a relation are one element
    if any(ctx.canonical(lhs) not in members
           for lhs, _ in ctx.presentation.relations):
        return None
    tables = garside_tables(ctx, div)
    if tables is None or not tables.cancellative():
        return None
    ctx.caches["simples"][members] = ElementSet(
        members, f"simples({div.label or len(div)})")
    return tables
