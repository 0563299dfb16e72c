"""Divisibility structure: minimal common multiples, primitive elements,
spanning sets, simple elements, the covering relation, and the kernel
arithmetic of a span (``SpanKernel``: greedy normal forms and slides).

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
    """The arithmetic of the span S that ``delta.build_structure`` or
    ``delta.choose_arithmetic`` registered, else a ``SpanKernel``, made
    on first use and kept."""
    cache = ctx.caches["arithmetic"]
    got = cache.get(S.members)
    if got is None:
        got = cache[S.members] = SpanKernel(ctx, S)
    return got


def _too_many(ctx, cap, x) -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"more than {cap} normal decompositions for {ctx.show(x)}")


class SpanKernel:
    """The arithmetic of a span S on the rewriting kernel, as
    ``delta.GarsideTables`` is on tables.  A greedy head of x is a
    simple divisor with the S-divisor set of x, the lex-least one in
    ``normal_form``; covering compares divisor sets.  Normal forms are
    tuples of elements, which ``normal`` labels.  The head index and
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
