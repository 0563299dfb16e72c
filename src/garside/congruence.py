"""Word problem engine: canonical forms, divisibility, balls.

Everything rests on homogeneity: relations preserve length, so the
congruence class of a word is a finite set of words of the same length.
The canonical form of an element is the lexicographically least word of
its class, and the norm is the common length.

Canonical forms, products, equality and left division come from the
length-bounded completions of :mod:`garside.rewrite`, which reduce a
word to the least word of its class without enumerating the class.
Where the completion cannot certify left cancellation, the complements
of x in y are read off the ball instead: as relations preserve length,
every z with x z = y has norm ``norm(y) - norm(x)``, so they are the z
of that ball level whose product with x is y.  No congruence class is
enumerated here; the breadth-first class oracle lives in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from functools import total_ordering

from .presentation import Presentation, PresentationError
from .reports import FrozenRecord, VerificationReport
from .rewrite import completion

__all__ = ["Element", "MonoidContext", "ResourceLimitExceeded"]


class ResourceLimitExceeded(RuntimeError):
    """A configured cache or enumeration cap was hit before finishing."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


@total_ordering
class Element(FrozenRecord):
    """A monoid element, identified by the least word of its class.

    Construct these through :class:`MonoidContext` (``element``,
    ``canonical``, ``mul``); a hand-built ``Element`` with a
    non-canonical word breaks every comparison.  Ordering is shortlex.
    """

    __slots__ = ("canon",)
    _fields = __slots__

    def __init__(self, canon):
        object.__setattr__(self, "canon", canon)

    @property
    def norm(self):
        return len(self.canon)

    # equality and hashing are on every memo lookup: one field, no tuple
    def __eq__(self, other):
        if other.__class__ is Element:
            return self.canon == other.canon
        return NotImplemented

    def __hash__(self):
        return hash(self.canon)

    def __lt__(self, other):
        return (len(self.canon), self.canon) < (len(other.canon), other.canon)

    def __repr__(self):
        return f"Element({self.canon!r})"


class MonoidContext:
    """All word-problem state for one presentation.

    Canonical forms (``_canon``, per word), left complements (of
    ``left_divides``, and of ``complements`` where it scans the ball)
    and ball levels are memoized here.
    ``caches`` is a scratch area for the higher layers, keyed per
    spanning set or Garside element: the primitive closure per cap
    (``"primitives"``), divisor sets, factorisations, simple elements,
    the structure (``"structure"``, which memoises each element's chain
    of quotients by delta as far as stripping needed it) and automaton
    of each Garside element, for ``mcms`` the right multiples by norm
    (``"multiples"``) and each word's letter successors
    (``"successors"``), and for ``cayley_distance`` the pair distances
    (``("cayley", delta)``) and the Cayley graph of interned fraction
    keys (``"cayley_graph"``).  Each span has one arithmetic object
    (``"arithmetic"``), written only by ``structure.span_arithmetic``
    on the span's first use: the Garside tables where the span is
    Div(delta) and its germ proves delta Garside, which number the
    simples, hold every slide and the word lengths per pair of keys,
    and reduce no word; else the kernel, which memoises the simples
    grouped by divisor set for greedy heads and the normal forms of
    each element (a structure on it keeps, per letter, the
    (m, phi^t(c)) of g^-1 = c delta^-m).  Canonical and left-complement
    entries count against ``max_cached_words``, ball levels against
    ``max_ball_elements``; the shared rewriting systems, the Cayley
    caches and the arithmetic objects (|Div(delta)|^2 table entries)
    count against no cap.  ``ball_fallbacks`` counts the distinct pairs
    whose left complements were read off the ball because left
    cancellation could not be certified.
    """

    def __init__(self, presentation: Presentation,
                 max_cached_words=1_000_000, max_ball_elements=100_000):
        self.presentation = presentation
        self.max_cached_words = max_cached_words
        self.max_ball_elements = max_ball_elements
        self._cached_words = 0
        self._canon: dict[str, Element] = {}
        self._completion = completion(presentation.relations,
                                      presentation.chars)
        # per letter c, the completions in which c is least, of the
        # relations and of the relations read backwards
        backwards = tuple((u[::-1], v[::-1])
                          for u, v in presentation.relations)
        self._least, self._least_reversed = (
            {c: completion(rels, c + presentation.chars.replace(c, ""))
             for c in presentation.chars}
            for rels in (presentation.relations, backwards))
        self._levels: list[frozenset[Element]] = []
        self._left_complements: dict[tuple[str, str], Element | None] = {}
        self._ball_complements: dict[tuple[str, str],
                                     frozenset[Element]] = {}
        self.caches: dict = defaultdict(dict)
        self.ball_fallbacks = 0
        self.one = Element("")

    def __repr__(self):
        return f"MonoidContext({self.presentation!r})"

    # -- word plumbing -------------------------------------------------

    def _word_of(self, x) -> str:
        if isinstance(x, Element):
            return x.canon
        if isinstance(x, str):
            alphabet = self.presentation.chars
            for c in x:
                if c not in alphabet:
                    raise PresentationError(
                        f"letter {c!r} is not in the internal alphabet; "
                        f"use element() for symbol words")
            return x
        raise TypeError(f"expected Element or internal word, got {x!r}")

    def element(self, text) -> Element:
        """Canonical element of a user-facing word such as ``s1s2s1``."""
        return self.canonical(self.presentation.encode_word(text))

    def show(self, x) -> str:
        return self.presentation.decode_word(self._word_of(x))

    def _remember(self, memo, key, value):
        """Store a memo entry; it counts against ``max_cached_words``,
        checked before the entry is added."""
        if self._cached_words >= self.max_cached_words:
            raise ResourceLimitExceeded(
                f"word cache cap ({self.max_cached_words}) exceeded: "
                f"{self._cached_words} words cached, and a memo entry "
                f"needs 1 more")
        memo[key] = value
        self._cached_words += 1
        return value

    # -- canonical forms -------------------------------------------------

    def _reduced(self, word, start=0) -> Element:
        """Canonical element of a word whose first ``start`` letters
        form a canonical word."""
        got = self._canon.get(word)
        if got is None:
            got = self._remember(
                self._canon, word,
                Element(self._completion.reduce(word, start)))
        return got

    def canonical(self, word) -> Element:
        if isinstance(word, Element):
            return word
        return self._reduced(self._word_of(word))

    def equal(self, u, v) -> bool:
        uw = self._word_of(u)
        vw = self._word_of(v)
        if len(uw) != len(vw):
            return False
        return uw == vw or self._reduced(uw) == self._reduced(vw)

    def mul(self, x, y) -> Element:
        xw = self._word_of(x)
        return self._reduced(xw + self._word_of(y),
                             len(xw) if isinstance(x, Element) else 0)

    # -- divisibility ----------------------------------------------------

    def divides(self, x, y) -> bool:
        """Left divisibility x <= y, i.e. y = x z for some z."""
        return self.left_divides(x, y) is not None

    def left_divides(self, x, y):
        """Complement z with x z = y, or None; z is the least such element.

        The letters c of x are peeled off y one at a time: in the
        completion where c is least, c divides z exactly when the
        reduced word of z starts with c, and when c cancels on the left
        up to norm(z), the rest of any word of z that starts with c is
        z/c.  Where that cancellation is not certified, the least of
        ``complements`` is taken instead.  Cancellation up to a norm
        holds below it too, and z only shrinks, so each letter is
        checked at its first occurrence in x only."""
        x = self.canonical(x)
        y = self.canonical(y)
        if x.norm >= y.norm:
            return self.one if x == y else None
        if x.norm == 0:
            return y
        key = (x.canon, y.canon)
        memo = self._left_complements
        if key in memo:
            return memo[key]
        z = y.canon
        checked = ""
        for c in x.canon:
            kernel = self._least[c]
            if c not in checked:
                if not kernel.left_cancellative(len(z)):
                    return self._remember(
                        memo, key, min(self.complements(x, y), default=None))
                checked += c
            if z[0] != c:
                z = kernel.reduce(z)
                if z[0] != c:
                    return self._remember(memo, key, None)
            z = z[1:]
        return self._remember(memo, key, self._reduced(z))

    def complements(self, x, y) -> frozenset[Element]:
        """Every z with x z = y.  Where each letter of x cancels on the
        left up to norm(y) that is the complement of ``left_divides``
        alone.  Otherwise the ball level of norm norm(y) - norm(x),
        which holds every such z, is scanned once per pair (counted in
        ``ball_fallbacks``) and the answer memoised; the scan raises
        ``ResourceLimitExceeded`` where the ball up to that level passes
        ``max_ball_elements``."""
        x = self.canonical(x)
        y = self.canonical(y)
        if all(self._least[c].left_cancellative(y.norm) for c in x.canon):
            z = self.left_divides(x, y)
            return frozenset() if z is None else frozenset([z])
        key = (x.canon, y.canon)
        got = self._ball_complements.get(key)
        if got is None:
            n = y.norm - x.norm
            level = self.ball_level(n) if n >= 0 else ()
            got = self._remember(self._ball_complements, key, frozenset(
                z for z in level if self.mul(x, z) == y))
            self.ball_fallbacks += 1
        return got

    # -- balls -----------------------------------------------------------

    def ball_level(self, n) -> frozenset[Element]:
        """The elements of norm n; ValueError for a negative n."""
        if n < 0:
            raise ValueError(f"no ball level of negative norm {n}")
        while len(self._levels) <= n:
            k = len(self._levels)
            if k == 0:
                level = frozenset([self.one])
            else:
                chars = self.presentation.chars
                level = frozenset(
                    self._reduced(e.canon + c, k - 1)
                    for e in self._levels[-1] for c in chars)
            total = sum(len(lv) for lv in self._levels) + len(level)
            if total > self.max_ball_elements:
                raise ResourceLimitExceeded(
                    f"ball enumeration exceeded {self.max_ball_elements} "
                    f"elements at norm {k}", level=k)
            self._levels.append(level)
        return self._levels[n]

    def enumerate_ball(self, n) -> frozenset[Element]:
        out = set()
        for k in range(n + 1):
            out.update(self.ball_level(k))
        return frozenset(out)

    # -- cancellativity ----------------------------------------------------

    def check_cancellative_bounded(self, n) -> VerificationReport:
        """Search for a cancellation failure among triples with
        norm(x) + norm(y) <= n, on both sides.

        A failure x y = x y2 with x = c x' is one by the letter c, or
        x' y = x' y2 is one at a lower norm; so the completions of each
        letter certify the answer, and the ball is scanned only at the
        least failing norm, for x an atom, to name the first witness."""
        failing = [k.uncancellable for k in (*self._least.values(),
                                             *self._least_reversed.values())
                   if not k.left_cancellative(n)]
        counterexample = None
        if failing:
            j = min(failing) - 1
            for x in sorted(self.ball_level(1)):
                seen_l: dict[Element, Element] = {}
                seen_r: dict[Element, Element] = {}
                for y in sorted(self.ball_level(j)):
                    p = self.mul(x, y)
                    other = seen_l.get(p)
                    if other is not None and other != y:
                        counterexample = (x, other, y, "left")
                        break
                    seen_l[p] = y
                    q = self.mul(y, x)
                    other = seen_r.get(q)
                    if other is not None and other != y:
                        counterexample = (x, other, y, "right")
                        break
                    seen_r[q] = y
                if counterexample:
                    break
        if counterexample is None:
            return VerificationReport(
                "cancellativity", "pass", details={"radius": n})
        x, y, y2, side = counterexample
        return VerificationReport(
            "cancellativity", "fail",
            witness={"x": self.show(x), "y": self.show(y),
                     "y2": self.show(y2), "side": side},
            details={"radius": n})
