"""Length-bounded Knuth-Bendix completion for homogeneous presentations.

Fix an order on the letters and compare words of one length
lexicographically in it.  Every relation preserves length, so each
relation, oriented from its larger side to its smaller one, is a rule
that makes a word smaller without changing its length, and rewriting
with such rules terminates.

**Exactness.**  A critical pair arises where two left sides overlap in
one word, the *overlap word*.  Completion reduces both results of every
critical pair and adds a new rule (again length-preserving) when they
differ.  Rules only ever become more numerous, so a pair that became
joinable stays joinable.  Suppose every critical pair whose overlap word
has at most N letters is joinable.  Two rewrites of one word of length
n <= N either act on disjoint factors, and commute, or on overlapping
ones, an instance of a critical pair of length at most n in a context;
all words stay of length n.  So rewriting is locally confluent on words
of length at most N, and by Newman's lemma confluent there: every word
of length at most N has one irreducible descendant, and since each rule
replaces a word by a smaller congruent one, that descendant is the
least word of the congruence class (Knuth-Bendix 1970; Book-Otto,
*String-Rewriting Systems*, 1993, ch. 2).

Pairs are resolved in order of the length of their overlap word, and
only up to the longest word asked for so far; longer pairs wait.  A rule
found while resolving pairs of length L has length L.  Its left side is
irreducible when it is added, so no left side is a factor of another:
the rules of length at most N never change once the completion reaches
N, whatever the steps by which it got there.

**Left cancellation by the least letter.**  Let c be the least letter.
Claim: c u = c v implies u = v for all words of length below n exactly
when no rule of length at most n has a left side c t with t irreducible.
If c u = c v with u != v as elements, take u and v irreducible; c u and
c v have the same least word but are different words, so one of them,
say c u, is reducible.  Every factor of u is irreducible, so the left
side found starts at the first letter: it is c t with t a prefix of u.
Conversely, let c t -> r be a rule with t irreducible.  Then r < c t,
and as c is least, r = c t' with t' < t.  As t is the least word of its
class, t' is not congruent to t, yet c t' = c t.

The completions are shared by every context with the same relations,
per letter order; they grow with the longest word reduced so far.
"""

from __future__ import annotations

__all__ = ["Completion", "completion"]


class Completion:
    """A rewriting system for one letter order (``order[0]`` least),
    confluent on words of at most ``bound`` letters."""

    def __init__(self, relations, order):
        self.order = order
        self._rank = str.maketrans(order, "".join(sorted(order)))
        self.rules: dict[str, str] = {}
        # the left sides read backwards; a leaf is the right side
        self._trie: dict = {}
        self._pending: dict[int, list] = {}       # overlap length -> pairs
        self.bound = 0
        self._uncancellable = None
        for lhs, rhs in relations:
            self._defer(lhs, rhs)

    def _defer(self, u, v):
        self._pending.setdefault(len(u), []).append((u, v))

    @property
    def uncancellable(self):
        """The length of the shortest rule c t -> r with t irreducible,
        or None if no rule up to ``bound`` is one."""
        return self._uncancellable

    def left_cancellative(self, n) -> bool:
        """Does c u = c v imply u = v, for c the least letter and words
        c u, c v of at most n letters?"""
        if n > self.bound:
            self.complete(n)
        return self._uncancellable is None or self._uncancellable > n

    def reduce(self, word, start=0):
        """The least word congruent to ``word`` in this order.  The first
        ``start`` letters must already form an irreducible word."""
        if len(word) > self.bound:
            self.complete(len(word))
        # ``done`` is irreducible, so after each letter only a left side
        # that ends at that letter can match: walk the trie backwards
        # from it; a match is replaced in ``word`` and read again
        trie = self._trie
        done = word[:start]
        i = start
        n = len(word)
        while i < n:
            done += word[i]
            i += 1
            node = trie
            j = i
            while j:
                j -= 1
                node = node.get(done[j])
                if node is None:
                    break
                if type(node) is str:
                    word = done[:j] + node + word[i:]
                    done = done[:j]
                    i = j
                    break
        return done

    def complete(self, n):
        """Resolve every critical pair whose overlap word has at most n
        letters."""
        while self.bound < n:
            # raised first, so that reduce() does not complete again; the
            # rules of this length are added below
            self.bound += 1
            for u, v in self._pending.pop(self.bound, ()):
                u = self.reduce(u)
                v = self.reduce(v)
                if u != v:
                    if u.translate(self._rank) < v.translate(self._rank):
                        u, v = v, u
                    self._add(u, v)

    def _add(self, lhs, rhs):
        self.rules[lhs] = rhs
        node = self._trie
        for c in lhs[:0:-1]:
            node = node.setdefault(c, {})
        node[lhs[0]] = rhs
        # lhs is irreducible and every other rule is no longer, so the
        # only new critical pairs are proper overlaps, each longer than lhs
        for other in self.rules:
            self._overlap(lhs, other)
            if other != lhs:
                self._overlap(other, lhs)
        if (self._uncancellable is None and lhs[0] == self.order[0]
                and self.reduce(lhs[1:]) == lhs[1:]):
            self._uncancellable = len(lhs)

    def _overlap(self, a, b):
        """Defer the critical pairs where a suffix of a is a prefix of b."""
        ra = self.rules[a]
        rb = self.rules[b]
        for k in range(1, min(len(a), len(b))):
            if a.endswith(b[:k]):
                self._defer(ra + b[k:], a[:-k] + rb)


_COMPLETIONS: dict = {}


def completion(relations, order) -> Completion:
    """The shared completion of ``relations`` (a tuple of pairs of
    words) for the letter order ``order``.  Its rules do not depend on
    the order or orientation of the pairs, so neither does the key: a
    presentation and its reversal often share one."""
    key = (frozenset(map(frozenset, relations)), order)
    got = _COMPLETIONS.get(key)
    if got is None:
        got = _COMPLETIONS[key] = Completion(relations, order)
    return got
