"""Finite homogeneous monoid presentations.

A presentation lists generator symbols in a fixed order together with
length-preserving relations between positive words.  The declaration
order of the generators induces the lexicographic order used for
canonical forms everywhere else in the package.

Words are stored internally as plain strings with one character per
generator (``chr(97 + index)``), so lexicographic comparison of internal
words agrees with the declared generator order.  ``encode_word`` and
``decode_word`` translate between user symbols and that alphabet; the
token ``1`` denotes the empty word and a trailing apostrophe marks an
inverse letter in signed words.
"""

from __future__ import annotations

import re
from string import ascii_lowercase

__all__ = [
    "PresentationError",
    "Presentation",
    "parse_presentation",
    "serialize_presentation",
    "fixture",
    "FIXTURE_NAMES",
]

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FREE_RE = re.compile(r"free\((\d+)\)")
_FREE_COMM_RE = re.compile(r"free_comm\((\d+)\)")

FIXTURE_NAMES = ("M1", "M2", "M3", "B3", "free(n)", "free_comm(n)")


class PresentationError(ValueError):
    """Raised for malformed presentation sources or invalid words."""


class Presentation:
    """An ordered tuple of generators plus homogeneous relations."""

    def __init__(self, generators, relations, name=None):
        gens = tuple(generators)
        if not gens:
            raise PresentationError("a presentation needs at least one generator")
        if len(gens) > 26:
            raise PresentationError("at most 26 generators are supported")
        seen = set()
        for g in gens:
            if not isinstance(g, str) or not _SYMBOL_RE.fullmatch(g):
                raise PresentationError(f"invalid generator symbol {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        self.name = name
        self.generators = gens
        self._sym2char = {g: chr(97 + i) for i, g in enumerate(gens)}
        self._char2sym = {c: g for g, c in self._sym2char.items()}
        self.chars = "".join(self._sym2char[g] for g in gens)
        # longest symbol first, so tokenization is greedy and unambiguous
        self._symbols_by_length = sorted(gens, key=len, reverse=True)
        rels = []
        for pair in relations:
            lhs_text, rhs_text = pair
            lhs = self.encode_word(lhs_text)
            rhs = self.encode_word(rhs_text)
            if len(lhs) != len(rhs):
                raise PresentationError(
                    f"non-homogeneous relation {lhs_text}={rhs_text}: "
                    f"sides have lengths {len(lhs)} and {len(rhs)}")
            if not lhs:
                raise PresentationError(
                    f"relation {lhs_text}={rhs_text} has an empty side")
            if lhs == rhs:
                raise PresentationError(
                    f"relation {lhs_text}={rhs_text} relates a word to itself")
            rels.append((lhs, rhs))
        self.relations = tuple(rels)

    @property
    def max_relation_length(self):
        return max((len(lhs) for lhs, _ in self.relations), default=1)

    def char_of(self, symbol):
        try:
            return self._sym2char[symbol]
        except KeyError:
            raise PresentationError(f"undeclared generator {symbol!r}") from None

    def symbol_of(self, char):
        return self._char2sym[char]

    def _scan(self, text, kind):
        """The (internal char, sign) pairs of a ``"word"`` or, where an
        apostrophe after a symbol inverts it, a ``"signed word"``."""
        if not isinstance(text, str):
            raise PresentationError(f"expected a {kind} string, got {text!r}")
        signed = kind == "signed word"
        out = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if signed and ch == "'":
                raise PresentationError(
                    f"dangling inverse mark at position {i} in {text!r}")
            if ch == "1":
                i += 1
                if signed and i < n and text[i] == "'":
                    i += 1
                continue
            for sym in self._symbols_by_length:
                if text.startswith(sym, i):
                    c = self._sym2char[sym]
                    i += len(sym)
                    break
            else:
                raise PresentationError(
                    f"unknown symbol at position {i} in {kind} {text!r}")
            sign = 1
            if signed and i < n and text[i] == "'":
                sign = -1
                i += 1
            out.append((c, sign))
        return out

    def encode_word(self, text):
        """Translate a user word (juxtaposed symbols, optional spaces,
        ``1`` for the empty word) into the internal alphabet."""
        return "".join(c for c, _ in self._scan(text, "word"))

    def decode_word(self, word):
        if not word:
            return "1"
        return "".join(self._char2sym[c] for c in word)

    def encode_signed(self, text):
        """Parse a signed word; an apostrophe after a symbol inverts it.

        Returns a tuple of (internal char, +1 or -1) pairs.  ``1`` and
        ``1'`` both contribute nothing.
        """
        return tuple(self._scan(text, "signed word"))

    def decode_signed(self, pairs):
        if not pairs:
            return "1"
        return "".join(
            self._char2sym[c] + ("'" if sign < 0 else "") for c, sign in pairs)

    def __repr__(self):
        label = self.name or " ".join(self.generators)
        return f"Presentation({label!r}, {len(self.relations)} relations)"


def parse_presentation(text, name=None):
    """Parse the two-line format::

        gens: a b
        rels: aa=bb; ab=ba

    ``#`` starts a comment, blank lines are ignored, and a chained
    relation ``u=v=w`` expands into the consecutive pairs ``u=v, v=w``.
    """
    gens_line = None
    rels_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens_line is not None:
                raise PresentationError(f"line {lineno}: duplicate 'gens:' line")
            gens_line = line[len("gens:"):]
        elif line.startswith("rels:"):
            if rels_line is not None:
                raise PresentationError(f"line {lineno}: duplicate 'rels:' line")
            rels_line = line[len("rels:"):]
        else:
            raise PresentationError(
                f"line {lineno}: expected 'gens:' or 'rels:', got {line!r}")
    if gens_line is None:
        raise PresentationError("missing 'gens:' line")
    gens = gens_line.split()
    pairs = []
    if rels_line:
        for chunk in rels_line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            words = [w.strip() for w in chunk.split("=")]
            if len(words) < 2:
                raise PresentationError(f"relation {chunk!r} is missing '='")
            if any(not w for w in words):
                raise PresentationError(f"relation {chunk!r} has an empty side")
            for a, b in zip(words, words[1:]):
                pairs.append((a, b))
    return Presentation(gens, pairs, name=name)


def serialize_presentation(p):
    """Inverse of ``parse_presentation`` up to relation chaining."""
    rels = "; ".join(
        f"{p.decode_word(lhs)}={p.decode_word(rhs)}" for lhs, rhs in p.relations)
    return f"gens: {' '.join(p.generators)}\nrels: {rels}\n"


def _letters(n):
    if n < 1 or n > 26:
        raise PresentationError(f"rank {n} out of range (1..26)")
    return list(ascii_lowercase[:n])


def fixture(name):
    """Built-in presentations: M1, M2, M3, B3, free(n), free_comm(n)."""
    key = name.strip()
    m = _FREE_RE.fullmatch(key)
    if m:
        return Presentation(_letters(int(m.group(1))), [], name=key)
    m = _FREE_COMM_RE.fullmatch(key)
    if m:
        letters = _letters(int(m.group(1)))
        rels = [
            (letters[i] + letters[j], letters[j] + letters[i])
            for i in range(len(letters))
            for j in range(i + 1, len(letters))
        ]
        return Presentation(letters, rels, name=key)
    if key == "M1":
        return Presentation(["a", "b"], [("aa", "bb"), ("ab", "ba")], name="M1")
    if key == "M2":
        return Presentation(
            ["a", "b", "c"],
            [("aa", "bb"), ("bb", "cc"),
             ("ab", "bc"), ("bc", "ca"),
             ("ac", "ba"), ("ba", "cb")],
            name="M2")
    if key == "M3":
        return Presentation(
            ["a", "b", "c"],
            [("ac", "ca"), ("ca", "bb"), ("ab", "bc"), ("cb", "ba")],
            name="M3")
    if key == "B3":
        return Presentation(["s1", "s2"], [("s1s2s1", "s2s1s2")], name="B3")
    raise PresentationError(f"unknown fixture {name!r}")
