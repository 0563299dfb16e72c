"""Normal-form automaton, growth series, and fellow-traveller probes.

The automaton recognizes the fraction normal forms over the alphabet
of non-identity Delta-simples plus a formal inverse letter for the
Garside element: an inverse block may only appear as a prefix, the
Garside letter only in a leading run, and consecutive plain factors
must be linked by the covering relation over Div(delta).

Growth counts accepted words by length by stepping a vector of
per-state counts through the transition matrix, so the coefficients
satisfy the integer linear recurrence given by the matrix's
characteristic polynomial.

Distances between words are measured in the Cayley graph of the group
of fractions over the automaton alphabet: on Garside tables the length
of a^-1 b is read off its Delta-normal form, elsewhere a bidirectional
search on fraction keys (k, x) finds it.
"""

from __future__ import annotations

import csv
import io

from .congruence import MonoidContext, ResourceLimitExceeded
from .reports import Record, VerificationReport
from .structure import _coerce_set, _no_path, span_arithmetic
from .normal import NormalSequence, left_mult_update
from .delta import GarsideStructure

__all__ = [
    "DELTA_INV",
    "NormalFormAutomaton",
    "build_automaton",
    "GrowthSeries",
    "growth",
    "synchronous_distance",
    "ftp_probe",
]


class _Token:
    """Formal symbol that is not a monoid element."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


DELTA_INV = _Token("D'")
INITIAL = _Token("start")
FAIL = _Token("fail")


class NormalFormAutomaton(Record):
    _fields = ("ctx", "gs", "letters", "states", "table")

    def __init__(self, ctx: MonoidContext, gs: GarsideStructure,
                 letters: tuple, states: tuple, table: dict):
        self.ctx = ctx
        self.gs = gs
        self.letters = letters  # non-identity simples shortlex, then D'
        self.states = states    # INITIAL, letters..., FAIL
        self.table = table      # (state, letter) -> state

    def step(self, state, letter):
        try:
            return self.table[(state, letter)]
        except KeyError:
            raise ValueError(f"not an alphabet letter: {letter!r}") from None

    def accepts(self, word) -> bool:
        state = INITIAL
        for letter in word:
            state = self.step(state, letter)
            if state is FAIL:
                return False
        return True

    def letter_name(self, letter) -> str:
        if letter is DELTA_INV:
            return "D'"
        return self.ctx.show(letter)

    def state_name(self, state) -> str:
        if state is INITIAL:
            return "start"
        if state is FAIL:
            return "fail"
        return self.letter_name(state)

    def to_dot(self, include_failure: bool = False) -> str:
        lines = ["digraph normal_forms {", "  rankdir=LR;"]
        for s in self.states:
            if s is FAIL and not include_failure:
                continue
            shape = "circle" if s is FAIL else "doublecircle"
            lines.append(f'  "{self.state_name(s)}" [shape={shape}];')
        for s in self.states:
            if s is FAIL and not include_failure:
                continue
            # group parallel edges into one label
            grouped = {}
            for l in self.letters:
                t = self.table[(s, l)]
                if t is FAIL and not include_failure:
                    continue
                grouped.setdefault(t, []).append(self.letter_name(l))
            for t, ls in sorted(grouped.items(),
                                key=lambda kv: self.state_name(kv[0])):
                label = ",".join(ls)
                lines.append(f'  "{self.state_name(s)}" -> '
                             f'"{self.state_name(t)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "alphabet": [self.letter_name(l) for l in self.letters],
            "states": [self.state_name(s) for s in self.states],
            "initial": "start",
            "accepting": [self.state_name(s) for s in self.states
                          if s is not FAIL],
            "transitions": [
                {"from": self.state_name(s), "letter": self.letter_name(l),
                 "to": self.state_name(self.table[(s, l)])}
                for s in self.states for l in self.letters],
        }


def build_automaton(ctx: MonoidContext, gs: GarsideStructure) -> NormalFormAutomaton:
    cache = ctx.caches["automaton"]
    got = cache.get(gs.delta)
    if got is not None:
        return got
    delta = gs.delta
    plain = tuple(s for s in sorted(gs.simples) if s.norm and s != delta)
    letters = plain + (delta, DELTA_INV)
    states = (INITIAL,) + letters + (FAIL,)
    covers = span_arithmetic(ctx, gs.div_delta).covers
    table = {}
    for l in letters:
        table[(INITIAL, l)] = l
        table[(FAIL, l)] = FAIL
        table[(delta, l)] = FAIL if l is DELTA_INV else l
        table[(DELTA_INV, l)] = (DELTA_INV if l is DELTA_INV
                                 else (FAIL if l == delta else l))
    for y in plain:
        table[(y, delta)] = FAIL
        table[(y, DELTA_INV)] = FAIL
        for x in plain:
            table[(y, x)] = x if covers(y, x) else FAIL
    auto = NormalFormAutomaton(ctx, gs, letters, states, table)
    cache[gs.delta] = auto
    return auto


class GrowthSeries(Record):
    _fields = ("coefficients", "recurrence", "mode", "counts_elements")

    def __init__(self, coefficients: tuple, recurrence: tuple, mode: str,
                 counts_elements: bool | None):
        self.coefficients = coefficients
        self.recurrence = recurrence  # c(n) = sum r_i * c(n-i), i = 1..d
        self.mode = mode
        self.counts_elements = counts_elements

    def check_recurrence(self) -> bool:
        d = len(self.recurrence)
        c = self.coefficients
        return all(
            c[n] == sum(self.recurrence[i - 1] * c[n - i]
                        for i in range(1, d + 1))
            for n in range(d, len(c)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "count"])
        for n, c in enumerate(self.coefficients):
            w.writerow([n, c])
        return buf.getvalue()

    def to_json(self):
        return {
            "mode": self.mode,
            "coefficients": list(self.coefficients),
            "recurrence": list(self.recurrence),
            "counts_elements": self.counts_elements,
        }


def charpoly(matrix) -> list:
    """Coefficients [1, a_1, ..., a_n] of det(t I - A) for a square
    integer matrix A, by the Faddeev-LeVerrier recursion
    M_k = A M_(k-1) + a_(k-1) I, a_k = -tr(A M_k) / k, with M_0 = 0;
    tr(A M_k) is always divisible by k, so the arithmetic is exact."""
    n = len(matrix)
    coeffs = [1]
    am = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [row[:] for row in am]
        for i in range(n):
            m[i][i] += coeffs[-1]
        cols = list(zip(*m))
        am = [[sum(a * b for a, b in zip(row, col)) for col in cols]
              for row in matrix]
        coeffs.append(-sum(am[i][i] for i in range(n)) // k)
    return coeffs


def _counts(ctx: MonoidContext, gs: GarsideStructure, n_max: int,
            mode: str):
    """(coefficients, matrix): the number of accepted words of each
    length up to n_max, and the transfer matrix they are walked on."""
    if mode not in ("monoid", "group"):
        raise ValueError(f"unknown growth mode {mode!r}")
    auto = build_automaton(ctx, gs)
    letters = (auto.letters if mode == "group"
               else tuple(l for l in auto.letters if l is not DELTA_INV))
    live = [s for s in auto.states
            if s is not FAIL and (mode == "group" or s is not DELTA_INV)]
    index = {s: i for i, s in enumerate(live)}
    size = len(live)
    matrix = [[0] * size for _ in range(size)]
    for s in live:
        for l in letters:
            t = auto.table[(s, l)]
            if t is not FAIL:
                matrix[index[s]][index[t]] += 1
    vec = [0] * size
    vec[index[INITIAL]] = 1
    coeffs = [1]
    for _ in range(n_max):
        vec = [sum(vec[i] * matrix[i][j] for i in range(size))
               for j in range(size)]
        coeffs.append(sum(vec))
    return tuple(coeffs), matrix


def growth(ctx: MonoidContext, gs: GarsideStructure, n_max: int,
           mode: str = "monoid",
           unique_forms: bool | None = None) -> GrowthSeries:
    """Number of accepted words of each length up to n_max.  Monoid
    mode drops the inverse letter; group mode allows it (the automaton
    confines it to a prefix block).  The coefficients count monoid or
    group elements exactly when normal forms are unique, which the
    caller reports through unique_forms."""
    coeffs, matrix = _counts(ctx, gs, n_max, mode)
    # monic lambda^d + a_1 lambda^(d-1) + ... + a_d gives
    # c(n) = -a_1 c(n-1) - ... - a_d c(n-d)
    recurrence = tuple(-a for a in charpoly(matrix)[1:])
    return GrowthSeries(coeffs, recurrence, mode, unique_forms)


# -- Cayley-graph distances --------------------------------------------


def _check_letter(gs, letter):
    x = gs.ctx.canonical(letter)
    if not x.norm or x not in gs.simples.members:
        raise ValueError(
            f"{gs.ctx.show(x)} is not an alphabet letter")


class _CayleyGraph:
    """The Cayley graph of the group of fractions over the automaton's
    monoid letters, with internal fraction keys interned as ints.  Each
    key's neighbours are a tuple of ints over letters x (+1, -1).  D' is
    the inverse of delta, so its edges duplicate delta's and are left
    out."""

    def __init__(self, gs, letters):
        self.gs = gs
        self.letters = letters
        # the one-letter words folded onto a key, x then x^-1 per letter
        self.steps = tuple(((letter, sign),) for letter in letters
                           for sign in (1, -1))
        self.ids = {}           # fraction key -> int
        self.keys = []          # int -> fraction key
        self.adjacency = []     # int -> tuple of neighbour ints, or None

    def intern(self, key) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.adjacency.append(None)
        return got

    def neighbours(self, node) -> tuple:
        got = self.adjacency[node]
        if got is None:
            fold = self.gs.arithmetic.fold
            intern = self.intern
            key = self.keys[node]
            got = self.adjacency[node] = tuple(
                [intern(fold(key, step)) for step in self.steps])
        return got


def _cayley_graph(ctx: MonoidContext, gs: GarsideStructure) -> _CayleyGraph:
    cache = ctx.caches["cayley_graph"]
    got = cache.get(gs.delta)
    if got is None:
        letters = tuple(l for l in build_automaton(ctx, gs).letters
                        if l is not DELTA_INV)
        got = cache[gs.delta] = _CayleyGraph(gs, letters)
    return got


def _over_cap(node_cap) -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"distance search exceeded {node_cap} nodes")


def cayley_distance(ctx: MonoidContext, gs: GarsideStructure, key1, key2,
                    max_dist: int = 16, node_cap: int = 200_000) -> int:
    """Distance between two group elements (as fraction keys, public or
    internal) in the Cayley graph over the automaton alphabet, inverses
    allowed.

    This is always the explicit bounded search, on every structure: the
    oracle of the Garside tables' distance (``GarsideTables.distance``).
    It runs from the lesser stripped internal key of the pair to the
    greater, so the node counts it checks against ``node_cap`` are a
    function of the pair; the cache keeps them next to the distance,
    and a cached pair raises exactly where a fresh search with the same
    ``max_dist`` and ``node_cap`` would."""
    key = gs.arithmetic.key
    key1 = key(key1)
    key2 = key(key2)
    if key1 == key2:
        return 0
    cache = ctx.caches[("cayley", gs.delta)]
    pair = (key1, key2) if key1 <= key2 else (key2, key1)
    got = cache.get(pair)
    if got is not None:
        dist, checked = got
        # a fresh search checks the cap once per level below max_dist;
        # the counts never fall, so the last of those is their maximum
        levels = min(max_dist, len(checked))
        if levels > 0 and checked[levels - 1] > node_cap:
            raise _over_cap(node_cap)
        if dist > max_dist:
            raise _no_path(max_dist)
        return dist
    graph = _cayley_graph(ctx, gs)
    neighbours = graph.neighbours
    # level-synchronized bidirectional search; after fully expanding
    # levels (da, db) every path of length <= da + db + 1 has been seen
    front_a = {graph.intern(pair[0]): 0}
    front_b = {graph.intern(pair[1]): 0}
    seen_a = dict(front_a)
    seen_b = dict(front_b)
    depth_a = depth_b = 0
    dist = None
    checked = []
    while front_a and front_b:
        if dist is not None and dist <= depth_a + depth_b + 1:
            break
        if depth_a + depth_b >= max_dist:
            break
        checked.append(len(seen_a) + len(seen_b))
        if checked[-1] > node_cap:
            raise _over_cap(node_cap)
        if len(front_a) > len(front_b):
            front_a, front_b = front_b, front_a
            seen_a, seen_b = seen_b, seen_a
            depth_a, depth_b = depth_b, depth_a
        new = {}
        for node, d in front_a.items():
            for nxt in neighbours(node):
                if nxt in seen_b:
                    cand = d + 1 + seen_b[nxt]
                    if dist is None or cand < dist:
                        dist = cand
                if nxt not in seen_a:
                    seen_a[nxt] = d + 1
                    new[nxt] = d + 1
        front_a = new
        depth_a += 1
    if dist is None or dist > max_dist:
        raise _no_path(max_dist)
    cache[pair] = (dist, tuple(checked))
    return dist


def synchronous_distance(ctx: MonoidContext, gs: GarsideStructure, u, v,
                         max_dist: int = 16) -> int:
    """Supremum over positions i = 1 .. max(len(u), len(v), 1) of the
    Cayley distance between the i-th prefix products, clamping each
    word at its own length; position 0, the identity on both sides,
    is not measured.

    Each distance is the structure arithmetic's (``_chain_distance``),
    and one beyond ``max_dist`` raises ``ResourceLimitExceeded``; where
    it is a search, so does one of more than 200,000 nodes."""
    u = tuple(u)
    v = tuple(v)
    for letter in u + v:
        if letter is not DELTA_INV:
            _check_letter(gs, letter)
    one = (0, gs.arithmetic.one)
    return _chain_distance(gs, _chain(gs, one, u), _chain(gs, one, v),
                           max_dist, 200_000)


def _chain(gs, start, word) -> list:
    """The internal keys of start * word[:i] for i = 0 .. len(word)."""
    fold = gs.arithmetic.fold
    inverse = ((gs.delta, -1),)
    key = start
    keys = [key]
    for letter in word:
        key = fold(key, inverse if letter is DELTA_INV else ((letter, 1),))
        keys.append(key)
    return keys


def _chain_distance(gs, pk, qk, max_dist, node_cap, floor=None):
    """Supremum over positions i = 1 .. m of dist(pk[i], qk[i]) on the
    prefix-key chains (see ``_chain``) of two words of lengths up to
    m >= 1, the shorter chain padded with its last key once, which
    clamps each word at its own end.  Position 0 is not measured.

    With a floor f the supremum is branch-and-bound: every letter is
    one Cayley edge, so the distance at position i exceeds the one at
    i - 1 by at most the number of chains that moved, and position 0
    seeds that bound with 0 or 1.  A position whose bound is <= f
    cannot lift the supremum above f and is not computed.  The result
    is exact when it exceeds f and is <= f otherwise.

    Each distance is the structure arithmetic's: on Garside tables a
    word length read off a Delta-normal form, where ``node_cap`` does
    not bind, else the ``cayley_distance`` search that it is passed."""
    distance = gs.arithmetic.distance
    lp = len(pk)
    lq = len(qk)
    n = max(lp, lq, 2)
    if lp < n:
        pk = pk + [pk[-1]] * (n - lp)
    if lq < n:
        qk = qk + [qk[-1]] * (n - lq)
    best = 0
    if floor is None:
        for i in range(1, n):
            d = distance(pk[i], qk[i], max_dist, node_cap, cayley_distance)
            if d > best:
                best = d
        return best
    bound = int(pk[0] != qk[0])
    for i in range(1, n):
        bound += (i < lp) + (i < lq)
        if bound <= floor:
            continue
        bound = distance(pk[i], qk[i], max_dist, node_cap, cayley_distance)
        if bound > best:
            best = bound
    return best


def _words(form) -> tuple:
    """The words of a form's factors: ``NormalSequence.sort_key``."""
    return tuple(f.canon for f in form)


def ftp_probe(ctx: MonoidContext, gs: GarsideStructure, radius: int,
              span=None, plain_observations: bool = True) -> VerificationReport:
    """Empirical fellow-traveller check on a ball.

    Part (a): any two normal decompositions of one element stay within
    synchronous distance 2(k-1), where k is the size of the span (the
    divisors of the Garside element by default, or the given span).
    Part (b), only for the default span: for each ball element x and
    each alphabet letter y, some normal decomposition of y*x lies
    within 3k of each decomposition of x, prefixes compared against
    the y-translated prefixes of x; for y a divisor of the Garside
    element the sliding update must stay within distance 1.  For the
    remaining simple letters the sliding distance is an observation
    only: a product of two simple elements need not admit a normal form
    of two factors, so the carry can leave the simples.  Distances in
    the plain untranslated convention are observations too, and only
    their maximum is reported, computed branch-and-bound
    (``_chain_distance``).  ``plain_searches_clamped`` counts the plain
    distances computed past the left-multiplication bound or the node
    cap; a position the bound skips is not counted, even where its
    search would have hit the node cap.

    Each distance is the structure arithmetic's, with fixed bounds: at
    most 24, found by a search of at most 200,000 Cayley-graph nodes;
    past either bound it raises ``ResourceLimitExceeded`` (a plain one
    is bounded by 3k and clamped instead, see above).  On Garside
    tables there is no search, no Cayley graph, and the node bound
    does not bind.

    Each piece of work is done once per call: the key of each letter,
    the normal forms of each element, as the span arithmetic's tuples
    of simples in ``NormalSequence.sort_key`` order, their prefix-key
    chains (in memos freed on return), and each form's y-translated
    chain.  A ``NormalSequence`` is built only for a failure witness
    and for ``left_mult_update``.  The slide is ``left_mult_update``'s
    unchecked: the targets are every normal form of y * x, so a slid
    form among them passes its checks and has that target's distance.
    Any other goes through ``left_mult_update`` and is measured.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
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
    max_multi = 0
    max_left = 0
    max_sliding = 0
    max_sliding_simple = 0
    max_plain = 0
    plain_clamped = 0
    checked = 0
    multi_pairs = 0
    arith = gs.arithmetic
    one = (0, arith.one)
    normal_forms = span_arithmetic(ctx, S).normal_forms
    slide = span_arithmetic(ctx, gs.div_delta).slid
    # per letter y, the internal key of y (D' is delta^-1)
    letter_keys = {y: arith.key((1, ctx.one) if y is DELTA_INV else (0, y))
                   for y in auto.letters}
    # per x.canon, the normal forms of x in order and their prefix-key
    # chains from the identity: y * x and delta \ x recur across the ball
    forms_memo = {}
    chains_memo = {}
    # the letters of part (a) checked so far, as synchronous_distance
    # checks a caller's
    letters = set()

    def forms_of(x):
        got = forms_memo.get(x.canon)
        if got is None:
            got = forms_memo[x.canon] = sorted(normal_forms(x, 10_000),
                                               key=_words)
        return got

    def chains_of(x):
        got = chains_memo.get(x.canon)
        if got is None:
            got = chains_memo[x.canon] = [_chain(gs, one, f)
                                          for f in forms_of(x)]
        return got

    for x in sorted(ctx.enumerate_ball(radius)):
        forms = forms_of(x)
        checked += 1
        for i, p in enumerate(forms):
            for j in range(i + 1, len(forms)):
                q = forms[j]
                multi_pairs += 1
                for letter in p + q:
                    if letter not in letters:
                        _check_letter(gs, letter)
                        letters.add(letter)
                chains = chains_of(x)
                d = _chain_distance(gs, chains[i], chains[j], max_dist,
                                    node_cap)
                max_multi = max(max_multi, d)
                if d > bound_multi:
                    return VerificationReport(
                        "fellow-traveller", "fail", bound=radius,
                        witness={"element": ctx.show(x),
                                 "forms": [NormalSequence(f, S.label)
                                           .to_json(ctx) for f in (p, q)],
                                 "distance": d,
                                 "allowed": bound_multi})
        if not delta_mode:
            continue
        for y in auto.letters:
            y_key = letter_keys[y]
            if y is DELTA_INV:
                rest = ctx.left_divides(gs.delta, x)
                if rest is None:
                    target_chains = [_chain(gs, one, (DELTA_INV,) + f)
                                     for f in forms]
                else:
                    target_chains = chains_of(rest)
            else:
                yx = ctx.mul(y, x)
                targets = forms_of(yx)
                target_chains = chains_of(yx)
            for p, plain_chain in zip(forms, chains_of(x)):
                # the y-translated chain of p, for every target and the
                # sliding form
                pk = _chain(gs, y_key, p)
                dists = []
                for qk in target_chains:
                    dists.append(_chain_distance(gs, pk, qk, max_dist,
                                                 node_cap))
                    if not plain_observations:
                        continue
                    try:
                        dp = _chain_distance(gs, plain_chain, qk,
                                             bound_left, node_cap, max_plain)
                        max_plain = max(max_plain, dp)
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
                if y is not DELTA_INV:
                    # the targets are every normal form of y * x: a slid
                    # form among them passes left_mult_update's checks,
                    # and its distance was measured above
                    slid = slide(y, p)
                    d = next((dq for q, dq in zip(targets, dists)
                              if q == slid), None)
                    if d is None:
                        slid = left_mult_update(
                            ctx, S, y, NormalSequence(p, S.label)).factors
                        d = _chain_distance(gs, pk, _chain(gs, one, slid),
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
