"""The benchmark's three workloads, their seeded inputs and answer checks.

Every workload runs whole passes, one operation at a time (a closed loop
with one client), until the run's time is used up.  A pass is a fixed
mix, so figures over whole passes do not depend on where a run stops.

* ``cli``: cold ``garside`` processes, one child at a time.  Pipeline
  commands (``analyze``, ``growth``) pay interpreter start, import, the
  lazy sympy import in ``automaton.growth`` and structure discovery;
  query commands pay start-up and a small search each.
* ``groupwords``: warm library sessions on a fresh context each, running
  ``group_equal`` on seeded signed words; the cost is congruence-class
  enumeration on new, large classes.
* ``ftp``: fellow-traveller probes, ``plain_observations`` on; about a
  million small congruence calls per pass that mostly hit the cache.

An answer that fails a check raises ``WrongAnswer``: the run is aborted,
not counted as a failure.  Failures are operations that end in
``ResourceLimitExceeded`` (exit code 2 on the CLI).
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Library calls go through the package namespace, where the tracer
# rebinds them; names imported here would bypass it.
import garside
from garside import MonoidContext, ResourceLimitExceeded


class WrongAnswer(Exception):
    """The program gave an answer the benchmark's checks reject."""


class Result:
    """What one run measured: set-up samples, latencies per operation
    class and, for the query class, per pass, per-pass memory, and
    failure counts.  ``op_s`` is the time spent inside operations, read
    from the workload's clock."""

    def __init__(self):
        self.setups = []
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.op_s = 0.0
        self.pass_latencies = []
        self.pass_rss_mb = []

    def run_pass(self, workload, inputs, tracer):
        lat = self.latencies.setdefault(workload.query_class, [])
        start = len(lat)
        workload.run_pass(inputs, self, tracer)
        self.pass_latencies.append(lat[start:])

    def record(self, cls, seconds, failed=False):
        self.latencies.setdefault(cls, []).append(seconds)
        self.attempted += 1
        self.failed += failed
        self.op_s += seconds


def rss_mb():
    """Resident set size of this process now.  Caches only grow within a
    session or probe, so read at its end this is that session's peak."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# -- signed words ------------------------------------------------------

INVERSE_SHARE = 0.3


def signed_word(rng, gens, length, inverses):
    """A tuple of (generator symbol, +1 or -1) with the given number of
    inverse letters at random places."""
    inverted = set(rng.sample(range(length), inverses))
    return tuple((rng.choice(gens), -1 if i in inverted else 1)
                 for i in range(length))


def binomial_quantile(n, p, u):
    """The u-quantile of Binomial(n, p)."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        if u < cdf:
            return k
    return n


def inverse_count(length, u):
    """The u-quantile of the number of inverse letters when each letter
    is inverted with probability 30%."""
    return binomial_quantile(length, INVERSE_SHARE, u)


# steps of a Kronecker sequence, one irrational per dimension
STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) % 1, math.sqrt(3) % 1)


def stratified(i, dim=0):
    """Evenly spread points of [0, 1), the same in every session."""
    return (i + 0.5) * STEPS[dim] % 1.0


def stratified_word(rng, gens, length, i):
    """A signed word whose letter counts and inverse count are those of
    a uniformly random word (letters uniform, each inverted with
    probability 30%) at the i-th stratified point; the seed only orders
    the letters and places the inverses.

    Letter counts follow sequential binomial quantiles, starting from a
    generator that rotates with i.  The cost of a query grows steeply
    with how lopsided its letter counts are, so drawing them at random
    would let a handful of words decide a whole run."""
    k = len(gens)
    order = gens[i % k:] + gens[:i % k]
    letters = []
    left = length
    for j, g in enumerate(order[:-1]):
        count = binomial_quantile(left, 1 / (k - j), stratified(i, j + 1))
        letters += [g] * count
        left -= count
    letters += [order[-1]] * left
    rng.shuffle(letters)
    inverted = set(rng.sample(range(length),
                              inverse_count(length, stratified(i))))
    return tuple((g, -1 if n in inverted else 1)
                 for n, g in enumerate(letters))


def inverse(word):
    return tuple((g, -s) for g, s in reversed(word))


def format_signed(word):
    return " ".join(g + ("'" if s < 0 else "") for g, s in word)


def relation_rewrites(presentation):
    """Each relation u = v as symbol tuples, in both directions."""
    out = []
    for lhs, rhs in presentation.relations:
        u = tuple(presentation.symbol_of(c) for c in lhs)
        v = tuple(presentation.symbol_of(c) for c in rhs)
        out += [(u, v), (v, u)]
    return out


def planted_variant(rng, word, rewrites, hi):
    """Another signed word for the same group element, made without the
    package: relation rewrites on positive runs (u = v) or negative
    runs (u^-1 = v^-1 read backwards), or an inserted pair g g^-1."""
    w = list(word)
    for _ in range(rng.randint(1, 3)):
        moves = []
        for u, v in rewrites:
            pos = tuple((g, 1) for g in u)
            neg = tuple((g, -1) for g in reversed(u))
            for i in range(len(w) - len(u) + 1):
                window = tuple(w[i:i + len(u)])
                if window == pos:
                    moves.append((i, len(u), [(g, 1) for g in v]))
                elif window == neg:
                    moves.append((i, len(u), [(g, -1) for g in reversed(v)]))
        if moves and (rng.random() < 0.8 or len(w) + 2 > hi):
            i, n, new = rng.choice(moves)
            w[i:i + n] = new
        elif len(w) + 2 <= hi:
            g = rng.choice(w)[0]
            s = rng.choice((1, -1))
            i = rng.randint(0, len(w))
            w[i:i] = [(g, s), (g, -s)]
    return tuple(w)


def abelian_invariant(name, word):
    """The image in the abelianised group, which for M1 and free_comm(3)
    is the group itself: M1 -> Z + Z/2 by (#a + #b, #b mod 2) on signed
    exponent sums, free_comm(3) -> Z^3.  Shares no code with the
    package's congruence engine."""
    sums = Counter()
    for g, s in word:
        sums[g] += s
    if name == "M1":
        return (sums["a"] + sums["b"], sums["b"] % 2)
    return (sums["a"], sums["b"], sums["c"])


# -- groupwords --------------------------------------------------------

# (fixture, minimal Garside element, shortest and longest word); the
# lengths keep products near norm 11 or less, below the default 1M-word
# cache cap (M2 reaches it at norm 14).
GROUP_SESSIONS = (
    ("M1", "aa", 6, 14),
    ("M2", "aa", 4, 10),
    ("M3", "ac", 4, 10),
    ("B3", "s1s2s1", 6, 20),
    ("free_comm(3)", "abc", 4, 10),
)
QUERIES_PER_SESSION = 60
# 4 rounds of the 5 fixtures: 1200 queries, so a pass's p99 has 12
# samples beyond it
ROUNDS_PER_PASS = 4
ORACLE_FIXTURES = ("M1", "free_comm(3)")


def session_pairs(rng, name, lo, hi, offset):
    """Seeded query pairs for one session; every other pair is a
    planted-equal variant.

    Words are stratified: lengths cycle through lo..hi, and letter and
    inverse counts come from evenly spread points numbered from
    ``offset`` (see ``stratified_word``).  So every pass holds the same
    mix, rare nearly-positive and lopsided words (the heavy tail)
    included, and only the order of the letters and the places of the
    inverses vary with the seed."""
    gens = garside.fixture(name).generators
    rewrites = relation_rewrites(garside.fixture(name))
    pairs = []
    for i in range(QUERIES_PER_SESSION):
        length = lo + (i // 2) % (hi - lo + 1)
        w1 = stratified_word(rng, gens, length, 2 * (offset + i))
        if i % 2 == 0:
            w2 = planted_variant(rng, w1, rewrites, hi)
        else:
            w2 = stratified_word(rng, gens, length, 2 * (offset + i) + 1)
        pairs.append((w1, w2, i % 2 == 0))
    return pairs


class Workload:
    """Operations are timed with ``clock``: wall time by default, the
    machine-speed clock of ``speedclock`` in untraced runs."""

    clock = staticmethod(time.perf_counter)


class GroupWords(Workload):
    query_class = "query"

    def __init__(self, rng):
        self.rng = rng
        self.op = 0

    def make_pass(self):
        return [(name, delta,
                 session_pairs(self.rng, name, lo, hi,
                               r * QUERIES_PER_SESSION))
                for r in range(ROUNDS_PER_PASS)
                for name, delta, lo, hi in GROUP_SESSIONS]

    def run_pass(self, inputs, result, tracer=None):
        setup = 0.0
        rss = []
        for name, delta, pairs in inputs:
            if tracer:
                tracer.op = -1
            # free the previous session's context now, so peak memory is
            # that of one session, not of however many the collector kept
            gc.collect()
            t0 = self.clock()
            ctx = MonoidContext(garside.fixture(name))
            gs = garside.build_structure(ctx, ctx.element(delta))
            setup += self.clock() - t0
            letter = {g: ctx.element(g) for g in ctx.presentation.generators}
            for w1, w2, planted in pairs:
                a = [(letter[g], s) for g, s in w1]
                b = [(letter[g], s) for g, s in w2]
                self.op += 1
                if tracer:
                    tracer.op = self.op
                t0 = self.clock()
                try:
                    same = garside.group_equal(ctx, gs, a, b)
                    failed = False
                except ResourceLimitExceeded:
                    failed = True
                result.record("query", self.clock() - t0, failed)
                if failed:
                    continue
                if planted and not same:
                    raise WrongAnswer(
                        f"{name}: planted-equal pair compared different: "
                        f"{format_signed(w1)!r} vs {format_signed(w2)!r}")
                if name in ORACLE_FIXTURES and same != (
                        abelian_invariant(name, w1)
                        == abelian_invariant(name, w2)):
                    raise WrongAnswer(
                        f"{name}: group_equal says {same} for "
                        f"{format_signed(w1)!r} vs {format_signed(w2)!r}, "
                        f"the abelian invariant disagrees")
            rss.append(rss_mb())
        result.setups.append(setup)
        result.pass_rss_mb.append(max(rss))


# -- ftp ---------------------------------------------------------------

# (fixture, Garside element, radius) and the report details recorded at
# the commit that defined the benchmark.  M3 at radius 3 takes ~30 s and
# B3 at radius 5 exhausts the default cache cap, so both stay out.
FTP_PROBES = (
    ("B3", "s1s2s1", 4,
     {"k": 6, "elements": 26, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 10, "max_leftmult": 1, "bound_leftmult": 18,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 9, "plain_searches_clamped": 0}),
    ("free_comm(3)", "abc", 3,
     {"k": 8, "elements": 20, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 14, "max_leftmult": 1, "bound_leftmult": 24,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M3", "ac", 2,
     {"k": 5, "elements": 9, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 2, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 2,
      "max_plain_leftmult": 5, "plain_searches_clamped": 0}),
    ("M1", "aa", 5,
     {"k": 4, "elements": 11, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 6, "max_leftmult": 1, "bound_leftmult": 12,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M2", "aa", 3,
     {"k": 5, "elements": 10, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 1, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
    ("M2", "ab", 2,
     {"k": 5, "elements": 7, "multiform_pairs": 0, "max_multiform": 0,
      "bound_multiform": 8, "max_leftmult": 1, "bound_leftmult": 15,
      "max_sliding": 1, "bound_sliding": 1, "max_sliding_simple": 1,
      "max_plain_leftmult": 2, "plain_searches_clamped": 0}),
)


class Ftp(Workload):
    """The probe set is fixed, so the seed is not used."""

    query_class = "probe"

    def __init__(self, rng):
        self.op = 0

    def make_pass(self):
        return FTP_PROBES

    def run_pass(self, inputs, result, tracer=None):
        setup = 0.0
        rss = []
        for name, delta, radius, expected in inputs:
            if tracer:
                tracer.op = -1
            gc.collect()
            t0 = self.clock()
            ctx = MonoidContext(garside.fixture(name))
            gs = garside.build_structure(ctx, ctx.element(delta))
            setup += self.clock() - t0
            self.op += 1
            if tracer:
                tracer.op = self.op
            t0 = self.clock()
            try:
                report = garside.ftp_probe(ctx, gs, radius,
                                           plain_observations=True)
                failed = False
            except ResourceLimitExceeded:
                failed = True
            result.record("probe", self.clock() - t0, failed)
            rss.append(rss_mb())
            if failed:
                continue
            if not report.passed or report.details != expected:
                raise WrongAnswer(
                    f"ftp probe {name} delta={delta} radius={radius}: "
                    f"{report.summary()} details={report.details}")
        result.setups.append(setup)
        result.pass_rss_mb.append(max(rss))


# -- cli ---------------------------------------------------------------

# The CLI is called through garside.cli.main; `python -m garside.cli`
# prints a runpy RuntimeWarning on every call.
CHILD = "import sys; from garside.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CHILD = """\
import json, os, sys, time
import garside.cli
from tracer import Tracer
tracer = Tracer(span_cap=5_000).install()
snap = {"main_start": time.perf_counter()}
try:
    code = garside.cli.main(sys.argv[1:])
finally:
    snap.update(tracer.snapshot())
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(snap, fh)
sys.exit(code)
"""
SETUP_CHILD = "import garside.cli"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 120

B4_PRESENTATION = """\
gens: s1 s2 s3
rels: s1s3 = s3s1; s1s2s1 = s2s1s2; s2s3s2 = s3s2s3
"""
ANALYZE_FIXTURES = ("M1", "M2", "M3", "B3", "free_comm(3)")
# minimal Garside elements (norm <= 4) found by `analyze`; the 4-strand
# braid Garside element has norm 6, beyond the default search budget
MINIMAL_GARSIDE = {"M1": ["aa", "ab"], "M2": ["aa", "ab", "ac"],
                   "M3": ["ac"], "B3": ["s1s2s1"], "free_comm(3)": ["abc"],
                   "B4": []}
B3_SIMPLE_LETTERS = ("s1", "s2", "s1s2", "s2s1", "s1s2s1", "D'")


def b3_growth(n):
    """Accepted words of length 0..n of the B3 normal-form automaton (the
    five non-identity divisors of s1s2s1 as letters): 1, then 2^(k+2) - 3."""
    return [1] + [2 ** (k + 2) - 3 for k in range(1, n + 1)]


class Cli(Workload):
    query_class = "query"

    def __init__(self, rng, root, scratch):
        self.rng = rng
        self.root = root
        self.scratch = scratch
        self.golden = json.loads(
            (root / "tests" / "data" / "analyze_m1.json").read_text())
        self.b4 = scratch / "b4.txt"
        self.b4.write_text(B4_PRESENTATION, encoding="utf-8")
        self.rewrites_b3 = relation_rewrites(garside.fixture("B3"))
        self.op = 0
        self.startup_s = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced_env = dict(self.env, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(Path(__file__).resolve().parent)]))

    def measure_setup(self, result):
        """Median-of-repeats set-up: a cold `import garside.cli`."""
        samples = []
        for _ in range(SETUP_REPEATS + 1):
            t0 = self.clock()
            self._spawn([sys.executable, "-c", SETUP_CHILD], self.env)
            samples.append(self.clock() - t0)
        # the first import may compile bytecode; users pay that once
        result.setups.extend(samples[1:])

    def _spawn(self, argv, env):
        proc = subprocess.run(argv, cwd=self.root, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode not in (0, 2):
            raise WrongAnswer(
                f"command {argv[3:] or argv} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        return proc

    def make_pass(self):
        rng = self.rng
        pipeline = [("analyze", ["analyze", "--json", "--fixture", name], name)
                    for name in ANALYZE_FIXTURES]
        pipeline.append(("analyze", ["analyze", "--json", "--file",
                                     str(self.b4)], "B4"))
        pipeline.append(("growth", ["growth", "--json", "--fixture", "B3",
                                    "-n", "12"], None))

        n = rng.randint(4, 8)
        w1 = signed_word(rng, ("s1", "s2"), n, rng.randint(0, n // 2))
        w2 = planted_variant(rng, w1, self.rewrites_b3, 10)
        m3 = "".join(rng.choice("abc") for _ in range(rng.randint(4, 7)))
        m1 = "".join(rng.choice("ab") for _ in range(rng.randint(4, 8)))
        u = [rng.choice("ab") for _ in range(rng.randint(3, 6))]
        v = rng.sample(u, len(u))
        c1 = signed_word(rng, ("a", "b"), rng.randint(1, 3), 0)
        c2 = signed_word(rng, ("a", "b"), rng.randint(1, 3), 1)
        # c1 c2 c1^-1 c2^-1 is a commutator, trivial in the abelian M1
        identity = c1 + c2 + inverse(c1) + inverse(c2)
        d1 = [rng.choice(B3_SIMPLE_LETTERS) for _ in range(rng.randint(1, 3))]
        d2 = [rng.choice(B3_SIMPLE_LETTERS) for _ in range(rng.randint(1, 3))]
        query = [
            ("word-problem", ["word-problem", "--fixture", "B3",
                              format_signed(w1), format_signed(w2)], None),
            ("normalize", ["normalize", "--fixture", "M3", "--delta", "ac",
                           m3], len(m3)),
            ("all-normal-forms", ["all-normal-forms", "--fixture", "M1",
                                  m1], len(m1)),
            ("distance", ["distance", "--fixture", "B3", " ".join(d1),
                          " ".join(d2)], None),
            ("prove", ["prove", "--fixture", "M1", " ".join(u), " ".join(v)],
             None),
            ("prove", ["prove", "--fixture", "M1", "--identity",
                       format_signed(identity)], None),
            ("automaton", ["automaton", "--fixture", "B3", "--json"], None),
            ("graph", ["graph", "--fixture", "B3"], None),
        ]
        return ([("pipeline",) + c for c in pipeline]
                + [("query",) + c for c in query])

    def run_pass(self, inputs, result, tracer=None):
        for cls, kind, args, expect in inputs:
            self.op += 1
            argv = [sys.executable, "-c", TRACED_CHILD if tracer else CHILD,
                    *args]
            env = self.env
            out_path = None
            if tracer:
                out_path = self.scratch / f"trace-{self.op}.json"
                env = dict(self.traced_env, PERFBENCH_TRACE_OUT=str(out_path))
            t0 = self.clock()
            proc = self._spawn(argv, env)
            result.record(cls, self.clock() - t0, proc.returncode == 2)
            if tracer:
                snap = json.loads(out_path.read_text(encoding="utf-8"))
                out_path.unlink()
                tracer.merge(snap, self.op)
                # perf_counter is system-wide, so the child's clock reads
                # are comparable with t0 taken here
                self.startup_s += snap["main_start"] - t0 - snap["install_s"]
            if proc.returncode == 0:
                self.check(kind, args, expect, proc.stdout)

    def check(self, kind, args, expect, out):
        def wrong(why):
            raise WrongAnswer(f"garside {' '.join(args)}: {why}")

        if kind == "analyze":
            report = json.loads(out)
            if expect == "M1" and report != self.golden:
                wrong("output differs from tests/data/analyze_m1.json")
            if report["minimal_garside"] != MINIMAL_GARSIDE[expect]:
                wrong(f"minimal_garside {report['minimal_garside']}")
        elif kind == "growth":
            series = json.loads(out)
            c = series["coefficients"]
            r = series["recurrence"]
            if c != b3_growth(12):
                wrong(f"coefficients {c}")
            if any(c[n] != sum(r[i - 1] * c[n - i]
                               for i in range(1, len(r) + 1))
                   for n in range(len(r), len(c))):
                wrong(f"coefficients {c} break the recurrence {r}")
        elif kind == "word-problem":
            if out.split("\n", 1)[0] != "equal":
                wrong("a planted-equal pair compared different")
        elif kind in ("normalize", "all-normal-forms"):
            # homogeneous: every normal form has the element's length
            lines = out.strip().split("\n")
            if not lines or any(len(line.replace(" ", "")) != expect
                                for line in lines):
                wrong(f"normal form length differs from {expect}")
        elif kind == "distance":
            d = int(out)
            if not 0 <= d <= 16 or (args[3] == args[4] and d):
                wrong(f"distance {d}")
        elif kind == "prove":
            if not out.startswith("relations used: "):
                wrong("no derivation")
        elif kind == "automaton":
            if not json.loads(out).get("states"):
                wrong("no states")
        elif kind == "graph":
            if not out.startswith("digraph characteristic {"):
                wrong("not a DOT digraph")
