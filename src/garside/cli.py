"""Command-line front end.

Subcommands: analyze, normalize, all-normal-forms, word-problem,
automaton, growth, graph, distance, prove.  Presentations come from
--fixture (built-in names) or --file (gens:/rels: format); see the
README for word syntaxes.  No option is accepted that a run would not
read: --delta excludes --span and --garside-norm, automaton's --json
excludes --full, and prove --identity takes one word.

Exit codes: 0 for completed runs (including runs whose mathematical
checks report failures; those are findings, and runs whose reader
closed standard output early), 1 for usage, parse and
other errors (reported as one line, never a traceback), 2 when a
resource cap is hit.

Each subcommand imports the layers it runs (``structure``, ``normal``,
``delta``, ``automaton``) when it runs, so a process pays to load only
those: ``graph`` stops at ``structure``; ``normalize`` and
``all-normal-forms``, with or without --delta, and ``prove`` at
``normal``; ``word-problem`` at ``delta``.  Where the span's arithmetic is the
Garside tables (``structure.span_arithmetic``), the raw word is never
reduced, and the element printed is the least word read off its
normal form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .congruence import MonoidContext, ResourceLimitExceeded
from .presentation import (Presentation, PresentationError, fixture,
                           parse_presentation)
from .reports import GridError, Record

DEFAULT_CANCEL_RADIUS = 6
DEFAULT_GARSIDE_NORM = 4
DEFAULT_UNIFORM_RADIUS = 4
DEFAULT_BALL_CAP = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for
    resource caps, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse fills prove's optional right with nothing where a
        # flag follows left, so a word after --identity is left over:
        # it is the right that --identity excludes
        if (getattr(namespace, "identity", False) and namespace.right is None
                and extras and not extras[0].startswith("-")):
            self.error("argument right: not allowed with argument --identity")
        return namespace, extras


def _nonnegative_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _load_presentation(args) -> Presentation:
    if args.fixture:
        return fixture(args.fixture)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read(), name=args.file)
    raise PresentationError("no presentation given; use --fixture or --file")


def _context(args) -> MonoidContext:
    return MonoidContext(_load_presentation(args),
                         max_cached_words=args.cache_cap,
                         max_ball_elements=args.ball_cap)


def _elements(ctx, text, delta_inv=None):
    """The elements of a comma- or space-separated list of words; given
    *delta_inv*, the tokens D', D^-1 and D-1 stand for it."""
    return tuple(
        delta_inv if delta_inv is not None and tok in ("D'", "D^-1", "D-1")
        else ctx.element(tok) for tok in text.replace(",", " ").split())


def _resolve_span(ctx, args):
    from .structure import ElementSet, divisors, primitive_closure
    if args.span:
        return ElementSet(frozenset({ctx.one, *_elements(ctx, args.span)}),
                          "span")
    if args.delta:
        return divisors(ctx, ctx.element(args.delta))
    return primitive_closure(ctx)


def _resolve_structure(ctx, args):
    from .delta import build_structure, find_minimal_garside
    if args.delta:
        return build_structure(ctx, ctx.element(args.delta))
    res = find_minimal_garside(ctx, args.garside_norm)
    if not res.found:
        raise ValueError(
            f"no Garside element of norm <= {args.garside_norm} found; "
            f"pass one explicitly with --delta")
    return build_structure(ctx, res.minimal[0])


def _parse_signed(ctx, text):
    return tuple((ctx.canonical(ch), sign)
                 for ch, sign in ctx.presentation.encode_signed(text))


def _emit(args, payload, text):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


# -- analyze -----------------------------------------------------------


class AnalysisReport(Record):
    _fields = ("name", "stages", "notes")

    def __init__(self, name, stages=None, notes=None):
        self.name = name
        self.stages = {} if stages is None else stages
        self.notes = [] if notes is None else notes

    def to_json(self):
        return {"presentation": self.name, **self.stages,
                "notes": self.notes}

    def to_text(self):
        out = [f"presentation: {self.name}"]
        for key, value in self.stages.items():
            if isinstance(value, list):
                shown = ", ".join(str(v) for v in value) or "(none)"
                out.append(f"{key}: {shown}")
            elif isinstance(value, dict):
                inner = ", ".join(f"{k}={v}" for k, v in value.items())
                out.append(f"{key}: {inner}")
            else:
                out.append(f"{key}: {value}")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def _delta_summary(ctx, delta, radius):
    from .automaton import _counts
    from .delta import (build_structure, check_normal_uniqueness_criterion,
                        check_uniform_length)
    gs = build_structure(ctx, delta)
    uniform = check_uniform_length(ctx, gs, radius)
    unique = uniform.details.get("unique_forms")
    criterion = check_normal_uniqueness_criterion(ctx, gs)
    # analyze prints the coefficients only, so no recurrence is computed
    counts, _ = _counts(ctx, gs, 6, "monoid")
    return {
        "delta": ctx.show(delta),
        "e": gs.order,
        "div_size": len(gs.div_delta),
        "simples": len(gs.simples),
        "uniform_length": uniform.status,
        "unique_forms": unique,
        "uniqueness_criterion": criterion.status,
        "growth": list(counts),
    }


def cmd_analyze(args) -> int:
    from .delta import find_minimal_garside
    from .structure import (atoms, check_ore, enumerate_simples, is_spanning,
                            primitive_closure)
    ctx = _context(args)
    report = AnalysisReport(ctx.presentation.name or "(unnamed)")
    stages = report.stages

    cancel = ctx.check_cancellative_bounded(args.radius)
    stages["cancellativity"] = {"status": cancel.status,
                                "radius": cancel.details["radius"]}
    if not cancel.passed:
        report.notes.append(f"cancellativity witness: {cancel.witness}")

    stages["atoms"] = [ctx.show(a) for a in sorted(atoms(ctx))]

    prims = primitive_closure(ctx)
    stages["primitives"] = sorted(ctx.show(x) for x in prims)
    stages["primitive_count"] = len(prims)
    for note in prims.notes:
        report.notes.append(f"primitive closure: {note}")

    spanning = is_spanning(ctx, prims, bound=args.bound)
    stages["spanning"] = spanning.status
    ore = check_ore(ctx, atoms(ctx), bound=args.bound)
    stages["common_multiples"] = ore.status
    thin = (spanning.passed and spanning.complete and not prims.notes)
    stages["thin"] = "yes" if thin else (
        "no" if not spanning.passed and spanning.complete else "unknown")

    if spanning.passed:
        simples = enumerate_simples(ctx, prims)
        stages["simples_count"] = len(simples)
        stages["simples"] = sorted(ctx.show(x) for x in simples)
    else:
        report.notes.append("primitive set does not span; skipping simples")

    search = find_minimal_garside(ctx, args.garside_norm)
    stages["minimal_garside"] = [ctx.show(d) for d in search.minimal]
    stages["garside_norm_budget"] = search.max_norm
    probe_bad = [ctx.show(z) for z, ok in search.primitive_mcm_probe
                 if not ok]
    if probe_bad:
        report.notes.append(
            "primitive-pair mcms that are not Garside: "
            + ", ".join(probe_bad))

    deltas = []
    for d in search.minimal:
        try:
            deltas.append(_delta_summary(ctx, d, DEFAULT_UNIFORM_RADIUS))
        except ResourceLimitExceeded as exc:
            report.notes.append(f"structure for {ctx.show(d)} capped: {exc}")
        except ValueError as exc:
            report.notes.append(f"structure for {ctx.show(d)} refused: {exc}")
    stages["garside_structures"] = deltas

    return _emit(args, report.to_json(), report.to_text())


# -- normal forms ------------------------------------------------------


def cmd_normal_forms(args) -> int:
    """``normalize`` and ``all-normal-forms`` of a raw word.  The span's
    arithmetic reads the element shown, the least word of its class."""
    from .normal import normalize, normalize_all
    from .structure import span_arithmetic
    ctx = _context(args)
    S = _resolve_span(ctx, args)
    word = ctx.presentation.encode_word(args.element)
    payload = {"element": ctx.show(span_arithmetic(ctx, S).least_word(word)),
               "span": S.label}
    if args.command == "normalize":
        forms = [normalize(ctx, S, word)]
        payload["factors"] = forms[0].to_json(ctx)
    else:
        forms = sorted(normalize_all(ctx, S, word),
                       key=lambda s: s.sort_key())
        payload["forms"] = [seq.to_json(ctx) for seq in forms]
    return _emit(args, payload, "\n".join(
        " ".join(ctx.show(f) for f in seq.factors) or "1" for seq in forms))


def cmd_word_problem(args) -> int:
    from .delta import fraction_of_signed
    ctx = _context(args)
    gs = _resolve_structure(ctx, args)
    w1 = _parse_signed(ctx, args.left)
    w2 = _parse_signed(ctx, args.right)
    f1 = fraction_of_signed(ctx, gs, w1)
    f2 = fraction_of_signed(ctx, gs, w2)
    equal = f1 == f2
    text = (f"{'equal' if equal else 'different'}\n"
            f"left:  {f1.describe(ctx)}\n"
            f"right: {f2.describe(ctx)}")
    return _emit(args, {"equal": equal, "delta": ctx.show(gs.delta),
                        "left": f1.to_json(ctx), "right": f2.to_json(ctx)},
                 text)


# -- automaton, growth, graphs -----------------------------------------


def cmd_automaton(args) -> int:
    from .automaton import build_automaton
    ctx = _context(args)
    gs = _resolve_structure(ctx, args)
    auto = build_automaton(ctx, gs)
    if args.json:
        print(json.dumps(auto.to_json(), indent=2, sort_keys=True))
    else:
        print(auto.to_dot(include_failure=args.full), end="")
    return 0


def cmd_growth(args) -> int:
    from .automaton import growth
    from .delta import check_uniform_length
    ctx = _context(args)
    gs = _resolve_structure(ctx, args)
    uniform = check_uniform_length(ctx, gs, args.radius)
    series = growth(ctx, gs, args.n, mode=args.mode,
                    unique_forms=uniform.details.get("unique_forms"))
    if args.json:
        print(json.dumps(series.to_json(), indent=2, sort_keys=True))
    else:
        print(series.to_csv(), end="")
    return 0


def export_characteristic_graph(ctx, S) -> str:
    """DOT digraph on S, an ``ElementSet``: an edge x -> xg labeled g
    for each generator g with xg again in S."""
    from .structure import atoms
    lines = ["digraph characteristic {"]
    for x in S:
        lines.append(f'  "{ctx.show(x)}";')
    gens = sorted(atoms(ctx))
    for x in S:
        for g in gens:
            y = ctx.mul(x, g)
            if y in S.members:
                lines.append(f'  "{ctx.show(x)}" -> "{ctx.show(y)}" '
                             f'[label="{ctx.show(g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    from .structure import is_spanning
    ctx = _context(args)
    S = _resolve_span(ctx, args)
    rep = is_spanning(ctx, S, bound=args.bound)
    if not rep.passed:
        print(f"warning: the set does not span: {rep.summary()}",
              file=sys.stderr)
    print(export_characteristic_graph(ctx, S), end="")
    return 0


def cmd_distance(args) -> int:
    from .automaton import DELTA_INV, synchronous_distance
    ctx = _context(args)
    gs = _resolve_structure(ctx, args)
    u = _elements(ctx, args.left, DELTA_INV)
    v = _elements(ctx, args.right, DELTA_INV)
    d = synchronous_distance(ctx, gs, u, v)
    return _emit(args, {"distance": d, "delta": ctx.show(gs.delta)}, str(d))


def cmd_prove(args) -> int:
    from .normal import grid_prove_equality, prove_group_identity
    ctx = _context(args)
    S = _resolve_span(ctx, args)
    if args.identity:
        word = _parse_signed(ctx, args.left)
        deriv = prove_group_identity(ctx, S, word)
    else:
        if args.right is None:
            raise ValueError("prove needs two words, or --identity")
        deriv = grid_prove_equality(ctx, S, _elements(ctx, args.left),
                                    _elements(ctx, args.right))
    text = (f"relations used: {deriv.relation_count}\n"
            f"steps: {len(deriv.steps)}")
    return _emit(args, deriv.to_json(ctx), text)


# -- wiring ------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="garside",
                     description="toolchain for homogeneous monoid "
                                 "presentations and their groups of "
                                 "fractions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options, radius=None):
        """Presentation source and caps, plus the named options that the
        subcommand reads."""
        src = p.add_mutually_exclusive_group()
        src.add_argument("--fixture", metavar="NAME",
                         help="built-in presentation (M1, M2, M3, B3, "
                              "free(n), free_comm(n))")
        src.add_argument("--file", help="presentation file")
        if "json" in options:
            # --full shapes the DOT output that --json replaces
            fmt = p.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_true",
                             help="machine-readable output")
            if "full" in options:
                fmt.add_argument("--full", action="store_true",
                                 help="include the failure state")
        if "bound" in options:
            p.add_argument("--bound", type=_nonnegative_int, default=None,
                           help="override search bound for mcm "
                                "computations")
        if "radius" in options:
            p.add_argument("--radius", type=_nonnegative_int, default=radius,
                           help="ball radius for verification checks")
        p.add_argument("--cache-cap", type=_nonnegative_int,
                       default=1_000_000, dest="cache_cap",
                       help="max cached words")
        p.add_argument("--ball-cap", type=_nonnegative_int,
                       default=DEFAULT_BALL_CAP, dest="ball_cap",
                       help="max enumerated elements")
        # a given Garside element stands in for the search that
        # --garside-norm budgets and for the span --span names
        alt = p.add_mutually_exclusive_group() if "delta" in options else p
        if "garside-norm" in options:
            alt.add_argument("--garside-norm", type=_nonnegative_int,
                             default=DEFAULT_GARSIDE_NORM,
                             dest="garside_norm",
                             help="norm budget for the Garside search")
        if "delta" in options:
            alt.add_argument("--delta", help="Garside element (word)")
        if "span" in options:
            alt.add_argument("--span", help="comma-separated spanning set; "
                                            "defaults to the primitive "
                                            "closure")

    p = sub.add_parser("analyze", help="full pipeline report")
    common(p, "json", "bound", "radius", "garside-norm",
           radius=DEFAULT_CANCEL_RADIUS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("normalize", help="greedy normal form")
    common(p, "json", "delta", "span")
    p.add_argument("element")
    p.set_defaults(func=cmd_normal_forms)

    p = sub.add_parser("all-normal-forms", help="every normal form")
    common(p, "json", "delta", "span")
    p.add_argument("element")
    p.set_defaults(func=cmd_normal_forms)

    p = sub.add_parser("word-problem",
                       help="compare two signed words in the group")
    common(p, "json", "delta", "garside-norm")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_word_problem)

    p = sub.add_parser("automaton", help="normal-form automaton (DOT/JSON)")
    common(p, "json", "full", "delta", "garside-norm")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("growth", help="growth series (CSV/JSON)")
    common(p, "json", "delta", "garside-norm", "radius",
           radius=DEFAULT_UNIFORM_RADIUS)
    p.add_argument("-n", type=_nonnegative_int, default=8,
                   help="largest length")
    p.add_argument("--mode", choices=("monoid", "group"), default="monoid")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("graph", help="characteristic graph (DOT)")
    common(p, "delta", "span", "bound")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("distance",
                       help="synchronous distance of two letter words")
    common(p, "json", "delta", "garside-norm")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("prove",
                       help="derive one word from an equal one, or a "
                            "signed identity word from nothing")
    common(p, "json", "delta", "span")
    p.add_argument("left")
    one = p.add_mutually_exclusive_group()
    one.add_argument("right", nargs="?")
    one.add_argument("--identity", action="store_true",
                     help="treat the single argument as a signed word "
                          "representing 1")
    p.set_defaults(func=cmd_prove)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so that a closed pipe is met inside the try
        # and not at interpreter shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early, which is not a failure; what is left
        # in the buffer goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ResourceLimitExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 2
    except (PresentationError, GridError, ValueError, OSError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
