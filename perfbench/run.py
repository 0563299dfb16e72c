"""Benchmark of the garside package: end-to-end metrics per workload, or
per-layer metrics from a traced run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload groupwords --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
prints ``"correct": false`` and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("cli", "groupwords", "ftp")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run.  Counts and self times are per
# operation (query, probe or command, set-up included); a layer a
# workload never reaches reads 0.
PER_LAYER = (
    "congruence.class_of.calls", "congruence.class_of.self_s",
    "congruence.class_builds", "congruence.words_enumerated",
    "congruence.largest_class", "congruence.class_hit_ratio",
    "congruence.left_divides.calls", "congruence.left_divides.self_s",
    "congruence.canonical.calls", "congruence.mul.calls",
    "congruence.divides.calls", "congruence.divides.self_s",
    "congruence.prefix_set.self_s", "congruence.cap_hits",
    "structure.mcms.calls", "structure.mcms.self_s",
    "structure.primitive_closure.self_s", "structure.is_spanning.self_s",
    "structure.enumerate_simples.self_s",
    "structure.divisors_in.calls", "structure.divisors_in.self_s",
    "structure.covers.calls",
    "normal.normalize.calls", "normal.normalize.self_s",
    "normal.normalize_all.calls", "normal.normalize_all.self_s",
    "normal.left_mult_update.calls", "normal.left_mult_update.self_s",
    "normal.is_normal.calls", "normal.grid_prove_equality.self_s",
    "normal.prove_group_identity.self_s",
    "delta.fraction_of_signed.calls", "delta.fraction_of_signed.self_s",
    "delta.GarsideStructure.phi.calls", "delta.GarsideStructure.phi.self_s",
    "delta.GarsideStructure.embedding_exponent.calls",
    "delta.GarsideStructure.embedding_exponent.self_s",
    "delta.find_minimal_garside.self_s", "delta.is_garside.calls",
    "delta.check_uniform_length.self_s", "delta.build_structure.self_s",
    "automaton.cayley_distance.calls", "automaton.cayley_distance.self_s",
    "automaton.cayley_cache_hit_ratio",
    "automaton.synchronous_distance.calls",
    "automaton.synchronous_distance.self_s",
    "automaton.ftp_probe.self_s", "automaton.growth.self_s",
    "automaton.build_automaton.self_s",
    "cli.startup_s", "cli.main.self_s",
    "presentation.parse_presentation.calls",
    "trace_overhead",
)


def layer_unit(name):
    if name.endswith(".calls"):
        return "count/op"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    if name.endswith("largest_class"):
        return "words"
    return "count/op"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment():
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "missing"
    return (f"python {platform.python_version()}, sympy {sympy}, "
            f"nproc {len(os.sched_getaffinity(0))}")


def make_workload(name, seed, root, scratch):
    from workloads import Cli, Ftp, GroupWords
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        return Cli(rng, root, scratch)
    return {"groupwords": GroupWords, "ftp": Ftp}[name](rng)


def run_workload(name, seed, seconds, root, scratch):
    """Whole passes until ``seconds`` of wall time are used, timed with
    the machine-speed clock (see ``speedclock``)."""
    from speedclock import SpeedClock
    from workloads import Result
    workload = make_workload(name, seed, root, scratch)
    result = Result()
    # one CPU for this process and the commands it starts, so the probe
    # samples the CPU the work runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with SpeedClock() as clock:
            workload.clock = clock.now
            if name == "cli":
                workload.measure_setup(result)
            start = time.perf_counter()
            while True:
                result.run_pass(workload, workload.make_pass(), None)
                if time.perf_counter() - start >= seconds:
                    break
    finally:
        os.sched_setaffinity(0, cpus)
    return result, end_to_end(name, result), clock


def run_traced(name, seed, seconds, root, scratch):
    """Times one pass untraced, then repeats those inputs traced to
    measure the tracing overhead, and goes on with traced passes until
    ``seconds`` of wall time are used.  Wall time throughout."""
    from tracer import Tracer
    from workloads import Result
    workload = make_workload(name, seed, root, scratch)
    result = Result()
    pending = workload.make_pass()
    t0 = time.perf_counter()
    workload.run_pass(pending, Result())
    untraced_s = time.perf_counter() - t0
    tracer = Tracer().install()
    overhead = None
    start = time.perf_counter()
    while True:
        inputs = pending or workload.make_pass()
        pending = None
        t0 = time.perf_counter()
        result.run_pass(workload, inputs, tracer)
        if overhead is None:
            overhead = (time.perf_counter() - t0) / untraced_s - 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.uninstall()
    spans = scratch.parent / f"spans-{name}-{seed}.jsonl"
    tracer.write_spans(spans)
    metrics = per_layer(workload, result, tracer, overhead)
    return result, metrics, (tracer, spans)


def end_to_end(name, result):
    # percentiles per pass, median over passes: a pass holds the whole
    # mix, so the median of a pass is not decided by which two
    # operations of a bimodal mix meet in the middle of a whole run
    passes = result.pass_latencies
    if name == "cli":
        # the largest child process
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        # the largest session or probe of a pass, median over passes
        peak = statistics.median(result.pass_rss_mb)
    return {
        "setup_s": statistics.median(result.setups),
        "ops_per_s": result.attempted / result.op_s,
        "latency_p50_ms": statistics.median(
            statistics.median(lat) for lat in passes) * 1e3,
        "latency_p99_ms": statistics.median(
            p99_of(lat) for lat in passes) * 1e3,
        "peak_rss_mb": peak,
    }


def p99_of(samples):
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def per_layer(workload, result, tracer, overhead):
    ops = result.attempted
    stats = tracer.stats
    c = tracer.counters
    lookups = c["class_lookups"]
    special = {
        "congruence.class_builds": c["class_builds"] / ops,
        "congruence.words_enumerated": c["words_enumerated"] / ops,
        "congruence.largest_class": c["largest_class"],
        "congruence.class_hit_ratio": (
            (lookups - c["class_builds"] - c["cap_hits"]) / lookups
            if lookups else 0.0),
        "congruence.cap_hits": c["cap_hits"] / ops,
        "automaton.cayley_cache_hit_ratio": (
            c["cayley_hits"] / c["cayley_lookups"]
            if c["cayley_lookups"] else 0.0),
        "cli.startup_s": getattr(workload, "startup_s", 0.0) / ops,
        "trace_overhead": overhead,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = stats.get(name[:-6], (0, 0.0, 0.0))[0] / ops
        else:
            out[name] = stats.get(name[:-7], (0, 0.0, 0.0))[2] / ops
    return out


def report(name, seed, seconds, trace, result, metrics, extra):
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"({environment()})")
    if trace:
        tracer, spans = extra
        print(f"  {len(tracer.spans)} spans written to {spans}"
              f" ({tracer.dropped} past the cap not kept)")
        for key, value in metrics.items():
            print(f"  {key:<50} {value:>14.6g} {layer_unit(key)}")
        return
    print(f"  times in reference seconds; machine speed {extra.speed():.3f}"
          f" of the reference (median of {len(extra.samples)} probes)")
    for key, unit in END_TO_END:
        print(f"  {key:<16} {metrics[key]:>12.4f} {unit}")
    lat = result.latencies
    print(f"  {'fail_frac':<16} {result.failed / result.attempted:>12.4f} "
          f"({result.failed} of {result.attempted} operations in "
          f"{len(result.pass_latencies)} passes; set-up over "
          f"{len(result.setups)} samples)")
    if name == "cli":
        print(f"  {'analyze_p50_s':<16} "
              f"{statistics.median(lat['pipeline']):>12.4f} s "
              f"({len(lat['pipeline'])} pipeline commands)")
        print(f"  {'query_p50_s':<16} "
              f"{statistics.median(lat['query']):>12.4f} s "
              f"({len(lat['query'])} query commands)")


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "garside" / "__init__.py").is_file():
        print("error: src/garside not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import garside
    if Path(garside.__file__).resolve().parent != (src / "garside").resolve():
        print(f"error: imported garside from {garside.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WrongAnswer

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    code = 0
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
        run = run_traced if args.trace else run_workload
        try:
            result, metrics, extra = run(
                name, args.seed, args.seconds, root, scratch)
        except WrongAnswer as exc:
            print(f"wrong answer in workload {name}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                              "metrics": {}}))
            code = 1
            continue
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        report(name, args.seed, args.seconds, args.trace, result, metrics,
               extra)
        units = (dict(END_TO_END) if not args.trace
                 else {k: layer_unit(k) for k in metrics})
        print(json.dumps({
            "correct": True, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
