"""Benchmark of collapse-lab: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs every workload, each in its own process.

A run measures ``setup_s`` as the median of five fresh interpreters that
import the package, validate the workload's configs and build its inputs.
It then repeats passes over the workload's operations until the next one
would end after ``--seconds``, making at least three.  Every pass writes its
own reports; oracles, and a byte-for-byte comparison with the first pass,
run outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics of the untraced
passes: median ``wall_s`` and ``cpu_s`` per pass and the process's
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate,
starting untraced;
it reports the per-layer metrics (medians over the traced passes), the
tracing overhead ``trace.overhead_s`` (traced minus untraced median wall
time), and writes every traced span to
``perfbench/out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3
WORKLOAD_NAMES = ("shipped-suite", "flow-march", "diameter-monitor",
                  "newton-krylov")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="build the workload's inputs in DIR and exit "
                             "(the fresh interpreter timed as setup_s)")
    return parser.parse_args(argv)


def _measure_setup(args, work):
    """Median wall time of fresh interpreters doing the workload's set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(work / f"setup{k}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class _Pass:
    """Outcome of one pass: its times, each operation's problems and the
    fingerprint of its outputs."""

    wall: float
    cpu: float
    problems: list
    prints: list


def _run_pass(ops, out_root, tracer=None):
    """Run every operation once; time the solves and report writes only.

    With a tracer, each operation is a root span named ``op.<label>``.
    """
    outcomes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            run = tracer.wrap(f"op.{op.label}", op.run) if tracer else op.run
            try:
                outcomes.append(run(out_root))
            except Exception as exc:  # an operation that raises has failed
                outcomes.append(exc)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    problems, prints = [], []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            problems.append([f"raised {type(outcome).__name__}: {outcome}"])
            prints.append(None)
        else:
            problems.append(op.judge(outcome))
            prints.append(op.fingerprint(outcome))
    shutil.rmtree(out_root, ignore_errors=True)
    return _Pass(wall, cpu, problems, prints)


def _write_spans(path, traced_spans):
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(traced_spans):
            for name, start, end, parent in spans:
                fh.write(f'[{k}, "{name}", {start!r}, {end!r}, {parent}]\n')


def _bench(args, work):
    import tracing
    import workloads

    setup_s = _measure_setup(args, work) if not args.trace else None
    tracer = tracing.Tracer()
    if args.trace:
        with tracing.installed(tracer):
            ops = workloads.setup(args.workload, args.seed, work / "inputs")
        setup_spans, _ = tracer.take()
    else:
        ops = workloads.setup(args.workload, args.seed, work / "inputs")

    passes, plain, traced, layer_rows, traced_spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        k = len(passes)
        if args.trace and k % 2:
            with tracing.installed(tracer):
                result = _run_pass(ops, work / f"pass{k}", tracer)
            spans, counters = tracer.take()
            traced_spans.append(spans)
            layer_rows.append(tracing.layer_metrics(spans, counters))
            traced.append(result)
        else:
            result = _run_pass(ops, work / f"pass{k}")
            plain.append(result)
        passes.append(result)
        typical = statistics.median(p.wall for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > args.seconds):
            break

    attempted = failed = 0
    correct = True
    reference = passes[0].prints
    reported = set()
    for result in passes:
        for op, problems, fp, ref in zip(ops, result.problems, result.prints,
                                         reference):
            if fp is None or fp != ref:
                problems = problems + ["outputs differ from the first pass"]
            attempted += 1
            if problems:
                failed += 1
                if op.known_fault is None:
                    correct = False
                if op.label not in reported:
                    reported.add(op.label)
                    tag = op.known_fault or "UNEXPECTED"
                    print(f"failed {op.label} [{tag}]: {'; '.join(problems)}")

    units = {m["name"]: m["unit"] for m in _spec()[
        "per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        _write_spans(OUT / f"trace-{args.workload}.jsonl", traced_spans)
        metrics = tracing.median_metrics(layer_rows)
        metrics["config.load_s"] = tracing.outermost_time(setup_spans,
                                                          "config")
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in plain))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in plain),
            "cpu_s": statistics.median(p.cpu for p in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"{args.workload}: seed {args.seed}, {len(ops)} operations per "
          f"pass, {len(passes)} passes"
          + (f" ({len(traced)} traced)" if args.trace else ""))
    print("  pass wall_s " + " ".join(f"{p.wall:.3f}" for p in plain))
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"  attempted {attempted}, failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in sorted(metrics)}}


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_all(args):
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "collapse_lab" / "__init__.py").is_file():
        print(f"error: no collapse_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # configs run one after another, never on the CLI's thread pool
    os.environ.pop("COLLAPSE_LAB_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        print(json.dumps(_run_all(args)))
        return 0
    if args.setup_only:
        import workloads
        workloads.setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    work = OUT / f"work-{os.getpid()}"
    try:
        result = _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
