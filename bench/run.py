#!/usr/bin/env python3
"""Benchmark of the linkconformal pipeline, end to end and per layer.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload acceptance-trial --seed 555 --seconds 55 --trace 0

Every workload, each untraced and traced in a fresh process, with a table of
all metrics; exits non-zero if any output check fails or any arm run fails:

    python3 bench/run.py

The program is imported from ``src/`` of the checkout this file sits in.
The last line a single-workload run prints is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only the standard library is imported at module level. The program, and the
# bench modules that import NumPy, are imported inside functions: after main()
# has fixed the BLAS thread count, and inside the timed set-up.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread per process, whatever the core count: on a 2-core machine
# it was faster than two for an acceptance trial, and it keeps timings
# comparable between machines with different core counts.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(correct: bool, attempted: int, failed: int, values: dict, specs: list) -> str:
    """The result object: every metric named in ``specs``, with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"no value for metrics {missing}")
    metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    )


# --- set-up ----------------------------------------------------------------------


def _import_program() -> float:
    """Import linkconformal from this checkout's src/; returns the import time."""
    if not (SRC / "linkconformal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'linkconformal'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import linkconformal

    elapsed = time.perf_counter() - start
    if Path(linkconformal.__file__).resolve().parent != (SRC / "linkconformal").resolve():
        raise SystemExit(f"bench: linkconformal was imported from {linkconformal.__file__}, not {SRC}")
    return elapsed


def _setup(args, traced: bool = False):
    """Import the program and build the workload's graph.

    Returns (config, graph, set-up seconds, tracer). When traced,
    the graph is built with the stage functions wrapped, as phase "setup".
    """
    import_s = _import_program()
    from linkconformal.pipeline import load_graph
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    config = workload.make_config(workload.default_seed if args.seed is None else args.seed)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer(phase="setup")
    start = time.perf_counter()
    if tracer is None:
        graph = load_graph(config)
    else:
        with tracer.installed():
            graph = load_graph(config)
    return config, graph, import_s + time.perf_counter() - start, tracer


def _probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--probe-setup"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "linkconformal").rglob("*.py"))


# --- reading results and checking them -------------------------------------------


def arm_records(report):
    """(arm, coverage, avg_length) per successful arm run in call order, and the error count."""
    ok = [(t.arm, t.coverage, t.avg_length) for t in report.trials if t.error is None]
    return ok, len(report.trials) - len(ok)


class Checker:
    """Runs checks and collects the messages of those that fail."""

    def __init__(self):
        self.failures = []

    def __call__(self, label: str, fn, *args) -> None:
        import checks

        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")


def _check_plain_coverage(config, graph, plain_report) -> None:
    """(b): plain-arm mean coverage against the split-conformal band."""
    import checks

    sizes = checks.quota_sizes(graph.num_edges, config.ratios)
    coverages = [t.coverage for t in plain_report.trials if t.arm == "cqr" and t.error is None]
    if not coverages:
        raise checks.CheckFailed("no plain-arm trial succeeded")
    checks.check_plain_coverage(
        statistics.fmean(coverages), config.alpha, 2 * sizes[2], 2 * sizes[3], len(coverages)
    )


class Rounds:
    """Repeated pipeline calls of one invocation, with what the checks need."""

    def __init__(self, config, graph):
        self.config, self.graph = config, graph
        self.payloads = []
        self.report = None

    def call(self) -> float:
        """One pipeline call; returns its wall time."""
        from linkconformal.pipeline import run_pipeline
        from workloads import result_bytes

        start = time.perf_counter()
        self.report = run_pipeline(self.config, graph=self.graph)
        elapsed = time.perf_counter() - start
        self.payloads.append(result_bytes(self.report))
        return elapsed

    def finish(self, check: Checker) -> tuple:
        """Checks (b) and (f); returns the arm runs (attempted, failed)."""
        import checks

        check("(f) reproducibility", checks.check_identical, self.payloads)
        check("(b) plain coverage", _check_plain_coverage, self.config, self.graph, self.report)
        rounds = len(self.payloads)
        return rounds * len(self.report.trials), rounds * arm_records(self.report)[1]


def mean_lengths(report) -> dict:
    """Mean interval length of the plain arm and of the sampled arm."""
    arms = report.summary["arms"]
    return {"mean_length_cqr": arms["cqr"]["mean_length"], "mean_length_sampled": arms["sampled"]["mean_length"]}


# --- the two modes ---------------------------------------------------------------


def _room_for_another(start: float, seconds: float, round_times: list) -> bool:
    """Whether a round as long as the median one so far ends within ``seconds``.

    A run makes at least one round and starts no round it expects to end
    after ``seconds``, so its length stays within ``seconds`` however slow
    the machine is.
    """
    return time.perf_counter() - start + statistics.median(round_times) <= seconds


def run_untraced(args):
    """End-to-end metrics. Returns (failures, attempted, failed, values)."""
    config, graph, setup0, _ = _setup(args)
    setups = [setup0] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    rounds = Rounds(config, graph)
    run_times = []
    start = time.perf_counter()
    while True:
        run_times.append(rounds.call())
        if not _room_for_another(start, args.seconds, run_times):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("round times (s): " + " ".join(f"{t:.3f}" for t in run_times), file=sys.stderr)

    check = Checker()
    attempted, failed = rounds.finish(check)
    values = {
        "run_s": statistics.median(run_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return check.failures, attempted, failed, values


def run_traced(args):
    """Per-layer metrics. Returns (failures, attempted, failed, values).

    After one warm-up call, each round makes an untraced and a traced
    pipeline call, alternating which goes first, so that
    ``trace.overhead_s`` carries neither the first call's cost nor an
    order effect. The traced call's arguments and results are checked
    after it returns.
    """
    config, graph, _, tracer = _setup(args, traced=True)
    import layers

    setup = layers.phase_metrics(tracer, "setup")
    tracer.drop_calls()
    rounds = Rounds(config, graph)
    check = Checker()
    plain_times, traced_times, per_round, round_times = [], [], [], []
    start = time.perf_counter()
    rounds.call()
    while True:
        round_start = time.perf_counter()
        traced_first = len(traced_times) % 2 == 1
        if not traced_first:
            plain_times.append(rounds.call())
        tracer.phase = f"round-{len(traced_times)}"
        with tracer.installed(), tracer.span(layers.PIPELINE_SPAN):
            traced_times.append(rounds.call())
        layers.check_phase(check, tracer, tracer.phase, arm_records(rounds.report)[0])
        per_round.append(layers.phase_metrics(tracer, tracer.phase))
        tracer.drop_calls()
        if traced_first:
            plain_times.append(rounds.call())
        round_times.append(time.perf_counter() - round_start)
        if not _room_for_another(start, args.seconds, round_times):
            break

    attempted, failed = rounds.finish(check)
    values = layers.combine(setup, per_round)
    values.update(mean_lengths(rounds.report))
    for name in ("mean_length_cqr", "mean_length_sampled"):
        if not math.isfinite(values[name]):
            check.failures.append(f"{name} is not finite: {values[name]}")
    values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    values["src.lines"] = _src_lines()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-{config.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": config.seed, "spans": tracer.to_json()}, fh)
    return check.failures, attempted, failed, values


# --- every workload --------------------------------------------------------------


def run_all(spec, seconds: int) -> int:
    """Each workload untraced and traced in a fresh process; prints a table."""
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited {proc.returncode} without a result")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric in spec[section]:
                m = result["metrics"][metric["name"]]
                print(f"  {metric['name']:<32} {m['value']:>16.6g} {m['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    print("all checks passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name; omit to run every workload")
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args.seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.probe_setup:
        print(repr(_setup(args)[2]))
        return 0
    failures, attempted, failed, values = (run_traced if args.trace else run_untraced)(args)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    section = spec["per_layer" if args.trace else "end_to_end"]
    print(result_line(not failures, attempted, failed, values, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
