#!/usr/bin/env python3
"""fedsim benchmark: whole training runs timed from outside through the public API.

One invocation runs one workload with one seed in a fresh interpreter:

    python3 perfbench/run.py --workload quad-baselines --seed 1 --seconds 50 --trace 0

It parses the workload's INI file with ``fedsim.cli.parse_config``, times
``fedsim.simulator.build_problem`` (set-up) and then calls
``fedsim.simulator.run_training(config, problem)`` on the same problem again
and again until ``--seconds`` have passed, checking every run's outputs.
``--trace 0`` reports the end-to-end metrics, in seconds calibrated to the
host's speed by the reference kernel of ``reference.py``, which is timed
before and after every timed call.  ``--trace 1`` alternates
untraced runs with runs under the span wrappers of ``tracing.py`` and reports
the per-layer metrics.  Without ``--workload`` every workload runs in both
modes, each in its own interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric with its unit, the failure count and a manifest.  The exit
code is 0 when every run passed its checks, 1 otherwise, and 1 without a
result line when fedsim cannot be imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from reference import REF_SECONDS, Reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

# Round rules run as legs on one shared problem; the workload's INI file
# configures the first leg, later legs override only the rule and turn
# verification off.
WORKLOADS = {
    "logreg-train": ("fedmim",),
    "mlp-measure": ("fedmim",),
    "quad-baselines": ("fedmim", "fedavg", "fedcm", "scaffold", "fedadam"),
}
SETUP_REPS = 11     # setup_s is the median of this many build_problem calls
MIN_REPS = 2        # the byte-identity check needs two runs of one seed
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
QUICK_ROUNDS = 5    # --quick: rounds per leg, for the self-test

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "local_steps_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Names ending in .calls/.ms/.self_ms that are not computed explicitly in
# layer_metrics are read from the span of that name.
PER_LAYER_UNITS = {
    "algorithms.round.calls": "count",
    "algorithms.round.ms": "ms",
    "algorithms.round.self_ms": "ms",
    "algorithms.mim_local_update.calls": "count",
    "algorithms.mim_local_update.ms": "ms",
    "algorithms.mim_local_update.self_ms": "ms",
    "algorithms.local_steps": "count",
    "algorithms.divergences": "count",
    "objectives.batch_gradient.train.calls": "count",
    "objectives.batch_gradient.train.ms": "ms",
    "objectives.EpochSampler.next_batch.calls": "count",
    "objectives.EpochSampler.next_batch.ms": "ms",
    "objectives.noisy_gradient.calls": "count",
    "objectives.noisy_gradient.ms": "ms",
    "objectives.train_samples": "count",
    "objectives.train_flops_computed": "flop",
    "objectives.train_bytes_computed": "B",
    "objectives.global_gradient.calls": "count",
    "objectives.global_gradient.ms": "ms",
    "objectives.global_loss.calls": "count",
    "objectives.global_loss.ms": "ms",
    "objectives.batch_gradient.measure.calls": "count",
    "vectors.mean_vectors.calls": "count",
    "vectors.mean_vectors.ms": "ms",
    "vectors.RngStream.generator.calls": "count",
    "vectors.RngStream.generator.ms": "ms",
    "analysis.verify.calls": "count",
    "analysis.verify.ms": "ms",
    "analysis.compute_u.calls": "count",
    "analysis.compute_u.ms": "ms",
    "analysis.local_consistency.calls": "count",
    "analysis.local_consistency.ms": "ms",
    "analysis.max_residual": "1",
    "simulator.build_problem.s": "s",
    "simulator.sample_clients.calls": "count",
    "simulator.sample_clients.ms": "ms",
    "simulator.run_training.self_ms": "ms",
    "cli.parse_config.ms": "ms",
    "cli.write_metrics_csv.ms": "ms",
    "cli.metrics_csv.bytes": "B",
    "cli.write_run_json.ms": "ms",
    "share.training": "ratio",
    "share.measurement": "ratio",
    "trace.overhead": "ratio",
    "trace.run_s_traced": "s",
    "trace.run_s_untraced": "s",
}
SPAN_FIELDS = {"calls": 0, "ms": 1, "self_ms": 2}
TRAINING_SPANS = ("algorithms.round",)
MEASUREMENT_SPANS = ("objectives.global_gradient", "objectives.global_loss", "analysis.local_consistency")


def import_fedsim():
    """Import fedsim from src/ of this checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedsim.cli
        import fedsim.simulator
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fedsim from {src}: {exc}")
    if src.resolve() not in Path(fedsim.__file__).resolve().parents:
        sys.exit(f"perfbench: fedsim was imported from {fedsim.__file__}, not from {src}")
    return fedsim


@dataclass
class Rep:
    """One pass over every leg of a workload."""

    run_s: float = 0.0   # wall time
    scale: float = 1.0   # REF_SECONDS over the reference kernel's time around this pass
    round_ms: list = field(default_factory=list)
    write_csv_ms: float = 0.0
    write_json_ms: float = 0.0
    csv_bytes: int = 0
    spans: dict = field(default_factory=dict)      # traced passes: Tracer.summary()
    counters: dict = field(default_factory=dict)   # traced passes: computed oracle counts


class Bench:
    """Runs the legs on one problem and checks every run's outputs."""

    def __init__(self, fedsim, legs, problem, zero_loss: float, scratch: Path):
        self.fedsim = fedsim
        self.legs = legs
        self.problem = problem
        self.zero_loss = zero_loss
        self.scratch = scratch
        self.first_csv: dict = {}  # leg index -> metrics.csv bytes of the first run
        self.attempted = 0
        self.failures: list = []
        self.divergences = 0
        self.max_residual = 0.0

    def rep(self, tracer=None) -> Rep:
        cli, simulator = self.fedsim.cli, self.fedsim.simulator
        rep = Rep()
        for i, config in enumerate(self.legs):
            self.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is None:
                    record = simulator.run_training(config, self.problem)
                else:
                    record = tracer.call("simulator.run_training", simulator.run_training, config, self.problem)
            except Exception as exc:  # a run that raises counts as failed; the others still run
                self.failures.append(f"{config.algorithm}: raised {exc!r}")
                continue
            rep.run_s += time.perf_counter() - started
            rep.round_ms.extend(record.round_wall_ms)

            csv_path = self.scratch / f"{i}-{config.algorithm}-metrics.csv"
            started = time.perf_counter()
            cli.write_metrics_csv(record.rows, csv_path)
            rep.write_csv_ms += (time.perf_counter() - started) * 1000.0
            started = time.perf_counter()
            cli.write_run_json(record, self.scratch / f"{i}-{config.algorithm}-run.json")
            rep.write_json_ms += (time.perf_counter() - started) * 1000.0
            csv_bytes = csv_path.read_bytes()
            rep.csv_bytes += len(csv_bytes)

            errors = self.check(i, config, record, csv_bytes)
            if errors:
                self.failures.append(f"{config.algorithm}: " + "; ".join(errors))
        return rep

    def check(self, leg: int, config, record, csv_bytes: bytes) -> list:
        errors = []
        if record.diverged_round is not None:
            self.divergences += 1
            errors.append(record.status)
        if config.verify:
            residuals = (record.max_residual_delta, record.max_residual_u)
            if None in residuals:
                errors.append("verify run reported no residuals")
            else:
                worst = max(residuals)
                self.max_residual = max(self.max_residual, worst)
                if not worst <= self.fedsim.cli.VERIFY_TOLERANCE:
                    errors.append(f"residual {worst:.3e} exceeds {self.fedsim.cli.VERIFY_TOLERANCE:g}")
        if record.final_loss is None or not record.final_loss < self.zero_loss:
            errors.append(f"final loss {record.final_loss} is not below {self.zero_loss} at the zero start")
        if csv_bytes != self.first_csv.setdefault(leg, csv_bytes):
            errors.append("metrics.csv differs from the first run of this seed")
        return errors


def load_legs(fedsim, workload: str, seed: int, quick: bool, corrupt_delta: float) -> tuple:
    """Parsed configs of the workload's legs, and the total parse time in ms."""
    path = str(BENCH_DIR / "workloads" / f"{workload}.ini")
    legs, parse_ms = [], 0.0
    for i, rule in enumerate(WORKLOADS[workload]):
        overrides = [f"run.seed={seed}", f"algorithm.name={rule}"]
        if i > 0:
            overrides.append("run.verify=false")
        started = time.perf_counter()
        config = fedsim.cli.parse_config(path, overrides)
        parse_ms += (time.perf_counter() - started) * 1000.0
        if quick:
            config = replace(config, rounds=QUICK_ROUNDS, metric_every=min(config.metric_every, QUICK_ROUNDS))
        if corrupt_delta and config.verify:
            config = replace(config, corrupt_delta=corrupt_delta)
        legs.append(config)
    if corrupt_delta and not any(c.verify for c in legs):
        sys.exit(f"perfbench: --corrupt-delta needs a verify leg; {workload} has none")
    return legs, parse_ms


def local_steps(legs) -> int:
    return sum(c.rounds * c.hyper.s_participate * c.hyper.k_local for c in legs)


def tail_percentile(rounds: int) -> float:
    """Highest ladder percentile with at least ten of ``rounds`` beyond it."""
    return next((p for p in TAIL_LADDER if rounds * (100.0 - p) / 100.0 >= 10), TAIL_LADDER[-1])


def calibration(reference: Reference, before: float) -> tuple:
    """(kernel time after a timed call, scale of that call) given the kernel time before it."""
    after = reference.seconds()
    return after, REF_SECONDS / ((before + after) / 2.0)


def measure(bench: Bench, seconds: float, tracer, reference: Reference) -> tuple:
    """Calibrated untraced passes, or untraced and traced passes in turn under a tracer,
    until time is up."""
    untraced, traced = [], []
    started = time.perf_counter()
    ref_s = reference.seconds() if tracer is None else 0.0
    while len(untraced) < MIN_REPS or time.perf_counter() - started < seconds:
        rep = bench.rep()
        untraced.append(rep)
        if tracer is None:
            ref_s, rep.scale = calibration(reference, ref_s)
        else:
            tracer.clear()
            tracer.install()
            try:
                rep = bench.rep(tracer)
            finally:
                tracer.uninstall()
            rep.spans, rep.counters = tracer.summary(), dict(tracer.counters)
            traced.append(rep)
    return untraced, traced


def end_to_end_metrics(legs, setup: list, untraced: list, tail_p: float) -> dict:
    """Every time in calibrated seconds (see reference.py)."""
    run_s = statistics.median(r.run_s * r.scale for r in untraced)
    pooled = [ms * r.scale for r in untraced for ms in r.round_ms]
    return {
        "setup_s": statistics.median(s * scale for s, scale in setup),
        "run_s": run_s,
        "local_steps_per_s": local_steps(legs) / run_s,
        "round_ms_p50": float(np.percentile(pooled, 50.0)),
        # per pass, so that one burst of host noise moves one pass, not the result
        "round_ms_tail": statistics.median(float(np.percentile(r.round_ms, tail_p)) * r.scale
                                           for r in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(bench: Bench, legs, setup: list, parse_ms: float, untraced: list, traced: list) -> dict:
    def span(rep: Rep, name: str, index: int):
        return rep.spans.get(name, (0, 0.0, 0.0))[index]

    def share(rep: Rep, names) -> float:
        return sum(span(rep, n, 1) for n in names) / (rep.run_s * 1000.0) if rep.run_s else 0.0

    last = traced[-1]
    run_traced = statistics.median(r.run_s for r in traced)
    run_untraced = statistics.median(r.run_s for r in untraced)
    every = untraced + traced
    values = {
        "algorithms.local_steps": local_steps(legs),
        "algorithms.divergences": bench.divergences,
        "objectives.train_samples": last.counters.get("train_samples", 0),
        "objectives.train_flops_computed": last.counters.get("train_flops", 0),
        "objectives.train_bytes_computed": last.counters.get("train_bytes", 0),
        "analysis.max_residual": bench.max_residual,
        "simulator.build_problem.s": statistics.median(s for s, _ in setup),
        "cli.parse_config.ms": parse_ms,
        "cli.write_metrics_csv.ms": statistics.median(r.write_csv_ms for r in every),
        "cli.metrics_csv.bytes": last.csv_bytes,
        "cli.write_run_json.ms": statistics.median(r.write_json_ms for r in every),
        "share.training": statistics.median(share(r, TRAINING_SPANS) for r in traced),
        "share.measurement": statistics.median(share(r, MEASUREMENT_SPANS) for r in traced),
        "trace.overhead": run_traced / run_untraced - 1.0,
        "trace.run_s_traced": run_traced,
        "trace.run_s_untraced": run_untraced,
    }
    for name in PER_LAYER_UNITS:
        if name not in values:
            span_name, kind = name.rsplit(".", 1)
            index = SPAN_FIELDS[kind]
            if index == 0:  # call counts repeat exactly from pass to pass
                values[name] = span(last, span_name, 0)
            else:
                values[name] = statistics.median(span(r, span_name, index) for r in traced)
    return values


def openblas_threads():
    """Thread count of the OpenBLAS library loaded into this process, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def manifest(args, legs, setup: list, untraced: list, traced: list, tail_p: float, tracer) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "untraced",
        "seconds": args.seconds,
        "legs": [c.algorithm for c in legs],
        "rounds_per_leg": legs[0].rounds,
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "setup_calls": len(setup),
        # uncalibrated medians, and the median calibration scale of the passes
        "setup_s_wall": statistics.median(s for s, _ in setup),
        "run_s_wall": statistics.median(r.run_s for r in untraced),
        "calibration_scale": statistics.median(r.scale for r in untraced),
        "rounds_pooled": sum(len(r.round_ms) for r in untraced),
        "round_ms_tail_percentile": tail_p,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "trace_targets_missing": tracer.missing if tracer is not None else [],
    }


def run_workload(args) -> int:
    fedsim = import_fedsim()
    from fedsim.objectives import global_loss  # unwrapped even while tracing

    legs, parse_ms = load_legs(fedsim, args.workload, args.seed, args.quick, args.corrupt_delta)
    reference = Reference()
    setup, problem = [], None  # (wall time, calibration scale) per build_problem call
    ref_s = reference.seconds()
    for _ in range(SETUP_REPS):
        problem = None  # release the previous build, so memory holds one problem at a time
        started = time.perf_counter()
        problem = fedsim.simulator.build_problem(legs[0].problem, legs[0].master_seed)
        wall = time.perf_counter() - started
        ref_s, scale = calibration(reference, ref_s)
        setup.append((wall, scale))
    zero_loss = global_loss(problem, np.zeros(problem.dim))

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    tail_p = tail_percentile(sum(c.rounds for c in legs))

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        bench = Bench(fedsim, legs, problem, zero_loss, scratch)
        untraced, traced = measure(bench, args.seconds, tracer, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None:
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        values, units = layer_metrics(bench, legs, setup, parse_ms, untraced, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(legs, setup, untraced, tail_p), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failed = len(bench.failures)
    for message in bench.failures[:10]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:<14.6g} {m['unit']}")
    print(f"{'fail_rate':<42} {failed / bench.attempted:<14.6g} ratio ({failed} of {bench.attempted} runs)")
    print("manifest " + json.dumps(manifest(args, legs, setup, untraced, traced, tail_p, tracer), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            print(f"== {workload} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            print(proc.stdout, end="", flush=True)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run in this interpreter (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed in as run.seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ROUNDS} rounds per leg, for the self-test")
    parser.add_argument("--corrupt-delta", type=float, default=0.0,
                        help="fault injection on the verify leg (run.corrupt_delta), for the self-test")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
