"""End-to-end SiEVE benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 sievebench/run.py --workload edge_query --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` alternates untraced rounds (the overhead reference) with
rounds that wrap every layer call, prints the per-layer table and writes
the spans to ``.sievebench/trace-<workload>-<seed>.jsonl``.
The last line of standard output is always one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The command exits non-zero without printing that line when the program's
sources (``src/repro``) are missing or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives under this directory of the checkout.
WORK_DIR = os.path.join(ROOT, ".sievebench")

WORKLOADS = ("onboard_cold", "edge_query", "fleet_replay", "serve_churn")

#: Environment pinned before numpy is imported: one BLAS thread (the
#: machine has two cores and the benchmark is single-process), exact
#: numerics, and the artifact cache confined to the run's own directory.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNSET_ENV = ("REPRO_PRECISION", "REPRO_DATASET_CACHE", "REPRO_CACHE_MAX_BYTES",
             "REPRO_EXPERIMENT_DURATION", "REPRO_EXPERIMENT_SCALE")

#: Fresh interpreters timed per run for the import share of ``setup_s``.
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "frames_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "label_accuracy": "1",
    "frames_decoded": "frames",
}

#: Per-layer metrics (traced run); ``_s`` entries are busy seconds.
LAYER_TIMES = (
    "video.render", "codec.analyze", "core.tune", "codec.encode",
    "vision.mse", "datasets.cache_store", "codec.seek", "codec.parse",
    "codec.decode", "nn.preprocess", "nn.forward", "core.answer", "core.plan",
    "cluster.fleet", "core.report", "service.admit", "service.push",
    "service.close", "service.loop", "service.status", "service.report",
)
LAYER_COUNTS = (
    "codec.analyze_frames", "core.tune_configs", "codec.encode_frames",
    "codec.encode_iframes", "datasets.cache_bytes", "codec.frames_scanned",
    "codec.frames_decoded", "codec.keyframe_bytes", "nn.frames_inferred",
    "nn.batches", "core.jobs_planned", "dataflow.events",
    "service.sessions_opened", "service.chunks_pushed", "service.status_calls",
    "service.sessions_retained", "service.lan_links_retained",
    "net.transfer_records",
)
COUNT_UNITS = {"datasets.cache_bytes": "B", "codec.keyframe_bytes": "B",
               "nn.batches": "count", "core.tune_configs": "count",
               "service.status_calls": "count"}


def _count_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if "frames" in name:
        return "frames"
    return "count"


class Operations:
    """Times benchmark operations and counts the ones that fail.

    A workload whose every round repeats the same operations may key them
    (``op(key)``); its latencies are then each key's fastest time
    (``latencies``).
    """

    def __init__(self, workload: str, tracer=None) -> None:
        self.name = "bench." + workload
        self.tracer = tracer
        self.seconds = []
        self.fastest = {}
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @contextmanager
    def op(self, key=None):
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.seconds)
            tracer.begin(self.name)
        start = time.perf_counter()
        try:
            yield
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        finally:
            seconds = time.perf_counter() - start
            self.seconds.append(seconds)
            if key is not None:
                self.fastest[key] = min(seconds, self.fastest.get(key, seconds))
            if tracer is not None:
                tracer.end()

    def latencies(self) -> list:
        """Every operation's time, or each key's fastest when keyed.

        Host contention only adds time, and on this machine it comes in
        phases of seconds to a minute, so a run's operations mix fast-phase
        and slow-phase times.  Where a percentile falls in that mixture
        jumps with the phases' shares, where the mean (``frames_per_s``)
        only drifts: the plain percentiles of ``serve_churn``'s 3 ms ticks
        spread by a third between runs of the same code.  A keyed
        operation is the same deterministic work every round, so its
        fastest repeat is its cost.
        """
        return list(self.fastest.values()) if self.fastest else self.seconds


def _percentile_ms(values, fraction: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_seconds(module: str) -> float:
    """Median wall time of a fresh interpreter importing the workload."""
    code = (f"import sys; sys.path[:0] = [{ROOT!r}, {SRC!r}]; "
            f"import {module}")
    samples = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=os.environ.copy())
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _run_phase(module, state, ops: Operations, seconds: float,
               min_rounds: int) -> None:
    """Run whole rounds until ``seconds`` have passed (and ``min_rounds``)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        module.run_round(state, ops)
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= min_rounds:
            return


def _run_traced(module, state, workload: str, seconds: float, tracing):
    """Alternate untraced and traced rounds until ``seconds`` have passed.

    Host speed drifts within a run, so the untraced reference for the
    tracing overhead is interleaved round by round with the traced rounds
    instead of running before them.  Returns ``(reference, traced, tracer)``.
    """
    reference = Operations(workload)
    tracer = tracing.Tracer()
    traced = Operations(workload, tracer)
    start = time.perf_counter()
    while True:
        module.run_round(state, reference)
        originals = tracing.install(tracer)
        try:
            module.run_round(state, traced)
        finally:
            tracing.uninstall(originals)
        if time.perf_counter() - start >= seconds:
            return reference, traced, tracer


def _print_layer_table(workload: str, tracer, reference_op_s: float,
                       traced_op_s: float) -> None:
    rows, op_seconds, residual = tracer.layer_summary()
    print(f"per-layer self time, workload {workload} "
          f"({len(tracer.spans)} spans)")
    print(f"{'span':<24}{'self s':>10}{'calls':>10}{'share':>9}")
    for name, seconds, calls in rows:
        print(f"{name:<24}{seconds:>10.4f}{calls:>10d}"
              f"{100 * seconds / op_seconds:>8.1f}%")
    print(f"{'bench residual':<24}{residual:>10.4f}{'':>10}"
          f"{100 * residual / op_seconds:>8.1f}%")
    covered = 1.0 - residual / op_seconds if op_seconds else 0.0
    print(f"operation time {op_seconds:.4f} s; layers cover "
          f"{100 * covered:.1f}%")
    overhead = traced_op_s - reference_op_s
    print(f"tracing overhead: {1e3 * overhead:+.4f} ms per operation "
          f"(traced {1e3 * traced_op_s:.4f} ms, untraced "
          f"{1e3 * reference_op_s:.4f} ms, "
          f"{100 * overhead / reference_op_s:+.1f}%)")
    for name in sorted(tracer.counts):
        print(f"  count {name} = {tracer.counts[name]:g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"sievebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key, value in PINNED_ENV.items():
        os.environ[key] = value
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    try:
        return _main(args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _main(args) -> int:
    module_name = f"sievebench.wl_{args.workload}"
    sys.path[:0] = [ROOT, SRC]
    import_s = _import_seconds(module_name)
    module = importlib.import_module(module_name)

    setup_samples = []
    for _ in range(module.SETUP_REPEATS):
        state = None  # the peak RSS holds one set-up, not two
        start = time.perf_counter()
        state = module.State(args.seed, args.size)
        setup_samples.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_samples)

    from sievebench import tracing
    if args.trace:
        reference, ops, tracer = _run_traced(module, state, args.workload,
                                             args.seconds, tracing)
    else:
        ops = Operations(args.workload)
        _run_phase(module, state, ops, args.seconds, module.MIN_ROUNDS)

    outcome = module.finish(state)
    failures = outcome["failures"]
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    busy = sum(ops.seconds)
    if args.trace:
        reference_op_s = sum(reference.seconds) / reference.attempted
        _print_layer_table(args.workload, tracer, reference_op_s,
                           busy / ops.attempted)
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            WORK_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = {}
        for name in LAYER_TIMES:
            metrics[name + "_s"] = {"value": tracer.self_seconds.get(name, 0.0),
                                    "unit": "s"}
        counts = dict(tracer.counts)
        counts.update(outcome.get("state_sizes", {}))
        for name in LAYER_COUNTS:
            metrics[name] = {"value": counts.get(name, 0),
                             "unit": _count_unit(name)}
        # Events per second of the event loops that fired them.
        loop_s = (tracer.self_seconds.get("cluster.fleet", 0.0)
                  + tracer.self_seconds.get("service.loop", 0.0))
        metrics["dataflow.events_per_s"] = {
            "value": (counts.get("dataflow.events", 0) / loop_s
                      if loop_s else 0.0), "unit": "1/s"}
        _, _, residual = tracer.layer_summary()
        metrics["bench.residual_s"] = {"value": residual, "unit": "s"}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "frames_per_s": outcome["frames"] / busy,
            "latency_p50_ms": _percentile_ms(ops.latencies(), 0.50),
            "latency_p90_ms": _percentile_ms(ops.latencies(), 0.90),
            "label_accuracy": outcome["label_accuracy"],
            "frames_decoded": outcome["frames_decoded"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        print(f"workload {args.workload} seed {args.seed}: {ops.attempted} "
              f"operations in {busy:.3f} s busy; import {import_s:.3f} s, "
              f"set-up samples {[round(s, 3) for s in setup_samples]}")
    print(json.dumps({"correct": not failures, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
