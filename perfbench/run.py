"""End-to-end benchmark of the M2TD reproduction, with a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload campaign.adaptive --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` wraps each layer's public calls (see
``tracing.py``), prints the per-layer metrics, and then times the same
work again with the wrappers removed to report the tracing overhead.
``--workload all`` runs every workload in a fresh process, untraced
and traced, prints every metric with its unit, and exits nonzero on
any correctness mismatch.  The last line of standard output is always
one JSON object.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads; worker
# processes inherit it.  Two threads per process oversubscribe the
# CPUs as soon as the worker pool runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: (name, unit) printed by an untraced run, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "ratio"),
)

#: (name, unit) printed by a traced run, in order.
PER_LAYER = (
    ("simulation.busy_s", "s"),
    ("simulation.runs", "count"),
    ("simulation.runs_per_s", "1/s"),
    ("sampling.busy_s", "s"),
    ("sampling.cells", "count"),
    ("core.stitch_s", "s"),
    ("core.join_nnz", "count"),
    ("core.m2td_self_s", "s"),
    ("core.evaluate_s", "s"),
    ("tensor.svd_s", "s"),
    ("tensor.svd_calls", "count"),
    ("tensor.reconstruct_s", "s"),
    ("tensor.reconstructs", "count"),
    ("tensor.dense_unfolds", "count"),
    ("runtime.graphs", "count"),
    ("runtime.tasks", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.overhead_s", "s"),
    ("runtime.cache_io_s", "s"),
    ("campaigns.rounds", "count"),
    ("campaigns.cells_simulated", "count"),
    ("campaigns.self_s", "s"),
    ("storage.read_s", "s"),
    ("storage.write_s", "s"),
    ("storage.block_reads", "count"),
    ("storage.bytes_deserialized", "B"),
    ("storage.catalog_lookups", "count"),
    ("serving.point_batch_s", "s"),
    ("serving.points_per_batch", "count"),
    ("serving.topk_self_s", "s"),
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.factor_cache_hit_ratio", "ratio"),
    ("serving.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.point_p50_ms", "ms"),
    ("loadgen.point_p99_ms", "ms"),
    ("loadgen.slice_p50_ms", "ms"),
    ("loadgen.topk_p50_ms", "ms"),
    ("distributed.phase1_s", "s"),
    ("distributed.phase2_s", "s"),
    ("distributed.phase3_s", "s"),
    ("distributed.transport_s", "s"),
    ("distributed.bytes_sent_per_job", "B"),
    ("distributed.bytes_received_per_job", "B"),
    ("distributed.tasks_per_job", "count"),
    ("distributed.respawns", "count"),
    ("distributed.lease_expiries", "count"),
    ("calibration.kernel_p50_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_pct", "%"),
)


def environment() -> Dict[str, object]:
    """What the figures depend on, recorded with every run."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 — older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (a benchmark checkout may not be a repository at all)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "not-a-repository"


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest ended child's (the
    worker pool is shut down and reaped before this is read)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_reps(workload, seconds: float, minimum: int) -> tuple:
    reps = []
    started = time.perf_counter()
    while len(reps) < minimum or time.perf_counter() - started < seconds:
        reps.append(workload.repetition())
    return reps, time.perf_counter() - started


def timed_setup(workload, tracer=None) -> tuple:
    """One set-up: (seconds, counter deltas).  With a tracer, the
    set-up runs traced and its counters are collected.  The previous
    set-up's catalog or worker pool is released first, untimed."""
    from repro.observability import use_metrics

    workload.close()
    if tracer is None:
        t0 = time.perf_counter()
        workload.setup()
        return time.perf_counter() - t0, {}
    with use_metrics() as registry:
        before = registry.snapshot()
        tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        return time.perf_counter() - t0, registry.diff(before)


def layer_metrics(spans, delta: Dict, registry, reps,
                  traced_wall: float) -> Dict[str, float]:
    """Per-layer figures from one traced phase, per repetition."""
    from tracing import self_seconds_by_layer
    from workloads import counter

    n = float(len(reps))
    self_by_layer = self_seconds_by_layer(spans)
    count_by_name: Dict[str, int] = {}
    for span in spans:
        count_by_name[span.name] = count_by_name.get(span.name, 0) + 1

    def self_s(layer: str) -> float:
        return self_by_layer.get(layer, 0.0) / n

    def per_rep(name: str) -> float:
        return counter(delta, name) / n

    def ratio(hit: str, miss: str) -> float:
        hits, misses = counter(delta, hit), counter(delta, miss)
        return hits / (hits + misses) if hits + misses else 0.0

    runtime_overhead = sum(
        span.seconds - (span.summary or 0.0)
        for span in spans if span.name == "Runtime.run"
    )
    queue_wait = registry.histogram("serving.queue_wait_seconds")
    point_batches = count_by_name.get("FactorEngine.point_batch", 0)
    metrics = {
        "core.stitch_s": self_s("core.stitch"),
        "core.join_nnz": per_rep("stitch.join_nnz"),
        "core.m2td_self_s": self_s("core.m2td"),
        "core.evaluate_s": self_s("core.evaluate"),
        "tensor.svd_s": self_s("tensor.svd"),
        "tensor.svd_calls": per_rep("svd.calls"),
        "tensor.reconstruct_s": self_s("tensor.reconstruct"),
        "tensor.reconstructs": per_rep("tucker.reconstructs"),
        "tensor.dense_unfolds": per_rep("tensor.dense_unfolds"),
        "runtime.graphs": count_by_name.get("Runtime.run", 0) / n,
        "runtime.tasks": per_rep("runtime.tasks"),
        "runtime.cache_hit_ratio": ratio("runtime.cache_hits",
                                         "runtime.cache_misses"),
        "runtime.overhead_s": runtime_overhead / n,
        "runtime.cache_io_s": self_s("runtime.cache"),
        "campaigns.rounds": per_rep("campaign.rounds"),
        "campaigns.cells_simulated": per_rep("campaign.cells_simulated"),
        "campaigns.self_s": self_s("campaigns"),
        "storage.read_s": self_s("storage.read"),
        "storage.block_reads": per_rep("storage.block_reads"),
        "storage.bytes_deserialized": per_rep("storage.bytes_deserialized"),
        "storage.catalog_lookups": per_rep("storage.catalog_lookups"),
        "serving.point_batch_s": self_s("serving.point"),
        "serving.points_per_batch": (
            counter(delta, "serving.points_evaluated") / point_batches
            if point_batches else 0.0
        ),
        "serving.topk_self_s": self_s("serving.topk"),
        "serving.queue_wait_p50_ms": 1e3 * (queue_wait.percentile(50) or 0.0),
        "serving.factor_cache_hit_ratio": ratio(
            "serving.factor_cache.hits", "serving.factor_cache.misses"
        ),
        "serving.shed": per_rep("serving.shed"),
        "trace.wall_s": traced_wall / n,
        "trace.self_sum_s": sum(self_by_layer.values()) / n,
    }
    return metrics


def measure(args) -> Dict[str, object]:
    import workloads
    from workloads import calibrated

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.size, workdir
    )
    try:
        from tracing import LayerTracer

        setup_times, setup_kernels = [], []
        # A traced run traces one warm set-up, where ground truth is
        # simulated, samples drawn and tenants written.  Not the last: that one
        # spawns the worker pool the repetitions use, and a worker
        # forked while the wrappers are installed would keep them.
        setup_tracer = LayerTracer()
        setup_delta: Dict = {}
        for i in range(SETUPS):
            if args.trace and i == SETUPS - 2:
                seconds, setup_delta = timed_setup(workload, setup_tracer)
            else:
                seconds, _ = timed_setup(workload)
            setup_times.append(seconds)
            if workload.calibrated_setup:
                setup_kernels.append(workloads.calibrate(workload.blobs))
        print(f"# inputs {workload.inputs_digest()}", flush=True)
        print("# setups_s " + " ".join(f"{t:.4f}" for t in setup_times),
              flush=True)
        if setup_kernels:
            print("# setup_kernels_s "
                  + " ".join(f"{t:.4f}" for t in setup_kernels), flush=True)
        checks = (0, 0)
        if args.trace:
            metrics, reps, checks = traced(workload, args.seconds,
                                           setup_tracer, setup_delta)
        else:
            reps, _wall = run_reps(workload, args.seconds, minimum=2)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "accuracy": workload.accuracy(),
                **workload.timings(reps),
            }
            if setup_kernels:
                metrics["raw_setup_s"] = metrics["setup_s"]
                metrics["setup_s"] = calibrated(
                    t / k for t, k in zip(setup_times, setup_kernels)
                )
        attempted = checks[0] + sum(rep.attempted for rep in reps)
        failed = checks[1] + sum(rep.failed for rep in reps)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    names = PER_LAYER if args.trace else END_TO_END
    # Figures behind the metrics: raw medians of calibrated times.
    for name in sorted(set(metrics) - {name for name, _unit in names}):
        print(f"# {name} {metrics[name]:.6g}", flush=True)
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in names
        },
    }


def traced(workload, seconds: float, setup_tracer, setup_delta: Dict):
    """Half the time traced, then the same work untraced."""
    from repro.observability import use_metrics
    from tracing import LayerTracer, self_seconds_by_layer
    from workloads import counter

    tracer = LayerTracer()
    with use_metrics() as registry:
        before = registry.snapshot()
        tracer.install()
        try:
            traced_reps, traced_wall = run_reps(workload, seconds / 2, 1)
        finally:
            tracer.uninstall()
        delta = registry.diff(before)
        metrics = layer_metrics(
            tracer.recorder.spans, delta, registry, traced_reps, traced_wall,
        )
    removed = tracer.verify_removed() and setup_tracer.verify_removed()
    # Ground truth is simulated, samples drawn and tenants written
    # only in set-up.
    in_setup = self_seconds_by_layer(setup_tracer.recorder.spans)
    sim_busy = in_setup.get("simulation", 0.0)
    sim_runs = counter(setup_delta, "simulate.runs")
    metrics["simulation.busy_s"] = sim_busy
    metrics["simulation.runs"] = sim_runs
    metrics["simulation.runs_per_s"] = sim_runs / sim_busy if sim_busy else 0.0
    metrics["sampling.busy_s"] = in_setup.get("sampling", 0.0)
    metrics["sampling.cells"] = counter(setup_delta, "sample.cells")
    metrics["storage.write_s"] = in_setup.get("storage.write", 0.0)
    plain_reps, _ = run_reps(workload, seconds / 2, 1)
    traced_median = statistics.median(r.work_s for r in traced_reps)
    plain_median = statistics.median(r.work_s for r in plain_reps)
    metrics["trace.overhead_pct"] = 100.0 * (traced_median / plain_median - 1)
    metrics.update(workload.extra_metrics(traced_reps, plain_reps, delta))
    # Run-level checks: every wrapper gone before the untraced half,
    # and self times adding up to no more than the traced wall time.
    checks = (2, int(not removed)
              + int(metrics["trace.self_sum_s"] > metrics["trace.wall_s"]))
    return metrics, traced_reps + plain_reps, checks


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads

    results: Dict[str, Dict[str, object]] = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--size", args.size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stderr)
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            if proc.returncode != 0 or not result["correct"]:
                status = 1
            results.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"] = result
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:36s} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
    print(json.dumps({"environment": environment(), "results": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' is the self-test's reduced size")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or 'all'")
    print(f"# env {json.dumps(environment())}", flush=True)
    result = measure(args)
    for name, entry in result["metrics"].items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
