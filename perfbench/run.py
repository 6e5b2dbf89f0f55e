"""The repository benchmark: one workload per process, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|stream|runs --seed N \\
        --seconds S --trace 0|1

The run sets up (imports, builds the shared inputs and runs one untimed
warm-up batch at fixed seeds outside the timed sequence; repeated, and
the median reported in ``setup_s``), then runs batches of ops from
``--seed`` on for ``--seconds`` seconds of wall time, checking every
op's outputs outside its timed region.  It prints every metric by name
with its unit and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; throughput and set-up time are rescaled to a
reference machine by a calibration kernel timed around them (see
:func:`_calibrate`).  With ``--trace 1`` every op runs twice on the same
inputs, once plain and once with timing wrappers around each layer's
entry points (see ``tracing.py``); the metrics are the per-layer ones,
averaged per traced op, plus ``trace_overhead``: the geometric mean over
ops of traced over plain op time.

Load stays on one core: one process, ``n_jobs=1``, and the numeric
libraries are pinned to one thread before NumPy is imported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Sweep caches and other scratch files, removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"
#: Timed batches a run makes at least.
MIN_BATCHES = 2
#: Failed-check messages printed per run.
MAX_REPORTED_ERRORS = 10
#: Iterations of the calibration kernel, and the kernel duration that
#: defines the reference machine: roughly its median on a shared 2-vCPU
#: x86-64 VM at 2.1 GHz under CPython 3.11.
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.015


def _layer_metrics(tracer, ops, traced_ops: int, overhead: float) -> dict:
    """Per-layer metrics averaged over the ``traced_ops`` traced ops.

    ``ops`` are the correct ones, which carry the output counters.
    """
    n = max(1, traced_ops)

    def calls(layer):
        return tracer.calls[layer] / n, "count/op"

    def busy(layer):
        return tracer.busy_ns[layer] / 1e6 / n, "ms/op"

    def self_ms(layer):
        return tracer.self_ns[layer] / 1e6 / n, "ms/op"

    def rows(layer):
        return tracer.rows[layer] / n, "count/op"

    def hit_ratio(layer):
        hits = tracer.memo_hits.get(layer, 0)
        total = hits + tracer.memo_misses.get(layer, 0)
        return (hits / total if total else 0.0), "ratio"

    def counter(name, unit):
        values = [op.counters.get(name, 0.0) for op in ops]
        return (sum(values) / len(values) if values else 0.0), unit

    umr, mi = "core.umr.solve", "core.multi_installment.solve"
    static, dynamic = "sim.batch.static_cells", "sim.dynbatch.dynamic_cells"
    sample = "errors.faults.sample_batch"
    return {
        f"{umr}.calls": calls(umr),
        f"{umr}.busy_ms": busy(umr),
        f"{umr}.cache_hit_ratio": hit_ratio(umr),
        f"{mi}.calls": calls(mi),
        f"{mi}.busy_ms": busy(mi),
        f"{mi}.cache_hit_ratio": hit_ratio(mi),
        "core.source.creates": calls("core.source.create"),
        "core.source.create_ms": busy("core.source.create"),
        "core.source.dispatches": calls("core.source.dispatch"),
        "core.source.dispatch_ms": busy("core.source.dispatch"),
        "sim.fastsim.calls": calls("sim.fastsim"),
        "sim.fastsim.busy_ms": busy("sim.fastsim"),
        "sim.fastsim.self_ms": self_ms("sim.fastsim"),
        "sim.engine.calls": calls("sim.engine"),
        "sim.engine.busy_ms": busy("sim.engine"),
        "sim.engine.self_ms": self_ms("sim.engine"),
        "platform.topology.bind.calls": calls("platform.topology.bind"),
        "platform.topology.bind.busy_ms": busy("platform.topology.bind"),
        f"{static}.calls": calls(static),
        f"{static}.rows": rows(static),
        f"{static}.busy_ms": busy(static),
        f"{dynamic}.calls": calls(dynamic),
        f"{dynamic}.rows": rows(dynamic),
        f"{dynamic}.busy_ms": busy(dynamic),
        f"{dynamic}.rows_deferred_scalar": counter(f"{dynamic}.rows_deferred_scalar", "count/op"),
        f"{sample}.calls": calls(sample),
        f"{sample}.busy_ms": busy(sample),
        f"{sample}.clean_grid_ms": counter(f"{sample}.clean_grid_ms", "ms/op"),
        f"{sample}.crash_grid_ms": counter(f"{sample}.crash_grid_ms", "ms/op"),
        "errors.faults.stream.realize_ms": busy("errors.faults.stream.realize"),
        "errors.faults.stream.project_ms": busy("errors.faults.stream.project"),
        "experiments.runner.self_ms": self_ms("experiments.runner"),
        "experiments.resilient.checkpoint_saves": calls("experiments.resilient.checkpoint"),
        "experiments.resilient.checkpoint_ms": busy("experiments.resilient.checkpoint"),
        "experiments.resilient.retries": counter("experiments.resilient.retries", "count/op"),
        "experiments.resilient.engine_fallbacks": counter(
            "experiments.resilient.engine_fallbacks", "count/op"
        ),
        "experiments.resilient.cells_quarantined": counter(
            "experiments.resilient.cells_quarantined", "count/op"
        ),
        "experiments.cache.save_ms": busy("experiments.cache.save"),
        "experiments.cache.load_ms": busy("experiments.cache.load"),
        "experiments.cache.hits": counter("experiments.cache.hits", "count/op"),
        "experiments.cache.misses": counter("experiments.cache.misses", "count/op"),
        "sim.multijob.busy_ms": busy("sim.multijob"),
        "sim.multijob.self_ms": self_ms("sim.multijob"),
        "sim.multijob.grants": counter("sim.multijob.grants", "count/op"),
        "sim.multijob.grants_per_job": counter("sim.multijob.grants_per_job", "ratio"),
        "sim.multijob.jobs_failed": counter("sim.multijob.jobs_failed", "count/op"),
        "sim.multijob.jobs_resubmitted": counter("sim.multijob.jobs_resubmitted", "count/op"),
        "sim.multijob.workers_excluded": counter("sim.multijob.workers_excluded", "count/op"),
        "sim.multijob.goodput_ratio": counter("sim.multijob.goodput_ratio", "ratio"),
        "experiments.queueing.metrics_ms": busy("experiments.queueing.metrics"),
        "trace_overhead": (overhead, "ratio"),
    }


def _calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes on this machine right now.

    A shared virtual machine runs the same interpreter work up to a third
    slower or faster from one ten-second stretch to the next.  Timings
    are rescaled by the kernel's duration measured around them, so that
    they read as on the reference machine (``CALIBRATION_REF_S``).  The
    kernel is the benchmark's own code, so no change to the program
    moves it.
    """
    t0 = time.perf_counter()
    table = {}
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
        table[i % 97] = x
    return time.perf_counter() - t0


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS count, so the next op has its own.

    Linux only; elsewhere the peak read after an op spans the run so far.
    """
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _end_to_end(ops, calibrations: dict[int, float], setup_s: float) -> dict:
    """The end-to-end metrics every workload reports, over correct ops.

    ``throughput`` is the median over batches of the workload's unit of
    work (simulations, jobs or ``simulate()`` calls) per second of timed
    op time, each batch rescaled to the reference machine by the
    calibration taken around it; ``peak_rss_mb`` is the median over ops
    of the process's peak RSS during the op.  Medians, because a few
    seeds make ops several times slower or larger than the rest.
    """
    batches: dict[int, list] = {}
    for op in ops:
        batches.setdefault(op.batch, []).append(op)
    rates = [
        sum(op.work for op in group) / sum(sum(op.seconds.values()) for op in group)
        * calibrations[batch] / CALIBRATION_REF_S
        for batch, group in batches.items()
    ]
    return {
        "throughput": (statistics.median(rates), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(op.peak_mb for op in ops), "MB"),
    }


def _traced_pair(workload, tracer, clear_memos, seed: int, index: int):
    """Run op ``index`` untraced and traced: (seconds, outputs, overhead).

    Both runs start from emptied memos, so the second is no warmer than
    the first and the traced run sees the memo hits a first run sees;
    the order alternates with ``index`` so that what stays warm (the
    batch arena, the allocator) favours neither side over a run.  The
    seconds and outputs are the traced run's; ``overhead`` is its timed
    seconds over the untraced run's.
    """
    runs = {}
    for traced in (False, True) if index % 2 == 0 else (True, False):
        clear_memos()
        if traced:
            tracer.install()
        try:
            runs[traced] = workload.execute(seed, index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
    seconds, outputs = runs[True]
    return seconds, outputs, sum(seconds.values()) / sum(runs[False][0].values())


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"available: {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - _T0

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return _run(args, workloads, tracing, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(args, workloads, tracing, import_s, run_dir) -> int:
    workload = workloads.WORKLOADS[args.workload](run_dir)

    # -- set-up: shared inputs + one warm-up batch, several times ----------
    setups, calibrations = [], []
    for rep in range(workload.setup_reps):
        calibrations.append(_calibrate())
        t0 = time.perf_counter()
        workload.prepare()
        for j in range(workload.batch_ops):
            workload.execute(workloads.WARMUP_SEED + rep * workload.batch_ops + j, j)
        setups.append(time.perf_counter() - t0)
        calibrations.append(_calibrate())
    setup_raw_s = import_s + statistics.median(setups)
    setup_s = setup_raw_s * CALIBRATION_REF_S / statistics.median(calibrations)

    # -- timed batches -------------------------------------------------------
    tracer = (
        tracing.LayerTracer(tracing.entry_points(), modules=(workloads,))
        if args.trace else None
    )
    ops = []
    batch_calibrations: dict[int, float] = {}
    log_overheads = []
    attempted = failed = 0
    errors_seen: list[str] = []
    index = batch = 0
    loop_t0 = time.perf_counter()
    while batch < MIN_BATCHES or time.perf_counter() - loop_t0 < args.seconds:
        before = _calibrate()
        for _ in range(workload.batch_ops):
            attempted += 1
            seed = workloads.op_seed(args.seed, index)
            _reset_peak_rss()
            try:
                if tracer is None:
                    seconds, outputs = workload.execute(seed, index)
                else:
                    seconds, outputs, overhead = _traced_pair(
                        workload, tracer, workloads.clear_memos, seed, index
                    )
                    log_overheads.append(math.log(overhead))
                peak_mb = _peak_rss_mb()
                work, errors, counters = workload.check(outputs)
            except Exception:  # noqa: BLE001 — an op failure is counted, not fatal
                work, errors, counters = 0, [traceback.format_exc()], {}
            index += 1
            if errors:
                failed += 1
                errors_seen += errors
            else:
                ops.append(workloads.Op(seconds, work, counters, peak_mb, batch))
        batch_calibrations[batch] = (before + _calibrate()) / 2
        batch += 1

    for message in errors_seen[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {message}", file=sys.stderr)
    if not ops:
        print("error: no op completed correctly", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = _end_to_end(ops, batch_calibrations, setup_s)
        speed = CALIBRATION_REF_S / statistics.median(batch_calibrations.values())
        shown = dict(
            metrics,
            setup_raw_s=(setup_raw_s, "s"),
            machine_speed=(speed, "ratio"),
            **workload.named_metrics(ops),
            failed_frac=(failed / attempted, "ratio"),
        )
    else:
        overhead = math.exp(statistics.fmean(log_overheads))
        metrics = _layer_metrics(tracer, ops, attempted, overhead)
        shown = metrics
    print(f"workload {args.workload}: {attempted} ops in {batch} batches, {failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
