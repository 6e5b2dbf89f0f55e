"""The benchmark's three workloads: ``sweep``, ``stream`` and ``runs``.

Every workload is a closed loop on one process: an op starts when the
previous one (and its output check) has finished.  Every op takes its
inputs from its own seed (:func:`op_seed`), so no timed op is
served from a solver memo (``solve_umr`` and ``solve_multi_installment``
are ``lru_cache``d), a compiled-plan cache or the runner's cell-seed memo
that an earlier op filled; warm-up ops use fixed seeds far outside the
timed sequence.  Inputs are generated outside the timed region.

A workload groups its ops into *batches*: one op for ``sweep`` and
``stream``, one pass over the 28 configurations for ``runs``, so that a
run always measures whole cycles of the configuration mix.  See
``perfbench/README.md`` for the parameters, why each workload was
chosen, and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import math
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
import typing

import numpy as np

from repro.core.registry import make_scheduler
from repro.errors.models import NormalErrorModel, make_error_model
from repro.experiments.cache import cached_sweep
from repro.experiments.config import PAPER_ALGORITHMS, paper_grid
from repro.experiments.hetero import heterogeneous_platform_family
from repro.experiments.queueing import queueing_metrics
from repro.experiments.resilient import FailureLedger
from repro.experiments.runner import _cell_seeds
from repro.obs import SweepStats
from repro.platform.spec import homogeneous_platform
from repro.sim.multijob import simulate_stream
from repro.sim.result import simulate, validate_schedule
from repro.workloads.arrivals import make_arrival_process

__all__ = ["WORKLOADS", "Op"]

#: Op ``i`` of a run seeded ``s`` takes seed ``s * OP_SEED_STRIDE + i``:
#: runs with neighbouring seeds share no op, so their results are
#: independent samples of the workload.
OP_SEED_STRIDE = 2**20
#: Warm-up ops draw their seeds from here on, whatever the run's seed, so
#: set-up does the same work in every run; no timed op gets near them.
WARMUP_SEED = 2**62


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` of a run seeded ``seed``."""
    return seed * OP_SEED_STRIDE + index


#: The program's process-wide memos, as (module, attribute).  Fresh seeds
#: keep timed ops from hitting each other's entries; a traced run, which
#: repeats each op, empties them before every run (see ``run.py``).
MEMOS = (
    ("repro.core.umr", "solve_umr"),
    ("repro.core.multi_installment", "solve_multi_installment"),
    ("repro.experiments.config", "_build_platform"),
    ("repro.experiments.runner", "_cell_seeds_cached"),
    ("repro.experiments.runner", "_grid_topology"),
    ("repro.sim.batch", "_COMPILE_CACHE"),
    ("repro.sim.batch", "_FACTOR_STREAMS"),
)


def clear_memos() -> None:
    """Empty every memo in :data:`MEMOS` that the program still has."""
    for module, attr in MEMOS:
        memo = getattr(sys.modules.get(module), attr, None)
        if memo is not None:
            (memo.cache_clear if hasattr(memo, "cache_clear") else memo.clear)()


class Op(typing.NamedTuple):
    """One correct timed op."""

    seconds: dict[str, float]  # timed section -> wall seconds
    work: float  # simulations, jobs or calls completed
    counters: dict[str, float]  # per-layer counters taken from the outputs
    peak_mb: float  # the process's peak RSS during the op
    batch: int  # the batch the op belongs to


class Workload:
    """Base: a named op generator with an output check per op."""

    name = ""
    #: Set-up repetitions; ``setup_s`` reports their median.
    setup_reps = 3
    #: Ops per batch.
    batch_ops = 1

    def __init__(self, work_dir: pathlib.Path) -> None:
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Build the inputs shared by every op (part of set-up)."""

    def execute(self, seed: int, index: int, tracer=None) -> tuple[dict, typing.Any]:
        """Run op ``index`` from ``seed``: (timed sections, outputs).

        ``tracer`` is the installed :class:`~tracing.LayerTracer` of a
        traced op, else ``None``.
        """
        raise NotImplementedError

    def check(self, outputs) -> tuple[float, list[str], dict[str, float]]:
        """Check one op's outputs, untimed: (work done, errors, counters)."""
        raise NotImplementedError

    def named_metrics(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """This workload's own view of its ops (name -> (value, unit)).

        Printed beside the end-to-end metrics, which every workload
        reports under the same names.
        """
        raise NotImplementedError


# -- sweep ---------------------------------------------------------------------

class SweepWorkload(Workload):
    """Cold paper-grid sweeps, fault-free and crashy, plus warm reloads."""

    name = "sweep"
    setup_reps = 2  # a warm-up op costs about five seconds
    errors = (0.0, 0.1, 0.2, 0.3, 0.4)
    repetitions = 20
    platform_sample = 16
    crash = "crash:p=0.5,tmax=100"
    #: (platform index, repetition) cells re-run on the scalar engine at
    #: error 0 for every algorithm; ``-1`` is the grid's last platform.
    check_cells = ((0, 0), (0, 7), (-1, 3), (-1, 19))

    def grids(self, seed: int):
        clean = paper_grid().restrict(
            errors=self.errors,
            repetitions=self.repetitions,
            platform_sample=self.platform_sample,
            seed=seed,
        )
        return clean, clean.restrict(fault=self.crash)

    def execute(self, seed, index, tracer=None):
        grids = self.grids(seed)
        root = pathlib.Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        stats = SweepStats() if tracer is not None else None
        ledger = FailureLedger()
        sampled = []  # fault-plane busy ns before and after each cold grid

        def sweep(grid, directory):
            return cached_sweep(
                grid, PAPER_ALGORITHMS, root / directory, n_jobs=1,
                stats=stats, failures=ledger,
            )

        try:
            if tracer is not None:
                sampled.append(tracer.busy_ns["errors.faults.sample_batch"])
            stamps = [time.perf_counter()]
            cold = []
            for grid, directory in zip(grids, ("clean", "crash")):
                cold.append(sweep(grid, directory))
                stamps.append(time.perf_counter())
                if tracer is not None:
                    sampled.append(tracer.busy_ns["errors.faults.sample_batch"])
            warm = [sweep(grid, directory) for grid, directory in zip(grids, ("clean", "crash"))]
            stamps.append(time.perf_counter())
        finally:
            shutil.rmtree(root, ignore_errors=True)
        seconds = {
            "clean": stamps[1] - stamps[0],
            "crash": stamps[2] - stamps[1],
            "reload": stamps[3] - stamps[2],
        }
        return seconds, (cold, warm, ledger, stats, sampled)

    def check(self, outputs):
        cold, warm, ledger, stats, sampled = outputs
        errors = []
        for label, cold_result, warm_result in zip(("clean", "crash"), cold, warm):
            errors += self._check_grid(label, cold_result, warm_result)
        if len(ledger):
            errors.append(f"{len(ledger)} cell(s) quarantined")
        counters = {}
        if stats is not None:
            counters = {
                "errors.faults.sample_batch.clean_grid_ms": (sampled[1] - sampled[0]) / 1e6,
                "errors.faults.sample_batch.crash_grid_ms": (sampled[2] - sampled[1]) / 1e6,
                "sim.dynbatch.dynamic_cells.rows_deferred_scalar": stats.rows_deferred_scalar,
                "experiments.resilient.retries": stats.retries,
                "experiments.resilient.engine_fallbacks": stats.engine_fallbacks,
                "experiments.resilient.cells_quarantined": stats.cells_quarantined,
                "experiments.cache.hits": stats.cache_hits,
                "experiments.cache.misses": stats.cache_misses,
            }
        sims = sum(result.grid.num_simulations(len(result.algorithms)) for result in cold)
        return sims, errors, counters

    def _check_grid(self, label, cold, warm) -> list[str]:
        errors = []
        grid = cold.grid
        for algo in cold.algorithms:
            values = cold.makespans[algo]
            if not (np.all(np.isfinite(values)) and np.all(values > 0)):
                errors.append(f"{label}/{algo}: non-finite or non-positive makespan")
            if values.tobytes() != warm.makespans[algo].tobytes():
                errors.append(f"{label}/{algo}: warm reload differs from the cold sweep")
        e_idx = grid.errors.index(0.0)
        fault = grid.fault if grid.has_faults else None
        for p_idx, rep in self.check_cells:
            p_idx %= len(cold.platforms)
            platform = cold.platforms[p_idx].build()
            seed = _cell_seeds(grid, p_idx, e_idx)[rep]
            for algo in cold.algorithms:
                scalar = simulate(
                    platform, grid.total_work, make_scheduler(algo, 0.0),
                    make_error_model(grid.error_kind, 0.0), seed=seed, faults=fault,
                ).makespan
                batched = cold.makespans[algo][p_idx, e_idx, rep]
                if scalar != batched:
                    errors.append(
                        f"{label}/{algo}: platform {p_idx} rep {rep} batched "
                        f"{batched!r} != scalar {scalar!r} at error 0"
                    )
        return errors

    def named_metrics(self, ops):
        return {
            f"{grid}_sims_per_s": (
                statistics.median(op.work / 2 / op.seconds[grid] for op in ops), "1/s"
            )
            for grid in ("clean", "crash")
        }


# -- stream --------------------------------------------------------------------

class StreamWorkload(Workload):
    """One faulty interleaved RUMR job stream, then its queueing metrics."""

    name = "stream"
    arrivals = "poisson:rate=0.01,jobs=200,work=1000,work_cv=0.5"
    options = dict(
        scheduler="RUMR",
        error=0.3,
        policy="interleaved:slices=4",
        faults="crash:p=0.25,tmax=20000",
        failure_policy="resubmit",
        engine="fast",
    )

    def prepare(self):
        self.platform = homogeneous_platform(
            32, S=1, bandwidth_factor=1.8, cLat=0.2, nLat=0.1
        )
        self.process = make_arrival_process(self.arrivals)

    def execute(self, seed, index, tracer=None):
        jobs = self.process.generate(seed)
        t0 = time.perf_counter()
        result = simulate_stream(self.platform, jobs, seed=seed, **self.options)
        queueing_metrics(result)
        t1 = time.perf_counter()
        return {"op": t1 - t0}, (jobs, result)

    def check(self, outputs):
        jobs, result = outputs
        errors = []
        if len(result.jobs) != len(jobs):
            errors.append(f"{len(result.jobs)} job records for {len(jobs)} arrivals")
        finished = 0
        for rec in result.jobs:
            job = rec.job
            if not math.isclose(
                rec.delivered_work + rec.work_lost, rec.dispatched_work,
                rel_tol=1e-9, abs_tol=1e-9,
            ):
                errors.append(f"job {job.job_id}: delivered + lost != dispatched")
            if rec.failed or rec.delivered_work + 1e-9 * max(1.0, job.work) >= job.work:
                finished += 1
            else:
                errors.append(f"job {job.job_id}: neither done nor failed")
        grants = sum(len(rec.results) for rec in result.jobs)
        dispatched = result.dispatched_work
        counters = {
            "sim.multijob.grants": grants,
            "sim.multijob.grants_per_job": grants / max(1, len(result.jobs)),
            "sim.multijob.jobs_failed": result.jobs_failed,
            "sim.multijob.jobs_resubmitted": result.jobs_resubmitted,
            "sim.multijob.workers_excluded": len(result.workers_excluded),
            "sim.multijob.goodput_ratio": (
                result.delivered_work / dispatched if dispatched > 0 else 0.0
            ),
        }
        return finished, errors, counters

    def named_metrics(self, ops):
        return {
            "jobs_per_s": (statistics.median(op.work / op.seconds["op"] for op in ops), "1/s"),
        }


# -- runs ----------------------------------------------------------------------

def _run_configs() -> tuple[tuple[str, str, str], ...]:
    fast = ("star", "chain:relay=sf", "tree:fanout=4")
    des = fast + ("sharedbw:cap=30",)
    return tuple(
        (algo, engine, topology)
        for algo in ("RUMR", "Factoring", "UMR", "MI-2")
        for engine, topologies in (("fast", fast), ("des", des))
        for topology in topologies
    )


class RunsWorkload(Workload):
    """Single ``simulate()`` calls over schedulers, engines and topologies."""

    name = "runs"
    setup_reps = 5
    configs = _run_configs()
    batch_ops = len(configs)
    error = 0.3
    total_work = 1000.0

    def execute(self, seed, index, tracer=None):
        config = self.configs[index % len(self.configs)]
        algo, engine, topology = config
        platform = heterogeneous_platform_family(32, 1.0, seed=seed)
        scheduler = make_scheduler(algo, self.error)
        model = NormalErrorModel(self.error)
        t0 = time.perf_counter()
        result = simulate(
            platform, self.total_work, scheduler, model, seed=seed,
            engine=engine, topology=topology,
        )
        t1 = time.perf_counter()
        return {"op": t1 - t0}, (config, result)

    def check(self, outputs):
        (algo, engine, topology), result = outputs
        errors = []
        try:
            validate_schedule(result)
        except AssertionError as exc:
            errors.append(f"{algo}/{engine}/{topology}: {exc}")
        if not (math.isfinite(result.makespan) and result.makespan > 0):
            errors.append(f"{algo}/{engine}/{topology}: makespan {result.makespan!r}")
        return 1, errors, {}

    def named_metrics(self, ops):
        latencies = [op.seconds["op"] * 1e3 for op in ops]
        p99 = (
            statistics.quantiles(latencies, n=100, method="inclusive")[98]
            if len(latencies) > 1 else latencies[0]
        )
        return {
            "runs_per_s": (len(ops) / sum(op.seconds["op"] for op in ops), "1/s"),
            "run_ms_p50": (statistics.median(latencies), "ms"),
            "run_ms_p99": (p99, "ms"),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepWorkload, StreamWorkload, RunsWorkload)
}
