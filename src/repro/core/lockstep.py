"""Lockstep kernels: dynamic scheduling decisions as row-wise array ops.

The scalar engine asks a :class:`~repro.core.base.DispatchSource` one
decision at a time.  A *lockstep kernel* answers the same question for R
independent runs at once: given the master-observable state of every row
(pending chunk counts and pending work per worker, as observed at each
row's own clock), fill per-row ``action``/``worker``/``size`` arrays.
Rows proceed through their *own* trajectories — different rows may be in
different rounds, batches, or phases — the kernel merely evaluates all of
their next decisions in one pass of NumPy arithmetic.

This is possible because the batchable dynamic schedulers (Factoring,
WeightedFactoring, FSC, RUMR, AdaptiveRUMR) decide from pure arithmetic
over master state: no data-dependent control flow survives except
per-row branches, which become masks.  The contract mirrors the scalar
sources bit-for-bit: the same tie-breaks (fewest pending chunks, then
least pending work, then lowest index), the same batch/size formulas
evaluated with the same operation order and associativity, so a lockstep
row reproduces the scalar engine's trajectory exactly when fed the same
perturbation factors.

Kernels are built from :class:`KernelSpec` objects (one per simulated
cell) by :meth:`KernelSpec.make_kernel`, and the scalar sources from the
same specs by :meth:`KernelSpec.make_source`; specs with equal ``group_key``
may be merged into one kernel spanning many cells, padded to a common
worker count.  Padded worker slots must be made unselectable by the
*caller*: the engine reports a huge pending-chunk count for them, which
excludes them from every starved-worker argmin and idle test.

Fault-aware decisions travel through a :class:`KernelStepContext`: the
engine hands each merged group the crash state it would observe through
the scalar :class:`~repro.core.base.MasterView` (which workers' crash
times have passed each row's clock) plus the losses and completions that
became observable since the previous decision, in the scalar view's
``(time, chunk_index)`` order.  A spec advertises crash literacy with
:attr:`KernelSpec.handles_crashes`; rows whose sampled fault schedule
contains a crash and whose kernel does *not* handle crashes are routed
back to the scalar engine by ``repro.sim.dynbatch`` rather than risking
a divergent recovery trajectory.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.base import DispatchSource

__all__ = [
    "DISPATCH",
    "WAIT_FOR_COMPLETION",
    "DONE",
    "PAD_PENDING",
    "KernelSpec",
    "KernelStepContext",
    "LockstepKernel",
    "expand_rows",
    "starved_argmin",
]

#: Per-row action codes written into the engine's ``action`` array.
DISPATCH = 0
WAIT_FOR_COMPLETION = 1
DONE = 2

#: Pending-chunk count reported for padded (nonexistent) worker slots.
#: Large enough that a pad can never win a fewest-pending tie or look
#: idle, small enough to stay exact in int64 arithmetic.
PAD_PENDING = 1 << 40


def expand_rows(values, reps, dtype=None) -> np.ndarray:
    """Repeat one per-spec value per repetition row (``np.repeat`` sugar)."""
    return np.repeat(np.asarray(values, dtype=dtype), reps, axis=0)


def starved_argmin(counts: np.ndarray, works: np.ndarray) -> np.ndarray:
    """Row-wise ``min((pending_chunks(i), pending_work(i), i))`` worker.

    Vectorizes the scalar sources' lexicographic candidate rule: fewest
    pending chunks first, least pending work among those, lowest index as
    the final tie-break (``argmin`` of the masked work row returns the
    first index attaining the minimum).
    """
    cmin = counts.min(axis=1, keepdims=True)
    masked = np.where(counts == cmin, works, np.inf)
    return masked.argmin(axis=1)


@dataclasses.dataclass(slots=True)
class KernelStepContext:
    """Observable fault/completion state for one decision step.

    Built by the lockstep engine for a merged kernel group whenever any
    of its rows carries a fault schedule or its kernel asked for
    completion notes.  All row indices are local to the group slice.

    ``crashed`` is the (R, n_max) boolean mask of workers whose crash
    time lies at or before the row's current clock — exactly the scalar
    view's ``crashed_workers()``.  ``losses`` lists newly observed lost
    chunks as ``(row, size)`` and ``notes`` newly observed completions
    as ``(row, time, worker, size)``; both are sorted by the scalar
    observation order ``(time, chunk_index)`` within each row, and each
    event is delivered exactly once across the run (cursor semantics,
    mirroring ``observed_losses`` / ``observed_completions``).
    """

    crashed: "np.ndarray | None" = None
    #: (R,) boolean — rows carrying any sampled fault schedule (the scalar
    #: view's ``faults_possible``); such rows drain their pending set
    #: before finishing because outstanding chunks may still be lost.
    fault_rows: "np.ndarray | None" = None
    losses: "list[tuple[int, float]]" = dataclasses.field(default_factory=list)
    notes: "list[tuple[int, float, int, float]]" = dataclasses.field(
        default_factory=list
    )


class KernelSpec:
    """One cell's decision-rule configuration, mergeable by ``group_key``.

    Produced by :meth:`repro.core.base.Scheduler.batch_kernel`.  Specs
    whose ``group_key`` match describe the same decision-rule *family*
    (identical code path, different parameters) and may be handed
    together to :meth:`make_kernel`, which expands them into per-row
    state — ``reps[i]`` consecutive rows per spec — padded to ``n_max``
    workers.
    """

    #: Hashable family identifier; equal keys merge into one kernel.
    group_key: tuple = ()
    #: Real worker count of this spec's platform.
    n: int = 0
    #: Whether the kernel reproduces the scalar source's crash-recovery
    #: trajectory.  Specs that leave this False have crash-bearing rows
    #: routed to the scalar engine by ``repro.sim.dynbatch``; non-crash
    #: faults (pause / slowdown / link spike) only shift observation
    #: times and need no kernel support at all.
    handles_crashes: bool = False
    #: Whether the kernel consumes completion notes
    #: (:attr:`KernelStepContext.notes`) even on fault-free rows —
    #: AdaptiveRUMR's online error estimator needs them.
    wants_notes: bool = False

    def make_kernel(
        self, specs: "list[KernelSpec]", reps: "list[int]", n_max: int
    ) -> "LockstepKernel":
        raise NotImplementedError

    def make_source(self) -> "DispatchSource":
        """The scalar source of this one cell — the reference trajectory.

        :meth:`repro.core.base.Scheduler.create_source` returns this, so
        the scalar engines and the lockstep kernel read one binding.
        """
        raise NotImplementedError

    def deferred_rows(self, crash_time: np.ndarray) -> "np.ndarray | None":
        """Rows the kernel cannot replay bitwise, given realized crashes.

        ``crash_time`` is this cell's ``(reps, n)`` slice of the fault
        plane (``inf`` = never).  The returned boolean mask selects rows
        the engine must hand to the scalar reference engine instead; the
        default defers every crash-bearing row when the spec lacks crash
        support and nothing otherwise.  Specs whose kernel covers *some*
        crash patterns override this to shrink the deferral to the
        genuinely inexpressible rows (see ``RUMRKernelSpec``).
        """
        if self.handles_crashes:
            return None
        return np.isfinite(crash_time).any(axis=1)


class LockstepKernel:
    """Per-row decision state for one merged group of cells."""

    def decide(
        self,
        counts: np.ndarray,
        works: np.ndarray,
        action: np.ndarray,
        worker: np.ndarray,
        size: np.ndarray,
        mask: "np.ndarray | None" = None,
        ctx: "KernelStepContext | None" = None,
    ) -> None:
        """Write each row's next decision into the output arrays.

        ``counts``/``works`` are (R, n_max) observed pending chunks and
        pending work; ``action``/``worker``/``size`` are (R,) outputs.
        With ``mask`` (boolean (R,)), only masked rows are decided and
        mutated — used by composite kernels (RUMR's phase-2 tail) to
        delegate a row subset; rows outside the mask are left untouched.
        ``ctx`` carries crash masks and newly observed losses /
        completions when the engine simulates fault cells (or the spec
        set :attr:`KernelSpec.wants_notes`); fault-oblivious kernels may
        ignore it.  Rows whose workload is exhausted write :data:`DONE`
        and must keep doing so on every later call (finished rows stay
        frozen).
        """
        raise NotImplementedError

    def compact(self, keep: np.ndarray) -> None:
        """Drop every row not in ``keep`` (sorted local row indices).

        The lockstep engine periodically compacts finished rows out of
        its state so late iterations stop paying for them; kernels must
        re-index all per-row state the same way.  Kernels that do not
        implement this simply opt their groups out of compaction.
        """
        raise NotImplementedError
