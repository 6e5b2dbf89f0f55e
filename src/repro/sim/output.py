"""Master-worker simulation with output-data return transfers.

The paper's model (§3.1) transfers input only, citing Rosenberg [11] and
Altilar & Paker [12] for treatments of output data.  This module supplies
that missing substrate: after computing a chunk, the worker must ship
``output_ratio · chunk`` units of results back to the master over the
*same* serialized link, contending FIFO with the master's outgoing chunk
dispatches.  A return occupies the link for ``nLat_i + out/B_i`` and the
master holds the results ``tLat_i`` later; the makespan becomes the last
result arrival.

This is a deliberately separate engine built directly on the DES kernel
(:mod:`repro.des`) with a real :class:`~repro.des.Resource` for the link —
the fast engine's single-pass structure cannot express bidirectional link
contention.  Schedulers run unmodified: they still observe compute
completions (a worker announces completion when computation ends, before
queueing its return), so dispatch policies are identical and the effect
of output traffic is isolated.

The ablation benchmark uses this to ask a question the paper leaves open:
does RUMR's advantage survive when the link also carries results?
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.core.base import (
    WAIT,
    CompletionNote,
    DeadlockError,
    Dispatch,
    MasterView,
    Scheduler,
)
from repro.core.chunks import DispatchRecord
from repro.des import Environment, Resource, Store
from repro.errors.models import ErrorModel
from repro.errors.rng import spawn_rngs
from repro.platform.spec import PlatformSpec
from repro.sim.result import SimResult

__all__ = ["OutputSimResult", "ReturnRecord", "simulate_with_output"]


@dataclasses.dataclass(frozen=True, slots=True)
class ReturnRecord:
    """One result-return transfer over the shared link."""

    chunk_index: int
    worker: int
    output_size: float
    link_start: float
    link_end: float
    received: float


@dataclasses.dataclass(frozen=True)
class OutputSimResult:
    """Outcome of a run with output transfers.

    ``makespan`` is the last *result arrival*; ``compute_makespan`` is the
    last computation end (comparable with the input-only engines).
    """

    makespan: float
    compute_makespan: float
    records: tuple[DispatchRecord, ...]
    returns: tuple[ReturnRecord, ...]
    platform: PlatformSpec
    total_work: float
    scheduler_name: str
    output_ratio: float
    seed: int | None = None

    def to_sim_result(self) -> SimResult:
        """The input-side view, for reuse of SimResult tooling."""
        return SimResult(
            makespan=self.compute_makespan,
            records=self.records,
            platform=self.platform,
            total_work=self.total_work,
            scheduler_name=self.scheduler_name,
            seed=self.seed,
        )


class _View(MasterView):
    """Same observable semantics as the standard engines."""

    def __init__(self, env: Environment, n: int):
        self.env = env
        self._n = n
        self._sent = [0] * n
        self._done = [0] * n
        self._prefix: list[list[float]] = [[0.0] for _ in range(n)]
        self._notes: list = []

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def num_workers(self) -> int:
        return self._n

    def pending_chunks(self, worker: int) -> int:
        return self._sent[worker] - self._done[worker]

    def pending_work(self, worker: int) -> float:
        prefix = self._prefix[worker]
        return prefix[self._sent[worker]] - prefix[self._done[worker]]

    def observed_completions(self):
        return tuple(self._notes)


def simulate_with_output(
    platform: PlatformSpec,
    total_work: float,
    scheduler: Scheduler,
    error_model: ErrorModel,
    output_ratio: float,
    seed: int | None = None,
    ports: int = 1,
) -> OutputSimResult:
    """Simulate one run with result-return traffic (see module docstring).

    ``output_ratio = 0`` means no return transfers at all and reproduces
    the standard engines' makespans exactly (verified by tests).

    ``ports`` is the master's one-port relaxation — the paper's §3.1
    future-work question ("it could be beneficial to allow for
    simultaneous transfers"): with ``ports = k`` the master can drive up
    to ``k`` transfers (dispatches and returns combined) concurrently,
    each still at the per-worker rate ``B_i``.  The one-port default is
    the paper's model.  Note the UMR/RUMR *solvers* still assume one
    port, so multi-port runs measure how much their plans leave on the
    table — see the multiport benchmark.
    """
    if output_ratio < 0:
        raise ValueError(f"output_ratio must be >= 0, got {output_ratio}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    rng_comm, rng_comp = spawn_rngs(seed, 2)
    source = scheduler.create_source(platform, total_work)
    env = Environment()
    n = platform.N
    link = Resource(env, capacity=ports)
    inboxes = [Store(env) for _ in range(n)]
    completions = Store(env)
    view = _View(env, n)
    records: list[DispatchRecord] = []
    returns: list[ReturnRecord] = []
    outstanding = [0]
    open_returns = [0]
    done_event = env.event()

    def maybe_finish() -> None:
        if outstanding[0] == 0 and open_returns[0] == 0 and master_done[0]:
            if not done_event.triggered:
                done_event.succeed()

    master_done = [False]

    def worker_proc(index: int):
        spec = platform[index]
        while True:
            msg = yield inboxes[index].get()
            if msg is None:
                return
            chunk_index, size, comp_time = msg
            comp_start = env.now
            yield env.timeout(comp_time)
            comp_end = env.now
            rec = records[chunk_index]
            records[chunk_index] = rec._replace(comp_start=comp_start, comp_end=comp_end)
            completions.put((index, chunk_index, size, comp_end))
            if output_ratio > 0:
                open_returns[0] += 1
                env.process(return_proc(index, chunk_index, output_ratio * size))

    def return_proc(index: int, chunk_index: int, out_size: float):
        spec = platform[index]
        req = link.request()
        yield req
        start = env.now
        duration = spec.nLat + (0.0 if out_size == 0 else out_size / spec.B)
        if duration > 0:
            yield env.timeout(duration)
        link.release(req)
        end = env.now
        received = end + spec.tLat
        returns.append(
            ReturnRecord(
                chunk_index=chunk_index,
                worker=index,
                output_size=out_size,
                link_start=start,
                link_end=end,
                received=received,
            )
        )
        open_returns[0] -= 1
        maybe_finish()

    def delivery_proc(worker: int, payload, t_lat: float):
        if t_lat > 0:
            yield env.timeout(t_lat)
        chunk_index = payload[0]
        rec = records[chunk_index]
        records[chunk_index] = rec._replace(arrival=env.now)
        inboxes[worker].put(payload)

    def absorb(worker: int, idx: int, size: float, when: float) -> None:
        view._done[worker] += 1
        bisect.insort(
            view._notes,
            CompletionNote(time=when, chunk_index=idx, worker=worker, size=size),
        )
        outstanding[0] -= 1

    def drain() -> None:
        while len(completions) > 0:
            absorb(*completions.get().value)

    def sender_proc(req, worker: int, index: int, size: float, link_time: float, comp_time: float):
        """Occupy one port for a dispatch, then hand off to delivery."""
        yield env.timeout(link_time)
        link.release(req)
        send_end = env.now
        records[index] = records[index]._replace(send_end=send_end)
        env.process(delivery_proc(worker, (index, size, comp_time), platform[worker].tLat))

    def master_proc():
        while True:
            # Acquire a port *before* deciding, so the decision sees the
            # freshest observable state at the moment a send could start.
            req = link.request()
            yield req
            yield env.timeout(0)
            drain()
            action = source.next_dispatch(view)
            if action is None:
                link.release(req)
                break
            if action is WAIT:
                link.release(req)
                if outstanding[0] <= 0:
                    raise DeadlockError(
                        f"{scheduler.name}: WAIT with no outstanding chunk at t={env.now}"
                    )
                msg = yield completions.get()
                absorb(*msg)
                continue
            if not isinstance(action, Dispatch):
                raise TypeError(
                    f"{scheduler.name}: next_dispatch returned {action!r}; "
                    "expected Dispatch, WAIT or None"
                )
            if not 0 <= action.worker < n:
                raise ValueError(
                    f"{scheduler.name}: dispatch to worker {action.worker} "
                    f"outside the platform (N={n})"
                )
            spec = platform[action.worker]
            size = action.size
            link_time = error_model.perturb(spec.link_time(size), rng_comm)
            comp_time = error_model.perturb(spec.compute_time(size), rng_comp)
            error_model.advance()
            index = len(records)
            send_start = env.now
            records.append(
                DispatchRecord(
                    index=index,
                    worker=action.worker,
                    size=size,
                    send_start=send_start,
                    send_end=send_start,
                    arrival=send_start,
                    comp_start=send_start,
                    comp_end=send_start,
                    phase=action.phase,
                )
            )
            view._sent[action.worker] += 1
            view._prefix[action.worker].append(
                view._prefix[action.worker][-1] + size
            )
            outstanding[0] += 1
            env.process(
                sender_proc(req, action.worker, index, size, link_time, comp_time)
            )
        master_done[0] = True
        # Wait for every computation *and* every return to finish, then
        # stop the workers.
        while outstanding[0] > 0:
            msg = yield completions.get()
            absorb(*msg)
        maybe_finish()
        yield done_event
        for inbox in inboxes:
            inbox.put(None)

    worker_procs = [env.process(worker_proc(i)) for i in range(n)]
    env.process(master_proc())
    env.run()
    for proc in worker_procs:
        assert proc.processed, "worker process did not terminate"

    compute_makespan = max((r.comp_end for r in records), default=0.0)
    makespan = max(
        [compute_makespan] + [ret.received for ret in returns]
    )
    return OutputSimResult(
        makespan=makespan,
        compute_makespan=compute_makespan,
        records=tuple(records),
        returns=tuple(returns),
        platform=platform,
        total_work=total_work,
        scheduler_name=scheduler.name,
        output_ratio=output_ratio,
        seed=seed,
    )
