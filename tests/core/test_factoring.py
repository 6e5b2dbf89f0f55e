"""Tests for the Factoring self-scheduler."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.base import WAIT, MasterView
from repro.core.factoring import Factoring, FactoringSource
from repro.core.weighted_factoring import WeightedFactoringSource
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def platform(n=10):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.05)


class TestBatchRule:
    def test_first_batch_is_half_remaining(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(min_chunk=0.5))
        # First 4 chunks: W / (2*4) each.
        for r in result.records[:4]:
            assert r.size == pytest.approx(W / 8)

    def test_batches_halve(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(min_chunk=1e-9))
        sizes = [r.size for r in result.records]
        # Batch k chunk size = W * (1/2)^{k+1} / N.
        for k in range(3):
            batch = sizes[4 * k : 4 * (k + 1)]
            expected = W * 0.5 ** (k + 1) / 4
            for s in batch:
                assert s == pytest.approx(expected, rel=1e-9)

    def test_chunk_sizes_nonincreasing(self):
        result = simulate(platform(), W, Factoring())
        sizes = [r.size for r in result.records]
        assert all(b <= a + 1e-9 for a, b in zip(sizes, sizes[1:]))

    def test_min_chunk_floor_respected(self):
        result = simulate(platform(), W, Factoring(min_chunk=5.0))
        sizes = [r.size for r in result.records]
        # Every chunk except possibly the last (the residue) >= floor.
        assert all(s >= 5.0 - 1e-9 for s in sizes[:-1])

    def test_total_work_conserved(self):
        result = simulate(platform(), W, Factoring())
        assert result.dispatched_work == pytest.approx(W, rel=1e-9)
        validate_schedule(result)

    def test_custom_factor(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(factor=4.0, min_chunk=1e-9))
        assert result.records[0].size == pytest.approx(W / 16)

    def test_bad_factor_rejected(self):
        for factor in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="factor"):
                Factoring(factor=factor)

    def test_negative_min_chunk_rejected(self):
        for min_chunk in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="min_chunk"):
                Factoring(min_chunk=min_chunk)


class TestSelfScheduling:
    def test_initial_chunks_go_to_distinct_workers(self):
        p = platform(n=6)
        result = simulate(p, W, Factoring())
        first = [r.worker for r in result.records[:6]]
        assert sorted(first) == list(range(6))

    def test_workers_served_on_demand_under_error(self):
        # With strong errors the dispatch order adapts: every worker still
        # receives work and the schedule stays valid.
        p = platform(n=5)
        result = simulate(p, W, Factoring(), NormalErrorModel(0.4), seed=7)
        validate_schedule(result)
        assert {r.worker for r in result.records} == set(range(5))

    def test_deterministic_given_seed(self):
        p = platform()
        a = simulate(p, W, Factoring(), NormalErrorModel(0.3), seed=11)
        b = simulate(p, W, Factoring(), NormalErrorModel(0.3), seed=11)
        assert a.makespan == b.makespan
        assert [r.worker for r in a.records] == [r.worker for r in b.records]

    def test_robustness_beats_one_round_under_error(self):
        from repro.core.one_round import OneRound

        p = platform()
        err = NormalErrorModel(0.4)
        fact = sum(
            simulate(p, W, Factoring(), err, seed=s).makespan for s in range(10)
        )
        one = sum(simulate(p, W, OneRound(), err, seed=s).makespan for s in range(10))
        assert fact < one

    def test_remaining_property_decreases(self):
        src = FactoringSource(4, W, factor=2.0, min_chunk=1.0, phase="f")
        assert src.remaining == W

    def test_phase_label(self):
        result = simulate(platform(), W, Factoring())
        assert all(r.phase == "factoring" for r in result.records)


class _StubView(MasterView):
    """A view over canned per-worker pending chunk sizes."""

    def __init__(self, pending_sizes, crashed=()):
        self._pending = pending_sizes
        self._crashed = tuple(crashed)

    @property
    def now(self):
        return 0.0

    @property
    def num_workers(self):
        return len(self._pending)

    @property
    def faults_possible(self):
        return bool(self._crashed)

    def crashed_workers(self):
        return self._crashed

    def pending_chunks(self, worker):
        return len(self._pending[worker])

    def pending_work(self, worker):
        # The engines' prefix-difference form: exactly 0.0 when idle.
        prefix = [0.0]
        for size in self._pending[worker]:
            prefix.append(prefix[-1] + size)
        return prefix[-1] - prefix[0]


class TestStarvedWorkerPick:
    """The idle-worker pick equals the starved-first ``min`` rule."""

    @staticmethod
    def min_rule(view):
        crashed = set(view.crashed_workers())
        live = [i for i in range(view.num_workers) if i not in crashed]
        pending, _, worker = min(
            (view.pending_chunks(i), view.pending_work(i), i) for i in live
        )
        return WAIT if pending else worker

    @given(
        pending=st.lists(
            st.lists(st.sampled_from((1.0, 2.5, 7.0)), max_size=3),
            min_size=1,
            max_size=8,
        ),
        crashed=st.sets(st.integers(min_value=0, max_value=7)),
        weighted=st.booleans(),
    )
    def test_pick_matches_min_rule(self, pending, crashed, weighted):
        crashed = sorted(c for c in crashed if c < len(pending))
        assume(len(crashed) < len(pending))
        view = _StubView(pending, crashed)
        n = len(pending)
        if weighted:
            source = WeightedFactoringSource(
                (1.0 / n,) * n, W, factor=2.0, min_chunk=1.0, phase="wf"
            )
        else:
            source = FactoringSource(n, W, factor=2.0, min_chunk=1.0, phase="f")
        action = source.next_dispatch(view)
        expected = self.min_rule(view)
        if expected is WAIT:
            assert action is WAIT
        else:
            assert action.worker == expected

    def test_ties_go_to_lowest_index(self):
        # Workers 1 and 3 idle, 0 and 2 busy with equal loads: worker 1.
        view = _StubView([[2.5], [], [2.5], []])
        source = FactoringSource(4, W, factor=2.0, min_chunk=1.0, phase="f")
        assert self.min_rule(view) == 1
        assert source.next_dispatch(view).worker == 1
