"""Tests for the UMR solver: recurrence, optimality machinery, plan shape."""

import math

import pytest

from repro.core.umr import (
    MAX_ROUNDS,
    UMR,
    UMRPlan,
    solve_umr,
    solve_umr_lagrange,
    solve_umr_search,
    umr_predicted_makespan,
)
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim.analytic import analytic_makespan

W = 1000.0


def table1_platform(n=20, factor=1.8, cLat=0.3, nLat=0.1):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=factor, cLat=cLat, nLat=nLat)


class TestRecurrence:
    def test_chunks_sum_to_workload(self):
        plan = solve_umr(table1_platform(), W)
        assert plan.total_work == pytest.approx(W, rel=1e-9)

    def test_chunks_increase_between_rounds(self):
        plan = solve_umr(table1_platform(), W)
        per_round = [row[0] for row in plan.chunk_sizes]
        assert all(b >= a - 1e-9 for a, b in zip(per_round, per_round[1:]))

    def test_chunks_uniform_within_round_homogeneous(self):
        plan = solve_umr(table1_platform(), W)
        for row in plan.chunk_sizes[:-1]:  # last round absorbs the residual
            assert max(row) - min(row) < 1e-12

    def test_recurrence_holds_between_rounds(self):
        # chunk_{j+1} = theta*chunk_j + gamma with theta = B/(N*S) and
        # gamma = B*cLat/N - B*nLat (paper Section 3.2 induction).
        p = table1_platform(n=10, factor=1.5, cLat=0.4, nLat=0.2)
        plan = solve_umr(p, W)
        w = p[0]
        theta = w.B / (p.N * w.S)
        gamma = w.B * w.cLat / p.N - w.B * w.nLat
        chunks = [row[0] for row in plan.chunk_sizes]
        for a, b in zip(chunks[:-2], chunks[1:-1]):  # skip residual-bearing last
            assert b == pytest.approx(theta * a + gamma, rel=1e-9, abs=1e-9)

    def test_theta_matches_definition(self):
        p = table1_platform(n=25, factor=1.4)
        plan = solve_umr(p, W)
        assert plan.theta == pytest.approx(1.4)

    def test_no_idle_condition(self):
        # N*(nLat + chunk_{j+1}/B) == cLat + chunk_j/S for interior rounds.
        p = table1_platform(n=15, factor=1.6, cLat=0.5, nLat=0.3)
        plan = solve_umr(p, W)
        w = p[0]
        chunks = [row[0] for row in plan.chunk_sizes]
        for a, b in zip(chunks[:-2], chunks[1:-1]):
            dispatch = p.N * (w.nLat + b / w.B)
            compute = w.cLat + a / w.S
            assert dispatch == pytest.approx(compute, rel=1e-9)


class TestOptimality:
    def test_search_and_lagrange_agree_on_objective(self):
        for cl in (0.0, 0.2, 0.7, 1.0):
            for nl in (0.0, 0.2, 0.7, 1.0):
                p = table1_platform(cLat=cl, nLat=nl)
                f_search = solve_umr_search(p, W).predicted_makespan
                f_lagrange = solve_umr_lagrange(p, W).predicted_makespan
                assert f_lagrange == pytest.approx(f_search, rel=1e-6), (cl, nl)

    def test_search_finds_integer_minimum(self):
        # Exhaustive check: no other round count does better.
        p = table1_platform(n=10, factor=1.3, cLat=0.6, nLat=0.4)
        best = solve_umr_search(p, W)
        from repro.core.umr import _derive, _plan_from_t0, _t0_for_rounds

        d = _derive(p)
        for m in range(1, MAX_ROUNDS + 1):
            t0 = _t0_for_rounds(d, W, m)
            if t0 is None:
                continue
            plan = _plan_from_t0(p, d, t0, m, "search", W)
            if plan is None:
                continue
            assert best.predicted_makespan <= plan.predicted_makespan + 1e-6

    def test_single_round_when_workload_tiny(self):
        p = table1_platform(cLat=1.0, nLat=1.0)
        plan = solve_umr(p, 1.0)
        assert plan.num_rounds == 1

    def test_more_rounds_with_higher_latency_cost_tradeoff(self):
        # Zero latencies favour many rounds; very high cLat favours few.
        p_free = table1_platform(cLat=0.0, nLat=0.0)
        p_costly = table1_platform(cLat=1.0, nLat=1.0)
        assert solve_umr(p_free, W).num_rounds > solve_umr(p_costly, W).num_rounds

    def test_predicted_makespan_matches_closed_form(self):
        p = table1_platform()
        plan = solve_umr(p, W)
        assert plan.predicted_makespan == pytest.approx(
            umr_predicted_makespan(p, plan), rel=1e-9
        )

    def test_predicted_makespan_matches_simulated(self):
        # The no-idle construction means the analytic replay of the plan
        # achieves exactly the model objective.
        for cl, nl in [(0.1, 0.1), (0.3, 0.9), (0.0, 0.5), (1.0, 0.0)]:
            p = table1_platform(cLat=cl, nLat=nl)
            plan = solve_umr(p, W)
            simulated = analytic_makespan(p, plan.to_chunk_plan())
            assert simulated == pytest.approx(plan.predicted_makespan, rel=1e-9)

    def test_umr_beats_one_round_with_latencies(self):
        from repro.core.one_round import OneRound
        from repro.sim import simulate

        p = table1_platform(cLat=0.2, nLat=0.1)
        umr = simulate(p, W, UMR()).makespan
        one = simulate(p, W, OneRound()).makespan
        assert umr < one


class TestHeterogeneous:
    def test_chunks_scale_with_speed(self, hetero_platform):
        plan = solve_umr(hetero_platform, W)
        assert plan.total_work == pytest.approx(W, rel=1e-9)
        # Within a round, chunk_i = S_i * (T_j - cLat_i): faster workers get
        # proportionally more.
        row = plan.chunk_sizes[0]
        t0 = plan.round_times[0]
        for w, c in zip(hetero_platform, row):
            assert c == pytest.approx(w.S * (t0 - w.cLat), rel=1e-9, abs=1e-9)

    def test_round_compute_time_uniform_across_workers(self, hetero_platform):
        plan = solve_umr(hetero_platform, W)
        for t, row in list(zip(plan.round_times, plan.chunk_sizes))[:-1]:
            for w, c in zip(hetero_platform, row):
                assert w.cLat + c / w.S == pytest.approx(t, rel=1e-9)

    def test_reduces_to_homogeneous_solution(self):
        p = table1_platform(n=12, factor=1.5, cLat=0.3, nLat=0.2)
        plan = solve_umr(p, W)
        # The homogeneous recurrence expressed through round times:
        # T_j = cLat + chunk_j / S.
        w = p[0]
        for t, row in list(zip(plan.round_times, plan.chunk_sizes))[:-1]:
            assert t == pytest.approx(w.cLat + row[0] / w.S, rel=1e-9)


class TestEdgeCases:
    def test_zero_latency_corner(self):
        plan = solve_umr(table1_platform(cLat=0.0, nLat=0.0), W)
        assert plan.total_work == pytest.approx(W)
        assert plan.num_rounds >= 2

    def test_theta_below_one_degrades_to_single_round(self):
        # B < N*S: increasing chunks are impossible (full utilization is
        # violated).  UMR as published requires nondecreasing rounds, so
        # the solver falls back to a single round (the paper's "due to the
        # way in which UMR operates" behaviour at high latencies).
        p = homogeneous_platform(10, S=1.0, B=5.0, cLat=0.1, nLat=0.1)
        plan = solve_umr(p, W)
        assert plan.theta < 1.0
        assert plan.num_rounds == 1
        assert plan.total_work == pytest.approx(W)
        simulated = analytic_makespan(p, plan.to_chunk_plan())
        assert simulated == pytest.approx(plan.predicted_makespan, rel=1e-9)

    def test_allow_decreasing_recovers_better_schedules(self):
        # Lifting the UMR restriction admits decreasing-chunk no-idle
        # schedules, which are strictly better here (an upper baseline).
        p = homogeneous_platform(10, S=1.0, B=5.0, cLat=0.1, nLat=0.1)
        restricted = solve_umr(p, W)
        free = solve_umr(p, W, allow_decreasing=True)
        assert free.num_rounds > 1
        assert free.predicted_makespan < restricted.predicted_makespan
        chunks = [row[0] for row in free.chunk_sizes]
        assert all(b <= a + 1e-9 for a, b in zip(chunks, chunks[1:]))
        simulated = analytic_makespan(p, free.to_chunk_plan())
        assert simulated == pytest.approx(free.predicted_makespan, rel=1e-9)

    def test_high_nlat_uses_one_round(self):
        # The paper: "in high latency situations RUMR often uses only one
        # round in phase #1 (due to the way in which UMR operates)."
        p = table1_platform(cLat=0.3, nLat=0.9)
        assert solve_umr(p, W).num_rounds == 1

    def test_theta_exactly_one(self):
        p = homogeneous_platform(8, S=1.0, B=8.0, cLat=0.1, nLat=0.1)
        plan = solve_umr(p, W)
        assert plan.total_work == pytest.approx(W)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            solve_umr(table1_platform(), W, method="magic")

    def test_nonpositive_work_rejected(self):
        with pytest.raises(ValueError):
            solve_umr(table1_platform(), 0.0)

    def test_single_worker(self):
        p = homogeneous_platform(1, S=1.0, B=2.0, cLat=0.1, nLat=0.1)
        plan = solve_umr(p, W)
        assert plan.total_work == pytest.approx(W)

    @pytest.mark.parametrize("work", [1e-20, 1e-90, 1e-300])
    @pytest.mark.parametrize("method", ["search", "lagrange"])
    def test_single_worker_tiny_workload_is_one_exact_chunk(self, work, method):
        # S·(T_0 − cLat) cancels to zero at these workloads; the solver
        # must still return the always-feasible one-chunk plan.
        p = homogeneous_platform(1, S=1, bandwidth_factor=1.8, cLat=0.2, nLat=0.1)
        plan = solve_umr(p, work, method=method)
        assert plan.num_rounds == 1
        assert plan.chunk_sizes == ((work,),)
        assert plan.total_work == work

    def test_tiny_workload_drops_to_one_worker(self):
        p = table1_platform(n=5, cLat=0.2, nLat=0.1)
        plan = solve_umr(p, 1e-90)
        assert plan.total_work == 1e-90
        assert sum(1 for size in plan.chunk_sizes[0] if size > 0.0) == 1

    def test_scheduler_name(self):
        assert UMR().name == "UMR"

    def test_scheduler_rejects_bad_method(self):
        with pytest.raises(ValueError):
            UMR(method="nope")

    def test_plan_round_times_length(self):
        plan = solve_umr(table1_platform(), W)
        assert len(plan.round_times) == plan.num_rounds
        assert isinstance(plan, UMRPlan)

    def test_chunk_plan_round_major_order(self):
        p = table1_platform(n=3)
        plan = solve_umr(p, W).to_chunk_plan()
        rounds = [c.round_index for c in plan]
        assert rounds == sorted(rounds)
        workers_in_round0 = [c.worker for c in plan if c.round_index == 0]
        assert workers_in_round0 == [0, 1, 2]

    def test_prestaged_data_infinite_bandwidth(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=math.inf, cLat=0.1, nLat=0.05)] * 4)
        plan = solve_umr(p, W)
        assert plan.total_work == pytest.approx(W)

    def test_closed_form_rejects_heterogeneous(self, hetero_platform):
        plan = solve_umr(hetero_platform, W)
        with pytest.raises(ValueError, match="homogeneous"):
            umr_predicted_makespan(hetero_platform, plan)

    def test_solver_memoization_returns_same_object(self):
        p = table1_platform()
        assert solve_umr(p, W) is solve_umr(p, W)
        assert solve_umr(p, W) is not solve_umr(p, W + 1.0)

    def test_plan_chunk0_property(self):
        plan = solve_umr(table1_platform(), W)
        assert plan.chunk0 == plan.chunk_sizes[0][0]
