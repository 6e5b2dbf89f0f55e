"""Unit tests for the topology abstraction: grammar, bind, effective view."""

import math

import pytest

from repro.platform import (
    ChainTopology,
    PlatformSpec,
    SharedBandwidthTopology,
    StarTopology,
    TopologyError,
    TreeTopology,
    WorkerSpec,
    homogeneous_platform,
    make_topology,
)

pytestmark = pytest.mark.topology


class TestGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("star", StarTopology()),
        ("", StarTopology()),
        ("star:n=20", StarTopology(n=20)),
        ("chain:n=8,relay=sf", ChainTopology(n=8, relay="sf")),
        ("chain:relay=ct", ChainTopology(relay="ct")),
        ("chain:n=4", ChainTopology(n=4, relay="sf")),
        ("tree:fanout=4", TreeTopology(fanout=4)),
        ("tree:fanout=3,n=9", TreeTopology(fanout=3, n=9)),
        ("sharedbw:cap=30", SharedBandwidthTopology(cap=30.0)),
        ("sharedbw:cap=2.5,n=5", SharedBandwidthTopology(cap=2.5, n=5)),
    ])
    def test_parses(self, spec, expected):
        assert make_topology(spec) == expected

    def test_none_is_star(self):
        assert make_topology(None) == StarTopology()

    def test_instance_passthrough(self):
        t = ChainTopology(relay="ct")
        assert make_topology(t) is t

    def test_whitespace_and_case_tolerated(self):
        assert make_topology(" Chain : n = 4 , relay = sf ") == ChainTopology(n=4)

    @pytest.mark.parametrize("bad,match", [
        ("ring:n=4", "unknown topology kind"),
        ("chain:hops=3", "unknown chain parameter"),
        ("chain:relay=warp", "relay must be"),
        ("chain:n=zero", "not an integer"),
        ("tree", "requires fanout"),
        ("tree:fanout=0", "fanout must be >= 1"),
        ("sharedbw", "requires cap"),
        ("sharedbw:cap=-1", "cap must be finite"),
        ("sharedbw:cap=inf", "cap must be finite"),
        ("chain:n=4,n=5", "duplicate parameter"),
        ("chain:relay", "malformed parameter"),
        ("chain:n=4,,relay=sf", "empty parameter item"),
        ("sharedbw:cap=nan", "cap must be finite"),
        ("tree:fanout=inf", "'fanout=inf' is not an integer"),
    ])
    def test_rejects(self, bad, match):
        with pytest.raises(TopologyError, match=match):
            make_topology(bad)

    def test_non_string_non_topology_rejected(self):
        with pytest.raises(TopologyError, match="spec string"):
            make_topology(42)


class TestBindStar:
    def test_paths_mirror_worker_links(self):
        p = homogeneous_platform(3, bandwidth_factor=2.0, nLat=0.1)
        bound = StarTopology().bind(p)
        assert bound.kind == "star"
        assert bound.num_relay_links == 0
        assert all(not path.hops and not path.has_tail for path in bound.paths)
        assert [path.occ_B for path in bound.paths] == [w.B for w in p.workers]

    def test_effective_platform_is_same_object(self):
        p = homogeneous_platform(3, bandwidth_factor=1.5)
        assert StarTopology().effective_platform(p) is p

    def test_n_mismatch_raises(self):
        with pytest.raises(TopologyError, match="N=3"):
            StarTopology(n=5).bind(homogeneous_platform(3, bandwidth_factor=1.5))


class TestBindChain:
    def _hetero(self):
        return PlatformSpec([
            WorkerSpec(S=1.0, B=10.0, nLat=0.1),
            WorkerSpec(S=1.0, B=20.0, nLat=0.2),
            WorkerSpec(S=1.0, B=40.0, nLat=0.4),
        ])

    def test_sf_hops_use_predecessor_links(self):
        bound = ChainTopology(relay="sf").bind(self._hetero())
        assert bound.num_relay_links == 2
        assert bound.paths[0].hops == ()
        assert [h.resource for h in bound.paths[2].hops] == [0, 1]
        assert [h.B for h in bound.paths[2].hops] == [20.0, 40.0]
        # Hop occupancy matches what the star would charge on that link.
        assert bound.paths[2].hops[0].hop_time(10.0) == 0.2 + 10.0 / 20.0

    def test_ct_has_tail_not_hops(self):
        bound = ChainTopology(relay="ct").bind(self._hetero())
        assert bound.num_relay_links == 0
        assert bound.paths[0].hops == () and not bound.paths[0].has_tail
        deep = bound.paths[2]
        assert deep.hops == () and deep.has_tail
        assert deep.tail_lat == pytest.approx(0.6)
        # Bottleneck is B=10 (the first link): the pipe adds nothing per
        # unit beyond what the first link already charged.
        assert math.isinf(deep.tail_B)

    def test_sf_effective_bandwidth_is_harmonic(self):
        eff = ChainTopology(relay="sf").effective_platform(self._hetero())
        assert eff[0] is self._hetero()[0] or eff[0].B == 10.0
        assert eff[2].B == pytest.approx(1.0 / (1 / 10 + 1 / 20 + 1 / 40))
        assert eff[2].tLat == pytest.approx(0.2 + 0.4)
        assert eff[2].nLat == 0.1  # the master pays the first link's nLat

    def test_ct_effective_bandwidth_is_bottleneck(self):
        eff = ChainTopology(relay="ct").effective_platform(self._hetero())
        assert eff[2].B == 10.0

    def test_first_worker_keeps_original_object(self):
        p = self._hetero()
        for relay in ("sf", "ct"):
            assert ChainTopology(relay=relay).effective_platform(p)[0] is p[0]


class TestBindTree:
    def test_grouping_is_contiguous_balanced(self):
        t = TreeTopology(fanout=2)
        assert t.groups(5) == ((0, 1, 2), (3, 4))
        assert t.groups(4) == ((0, 1), (2, 3))
        assert TreeTopology(fanout=3).groups(7) == ((0, 1, 2), (3, 4), (5, 6))

    def test_fanout_exceeding_n_degenerates(self):
        p = homogeneous_platform(3, bandwidth_factor=1.5)
        t = TreeTopology(fanout=8)
        assert t.groups(3) == ((0,), (1,), (2,))
        bound = t.bind(p)
        assert all(path.hops == () for path in bound.paths)
        assert all(t.effective_platform(p)[i] is p[i] for i in range(3))

    def test_children_route_through_root(self):
        p = homogeneous_platform(5, bandwidth_factor=2.0, nLat=0.1)
        bound = TreeTopology(fanout=2).bind(p)
        assert bound.num_relay_links == 2
        assert bound.paths[0].hops == () and bound.paths[3].hops == ()
        assert [h.resource for h in bound.paths[1].hops] == [0]
        assert [h.resource for h in bound.paths[4].hops] == [1]

    def test_roots_keep_original_objects(self):
        p = homogeneous_platform(5, bandwidth_factor=1.5)
        eff = TreeTopology(fanout=2).effective_platform(p)
        assert eff[0] is p[0] and eff[3] is p[3]
        assert eff[1] is not p[1]


class TestBindSharedBw:
    def test_cap_recorded(self):
        p = homogeneous_platform(4, bandwidth_factor=2.0)
        bound = SharedBandwidthTopology(cap=3.0).bind(p)
        assert bound.cap == 3.0
        assert bound.num_relay_links == 0

    def test_effective_view_is_equal_share(self):
        p = homogeneous_platform(4, bandwidth_factor=2.0)  # B = 8 each
        eff = SharedBandwidthTopology(cap=4.0).effective_platform(p)
        assert all(w.B == 1.0 for w in eff.workers)  # cap/N = 1 < 8
        wide = SharedBandwidthTopology(cap=100.0).effective_platform(p)
        assert all(w.B == 8.0 for w in wide.workers)  # own link binds


class TestLinkPathTraverse:
    def test_serializes_on_shared_resource(self):
        from repro.platform import LinkPath, RelayHop

        path = LinkPath(0.0, 10.0, hops=(RelayHop(resource=0, nLat=0.5, B=10.0),))
        busy = [0.0]
        first = path.traverse(10.0, send_end=1.0, relay_busy=busy)
        assert first == 1.0 + 0.5 + 1.0
        # Second chunk released earlier still queues behind the first.
        second = path.traverse(10.0, send_end=2.0, relay_busy=busy)
        assert second == first + 0.5 + 1.0

    def test_hop_ends_collects_link_events(self):
        from repro.platform import LinkPath, RelayHop

        path = LinkPath(
            0.0, 10.0,
            hops=(RelayHop(0, 0.1, 10.0), RelayHop(1, 0.1, 10.0)),
        )
        ends: list = []
        end = path.traverse(5.0, send_end=0.0, relay_busy=[0.0, 0.0], hop_ends=ends)
        assert [r for r, _ in ends] == [0, 1]
        assert ends[-1][1] == end
