"""Tests for the machine model: specs, topology, network/fs."""

import pytest

from repro.machine import (
    POLARIS,
    JUWELS_BOOSTER,
    CollectiveModel,
    DragonflyPlusTopology,
    FilesystemModel,
    NetworkModel,
    PcieModel,
)
from repro.machine.specs import FS_SYNC_LATENCY_S, PCIE_LATENCY_S


class TestSpecs:
    def test_polaris_shape(self):
        assert POLARIS.num_nodes == 560
        assert POLARIS.node.gpus_per_node == 4
        assert POLARIS.total_ranks == 2240

    def test_juwels_shape(self):
        assert JUWELS_BOOSTER.num_nodes == 936
        assert JUWELS_BOOSTER.node.nics_per_node == 4

    def test_nodes_for_ranks(self):
        assert POLARIS.nodes_for_ranks(280) == 70
        assert POLARIS.nodes_for_ranks(1120) == 280
        assert POLARIS.nodes_for_ranks(1) == 1
        assert POLARIS.nodes_for_ranks(5) == 2

    def test_nodes_for_ranks_overflow(self):
        with pytest.raises(ValueError):
            POLARIS.nodes_for_ranks(POLARIS.total_ranks + 1)

    def test_nodes_for_ranks_invalid(self):
        with pytest.raises(ValueError):
            POLARIS.nodes_for_ranks(0)


class TestTopology:
    def test_same_node_zero_hops(self):
        topo = DragonflyPlusTopology(POLARIS)
        assert topo.switch_hops(5, 5) == 0

    def test_same_switch_one_hop(self):
        topo = DragonflyPlusTopology(POLARIS)
        assert topo.switch_hops(0, 1) == 1

    def test_same_cell_three_hops(self):
        topo = DragonflyPlusTopology(POLARIS)
        # nodes on different switches of cell 0
        other = POLARIS.nodes_per_switch  # first node of switch 1
        assert topo.switch_hops(0, other) == 3

    def test_cross_cell_four_hops(self):
        topo = DragonflyPlusTopology(POLARIS)
        per_cell = POLARIS.nodes_per_switch * POLARIS.switches_per_group
        assert topo.switch_hops(0, per_cell) == 4

    def test_symmetric(self):
        topo = DragonflyPlusTopology(POLARIS)
        assert topo.switch_hops(3, 400) == topo.switch_hops(400, 3)

    def test_out_of_range(self):
        topo = DragonflyPlusTopology(POLARIS)
        with pytest.raises(ValueError):
            topo.locate(POLARIS.num_nodes)

    def test_mean_hops_bounded(self):
        topo = DragonflyPlusTopology(POLARIS)
        m = topo.mean_hops(70)
        assert 0 < m <= 4

    def test_mean_hops_single_node(self):
        topo = DragonflyPlusTopology(POLARIS)
        assert topo.mean_hops(1) == 0.0

    @pytest.mark.parametrize("spec", [POLARIS, JUWELS_BOOSTER], ids=lambda s: s.name)
    def test_closed_form_is_the_switch_graphs_shortest_path(self, spec):
        """Every pair of leaf switches (two nodes on each, so same-node
        and same-switch pairs occur too) against the leaf/spine graph
        the module docstring describes, built with networkx."""
        nx = pytest.importorskip("networkx")
        topo = DragonflyPlusTopology(spec)
        switches = range(spec.switches_per_group)
        graph = nx.Graph()
        for cell in range(topo.num_cells):
            graph.add_edges_from(
                (("leaf", cell, leaf), ("spine", cell, spine))
                for leaf in switches for spine in switches
            )
        for a in range(topo.num_cells):
            for b in range(a + 1, topo.num_cells):
                graph.add_edges_from(
                    (("spine", a, s), ("spine", b, s)) for s in switches
                )
        dist = dict(nx.all_pairs_shortest_path_length(graph))
        nodes = [n for n in range(spec.num_nodes) if topo.locate(n).port < 2]
        leaf = {n: ("leaf", topo.locate(n).cell, topo.locate(n).switch) for n in nodes}
        assert len(nodes) == 2 * len({leaf[n] for n in nodes})
        for a in nodes:
            for b in nodes:
                if a == b:
                    expected = 0
                elif leaf[a] == leaf[b]:
                    expected = 1
                else:
                    expected = dist[leaf[a]][leaf[b]] + 1
                assert topo.switch_hops(a, b) == expected, (a, b)


class TestNetworkModel:
    def test_latency_grows_with_hops(self):
        net = NetworkModel(POLARIS)
        assert net.latency(4) > net.latency(1) > net.latency(0) == 0.0

    def test_p2p_bandwidth_term(self):
        net = NetworkModel(POLARIS)
        small = net.p2p_time(1_000, 3)
        large = net.p2p_time(1_000_000_000, 3)
        assert large > small
        # 1 GB at per-rank bandwidth should take ~0.1 s, not microseconds
        assert large > 0.01

    def test_p2p_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            NetworkModel(POLARIS).p2p_time(-1, 2)

    def test_stream_shares_node_bandwidth(self):
        net = NetworkModel(POLARIS)
        one = net.stream_time(10**9, 1, 3)
        four = net.stream_time(10**9, 4, 3)
        assert four > one


class TestCollectiveModel:
    def _coll(self):
        return CollectiveModel(NetworkModel(POLARIS))

    def test_single_rank_free(self):
        c = self._coll()
        assert c.allreduce_time(8, 1) == 0.0

    def test_allreduce_grows_logarithmically(self):
        c = self._coll()
        t64 = c.allreduce_time(8, 64)
        t1024 = c.allreduce_time(8, 1024)
        assert t1024 > t64
        # small-message allreduce is latency-bound: ratio ~ log ratio
        assert t1024 / t64 < 4

    def test_allreduce_bandwidth_term(self):
        c = self._coll()
        assert c.allreduce_time(10**8, 64) > 10 * c.allreduce_time(8, 64)


class TestPcieModel:
    def test_zero_bytes_free(self):
        assert PcieModel(POLARIS.node.gpu).transfer_time(0) == 0.0

    def test_bandwidth(self):
        p = PcieModel(POLARIS.node.gpu)
        # 20 GB at 20 GB/s ~ 1 s
        assert p.transfer_time(20 * 10**9) == pytest.approx(1.0, rel=0.01)

    def test_latency_floor(self):
        p = PcieModel(POLARIS.node.gpu)
        assert p.transfer_time(1) >= PCIE_LATENCY_S

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            PcieModel(POLARIS.node.gpu).transfer_time(-5)


class TestFilesystemModel:
    def test_aggregate_cap(self):
        fs = FilesystemModel(POLARIS.fs)
        assert fs.effective_write_gbs(10_000) == POLARIS.fs.aggregate_write_gbs

    def test_per_node_cap(self):
        fs = FilesystemModel(POLARIS.fs)
        assert fs.effective_write_gbs(1) == POLARIS.fs.per_node_write_gbs

    def test_write_time_includes_sync(self):
        fs = FilesystemModel(POLARIS.fs)
        assert fs.write_time(0, 1) >= FS_SYNC_LATENCY_S

    def test_more_data_takes_longer(self):
        fs = FilesystemModel(POLARIS.fs)
        assert fs.write_time(10**12, 70) > fs.write_time(10**9, 70)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            FilesystemModel(POLARIS.fs).write_time(100, 0)
