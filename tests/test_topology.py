import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg.observers import fit_decay
from coopreg.scenarios import FIG2_EDGE_SETS, fig2_topology
from coopreg.topology import (
    EDGE_TABLE_FACTOR,
    DimensionError,
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    _in_edge_table,
    consensus_step,
    find_connectivity_window,
    is_jointly_connected,
    leader_reachable,
    normalize_adjacency,
    transition_product,
    union_digraph,
)


def reachable_oracle(edges, node_count, start=0):
    """Independent reachability check: set expansion to a fixed point."""
    seen = {start}
    changed = True
    while changed:
        changed = False
        for j, i in edges:
            if j in seen and i not in seen:
                seen.add(i)
                changed = True
    return seen


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    flat = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=(n + 1) ** 2,
            max_size=(n + 1) ** 2,
        )
    )
    w = np.array(flat).reshape(n + 1, n + 1)
    np.fill_diagonal(w, 0.0)
    return w


@st.composite
def wide_weight_matrices(draw):
    """Weight matrices over 3-400 nodes, each row with 0 to all of its
    possible in-edges, whose weights span 5e-324 to 1e300."""
    n = draw(st.integers(min_value=3, max_value=400))
    density = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    low = draw(st.floats(min_value=-324.0, max_value=300.0))
    high = draw(st.floats(min_value=low, max_value=300.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weight = np.clip(10.0 ** rng.uniform(low, high, (n, n)), 5e-324, 1e300)
    w = np.where(rng.random((n, n)) < density, weight, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


class TestNormalizeAdjacency:
    def test_no_edges_gives_identity(self):
        g = WeightedDigraph(np.zeros((4, 4)))
        adj = normalize_adjacency(g)
        assert np.array_equal(adj.omega, np.eye(4))

    def test_single_leader_edge(self):
        g = WeightedDigraph.from_edges(2, [(0, 1)])
        adj = normalize_adjacency(g)
        assert np.allclose(adj.omega, [[1.0, 0.0], [0.5, 0.5]])
        assert np.allclose(adj.lambda_block, [[0.5]])

    def test_bundled_graphs_are_row_stochastic(self):
        for edges in FIG2_EDGE_SETS:
            adj = normalize_adjacency(WeightedDigraph.from_edges(5, edges))
            assert np.allclose(adj.omega.sum(axis=1), 1.0, atol=1e-12)

    @given(weight_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_stochastic_positive_diagonal(self, w):
        adj = normalize_adjacency(WeightedDigraph(w))
        assert np.allclose(adj.omega.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(adj.omega >= 0) and np.all(adj.omega <= 1)
        assert np.all(np.diag(adj.omega) > 0)
        # follower rows of the sub-block leave exactly the leader coupling out
        lam_sums = adj.lambda_block.sum(axis=1)
        assert np.allclose(lam_sums, 1.0 - adj.omega[1:, 0], atol=1e-12)
        assert np.all(lam_sums <= 1.0 + 1e-12)

    def test_lambda_block_is_a_read_only_view_of_omega(self):
        for edges in FIG2_EDGE_SETS:
            adj = normalize_adjacency(WeightedDigraph.from_edges(5, edges))
            lam = adj.lambda_block
            assert np.array_equal(lam, adj.omega[1:, 1:])
            assert np.shares_memory(lam, adj.omega)
            assert not lam.flags.writeable
            with pytest.raises(ValueError):
                lam[0, 0] = 0.0

    def test_topology_keeps_one_dense_array_per_mode(self):
        n = 512
        graphs, signal = sparse_trees(n)
        tracemalloc.start()
        try:
            topo = SwitchingTopology(graphs=graphs, signal=signal)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = (n + 1) ** 2 * np.dtype(float).itemsize
        # omega per mode, and nothing else of that size
        assert kept <= 1.1 * topo.n_modes * dense

    @pytest.mark.parametrize("shape", ["sparse", "complete"])
    def test_normalizing_holds_no_second_dense_array(self, shape):
        n = 512
        graphs, signal = sparse_trees(n)
        if shape == "complete":
            graphs = (complete_graph(n),) * 4
        tracemalloc.start()
        try:
            topo = SwitchingTopology(graphs=graphs, signal=signal)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a mode keeps its normalized edges, not a dense omega, and a dense
        # mode builds no edge table: the transients of a mode stay well
        # below one more (N+1) x (N+1) array
        dense = (n + 1) ** 2 * np.dtype(float).itemsize
        assert topo.n_modes == 4 and peak - kept <= 0.5 * dense

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            WeightedDigraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DimensionError):
            WeightedDigraph(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        w = np.zeros((3, 3))
        w[2, 1] = bad
        with pytest.raises(ValueError, match="edge weights must be finite"):
            WeightedDigraph(w)

    def test_rejects_weights_whose_sum_overflows(self):
        w = np.zeros((3, 3))
        w[2, :2] = 1e308
        with pytest.raises(ValueError, match="finite sum"):
            normalize_adjacency(WeightedDigraph(w))

    @given(wide_weight_matrices())
    @settings(max_examples=100, deadline=None)
    def test_omega_is_valid_by_construction(self, w):
        # normalize_adjacency is the only constructor of an adjacency, so
        # these bounds hold for every Omega the toolkit mixes with
        omega = normalize_adjacency(WeightedDigraph(w)).omega
        assert np.isfinite(omega).all()
        assert (omega >= 0).all() and (omega <= 1).all()
        diag = np.diag(omega)
        assert (diag > 0).all() and (diag <= 1).all()
        # each entry is one division by the rounded 1 + (row sum of k terms)
        in_edges = (w > 0).sum(axis=1)
        row_error = np.abs([math.fsum(row) - 1.0 for row in omega])
        assert (row_error <= (in_edges + 2) * np.finfo(float).eps).all()
        # a row whose in-edge weights sum past the float range is refused
        w[1, [0, 2]] = np.finfo(float).max
        with pytest.raises(ValueError) as info:
            normalize_adjacency(WeightedDigraph(w))
        assert str(info.value) == "the in-edge weights of a node must have a finite sum"


def sparse_trees(n: int, n_modes: int = 4, seed: int = 0):
    """``n_modes`` sparse spanning trees over ``n`` followers, in which
    follower i reads one random node in [0, i), cycled with dwell 2."""
    rng = np.random.default_rng(seed)
    graphs = tuple(
        WeightedDigraph.from_edges(n + 1, [(int(rng.integers(0, i)), i) for i in range(1, n + 1)])
        for _ in range(n_modes)
    )
    return graphs, SwitchingSignal.periodic([(m, 2) for m in range(1, n_modes + 1)])


def complete_graph(n: int) -> WeightedDigraph:
    return WeightedDigraph(np.ones((n + 1, n + 1)) - np.eye(n + 1))


def in_degree_graph(n: int, k: int) -> WeightedDigraph:
    """Follower i reads the k nodes before it (fewer near the leader)."""
    return WeightedDigraph.from_edges(
        n + 1, [(j, i) for i in range(1, n + 1) for j in range(max(0, i - k), i)], weight=0.7
    )


class TestEdgeTable:
    @pytest.mark.parametrize("graph, table", [
        (WeightedDigraph.from_edges(5, FIG2_EDGE_SETS[0]), False),  # formation size
        (complete_graph(512), False),
        (in_degree_graph(286, 9), False),  # 32 * 9 > 287 nodes
        (in_degree_graph(287, 9), True),   # 32 * 9 <= 288 nodes
        (sparse_trees(512)[0][0], True),
        (WeightedDigraph(np.zeros((256, 256))), True),  # no edges: an empty table
        (in_degree_graph(63, 2), False),   # 32 * 2 <= 64 nodes, but under the floor
        (in_degree_graph(254, 2), False),  # 255 nodes: under the floor
        (in_degree_graph(255, 2), True),   # 256 nodes: at the floor
        (WeightedDigraph(np.zeros((5, 5))), False),
    ])
    def test_form_follows_the_graph_shape(self, graph, table):
        assert EDGE_TABLE_FACTOR == 32
        adj = normalize_adjacency(graph)
        assert (adj._edges is not None) == table

    @pytest.mark.parametrize("graph", [sparse_trees(64)[0][1], in_degree_graph(80, 3),
                                       WeightedDigraph.from_edges(40, [(0, 3), (7, 3), (2, 9)])])
    def test_table_holds_omega_in_edges_bit_for_bit(self, graph):
        adj = normalize_adjacency(graph)
        om, n = adj.omega, graph.n_followers
        edges = _in_edge_table(adj)
        assert len(edges) == max(np.count_nonzero(om[i]) - 1 for i in range(1, n + 1))
        rebuilt = np.diag(np.diag(om))
        for src, weight in edges:
            assert src.shape == (n,) and weight.shape == (n, 1)
            pad = weight[:, 0] == 0
            assert np.array_equal(src[pad], np.arange(1, n + 1)[pad])
            rebuilt[np.arange(1, n + 1)[~pad], src[~pad]] += weight[~pad, 0]
        rebuilt[0] = om[0]
        assert rebuilt.tobytes() == om.tobytes()


def dense_reachable(w):
    """Leader reachability by BFS over a dense weight matrix: the reference."""
    seen = np.zeros(w.shape[0], dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        j = stack.pop()
        for i in np.flatnonzero(w[:, j] > 0):  # column j holds the successors of j
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return seen


def dense_connectivity(mats, schedule, window):
    """First (start, node) that no union window reaches, by dense matrices."""
    for t in range(len(schedule) - window):
        union = np.maximum.reduce([mats[m - 1] for m in set(schedule[t : t + window + 1])])
        seen = dense_reachable(union)
        if not seen.all():
            return t, int(np.flatnonzero(~seen)[0])
    return None


@st.composite
def edge_families(draw):
    """1-7 nodes and 1-3 modes of edge lists, repeats within and across modes
    allowed; a lone leader has no edge to draw."""
    nodes = draw(st.integers(min_value=1, max_value=7))
    pairs = st.just([])
    if nodes > 1:
        node = st.integers(min_value=0, max_value=nodes - 1)
        pairs = st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=14)
    return nodes, draw(st.lists(pairs, min_size=1, max_size=3))


class TestEdgeForm:
    @given(edge_families(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_graph_algorithms_match_a_dense_bfs(self, family, window):
        nodes, edge_lists = family
        graphs = [WeightedDigraph.from_edges(nodes, e, weight=1.5 + k)
                  for k, e in enumerate(edge_lists)]
        mats = []
        for k, edges in enumerate(edge_lists):
            w = np.zeros((nodes, nodes))
            for j, i in edges:
                w[i, j] = 1.5 + k
            mats.append(w)
            assert graphs[k].weights.tobytes() == w.tobytes()
            assert graphs[k].edges == sorted(set(edges))
            assert np.array_equal(leader_reachable(graphs[k]), dense_reachable(w))
        union = union_digraph(graphs)
        assert union.weights.tobytes() == np.maximum.reduce(mats).tobytes()
        assert np.array_equal(leader_reachable(union), dense_reachable(union.weights))
        signal = SwitchingSignal.periodic([(m, 1 + m % 2) for m in range(1, len(graphs) + 1)])
        topo = SwitchingTopology(graphs=tuple(graphs), signal=signal)
        res = is_jointly_connected(topo, window)
        schedule = topo.signal.modes(0, res.checked_up_to + 1).tolist()
        assert res.witness == dense_connectivity(mats, schedule, window)
        assert res.connected == (res.witness is None)

    @given(weight_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_weights_round_trip_bit_for_bit(self, w):
        assert WeightedDigraph(w).weights.tobytes() == w.tobytes()

    @given(weight_matrices())
    @settings(max_examples=60, deadline=None)
    def test_omega_under_8_nodes_is_the_dense_formula_bit_for_bit(self, w):
        row = w.sum(axis=1)
        dense = w / (1.0 + row)[:, None]
        np.fill_diagonal(dense, 1.0 / (1.0 + row))
        assert normalize_adjacency(WeightedDigraph(w)).omega.tobytes() == dense.tobytes()

    def test_omega_of_large_rows_is_the_dense_formula_to_rounding(self):
        rng = np.random.default_rng(7)
        w = np.where(rng.random((300, 300)) < 0.1, 10 ** rng.uniform(-3, 3, (300, 300)), 0.0)
        np.fill_diagonal(w, 0.0)
        row = w.sum(axis=1)
        dense = w / (1.0 + row)[:, None]
        np.fill_diagonal(dense, 1.0 / (1.0 + row))
        om = normalize_adjacency(WeightedDigraph(w)).omega
        assert np.abs(om - dense).max() <= 1e-15
        # a row of at most two in-edges sums in one rounding either way
        few = np.count_nonzero(w, axis=1) <= 2
        assert om[few].tobytes() == dense[few].tobytes()

    def test_a_sparse_topology_keeps_its_edges_only(self):
        tracemalloc.start()
        try:
            graphs, signal = sparse_trees(2048)
            topo = SwitchingTopology(graphs=graphs, signal=signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense (N+1) x (N+1) Omega would be 33.6 MB
        assert topo.n_modes == 4 and peak < 2e6
        assert all(topo.adjacency_of_mode(m)._edges is not None for m in range(1, 5))

    def test_dense_omega_is_built_once_on_demand(self):
        adj = normalize_adjacency(sparse_trees(300)[0][0])
        assert "omega" not in vars(adj)
        assert adj.omega is adj.omega and adj.lambda_block.base is adj.omega

    def test_from_edges_refuses_bad_edges(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) outside node range 0..2"):
            WeightedDigraph.from_edges(3, [(0, 1), (0, 3)])
        with pytest.raises(ValueError, match=r"self-loop \(1, 1\) not allowed"):
            WeightedDigraph.from_edges(3, [(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="finite"):
            WeightedDigraph.from_edges(3, [(0, 1)], weight=np.nan)
        with pytest.raises(DimensionError):
            WeightedDigraph.from_edges(0, [])
        assert WeightedDigraph.from_edges(3, [(0, 1)], weight=0.0).edges == []


class TestUnionDigraph:
    def test_idempotent(self):
        g = WeightedDigraph.from_edges(3, [(0, 1), (1, 2)])
        assert union_digraph([g, g]).edges == g.edges

    def test_disjoint_edge_sets(self):
        a = WeightedDigraph.from_edges(3, [(0, 1)])
        b = WeightedDigraph.from_edges(3, [(1, 2)])
        assert union_digraph([a, b]).edges == [(0, 1), (1, 2)]

    def test_takes_max_weight(self):
        a = WeightedDigraph.from_edges(3, [(0, 1)], weight=2.0)
        b = WeightedDigraph.from_edges(3, [(0, 1)], weight=3.0)
        assert union_digraph([a, b]).weights[1, 0] == 3.0

    def test_union_of_huge_weights_is_still_checked_for_connectivity(self):
        # each mode's row 2 sums to 1e308; the union's to inf, which only a
        # normalization would refuse
        graphs = []
        for j in (0, 1):
            w = np.zeros((3, 3))
            w[1, 0] = 1.0
            w[2, j] = 1e308
            graphs.append(WeightedDigraph(w))
        topo = SwitchingTopology(graphs=tuple(graphs),
                                 signal=SwitchingSignal.periodic([(1, 1), (2, 1)]))
        assert union_digraph(graphs).edges == [(0, 1), (0, 2), (1, 2)]
        assert is_jointly_connected(topo, 1).connected

    def test_bundled_union_reaches_all_followers(self):
        union = union_digraph([WeightedDigraph.from_edges(5, e) for e in FIG2_EDGE_SETS])
        seen = reachable_oracle(union.edges, 5)
        assert seen == {0, 1, 2, 3, 4}

    def test_mismatched_node_count(self):
        with pytest.raises(DimensionError):
            union_digraph([WeightedDigraph(np.zeros((2, 2))), WeightedDigraph(np.zeros((3, 3)))])


class TestJointConnectivity:
    def test_star_is_connected_with_zero_window(self):
        star = WeightedDigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        topo = SwitchingTopology(graphs=(star,), signal=SwitchingSignal.periodic([(1, 1)]))
        assert is_jointly_connected(topo, 0)

    def test_alternating_needs_window_one(self):
        a = WeightedDigraph.from_edges(3, [(0, 1)])
        b = WeightedDigraph.from_edges(3, [(1, 2)])
        topo = SwitchingTopology(
            graphs=(a, b), signal=SwitchingSignal.periodic([(1, 1), (2, 1)])
        )
        assert is_jointly_connected(topo, 1)
        res = is_jointly_connected(topo, 0)
        assert not res
        assert res.witness == (0, 2)

    def test_unreachable_node_witnessed(self):
        g = WeightedDigraph.from_edges(4, [(0, 1), (1, 2)])  # node 3 isolated
        topo = SwitchingTopology(graphs=(g,), signal=SwitchingSignal.periodic([(1, 1)]))
        res = is_jointly_connected(topo, 2)
        assert not res
        assert res.witness[1] == 3

    def test_bundled_topology_connected_at_window_seven(self):
        res = is_jointly_connected(fig2_topology(), 7)
        # one period plus the window covers every window by periodicity
        assert res.connected and res.checked_up_to == fig2_topology().signal.period + 7

    def test_find_connectivity_window(self):
        # the bundled family documents window 7 (one period); the search
        # finds the smaller minimal window
        smallest = find_connectivity_window(fig2_topology(), 10)
        assert smallest == 4
        assert is_jointly_connected(fig2_topology(), smallest)
        g = WeightedDigraph.from_edges(3, [(0, 1)])
        topo = SwitchingTopology(graphs=(g,), signal=SwitchingSignal.periodic([(1, 1)]))
        assert find_connectivity_window(topo, 5) is None

    def test_table_signal_checked_up_to_reported(self):
        a = WeightedDigraph.from_edges(3, [(0, 1), (1, 2)])
        topo = SwitchingTopology(
            graphs=(a,), signal=SwitchingSignal.from_table([1, 1, 1], tail_mode=1)
        )
        res = is_jointly_connected(topo, 0)
        assert res.connected and res.checked_up_to == 3

    def test_table_verdict_covers_its_tail(self):
        # every window that meets the table is connected; the tail alone is not
        linked = WeightedDigraph.from_edges(3, [(0, 1), (1, 2)])
        cut = WeightedDigraph.from_edges(3, [(0, 1)])
        topo = SwitchingTopology(
            graphs=(linked, cut), signal=SwitchingSignal.from_table([1, 1, 1], tail_mode=2)
        )
        res = is_jointly_connected(topo, 1)
        assert not res and res.witness == (3, 2) and res.checked_up_to == 4


class TestSwitchingSignal:
    def test_periodic_schedule(self):
        sig = SwitchingSignal.periodic([(1, 2), (2, 2), (3, 2), (4, 2)])
        assert [sig.mode_at(t) for t in range(8)] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert sig.mode_at(8) == 1 and sig.mode_at(17) == 1
        assert sig.period == 8 and sig.dwell == 2

    def test_table_signal_with_tail(self):
        sig = SwitchingSignal.from_table([1, 1, 2], tail_mode=3)
        assert [sig.mode_at(t) for t in range(5)] == [1, 1, 2, 3, 3]
        assert sig.dwell == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchingSignal.periodic([])
        with pytest.raises(ValueError):
            SwitchingSignal.periodic([(0, 2)])
        with pytest.raises(ValueError):
            SwitchingSignal(segments=((1, 1),), table=(1,), tail_mode=1)
        with pytest.raises(ValueError):
            SwitchingTopology(
                graphs=(WeightedDigraph(np.zeros((2, 2))),),
                signal=SwitchingSignal.periodic([(2, 1)]),
            )


    @pytest.mark.parametrize("build, message", [
        (lambda: SwitchingSignal.periodic([(1.7, 2)]), "mode index 1.7 is not an integer"),
        (lambda: SwitchingSignal.periodic([(1, 2.9)]), "segment length 2.9 is not an integer"),
        (lambda: SwitchingSignal.from_table([1.9, 2], tail_mode=1), "mode index 1.9 is not"),
        (lambda: SwitchingSignal.from_table([1, 2], tail_mode=1.5), "tail mode 1.5 is not"),
    ], ids=["segment-mode", "segment-length", "table-mode", "tail-mode"])
    def test_non_integers_refused_not_truncated(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
        sig = SwitchingSignal.from_table(np.array([1, 2]), tail_mode=np.int64(3))
        assert (sig.table, sig.tail_mode) == ((1, 2), 3) and type(sig.tail_mode) is int
        assert SwitchingSignal.periodic([(np.int64(2), np.int32(3))]).segments == ((2, 3),)


class TestConsensusStep:
    def test_constant_vector_is_fixed_point(self):
        adj = normalize_adjacency(WeightedDigraph.from_edges(3, [(0, 1), (1, 2)]))
        x = np.full(3, 3.7)
        assert np.allclose(consensus_step(adj, x), x)

    def test_hand_example(self):
        adj = normalize_adjacency(WeightedDigraph.from_edges(2, [(0, 1)]))
        assert np.allclose(consensus_step(adj, np.array([0.0, 1.0])), [0.0, 0.5])

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                 min_size=3, max_size=3)
    )
    @settings(max_examples=60, deadline=None)
    def test_never_expands_the_interval(self, vals):
        adj = normalize_adjacency(
            WeightedDigraph.from_edges(3, [(0, 1), (1, 2), (2, 1)])
        )
        x = np.array(vals)
        y = consensus_step(adj, x)
        assert y.min() >= x.min() - 1e-9 and y.max() <= x.max() + 1e-9

    def test_dimension_mismatch(self):
        adj = normalize_adjacency(WeightedDigraph(np.zeros((3, 3))))
        with pytest.raises(DimensionError):
            consensus_step(adj, np.zeros(4))

    def test_spread_collapses_under_joint_connectivity(self):
        # averaging drives all components to a common value: spread below
        # 1e-9 well within a horizon proportional to followers x window
        topo = fig2_topology()
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 100))
        horizon = 60 * topo.n_followers * 8
        for t in range(horizon):
            x = consensus_step(topo.adjacency_at(t), x)
        assert np.max(x.max(axis=0) - x.min(axis=0)) < 1e-9


class TestTransitionProduct:
    def test_empty_product_is_identity(self):
        topo = fig2_topology()
        assert np.array_equal(transition_product(topo, 5, 5), np.eye(4))

    def test_single_step_equals_active_matrix(self):
        topo = fig2_topology()
        assert np.array_equal(
            transition_product(topo, 2, 3), topo.adjacency_at(2).lambda_block
        )

    def test_ordering_latest_factor_left(self):
        topo = fig2_topology()
        expected = (
            topo.adjacency_at(2).lambda_block
            @ topo.adjacency_at(1).lambda_block
            @ topo.adjacency_at(0).lambda_block
        )
        assert np.allclose(transition_product(topo, 0, 3), expected)

    def test_follower_block_products_decay_geometrically(self):
        topo = fig2_topology()
        norms = np.array(
            [np.linalg.norm(transition_product(topo, 0, k), 2) for k in range(161)]
        )
        assert norms[-1] < 1.0
        fit = fit_decay(norms)
        assert fit.rate < 1.0
        assert fit.residual < 0.1
