import numpy as np
import pytest
import scipy.sparse as sp

from fairgfl import graph as graph_mod
from fairgfl.graph import (
    BLOCK_MEAN_SEPARATION,
    GlobalGraph,
    GraphFormatError,
    PartitionSpec,
    ValidationError,
    generate_sbm,
    induced_subgraph,
    load_graph,
    partition,
    true_overlap_matrices,
    _split_counts,
)


def tiny_graph(n=6, edges=((0, 1), (1, 2), (3, 4))):
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return GlobalGraph(
        num_nodes=n,
        features=np.eye(n),
        labels=np.arange(n) % 2,
        adjacency=sp.csr_matrix(adj),
    )


class TestGlobalGraph:
    def test_validate_rejects_asymmetric(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        with pytest.raises(ValidationError):
            GlobalGraph(3, np.eye(3), np.zeros(3, dtype=np.int64), sp.csr_matrix(adj))

    def test_validate_rejects_self_loops(self):
        adj = np.eye(3)
        with pytest.raises(ValidationError):
            GlobalGraph(3, np.eye(3), np.zeros(3, dtype=np.int64), sp.csr_matrix(adj))

    def test_validate_rejects_nonfinite_features(self):
        feats = np.eye(3)
        feats[0, 0] = np.nan
        with pytest.raises(ValidationError):
            GlobalGraph(3, feats, np.zeros(3, dtype=np.int64), sp.csr_matrix((3, 3)))

    def test_num_classes(self):
        assert tiny_graph().num_classes == 2


class TestLoadGraph:
    def write(self, tmp_path, node_text, edge_text):
        nf = tmp_path / "nodes.txt"
        ef = tmp_path / "edges.txt"
        nf.write_text(node_text)
        ef.write_text(edge_text)
        return nf, ef

    def test_basic_load(self, tmp_path):
        nf, ef = self.write(
            tmp_path,
            "a 0.5 1.0 x\nb 0.1 0.2 y\nc 0.0 0.3 x\n",
            "a b\nb c\n",
        )
        g = load_graph(nf, ef)
        assert g.num_nodes == 3
        assert g.feature_dim == 2
        # labels mapped in sorted order: x -> 0, y -> 1
        assert g.labels.tolist() == [0, 1, 0]
        assert g.adjacency.nnz == 4  # two undirected edges

    def test_comma_delimited(self, tmp_path):
        nf, ef = self.write(tmp_path, "0,1.0,a\n1,2.0,b\n", "0,1\n")
        g = load_graph(nf, ef)
        assert g.adjacency[0, 1] == 1.0

    def test_bad_field_count(self, tmp_path):
        nf, ef = self.write(tmp_path, "a 0.5 x\nb 0.5\n", "")
        with pytest.raises(GraphFormatError, match="2"):
            load_graph(nf, ef)

    def test_bad_feature_value(self, tmp_path):
        nf, ef = self.write(tmp_path, "a oops x\n", "")
        with pytest.raises(GraphFormatError, match="feature"):
            load_graph(nf, ef)

    def test_duplicate_node_id(self, tmp_path):
        nf, ef = self.write(tmp_path, "a 0.5 x\na 0.6 y\n", "")
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph(nf, ef)

    def test_unknown_edge_endpoints_dropped(self, tmp_path, caplog):
        nf, ef = self.write(tmp_path, "a 0.5 x\nb 0.6 y\n", "a b\na zzz\n")
        with caplog.at_level("WARNING"):
            g = load_graph(nf, ef)
        assert g.adjacency.nnz == 2
        assert "dropped 1" in caplog.text

    def test_self_loop_removed(self, tmp_path):
        nf, ef = self.write(tmp_path, "a 0.5 x\nb 0.6 y\n", "a a\na b\n")
        g = load_graph(nf, ef)
        assert g.adjacency.diagonal().sum() == 0


def dense_sbm(num_blocks, nodes_per_block, p_in, p_out, feature_dim, seed):
    """The whole-matrix SBM draw, kept as the reference for generate_sbm:
    one n x n uniform draw, its upper-triangle hits mirrored, then CSR."""
    rng = np.random.default_rng(seed)
    n = num_blocks * nodes_per_block
    labels = np.repeat(np.arange(num_blocks), nodes_per_block).astype(np.int64)
    means = np.zeros((num_blocks, feature_dim))
    for b in range(num_blocks):
        means[b, b % feature_dim] = BLOCK_MEAN_SEPARATION * (1 + b // feature_dim)
    features = means[labels] + rng.standard_normal((n, feature_dim))
    same_block = labels[:, None] == labels[None, :]
    probs = np.where(same_block, p_in, p_out)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    adj_dense = (upper | upper.T).astype(np.float64)
    return features, labels, sp.csr_matrix(adj_dense)


class TestSbm:
    @pytest.mark.parametrize("draw_rows, blocks, block_size", [
        (16, 3, 4),     # n = 12, below the draw block
        (16, 4, 4),     # n = 16, equal to it
        (16, 8, 4),     # n = 32, a multiple
        (16, 3, 11),    # n = 33, one row and no column in the last draw block
        (16, 5, 7),     # n = 35, not a multiple
        (None, 3, 100),  # n = 300 with the module's own draw block
        (16, 3, 16),    # blocks one draw block long
        (16, 3, 33),    # three draw blocks a block, the last of one row
        (16, 3, 40),    # a block that ends mid draw block
        (16, 1, 50),    # one block: no column skipped
    ])
    @pytest.mark.parametrize("p_in, p_out", [
        (0.3, 0.05), (0.4, 0.0), (1.0, 0.1), (1.0, 1.0), (0.0, 0.0),
    ])
    def test_matches_dense_reference(self, monkeypatch, draw_rows, blocks, block_size,
                                     p_in, p_out):
        if draw_rows is not None:
            monkeypatch.setattr(graph_mod, "SBM_DRAW_ROWS", draw_rows)
        for seed in (0, 5):
            g = generate_sbm(blocks, block_size, p_in, p_out, 3, seed)
            features, labels, adj = dense_sbm(blocks, block_size, p_in, p_out, 3, seed)
            assert g.features.dtype == features.dtype
            assert g.features.tobytes() == features.tobytes()
            assert g.labels.tobytes() == labels.tobytes()
            for name in ("indptr", "indices", "data"):
                got, want = getattr(g.adjacency, name), getattr(adj, name)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name

    def test_generator_ends_where_whole_draw_ends(self, monkeypatch):
        made, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
        monkeypatch.setattr(graph_mod, "SBM_DRAW_ROWS", 16)
        generate_sbm(3, 33, 0.3, 0.05, 3, seed=4)
        want = real(4)
        want.standard_normal((99, 3))
        want.random((99, 99))
        assert made[0].bit_generator.state == want.bit_generator.state

    def test_shapes_and_labels(self):
        g = generate_sbm(3, 10, 0.5, 0.05, 4, seed=0)
        assert g.num_nodes == 30
        assert g.feature_dim == 4
        assert g.num_classes == 3
        assert np.bincount(g.labels).tolist() == [10, 10, 10]

    def test_deterministic(self):
        a = generate_sbm(3, 10, 0.5, 0.05, 4, seed=1)
        b = generate_sbm(3, 10, 0.5, 0.05, 4, seed=1)
        assert np.array_equal(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_block_density_ordering(self):
        g = generate_sbm(3, 40, 0.4, 0.02, 4, seed=2)
        adj = np.asarray(g.adjacency.todense())
        same = g.labels[:, None] == g.labels[None, :]
        np.fill_diagonal(same, False)
        within = adj[same].mean()
        across = adj[~same].mean()
        assert within > 5 * across

    @pytest.mark.parametrize("blocks, seed", [(0, 0), (3, -1)])
    def test_invalid_blocks_or_seed(self, blocks, seed):
        with pytest.raises(ValidationError):
            generate_sbm(blocks, 10, 0.5, 0.05, 4, seed=seed)

    def test_invalid_probabilities(self):
        with pytest.raises(ValidationError):
            generate_sbm(2, 10, 0.1, 0.5, 4, seed=0)


class TestInducedSubgraph:
    def test_adjacency_restriction(self):
        g = tiny_graph()
        sub = induced_subgraph(g, np.array([0, 1, 2]), client_id=0)
        expect = np.asarray(g.adjacency.todense())[:3, :3]
        assert np.array_equal(np.asarray(sub.adjacency.todense()), expect)

    def test_cross_edges_dropped(self):
        g = tiny_graph()
        sub = induced_subgraph(g, np.array([2, 3]), client_id=1)
        assert sub.adjacency.nnz == 0  # edge 1-2 lost, 3-4 lost

    def test_edge_set_global_ids(self):
        g = tiny_graph()
        sub = induced_subgraph(g, np.array([3, 4]), client_id=2)
        assert sub.edge_set() == {(3, 4)}

    @pytest.mark.parametrize("seed", range(4))
    def test_adjacency_entries_match_dense(self, seed):
        """The CSR lookup equals toarray()[rows, cols], on a graph with no edges too."""
        rng = np.random.default_rng(seed)
        g = generate_sbm(3, 10, 0.4, 0.1, 4, seed=seed)
        subs = [induced_subgraph(g, rng.choice(30, size=17, replace=False), 0),
                induced_subgraph(tiny_graph(n=5, edges=()), np.arange(5), 1)]
        for sub in subs:
            dense = sub.adjacency.toarray()
            n = sub.num_nodes
            rows, cols = rng.integers(0, n, size=40), rng.integers(0, n, size=40)
            got = sub.adjacency_entries(rows, cols)
            assert got.dtype == dense.dtype and np.array_equal(got, dense[rows, cols])
            ids = rng.permutation(n)[:7]
            assert np.array_equal(sub.adjacency_entries(ids[:, None], ids[None, :]),
                                  dense[np.ix_(ids, ids)])

    def test_adjacency_entries_leave_csr_untouched(self):
        """Unsorted indices, a duplicate and an explicit zero: read as toarray() does."""
        indptr = np.array([0, 3, 4, 6])
        indices = np.array([2, 1, 2, 0, 1, 0])
        data = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        adj = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        sub = graph_mod.ClientSubgraph(0, np.arange(3), np.zeros((3, 1)), np.zeros(3, int), adj)
        saved = [a.copy() for a in (adj.indptr, adj.indices, adj.data)]
        rows, cols = np.divmod(np.arange(9), 3)
        assert np.array_equal(sub.adjacency_entries(rows, cols), adj.toarray().ravel())
        for before, after in zip(saved, (adj.indptr, adj.indices, adj.data)):
            assert np.array_equal(before, after)

    def test_local_rows(self):
        sub = induced_subgraph(tiny_graph(), np.array([4, 1, 2]), client_id=3)
        assert sub.local_rows([2, 4, 1, 2]).tolist() == [1, 2, 0, 1]
        assert sub.local_rows(np.array([], dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("gid", [0, 3, 5, -1])
    def test_local_rows_rejects_foreign_id(self, gid):
        sub = induced_subgraph(tiny_graph(), np.array([1, 2, 4]), client_id=3)
        with pytest.raises(ValidationError, match=f"batch node {gid} not on client 3"):
            sub.local_rows([2, gid])
        empty = induced_subgraph(tiny_graph(), np.array([], dtype=np.int64), client_id=0)
        with pytest.raises(ValidationError, match="not on client 0"):
            empty.local_rows([gid])


class TestSplitCounts:
    @pytest.mark.parametrize("total", [0, 1, 7, 100])
    def test_sums_to_total(self, total):
        w = np.array([0.2, 0.5, 0.3])
        assert _split_counts(w, total).sum() == total

    def test_proportionality(self):
        counts = _split_counts(np.array([0.5, 0.25, 0.25]), 100)
        assert counts.tolist() == [50, 25, 25]


class TestPartition:
    def test_zero_overlap_disjoint(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=3)
        spec = PartitionSpec(num_clients=4, overlap_coefficient=0.0, seed=1)
        parts = partition(g, spec)
        seen = set()
        for p in parts:
            ids = set(p.node_ids.tolist())
            assert not ids & seen
            seen |= ids

    def test_coverage_subset_of_pool(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=3)
        pool = np.arange(30)
        spec = PartitionSpec(num_clients=3, overlap_coefficient=0.2, seed=1)
        parts = partition(g, spec, node_pool=pool)
        union = set()
        for p in parts:
            union |= set(p.node_ids.tolist())
        assert union <= set(pool.tolist())

    def test_induced_adjacency_matches_global(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=4)
        spec = PartitionSpec(num_clients=3, overlap_coefficient=0.2, seed=2)
        for p in partition(g, spec):
            expect = g.adjacency[p.node_ids][:, p.node_ids].todense()
            assert np.array_equal(np.asarray(p.adjacency.todense()), np.asarray(expect))

    def test_realized_overlap_tracks_target(self):
        g = generate_sbm(5, 60, 0.2, 0.02, 8, seed=5)
        target = 0.15
        ratios = []
        for seed in range(8):
            spec = PartitionSpec(num_clients=6, overlap_coefficient=target, seed=seed)
            node_m, _ = true_overlap_matrices(partition(g, spec))
            off = node_m[~np.eye(6, dtype=bool)]
            ratios.append(off.mean())
        assert abs(np.mean(ratios) - target) < 0.3 * target

    def test_every_client_nonempty(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=6)
        spec = PartitionSpec(
            num_clients=8, overlap_coefficient=0.0,
            dirichlet_alpha_nonoverlap=0.05, seed=0,
        )
        for p in partition(g, spec):
            assert p.num_nodes >= 1

    def test_multipliers_order_overlap(self):
        g = generate_sbm(4, 40, 0.3, 0.03, 4, seed=8)
        spec = PartitionSpec(
            num_clients=6, overlap_coefficient=0.15, seed=3,
            overlap_multipliers=(0.0, 0.0, 1.0, 1.0, 2.0, 2.0),
        )
        node_m, _ = true_overlap_matrices(partition(g, spec))
        row = node_m.sum(axis=1) - 1.0
        assert row[:2].mean() < row[4:].mean()
        assert row[:2].max() == 0.0

    def test_more_clients_than_nodes(self):
        g = tiny_graph()
        with pytest.raises(ValidationError):
            partition(g, PartitionSpec(num_clients=10, overlap_coefficient=0.0))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PartitionSpec(num_clients=0, overlap_coefficient=0.1)
        with pytest.raises(ValidationError):
            PartitionSpec(num_clients=2, overlap_coefficient=1.0)
        with pytest.raises(ValidationError):
            PartitionSpec(num_clients=2, overlap_coefficient=0.1, overlap_multipliers=(1.0,))


class TestTrueOverlapMatrices:
    def test_hand_built_three_clients(self):
        g = tiny_graph()
        parts = [
            induced_subgraph(g, np.array([0, 1, 2, 3]), 0),
            induced_subgraph(g, np.array([2, 3, 4, 5]), 1),
            induced_subgraph(g, np.array([5]), 2),
        ]
        node_m, _ = true_overlap_matrices(parts)
        assert node_m[0][1] == 0.5
        assert node_m[1][2] == 0.25
        assert node_m[2][0] == 0.0

    def test_identical_subgraphs_all_ones(self):
        g = tiny_graph()
        parts = [induced_subgraph(g, np.array([0, 1, 2]), i) for i in range(2)]
        node_m, link_m = true_overlap_matrices(parts)
        assert np.array_equal(node_m, np.ones((2, 2)))
        assert np.array_equal(link_m, np.ones((2, 2)))

    def test_link_ratio_zero_when_no_edges(self):
        g = tiny_graph()
        parts = [
            induced_subgraph(g, np.array([0, 5]), 0),  # edgeless
            induced_subgraph(g, np.array([0, 1]), 1),
        ]
        _, link_m = true_overlap_matrices(parts)
        assert link_m[0][1] == 0.0
