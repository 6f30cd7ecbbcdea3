import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fairgfl import graph as graph_mod
from fairgfl.cli import _thirds_multipliers, build_graph, parse_config
from fairgfl.federation import split_nodes
from fairgfl.graph import (
    BLOCK_MEAN_SEPARATION,
    ClientSubgraph,
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


def test_each_name_has_one_import_path():
    """In a fresh interpreter the package root binds no public name, so
    every name is reached through its defining module, and importing
    fairgfl.graph loads no other fairgfl module."""
    code = ("import sys, fairgfl; print([n for n in vars(fairgfl) if not n.startswith('_')]); "
            "import fairgfl.graph; print(sorted(m for m in sys.modules if 'fairgfl' in m))")
    src = Path(graph_mod.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.splitlines() == ["[]", "['fairgfl', 'fairgfl.graph']"]


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

    def test_validate_rejects_self_loops_summing_to_zero(self):
        adj = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="zero diagonal"):
            GlobalGraph(3, np.eye(3), np.zeros(3, dtype=np.int64), sp.csr_matrix(adj))

    @pytest.mark.parametrize("weight", [2.5, np.inf])
    def test_validate_rejects_non_binary_weights(self, weight):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = weight
        with pytest.raises(ValidationError, match="0 or 1"):
            GlobalGraph(3, np.eye(3), np.zeros(3, dtype=np.int64), sp.csr_matrix(adj))

    @pytest.mark.parametrize("indices, indptr", [
        ([1, 1, 0, 0], [0, 2, 4, 4]),  # edge 0-1 stored twice each way: weight 2
        ([2, 1, 0, 0], [0, 2, 3, 4]),  # edges 0-1 and 0-2, row 0 unsorted
    ], ids=["duplicates", "unsorted"])
    def test_validate_rejects_non_canonical(self, indices, indptr):
        """Every stored entry is 1, yet the graph is not a canonical CSR: a
        duplicate would act as a weight-2 edge in A_hat, and a subset of
        unsorted rows may take another scipy addition path."""
        adj = sp.csr_matrix((np.ones(4), np.array(indices), np.array(indptr)), shape=(3, 3))
        with pytest.raises(ValidationError, match="sum_duplicates"):
            GlobalGraph(3, np.eye(3), np.zeros(3, dtype=np.int64), adj)

    def test_validate_rejects_stored_zeros(self):
        """A stored 0 at (0, 1) is no edge, and would be one to a lookup of
        stored entries: the adjacency must drop it first."""
        adj = sp.csr_matrix((np.array([0.0, 1.0, 1.0]), np.array([1, 3, 2]),
                             np.array([0, 1, 1, 2, 3])), shape=(4, 4))
        with pytest.raises(ValidationError, match="eliminate_zeros"):
            GlobalGraph(4, np.eye(4), np.zeros(4, dtype=np.int64), adj)

    def test_symmetry_check_agrees_with_transpose_comparison(self):
        """GlobalGraph accepts exactly the canonical CSRs of ones with a zero
        diagonal and (adj != adj.T).nnz == 0, on random small matrices: the
        entries are drawn as COO triples, so they hold duplicates (some
        summing to 2 on one side only), explicit zeros, self-loops (some
        only zeros) and, as CSR, unsorted rows; each draw is also given as
        COO, CSC, a summed CSR and a clean CSR (ones, no diagonal). A
        quarter are permutations, whose rows and columns all hold one
        entry, and half are mirrored, so both answers occur, and the
        symmetry check itself rejects some clean CSRs."""
        rng = np.random.default_rng(17)
        seen = {True: 0, False: 0, "asymmetric": 0}
        for _ in range(400):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, 3 * n))
            rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
            if rng.random() < 0.25:
                # A permutation: every row and column holds one entry, so
                # only the positions tell whether it is symmetric.
                rows, cols = np.arange(n), rng.permutation(n)
            data = rng.choice([0.0, 1.0], size=len(rows), p=[0.25, 0.75])
            if rng.random() < 0.5:
                rows, cols, data = np.r_[rows, cols], np.r_[cols, rows], np.r_[data, data]
            # CSR with each row's entries in a random order, duplicates kept.
            order = np.lexsort((rng.random(len(rows)), rows))
            indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))].astype(np.int32)
            unsorted = sp.csr_matrix((data[order], cols[order].astype(np.int32), indptr),
                                     shape=(n, n))
            coo = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
            keep = (data != 0) & (rows != cols)
            clean = sp.csr_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n))
            clean.data[:] = 1.0  # a duplicate summed to 2 is one edge
            for adj in (unsorted, coo, unsorted.tocsc(), coo.tocsr(), clean):
                ptr = adj.indptr if adj.format == "csr" else ()
                want = (adj.format == "csr"
                        and all(np.all(np.diff(adj.indices[lo:hi]) > 0)
                                for lo, hi in zip(ptr[:-1], ptr[1:]))
                        and np.all(adj.data == 1) and not adj.diagonal().any()
                        and (adj != adj.T).nnz == 0)
                seen[want] += 1
                args = (n, np.eye(n), np.zeros(n, dtype=np.int64), adj)
                if want:
                    GlobalGraph(*args)
                    continue
                with pytest.raises(ValidationError) as err:
                    GlobalGraph(*args)
                seen["asymmetric"] += "symmetric" in str(err.value)
        assert min(seen.values()) > 100

    @pytest.mark.parametrize("field, value, match", [
        ("features", np.ones(3), "feature_dim matrix"),
        ("labels", np.zeros(3), "integer vector"),
        ("labels", np.zeros(3, dtype=bool), "integer vector"),
        ("adjacency", sp.coo_matrix((3, 3)), "CSR"),
        ("adjacency", sp.csc_matrix((3, 3)), "CSR"),
        ("adjacency", np.zeros((3, 3)), "CSR"),
    ])
    def test_validate_rejects_wrong_kinds(self, field, value, match):
        """1-D features, float or bool labels and a non-CSR adjacency are
        rejected here, not deep in a run."""
        fields = dict(num_nodes=3, features=np.eye(3), labels=np.zeros(3, dtype=np.int64),
                      adjacency=sp.csr_matrix((3, 3)))
        GlobalGraph(**fields)
        fields[field] = value
        with pytest.raises(ValidationError, match=match):
            GlobalGraph(**fields)

    def test_symmetry_check_peak_memory(self, traced_peak):
        # The int8 adjacency converted to CSC once: about 1.2x its own 5
        # bytes an entry at 7 x 300 (1.16 MiB). The float64 transposed copy
        # of (adj != adj.T) reads about 4.3x.
        adj = generate_sbm(7, 300, 0.2, 0.02, 32, 1).adjacency
        symmetric, peak = traced_peak(graph_mod._is_symmetric, adj)
        assert symmetric
        assert peak <= 1.3 * sum(a.nbytes for a in (adj.data, adj.indices, adj.indptr))

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

    def test_no_node_rows(self, tmp_path):
        nf, ef = self.write(tmp_path, "\n\n", "")
        with pytest.raises(GraphFormatError, match="no node rows"):
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

    def test_adjacency_is_int8(self, tmp_path):
        nf, ef = self.write(tmp_path, "a 0.5 x\nb 0.6 y\nc 0.7 x\n", "a b\nc b\n")
        adj = load_graph(nf, ef).adjacency
        assert adj.dtype == np.int8
        assert adj.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    @pytest.mark.parametrize("copies", [128, 256, 300])
    def test_edge_listed_many_times_is_one_edge(self, tmp_path, copies):
        # Duplicates are summed before the int8 cast: an int8 sum of 128
        # ones wraps to -128 and of 256 to 0, which "> 0" would drop.
        nf, ef = self.write(tmp_path, "a 0.5 x\nb 0.6 y\n", "a b\n" * copies)
        adj = load_graph(nf, ef).adjacency
        assert adj.dtype == np.int8
        assert adj.nnz == 2 and adj.data.tolist() == [1, 1]


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
    adj_dense = (upper | upper.T).astype(np.int8)
    return features, labels, sp.csr_matrix(adj_dense)


class TestSbm:
    # SBM_DRAW_VALUES is set to draw_rows rows of the first block's width n.
    # Each block [s, e) then draws min(e - s, max(1, draw_rows * n // (n - s)))
    # rows at a time: draw_rows in the first block, more in later ones.
    @pytest.mark.parametrize("draw_rows, blocks, block_size", [
        (16, 3, 4),     # n = 12, blocks shorter than a buffer
        (16, 4, 4),     # n = 16
        (16, 8, 4),     # n = 32
        (16, 3, 11),    # n = 33
        (16, 5, 7),     # n = 35, not a multiple of the first block's buffer
        (None, 3, 100),  # n = 300 with the module's own buffer
        (16, 3, 16),    # a first block exactly one buffer long
        (16, 3, 33),    # a first block of buffers of 16, 16 and 1 rows
        (16, 3, 40),    # a first block of 16, 16 and 8 rows: it ends mid buffer
        (16, 1, 50),    # one block: no column skipped
        (1, 1, 50),     # one row per buffer
    ])
    @pytest.mark.parametrize("p_in, p_out", [
        (0.3, 0.05), (0.4, 0.0), (1.0, 0.1), (1.0, 1.0), (0.0, 0.0),
    ])
    def test_matches_dense_reference(self, monkeypatch, draw_rows, blocks, block_size,
                                     p_in, p_out):
        if draw_rows is not None:
            monkeypatch.setattr(graph_mod, "SBM_DRAW_VALUES", draw_rows * blocks * block_size)
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
        # The first block in buffers of 16, 16 and 1 rows.
        monkeypatch.setattr(graph_mod, "SBM_DRAW_VALUES", 16 * 99)
        generate_sbm(3, 33, 0.3, 0.05, 3, seed=4)
        want = real(4)
        want.standard_normal((99, 3))
        want.random((99, 99))
        assert made[0].bit_generator.state == want.bit_generator.state

    def test_peak_memory(self, traced_peak):
        # The draw buffer is freed before the mirror, the int8 mirror is the
        # graph's adjacency, and validate's symmetry check takes one int8
        # transpose of it: about 2.4x the graph's bytes at 7 x 300 (3.56 MiB),
        # where a float64 adjacency read 1.4x of a graph twice as large
        # (4.02 MiB). A float64 mirror with validate's float64 transposed copy
        # read about 4.7x.
        g, peak = traced_peak(generate_sbm, 7, 300, 0.2, 0.02, 32, 1)
        adj = g.adjacency
        graph_bytes = sum(a.nbytes for a in (adj.data, adj.indices, adj.indptr,
                                              g.features, g.labels))
        assert peak <= 2.6 * graph_bytes

    def test_adjacency_is_int8(self):
        adj = generate_sbm(3, 10, 0.5, 0.05, 4, seed=0).adjacency
        assert adj.dtype == np.int8 and adj.data.dtype == np.int8
        assert adj.nnz and (adj.data == 1).all()

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
        """The client's one edge, mapped through node_ids, joins global ids 3 and 4."""
        sub = induced_subgraph(tiny_graph(), np.array([3, 4]), client_id=2)
        edges = sp.triu(sub.adjacency, k=1).tocoo()
        assert (sub.node_ids[edges.row].tolist(), sub.node_ids[edges.col].tolist()) == ([3], [4])

    @pytest.mark.parametrize("seed", range(4))
    def test_adjacency_entries_match_dense(self, seed):
        """has_edges equals toarray()[rows, cols] != 0, on a graph with no edges too."""
        rng = np.random.default_rng(seed)
        g = generate_sbm(3, 10, 0.4, 0.1, 4, seed=seed)
        subs = [induced_subgraph(g, rng.choice(30, size=17, replace=False), 0),
                induced_subgraph(tiny_graph(n=5, edges=()), np.arange(5), 1)]
        for sub in subs:
            dense = sub.adjacency.toarray() != 0
            n = sub.num_nodes
            rows, cols = rng.integers(0, n, size=40), rng.integers(0, n, size=40)
            got = sub.has_edges(rows, cols)
            assert got.dtype == bool and np.array_equal(got, dense[rows, cols])
            ids = rng.permutation(n)[:7]
            assert np.array_equal(sub.has_edges(ids[:, None], ids[None, :]),
                                  dense[np.ix_(ids, ids)])

    @pytest.mark.parametrize("data, indices, indptr, match", [
        ([1.0], [1], [0, 1, 1, 1], "symmetric"),
        ([1.0] * 4, [1, 1, 0, 0], [0, 2, 4, 4], "sum_duplicates"),
        ([1.0] * 4, [2, 1, 0, 0], [0, 2, 3, 4], "sum_duplicates"),
        ([1.0, 1.0, 0.0, 0.0], [1, 0, 2, 1], [0, 1, 3, 4], "eliminate_zeros"),
        ([1.0], [0], [0, 1, 1, 1], "zero diagonal"),
    ], ids=["one-directional", "duplicates", "unsorted", "stored-zero", "self-loop"])
    def test_client_rejects_malformed_adjacency(self, data, indices, indptr, match):
        """A directly built client runs GlobalGraph's adjacency check: the
        GCN uses its A_hat as its own transpose, and has_edges reads the
        sorted structure."""
        fields = (0, np.arange(3), np.zeros((3, 1)), np.zeros(3, int))
        graph_mod.ClientSubgraph(*fields, tiny_graph(n=3, edges=((0, 1), (1, 2))).adjacency)
        adj = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(3, 3))
        with pytest.raises(ValidationError, match=match):
            graph_mod.ClientSubgraph(*fields, adj)

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
        spec = PartitionSpec(overlap_coefficient=0.0, seed=1)
        parts = partition(g, spec, 4)
        seen = set()
        for p in parts:
            ids = set(p.node_ids.tolist())
            assert not ids & seen
            seen |= ids

    def test_coverage_subset_of_pool(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=3)
        pool = np.arange(30)
        spec = PartitionSpec(overlap_coefficient=0.2, seed=1)
        parts = partition(g, spec, 3, node_pool=pool)
        union = set()
        for p in parts:
            union |= set(p.node_ids.tolist())
        assert union <= set(pool.tolist())

    def test_induced_adjacency_matches_global(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=4)
        spec = PartitionSpec(overlap_coefficient=0.2, seed=2)
        for p in partition(g, spec, 3):
            expect = g.adjacency[p.node_ids][:, p.node_ids].todense()
            assert np.array_equal(np.asarray(p.adjacency.todense()), np.asarray(expect))

    def test_realized_overlap_tracks_target(self):
        g = generate_sbm(5, 60, 0.2, 0.02, 8, seed=5)
        target = 0.15
        ratios = []
        for seed in range(8):
            spec = PartitionSpec(overlap_coefficient=target, seed=seed)
            node_m, _ = true_overlap_matrices(partition(g, spec, 6))
            off = node_m[~np.eye(6, dtype=bool)]
            ratios.append(off.mean())
        assert abs(np.mean(ratios) - target) < 0.3 * target

    def test_every_client_nonempty(self):
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=6)
        spec = PartitionSpec(
            overlap_coefficient=0.0, dirichlet_alpha_nonoverlap=0.05, seed=0,
        )
        for p in partition(g, spec, 8):
            assert p.num_nodes >= 1

    def test_multipliers_order_overlap(self):
        g = generate_sbm(4, 40, 0.3, 0.03, 4, seed=8)
        spec = PartitionSpec(
            overlap_coefficient=0.15, seed=3,
            overlap_multipliers=(0.0, 0.0, 1.0, 1.0, 2.0, 2.0),
        )
        node_m, _ = true_overlap_matrices(partition(g, spec, 6))
        row = node_m.sum(axis=1) - 1.0
        assert row[:2].mean() < row[4:].mean()
        assert row[:2].max() == 0.0

    def test_more_clients_than_nodes(self):
        g = tiny_graph()
        with pytest.raises(ValidationError):
            partition(g, PartitionSpec(overlap_coefficient=0.0), 10)

    @pytest.mark.parametrize("num_clients, pool", [
        (0, None), (-1, None), (7, None), (4, np.arange(3)),
    ], ids=["zero", "negative", "more-than-graph", "more-than-pool"])
    def test_client_count_out_of_range_rejected(self, num_clients, pool):
        spec = PartitionSpec(overlap_coefficient=0.1)
        with pytest.raises(ValidationError, match="clients"):
            partition(tiny_graph(), spec, num_clients, node_pool=pool)

    @pytest.mark.parametrize("mult", [(), (1.0,), (1.0, 1.0, 1.0)])
    def test_multipliers_length_must_equal_num_clients(self, mult):
        spec = PartitionSpec(overlap_coefficient=0.1, overlap_multipliers=mult)
        with pytest.raises(ValidationError, match="overlap_multipliers length"):
            partition(tiny_graph(), spec, 2)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PartitionSpec(overlap_coefficient=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_spec_rejects_bad_multipliers(self, bad):
        """NaN and inf reached partition and raised there; -1 acted as 0."""
        with pytest.raises(ValidationError, match="overlap_multipliers"):
            PartitionSpec(overlap_coefficient=0.1, overlap_multipliers=(1.0, bad))


def set_overlap_matrices(parts):
    """true_overlap_matrices computed on Python sets of node ids and of
    edges as sorted global-id pairs: the reference for its bytes."""
    P = len(parts)
    node_sets = [set(p.node_ids.tolist()) for p in parts]
    edge_sets = []
    for p in parts:
        coo = sp.triu(p.adjacency, k=1).tocoo()
        gids = p.node_ids
        edge_sets.append({(min(gids[r], gids[c]), max(gids[r], gids[c]))
                          for r, c in zip(coo.row, coo.col)})
    node_m = np.eye(P)
    link_m = np.eye(P)
    for i in range(P):
        for k in range(P):
            if i == k:
                continue
            if node_sets[i]:
                node_m[i, k] = len(node_sets[i] & node_sets[k]) / len(node_sets[i])
            if edge_sets[i]:
                link_m[i, k] = len(edge_sets[i] & edge_sets[k]) / len(edge_sets[i])
            else:
                link_m[i, k] = 0.0
    return node_m, link_m


def sim_run_parts(multipliers=False, **keys):
    """The client subgraphs of a sim run with the given config keys."""
    part, fed, _, extras = parse_config(None, keys)
    if multipliers:
        part = dataclasses.replace(part, overlap_multipliers=_thirds_multipliers(fed.num_clients))
    graph = build_graph(extras)
    return partition(graph, part, fed.num_clients, node_pool=split_nodes(graph, fed)[2])


def empty_client(client_id):
    return ClientSubgraph(client_id, np.zeros(0, dtype=np.int64), np.zeros((0, 6)),
                          np.zeros(0, dtype=np.int64), sp.csr_matrix((0, 0), dtype=np.int8))


class TestTrueOverlapMatrices:
    @pytest.mark.parametrize("make, sizes", [
        (sim_run_parts, None),
        (lambda: sim_run_parts(dirichlet_alpha_nonoverlap=0.05, overlap_coefficient=0.02),
         [38, 1, 19, 75, 50, 2, 53, 5, 33, 1]),
        (lambda: sim_run_parts(multipliers=True), None),
        (lambda: sim_run_parts(sbm_block_size=600), None),
    ], ids=["default", "uneven", "multipliers", "4200-nodes"])
    def test_bytes_match_set_reference(self, make, sizes):
        parts = make()
        if sizes is not None:
            assert [p.num_nodes for p in parts] == sizes
        got, want = true_overlap_matrices(parts), set_overlap_matrices(parts)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_client_without_nodes_or_edges(self):
        """Ratios of an empty and of an edgeless client are 0; diagonals stay 1."""
        g = tiny_graph()
        parts = [empty_client(0), induced_subgraph(g, np.array([0, 5]), 1),
                 induced_subgraph(g, np.array([0, 1, 2]), 2)]
        node_m, link_m = true_overlap_matrices(parts)
        assert np.array_equal(node_m, [[1, 0, 0], [0, 1, 0.5], [0, 1 / 3, 1]])
        assert np.array_equal(link_m, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for got, want in zip((node_m, link_m), set_overlap_matrices(parts)):
            assert got.tobytes() == want.tobytes()

    def test_only_empty_clients(self):
        node_m, link_m = true_overlap_matrices([empty_client(0), empty_client(1)])
        assert np.array_equal(node_m, np.eye(2)) and np.array_equal(link_m, np.eye(2))

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
