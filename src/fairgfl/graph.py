"""Graph containers, file ingestion, synthetic graphs, and the federated partitioner."""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Pairwise distance between block feature means, in units of the
# within-block standard deviation. Large enough that feature distance
# correlates strongly with link absence.
BLOCK_MEAN_SEPARATION = 4.0

# Values of the uniform edge draw that generate_sbm holds at a time (but at
# least one row), so its memory is O(SBM_DRAW_VALUES + n) rather than O(n^2).
SBM_DRAW_VALUES = 1 << 18

# Rows of an adjacency that federation._global_eval_operands' A_hat * X, and
# the scaling in gcn._normalize_rows, take at a time (at least; see
# row_blocks), and public nodes that overlap.calibrate_tau perturbs at a
# time, so their temporaries are bounded by a block, not the graph.
ROW_BLOCK = 512


class GraphFormatError(ValueError):
    """Raised when a node or edge file cannot be parsed."""


class ValidationError(ValueError):
    """Raised when an input violates a structural precondition."""


def check_size(*shape: int) -> None:
    """Raise ValidationError for a float64 shape past numpy's largest byte
    count, for which numpy raises a bare ValueError, not MemoryError."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"an array of shape {shape} is too large")


@dataclass(frozen=True)
class GlobalGraph:
    """A node-labelled undirected graph held by the simulator.

    adjacency is symmetric, binary, and self-loop-free; node ids are
    dense integers [0, num_nodes).
    """

    num_nodes: int
    features: np.ndarray          # (num_nodes, feature_dim) float64
    labels: np.ndarray            # (num_nodes,) int64
    adjacency: sp.csr_matrix      # (num_nodes, num_nodes) 0/1; int8 when built here

    def __post_init__(self):
        self.validate()

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.num_nodes else 0

    def validate(self) -> None:
        n = self.num_nodes
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError("features must be a num_nodes x feature_dim matrix")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must be finite")
        if self.labels.shape != (n,) or not np.issubdtype(self.labels.dtype, np.integer):
            raise ValidationError("labels must be an integer vector of length num_nodes")
        if n and self.labels.min() < 0:
            raise ValidationError("labels must be non-negative class indices")
        check_adjacency(self.adjacency, n)


def check_adjacency(adj, n: int) -> None:
    """Raise ValidationError unless adj is an n x n canonical scipy CSR (sorted
    rows, no duplicates) of ones, with a zero diagonal and equal to its transpose."""
    if not (sp.issparse(adj) and adj.format == "csr" and adj.shape == (n, n)):
        raise ValidationError("adjacency must be a num_nodes x num_nodes scipy CSR matrix")
    if not adj.has_canonical_format:
        raise ValidationError("adjacency must be a canonical CSR; call sum_duplicates() first")
    if np.count_nonzero(adj.diagonal()):
        raise ValidationError("adjacency must have zero diagonal")
    if np.any((adj.data != 0) & (adj.data != 1)):
        raise ValidationError("adjacency entries must be 0 or 1")
    if np.count_nonzero(adj.data) != adj.nnz:
        raise ValidationError("adjacency must store no zeros; call eliminate_zeros() first")
    if not _is_symmetric(adj):
        raise ValidationError("adjacency must be symmetric")


def _is_symmetric(adj: sp.csr_matrix) -> bool:
    """``(adj != adj.T).nnz == 0`` for a canonical CSR of ones: the CSC arrays of
    adj as int8 (adj itself when it is int8) are the CSR arrays of its transpose."""
    t = adj.astype(np.int8, copy=False).tocsc()
    return np.array_equal(t.indptr, adj.indptr) and np.array_equal(t.indices, adj.indices)


def row_blocks(a: sp.csr_matrix) -> list[tuple[int, int]]:
    """(lo, hi) bounds of a's rows in blocks of ROW_BLOCK rows, or of more
    when the rows are short, so that a block holds about as many entries as
    a has columns. Each block pays a fixed scipy cost (0.13 ms to normalize
    one row at 10^5 nodes), so at 100,002 nodes of degree 24
    federation._global_eval_operands takes 25 blocks and 106 ms, against
    196 blocks and 159 ms in blocks of 512 rows."""
    m, n = a.shape
    rows = max(ROW_BLOCK, -(-m * n // max(a.nnz, 1)))
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


@dataclass(frozen=True)
class ClientSubgraph:
    """One client's share of the global graph: node rows plus induced adjacency."""

    client_id: int
    node_ids: np.ndarray          # global ids, sorted
    features: np.ndarray
    labels: np.ndarray
    adjacency: sp.csr_matrix      # induced, indexed locally, the global dtype

    def __post_init__(self):
        check_adjacency(self.adjacency, self.num_nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def local_rows(self, gids) -> np.ndarray:
        """Local row index of each global id; ValidationError for a foreign id."""
        gids = np.asarray(gids, dtype=np.int64)
        rows = np.searchsorted(self.node_ids, gids)
        found = rows < self.num_nodes
        found[found] = self.node_ids[rows[found]] == gids[found]
        if not found.all():
            raise ValidationError(
                f"batch node {gids[~found][0]} not on client {self.client_id}"
            )
        return rows

    def has_edges(self, rows, cols) -> np.ndarray:
        """``adjacency.toarray()[rows, cols] != 0`` without building the dense
        matrix; rows and cols are local indices and broadcast together."""
        keys = self._edge_keys
        want = np.asarray(rows, dtype=np.int64) * self.num_nodes + np.asarray(cols, dtype=np.int64)
        return keys[np.searchsorted(keys, want)] == want

    @functools.cached_property
    def _edge_keys(self) -> np.ndarray:
        """row * n + col of each stored entry, ascending as the CSR is
        canonical, then a sentinel n * n, so every lookup lands on a key."""
        adj, n = self.adjacency, self.num_nodes
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
        return np.append(rows * n + adj.indices, n * n)


@dataclass(frozen=True)
class PartitionSpec:
    """Knobs for the Dirichlet-based overlapping partitioner.

    overlap_coefficient is the target average pairwise node overlap ratio.
    overlap_pool_fraction is the share of nodes eligible for duplication
    across clients.
    """

    overlap_coefficient: float = 0.1
    overlap_pool_fraction: float = 0.3
    dirichlet_alpha_nonoverlap: float = 0.5
    dirichlet_alpha_overlap: float = 0.8
    seed: int = 0
    # Optional per-client multiplier on overlap_coefficient, e.g. thirds of
    # (0, 1, 2) to build imbalanced no/low/high overlap groups.
    overlap_multipliers: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("partition seed must be >= 0")
        if not 0.0 <= self.overlap_coefficient < 1.0:
            raise ValidationError("overlap_coefficient must be in [0, 1)")
        if not 0.0 < self.overlap_pool_fraction <= 1.0:
            raise ValidationError("overlap_pool_fraction must be in (0, 1]")
        alphas = (self.dirichlet_alpha_nonoverlap, self.dirichlet_alpha_overlap)
        if not all(np.isfinite(a) and a > 0 for a in alphas):
            raise ValidationError("dirichlet alphas must be finite and positive")
        if not all(np.isfinite(m) and m >= 0 for m in self.overlap_multipliers or ()):
            raise ValidationError("overlap_multipliers must be finite and >= 0")


def text_lines(path, error: type[Exception] = GraphFormatError):
    """Yield (line number, line) of a file; raise error if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


def _parse_row(line: str) -> list[str]:
    return line.replace(",", " ").split()


def load_graph(node_file, edge_file) -> GlobalGraph:
    """Load a graph from whitespace/comma-delimited node and edge files.

    Node rows are `id f_1 .. f_d label`; edge rows are `src dst`. Edges
    referencing unknown ids are dropped with a warning; the adjacency is
    symmetrized and self-loops are removed. Labels may be arbitrary
    strings and are mapped to dense class indices in sorted order.
    """
    raw_ids, feats, raw_labels = [], [], []
    n_fields = None
    for lineno, line in text_lines(node_file):
        parts = _parse_row(line)
        if not parts:
            continue
        if n_fields is None:
            n_fields = len(parts)
            if n_fields < 3:
                raise GraphFormatError(
                    f"{node_file}:{lineno}: node rows need id, features, label"
                )
        elif len(parts) != n_fields:
            raise GraphFormatError(
                f"{node_file}:{lineno}: expected {n_fields} fields, got {len(parts)}"
            )
        try:
            feats.append([float(v) for v in parts[1:-1]])
        except ValueError as exc:
            raise GraphFormatError(f"{node_file}:{lineno}: bad feature value") from exc
        raw_ids.append(parts[0])
        raw_labels.append(parts[-1])

    if n_fields is None:
        raise GraphFormatError(f"{node_file}: no node rows")
    if len(set(raw_ids)) != len(raw_ids):
        seen = set()
        dup = next(i for i in raw_ids if i in seen or seen.add(i))
        raise ValidationError(f"duplicate node id {dup!r} in {node_file}")

    n = len(raw_ids)
    id_map = {rid: i for i, rid in enumerate(raw_ids)}
    label_map = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}
    labels = np.array([label_map[lab] for lab in raw_labels], dtype=np.int64)
    features = np.asarray(feats, dtype=np.float64)

    rows, cols = [], []
    dropped = 0
    for lineno, line in text_lines(edge_file):
        parts = _parse_row(line)
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(
                f"{edge_file}:{lineno}: expected 2 fields, got {len(parts)}"
            )
        src, dst = parts
        if src not in id_map or dst not in id_map:
            dropped += 1
            continue
        u, v = id_map[src], id_map[dst]
        if u == v:
            dropped += 1
            continue
        rows.append(u)
        cols.append(v)
    if dropped:
        logger.warning("dropped %d edges (unknown endpoints or self-loops)", dropped)

    # Duplicate edge rows are summed in float64: an int8 sum of one edge
    # listed 128 times would wrap to -128 and fail the > 0 test.
    adj = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj = ((adj + adj.T) > 0).astype(np.int8)
    return GlobalGraph(num_nodes=n, features=features, labels=labels, adjacency=adj)


def generate_sbm(
    num_blocks: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    seed: int,
) -> GlobalGraph:
    """Stochastic block model with block labels and Gaussian block features.

    Block feature means sit at pairwise distance >= 4 standard deviations,
    so feature distance between nodes is strongly anti-correlated with the
    presence of a link. Pair (i, j), i < j, is an edge when the (i, j)
    entry of an n x n uniform draw falls below its block probability. Of row
    i only the columns right of the diagonal, i + 1 on, are drawn, as many
    rows at a time as fit in SBM_DRAW_VALUES values (at least one); the rest
    of each row is skipped in the stream, so the graph and the generator's
    state match the whole draw.
    """
    if num_blocks < 1 or nodes_per_block < 2:
        raise ValidationError("need num_blocks >= 1 and nodes_per_block >= 2")
    if seed < 0:
        raise ValidationError("SBM seed must be >= 0")
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ValidationError("need 0 <= p_out <= p_in <= 1")
    if feature_dim < 1:
        raise ValidationError("feature_dim must be >= 1")
    check_size(num_blocks * nodes_per_block, feature_dim)  # features; the rest are smaller

    rng = np.random.default_rng(seed)
    n = num_blocks * nodes_per_block
    labels = np.repeat(np.arange(num_blocks), nodes_per_block).astype(np.int64)

    means = np.zeros((num_blocks, feature_dim))
    for b in range(num_blocks):
        means[b, b % feature_dim] = BLOCK_MEAN_SEPARATION * (1 + b // feature_dim)
    features = means[labels] + rng.standard_normal((n, feature_dim))

    cols, indptr = _upper_edges(rng, n, nodes_per_block, p_in, p_out)
    upper = sp.csr_matrix((np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(n, n))
    del cols, indptr
    # Both directions of every edge, each row's columns ascending, with int8
    # data: 5 bytes an entry where float64 takes 12. The mirror is the graph.
    adj = upper + upper.T
    del upper
    return GlobalGraph(num_nodes=n, features=features, labels=labels, adjacency=adj)


def _upper_edges(rng, n: int, block: int, p_in: float, p_out: float):
    """(column indices, indptr) of generate_sbm's edges (i, j), i < j, by row.

    The columns are int32, the index dtype of the CSR they go into, and the
    draw buffer is freed on return, before the graph is mirrored.
    """
    # Row i of the n x n draw is stream values i * n .. i * n + n - 1; its columns
    # up to the diagonal are skipped with advance(i + 1), the rest are drawn into
    # the row's buffer, which in block [s, e) holds columns s on.
    skip = rng.bit_generator.advance
    starts = range(0, n, block)
    # Rows drawn at a time in each block: SBM_DRAW_VALUES of its n - s wide rows.
    steps = [min(block, max(1, SBM_DRAW_VALUES // (n - s))) for s in starts]
    buf = np.ones(max(step * (n - s) for s, step in zip(starts, steps)))  # undrawn: finite
    counts, hit_cols = np.zeros(n + 1, dtype=np.int64), []
    for s, step in zip(starts, steps):
        e = s + block
        # Row s + k + a has in-block column j right of its diagonal where upper[a, block - k + j].
        upper = np.arange(2 * block) > np.arange(step)[:, None] + block
        for r0 in range(s, e, step):
            r1, k = min(r0 + step, e), r0 - s
            u = buf[: (r1 - r0) * (n - s)].reshape(r1 - r0, n - s)
            for i, row in enumerate(u, r0):
                skip(i + 1)
                rng.random(out=row[i + 1 - s :])
            hit = u < p_out
            hit[:, : e - s] = (u[:, : e - s] < p_in) & upper[: r1 - r0, block - k : 2 * block - k]
            r, c = np.divmod(np.flatnonzero(hit), n - s)
            counts[r0 + 1 : r1 + 1] = np.bincount(r, minlength=r1 - r0)
            hit_cols.append((c + s).astype(np.int32))
    return np.concatenate(hit_cols), np.cumsum(counts)


def induced_subgraph(graph: GlobalGraph, node_ids: np.ndarray, client_id: int) -> ClientSubgraph:
    ids = np.sort(np.asarray(node_ids, dtype=np.int64))
    sub_adj = graph.adjacency[ids][:, ids].tocsr()
    return ClientSubgraph(
        client_id=client_id,
        node_ids=ids,
        features=graph.features[ids],
        labels=graph.labels[ids],
        adjacency=sub_adj,
    )


def _split_counts(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` items proportional to `weights`."""
    raw = weights * total
    counts = np.floor(raw).astype(int)
    rem = total - counts.sum()
    order = np.argsort(-(raw - counts))
    counts[order[:rem]] += 1
    return counts


def partition(
    graph: GlobalGraph,
    spec: PartitionSpec,
    num_clients: int,
    node_pool: np.ndarray | None = None,
) -> list[ClientSubgraph]:
    """Split the graph into num_clients overlapping client subgraphs.

    Nodes (optionally restricted to node_pool) are divided into an overlap
    pool and a non-overlap pool. Non-overlap nodes are assigned disjointly
    via per-label Dirichlet shares; each client then independently draws
    overlap-pool nodes per label, so pool nodes may land on several
    clients. Every subgraph carries the adjacency induced from the global
    graph.
    """
    if graph.num_nodes == 0:
        raise ValidationError("graph is empty")
    pool_ids = (
        np.arange(graph.num_nodes)
        if node_pool is None
        else np.asarray(node_pool, dtype=np.int64)
    )
    P = num_clients
    if not 1 <= P <= len(pool_ids):
        raise ValidationError(f"need 1 to {len(pool_ids)} clients (one node each), got {P}")
    multipliers = (1.0,) * P if spec.overlap_multipliers is None else spec.overlap_multipliers
    if len(multipliers) != P:
        raise ValidationError("overlap_multipliers length must equal num_clients")

    rng = np.random.default_rng(spec.seed)
    num_classes = graph.num_classes
    shuffled = rng.permutation(pool_ids)
    pool_size = int(round(spec.overlap_pool_fraction * len(shuffled)))
    overlap_pool, non_overlap = shuffled[:pool_size], shuffled[pool_size:]

    assignments: list[list[int]] = [[] for _ in range(P)]

    for c in range(num_classes):
        lab_nodes = rng.permutation(non_overlap[graph.labels[non_overlap] == c])
        shares = rng.dirichlet([spec.dirichlet_alpha_nonoverlap] * P)
        counts = _split_counts(shares, len(lab_nodes))
        for i, part in enumerate(np.split(lab_nodes, np.cumsum(counts)[:-1])):
            assignments[i].extend(part)

    pool_by_label = {
        c: overlap_pool[graph.labels[overlap_pool] == c] for c in range(num_classes)
    }
    R = len(overlap_pool)
    for i in range(P):
        target = spec.overlap_coefficient * multipliers[i]
        if target <= 0 or R == 0:
            continue
        # Calibrated so the realized pairwise overlap ratio
        # |Vi ∩ Vk| / |Vi| tracks the target in expectation:
        # v^2 / R = target * (u + v) with u the disjoint share.
        u = len(assignments[i])
        volume = (target * R + np.sqrt(target**2 * R**2 + 4 * target * R * u)) / 2
        shares = rng.dirichlet([spec.dirichlet_alpha_overlap] * num_classes)
        for c in range(num_classes):
            avail = pool_by_label[c]
            want = min(int(round(shares[c] * volume)), len(avail))
            if want > 0:
                assignments[i].extend(rng.choice(avail, size=want, replace=False))

    # Extreme Dirichlet draws can starve a client; every client must hold
    # at least one node to train, so move one over from the largest.
    for i in range(P):
        if not assignments[i]:
            donor = max(range(P), key=lambda k: len(assignments[k]))
            if len(assignments[donor]) < 2:
                raise ValidationError(f"num_clients = {P} leaves a client without nodes: only "
                                      f"{len(set().union(*assignments))} nodes were assigned; "
                                      "use fewer clients or more overlap")
            assignments[i].append(assignments[donor].pop())

    return [
        induced_subgraph(graph, np.unique(np.array(a, dtype=np.int64)), i)
        for i, a in enumerate(assignments)
    ]


def true_overlap_matrices(parts: list[ClientSubgraph]) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth node and link overlap ratio matrices.

    node[i, k] = |Vi ∩ Vk| / |Vi| and link[i, k] = |Ei ∩ Ek| / |Ei|, with
    edges as unordered global-id pairs, both read off one P x (largest node
    id + 1) membership matrix: as every client's adjacency is induced from
    the one global graph, Ei ∩ Ek are the edges of client i whose two ends
    client k holds. Diagonals are 1 by convention; the other ratios of a
    client without nodes, or without edges, are 0.
    """
    P = len(parts)
    size = max([0] + [int(p.node_ids[-1]) + 1 for p in parts if p.num_nodes])
    member = np.zeros((P, size), dtype=bool)
    for k, p in enumerate(parts):
        member[k, p.node_ids] = True
    node_m, link_m = np.zeros((P, P)), np.zeros((P, P))
    for i, p in enumerate(parts):
        edges = sp.triu(p.adjacency, k=1).tocoo()
        if p.num_nodes:
            node_m[i] = member[:, p.node_ids].sum(axis=1) / p.num_nodes
        if edges.nnz:
            both = member[:, p.node_ids[edges.row]] & member[:, p.node_ids[edges.col]]
            link_m[i] = both.sum(axis=1) / edges.nnz
    np.fill_diagonal(node_m, 1.0)
    np.fill_diagonal(link_m, 1.0)
    return node_m, link_m
