"""Graph containers, file ingestion, synthetic graphs, and the federated partitioner."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Pairwise distance between block feature means, in units of the
# within-block standard deviation. Large enough that feature distance
# correlates strongly with link absence.
BLOCK_MEAN_SEPARATION = 4.0

# Rows of the uniform edge draw that generate_sbm holds at a time, so its
# memory is O(SBM_DRAW_ROWS * n) rather than O(n^2).
SBM_DRAW_ROWS = 256


class GraphFormatError(ValueError):
    """Raised when a node or edge file cannot be parsed."""


class ValidationError(ValueError):
    """Raised when an input violates a structural precondition."""


@dataclass(frozen=True)
class GlobalGraph:
    """A node-labelled undirected graph held by the simulator.

    adjacency is symmetric, binary, and self-loop-free; node ids are
    dense integers [0, num_nodes).
    """

    num_nodes: int
    features: np.ndarray          # (num_nodes, feature_dim) float64
    labels: np.ndarray            # (num_nodes,) int64
    adjacency: sp.csr_matrix      # (num_nodes, num_nodes) binary
    node_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.node_ids is None:
            object.__setattr__(self, "node_ids", np.arange(self.num_nodes))
        self.validate()

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.num_nodes else 0

    def validate(self) -> None:
        if self.features.shape[0] != self.num_nodes:
            raise ValidationError("feature rows must match num_nodes")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must be finite")
        if self.labels.shape != (self.num_nodes,):
            raise ValidationError("labels must be a vector of length num_nodes")
        if self.num_nodes and self.labels.min() < 0:
            raise ValidationError("labels must be non-negative class indices")
        adj = self.adjacency
        if adj.shape != (self.num_nodes, self.num_nodes):
            raise ValidationError("adjacency shape mismatch")
        if adj.diagonal().sum() != 0:
            raise ValidationError("adjacency must have zero diagonal")
        if (adj != adj.T).nnz != 0:
            raise ValidationError("adjacency must be symmetric")
        ids = np.asarray(self.node_ids)
        if len(np.unique(ids)) != self.num_nodes or (
            self.num_nodes and (ids.min() != 0 or ids.max() != self.num_nodes - 1)
        ):
            raise ValidationError("node_ids must be dense in [0, num_nodes)")


@dataclass(frozen=True)
class ClientSubgraph:
    """One client's share of the global graph: node rows plus induced adjacency."""

    client_id: int
    node_ids: np.ndarray          # global ids, sorted
    features: np.ndarray
    labels: np.ndarray
    adjacency: sp.csr_matrix      # induced, indexed locally

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

    def adjacency_entries(self, rows, cols) -> np.ndarray:
        """``adjacency.toarray()[rows, cols]`` without building the dense matrix.

        rows and cols are local indices and broadcast against each other.
        """
        keys, values = self._entry_keys
        want = np.asarray(rows, dtype=np.int64) * self.num_nodes + np.asarray(cols, dtype=np.int64)
        pos = np.searchsorted(keys, want)
        pos[keys[pos] != want] = len(keys) - 1
        return values[pos]

    @functools.cached_property
    def _entry_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted row * n + col keys of the stored entries and their values.

        A sentinel key n * n with value 0 ends the keys, so every lookup
        lands on a key and a miss reads 0. The adjacency is not modified.
        """
        coo = self.adjacency.tocoo(copy=True)
        coo.sum_duplicates()
        keys = coo.row.astype(np.int64) * self.num_nodes + coo.col
        order = np.argsort(keys)
        return (np.append(keys[order], self.num_nodes**2),
                np.append(coo.data[order], coo.data.dtype.type(0)))

    def edge_set(self) -> set[tuple[int, int]]:
        """Undirected edges as sorted global-id pairs."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        gids = self.node_ids
        return {
            (min(gids[r], gids[c]), max(gids[r], gids[c]))
            for r, c in zip(coo.row, coo.col)
        }


@dataclass(frozen=True)
class PartitionSpec:
    """Knobs for the Dirichlet-based overlapping partitioner.

    overlap_coefficient is the target average pairwise node overlap ratio.
    overlap_pool_fraction is the share of nodes eligible for duplication
    across clients.
    """

    num_clients: int
    overlap_coefficient: float = 0.1
    overlap_pool_fraction: float = 0.3
    dirichlet_alpha_nonoverlap: float = 0.5
    dirichlet_alpha_overlap: float = 0.8
    seed: int = 0
    # Optional per-client multiplier on overlap_coefficient, e.g. thirds of
    # (0, 1, 2) to build imbalanced no/low/high overlap groups.
    overlap_multipliers: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValidationError("num_clients must be >= 1")
        if self.seed < 0:
            raise ValidationError("partition seed must be >= 0")
        if not 0.0 <= self.overlap_coefficient < 1.0:
            raise ValidationError("overlap_coefficient must be in [0, 1)")
        if not 0.0 < self.overlap_pool_fraction <= 1.0:
            raise ValidationError("overlap_pool_fraction must be in (0, 1]")
        alphas = (self.dirichlet_alpha_nonoverlap, self.dirichlet_alpha_overlap)
        if not all(np.isfinite(a) and a > 0 for a in alphas):
            raise ValidationError("dirichlet alphas must be finite and positive")
        if self.overlap_coefficient > 0:
            scale = self.volume_scale()
            if not np.isfinite(scale) or scale <= 0:
                raise ValidationError("overlap volume scale must be finite and positive")
        if self.overlap_multipliers is not None and len(self.overlap_multipliers) != self.num_clients:
            raise ValidationError("overlap_multipliers length must equal num_clients")

    def volume_scale(self) -> float:
        n = self.overlap_coefficient
        r = self.overlap_pool_fraction
        return n / (r - n * r)


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
    with open(node_file) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    with open(edge_file) as fh:
        for lineno, line in enumerate(fh, start=1):
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

    adj = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj = ((adj + adj.T) > 0).astype(np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
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
    entry of an n x n uniform draw falls below its block probability. Of a
    block's rows only the columns from the block's first one on are drawn,
    SBM_DRAW_ROWS rows at a time; the rest of each row is skipped in the
    stream, so the graph and the generator's state match the whole draw.
    """
    if num_blocks < 1 or nodes_per_block < 2:
        raise ValidationError("need num_blocks >= 1 and nodes_per_block >= 2")
    if seed < 0:
        raise ValidationError("SBM seed must be >= 0")
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ValidationError("need 0 <= p_out <= p_in <= 1")
    if feature_dim < 1:
        raise ValidationError("feature_dim must be >= 1")

    rng = np.random.default_rng(seed)
    n = num_blocks * nodes_per_block
    labels = np.repeat(np.arange(num_blocks), nodes_per_block).astype(np.int64)

    means = np.zeros((num_blocks, feature_dim))
    for b in range(num_blocks):
        means[b, b % feature_dim] = BLOCK_MEAN_SEPARATION * (1 + b // feature_dim)
    features = means[labels] + rng.standard_normal((n, feature_dim))

    # Row i of the n x n draw is stream values i * n .. i * n + n - 1. In the
    # rows of block [s, e) every column left of s lies below the diagonal, so
    # those s values are skipped with advance(s) instead of drawn.
    skip = rng.bit_generator.advance
    buf = np.empty(min(SBM_DRAW_ROWS, nodes_per_block) * n)
    counts, hit_cols = np.zeros(n + 1, dtype=np.int64), []
    for s in range(0, n, nodes_per_block):
        e = s + nodes_per_block
        for r0 in range(s, e, SBM_DRAW_ROWS):
            r1 = min(r0 + SBM_DRAW_ROWS, e)
            u = buf[: (r1 - r0) * (n - s)].reshape(r1 - r0, n - s)
            for row in u:
                skip(s)
                rng.random(out=row)
            hit = u < p_out
            # In-block columns, cleared on and below the diagonal.
            hit[:, : e - s] = np.triu(u[:, : e - s] < p_in, r0 - s + 1)
            r, c = np.divmod(np.flatnonzero(hit), n - s)
            counts[r0 + 1 : r1 + 1] = np.bincount(r, minlength=r1 - r0)
            hit_cols.append(c + s)
    cols = np.concatenate(hit_cols)
    upper = sp.csr_matrix((np.ones(len(cols)), cols, np.cumsum(counts)), shape=(n, n))
    # Both directions of every edge, each row's columns ascending.
    adj = upper + upper.T
    return GlobalGraph(num_nodes=n, features=features, labels=labels, adjacency=adj)


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
    node_pool: np.ndarray | None = None,
) -> list[ClientSubgraph]:
    """Split the graph into overlapping client subgraphs.

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
    if spec.num_clients > len(pool_ids):
        raise ValidationError("more clients than available nodes")

    rng = np.random.default_rng(spec.seed)
    P = spec.num_clients
    num_classes = graph.num_classes
    shuffled = rng.permutation(pool_ids)
    pool_size = int(round(spec.overlap_pool_fraction * len(shuffled)))
    overlap_pool, non_overlap = shuffled[:pool_size], shuffled[pool_size:]

    assignments: list[list[int]] = [[] for _ in range(P)]

    for c in range(num_classes):
        lab_nodes = rng.permutation(non_overlap[graph.labels[non_overlap] == c])
        shares = rng.dirichlet([spec.dirichlet_alpha_nonoverlap] * P)
        counts = _split_counts(shares, len(lab_nodes))
        offset = 0
        for i in range(P):
            assignments[i].extend(lab_nodes[offset : offset + counts[i]])
            offset += counts[i]

    pool_by_label = {
        c: overlap_pool[graph.labels[overlap_pool] == c] for c in range(num_classes)
    }
    R = len(overlap_pool)
    multipliers = spec.overlap_multipliers or (1.0,) * P
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
            assignments[i].append(assignments[donor].pop())

    return [
        induced_subgraph(graph, np.unique(np.array(a, dtype=np.int64)), i)
        for i, a in enumerate(assignments)
    ]


def true_overlap_matrices(parts: list[ClientSubgraph]) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth node and link overlap ratio matrices.

    node[i, k] = |Vi ∩ Vk| / |Vi|; link[i, k] = |Ei ∩ Ek| / |Ei| with edges
    as unordered global-id pairs. Diagonals are 1 by convention.
    """
    P = len(parts)
    node_sets = [set(p.node_ids.tolist()) for p in parts]
    edge_sets = [p.edge_set() for p in parts]
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
