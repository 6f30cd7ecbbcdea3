"""Server-side overlap reconstruction from sanitized batches.

Matches sanitized node vectors across clients, turns batch-level match
counts into population overlap ratio estimates for every ordered pair of
a round's uploads (one matching per unordered pair), and maintains the
accumulated per-pair overlap state that drives aggregation weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import graph
from .graph import ValidationError
from .ldp import Encoder, LdpParams, SanitizedBatch, perturb_node, triu_pairs

# The OverlapState matrices a run records each round, in this order.
HISTORY = ("N_round", "T_round", "N_acc", "T_acc", "O")


@dataclass(frozen=True)
class MatchResult:
    """Greedy one-to-one matching between two sanitized batches a and b.

    Symmetric: match_nodes(b, a, tau) accepts the transposed pairs and
    counts the same shared links (see estimate_round).
    """

    pairs: tuple[tuple[int, int], ...]  # (index in batch a, index in batch b)
    shared: int    # links between matched pairs that both batches report


@dataclass(frozen=True)
class OverlapState:
    """Round, accumulated, and coupled overlap matrices for P clients."""

    N_round: np.ndarray
    T_round: np.ndarray
    N_acc: np.ndarray
    T_acc: np.ndarray
    O: np.ndarray
    alpha: float   # coupling weight between node and link ratios
    beta: float    # accumulation weight for new round estimates

    @classmethod
    def initial(cls, num_clients: int, alpha: float, beta: float) -> "OverlapState":
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError("alpha must be in [0, 1]")
        if not 0.0 < beta <= 1.0:
            raise ValidationError("beta must be in (0, 1]")
        z = np.zeros((num_clients, num_clients))
        return cls(z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), alpha, beta)

    @property
    def num_clients(self) -> int:
        return self.O.shape[0]


def match_nodes(a: SanitizedBatch, b: SanitizedBatch, tau: float) -> MatchResult:
    """Match nodes across batches by sanitized-vector distance below tau.

    Candidate cross pairs with Euclidean distance < tau are accepted in
    ascending-distance order (ties by index in a, then in b), each endpoint
    at most once. tau = 0 matches only bitwise-equal vectors.
    """
    diff = a.sanitized_nodes[:, None, :] - b.sanitized_nodes[None, :, :]
    # The reduction np.linalg.norm(diff, axis=2) performs, bit for bit.
    dists = np.sqrt(np.add.reduce(diff * diff, axis=2))
    cand = np.flatnonzero(dists < tau if tau > 0 else dists == 0.0)
    # Flat order is (index in a, index in b), so a stable sort on distance
    # visits candidates by (distance, index in a, index in b).
    order = cand[np.argsort(dists.ravel()[cand], kind="stable")]
    free_a, free_b = [True] * a.batch_size, [True] * b.batch_size
    match_a, match_b, limit = [], [], min(a.batch_size, b.batch_size)
    in_a, in_b = np.divmod(order, b.batch_size)
    for ia, ib in zip(in_a.tolist(), in_b.tolist()):
        if free_a[ia] and free_b[ib]:
            free_a[ia] = free_b[ib] = False
            match_a.append(ia)
            match_b.append(ib)
            if len(match_a) == limit:
                break

    # Links between matched pairs m < m' that both batches report.
    rows, cols = triu_pairs(len(match_a))
    pa, pb = np.array(match_a, dtype=np.int64), np.array(match_b, dtype=np.int64)
    shared = int(np.count_nonzero(np.logical_and(a.sanitized_adjacency[pa[rows], pa[cols]],
                                                 b.sanitized_adjacency[pb[rows], pb[cols]])))
    return MatchResult(tuple(zip(match_a, match_b)), shared)


def _upper_links(batch: SanitizedBatch) -> int:
    rows, cols = triu_pairs(batch.batch_size)
    return int(batch.sanitized_adjacency[rows, cols].sum())


def estimate_node_ratio(n_tilde: float, n_i: int, n_k: int, b_i: int, b_k: int) -> float:
    """Scale a batch match fraction up to a population node overlap ratio.

    n_tilde * n_k / b_k, the unbiased estimator of |Vi ∩ Vk| / n_i under
    uniform batch sampling, clamped to [0, 1].
    """
    if b_k <= 0 or b_i <= 0:
        raise ValidationError("batch sizes must be positive")
    if b_i > n_i or b_k > n_k:
        raise ValidationError("batch size cannot exceed client node count")
    return min(max(n_tilde * n_k / b_k, 0.0), 1.0)


def estimate_link_ratio(t_tilde: float, n_k: int, b_k: int) -> float:
    """Scale a batch link agreement fraction up to a population link ratio.

    Uses (n_k / b_k)^2, the inverse of the probability that both endpoints
    of a shared link land in client k's batch. Clamped to [0, 1].
    """
    return min(max(t_tilde * (n_k / b_k) ** 2, 0.0), 1.0)


def estimate_round(
    batches: list[SanitizedBatch], tau: float
) -> dict[tuple[int, int], tuple[float, float]]:
    """(node, link) ratio estimates for every ordered pair of one round's uploads.

    Keyed by (client i, client k); the (i, k) and (k, i) entries need not
    agree. Fewer than two uploads give {}. Each unordered pair is matched
    once: greedy matching under a strict order depends only on how
    candidates that share an endpoint are ordered (Preis 1999), and both
    directions order those alike (by distance, then by the index in the
    other batch), so match_nodes(b, a) is the transpose of match_nodes(a, b).
    Direction x -> y divides the matches by b_x and the shared links by the
    links x reports, counted once per upload.
    """
    counted = [(batch, _upper_links(batch)) for batch in batches]
    estimates = {}
    for i, (a, a_links) in enumerate(counted):
        for b, b_links in counted[i + 1:]:
            if a.client_id == b.client_id:
                continue
            match = match_nodes(a, b, tau)
            for x, y, x_links in ((a, b, a_links), (b, a, b_links)):
                matched = len(match.pairs) / x.batch_size if x.batch_size else 0.0
                agreed = match.shared / x_links if x_links else 0.0
                estimates[(x.client_id, y.client_id)] = (
                    estimate_node_ratio(matched, x.reported_n, y.reported_n,
                                        x.batch_size, y.batch_size),
                    estimate_link_ratio(agreed, y.reported_n, y.batch_size),
                )
    return estimates


def update_state(
    state: OverlapState,
    round_estimates: dict[tuple[int, int], tuple[float, float]],
) -> OverlapState:
    """Fold this round's per-pair (node, link) estimates into the state.

    Pairs absent from round_estimates keep their accumulated values; the
    coupled matrix O is recomputed entrywise.
    """
    n_round = np.zeros_like(state.N_round)
    t_round = np.zeros_like(state.T_round)
    n_acc = state.N_acc.copy()
    t_acc = state.T_acc.copy()
    beta = state.beta
    for (i, k), (n_est, t_est) in round_estimates.items():
        n_round[i, k] = n_est
        t_round[i, k] = t_est
        n_acc[i, k] = beta * n_est + (1.0 - beta) * n_acc[i, k]
        t_acc[i, k] = beta * t_est + (1.0 - beta) * t_acc[i, k]
    o = state.alpha * n_acc + (1.0 - state.alpha) * t_acc
    return replace(state, N_round=n_round, T_round=t_round, N_acc=n_acc, T_acc=t_acc, O=o)


def client_weights(o: np.ndarray) -> np.ndarray:
    """Aggregation weight 1 / (1 + O_i) of every client, where O_i is row i
    of the coupled overlap matrix o summed without its diagonal entry."""
    return 1.0 / (1.0 + (o.sum(axis=1) - o.diagonal()))


def calibrate_tau(
    encoder: Encoder,
    public_nodes: np.ndarray,
    params: LdpParams,
    rng,
    percentile: float,
) -> float:
    """Distance threshold at the given percentile of sanitized self-distance.

    Each public node is perturbed twice; the distance between the two
    responses measures the noise scale a true re-encounter must tolerate.
    """
    encoded = encoder.encode(public_nodes)
    dists = []
    # Shape (rows, 2, d1) draws row by row, then copy, then coordinate, so
    # blocks of graph.ROW_BLOCK rows draw the whole (n, 2, d1) stream in order
    # while holding the (rows, 2, d1, p + 1) grid arrays of one block alone.
    for lo in range(0, len(encoded), graph.ROW_BLOCK):
        block = encoded[lo : lo + graph.ROW_BLOCK]
        twice = perturb_node(np.stack([block, block], axis=1), params, rng,
                             encoder.x_min, encoder.x_max)
        # Norm per row: a row-wise reduction may sum in another order, and
        # grid steps 1/p are not exact binary fractions for every p.
        dists += [np.linalg.norm(diff) for diff in twice[:, 0] - twice[:, 1]]
    return float(np.percentile(dists, percentile))
