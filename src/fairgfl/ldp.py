"""Local differential privacy for mini-batch subgraphs.

Covers the feature encoder, the quantile-grid node mechanism, randomized
response on adjacency bits, the density-based sparsification correction,
and the permanent-response cache that neutralizes repeated queries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import ClientSubgraph, ValidationError, check_size
from .gcn import NumericError

# Nudge before flooring so grid points themselves do not flip buckets
# through floating-point representation error.
_FLOOR_EPS = 1e-12

# Step size and mini-batch size of train_encoder's autoencoder SGD.
ENCODER_LR = 0.01
ENCODER_BATCH = 32


@dataclass(frozen=True)
class LdpParams:
    """Privacy budgets and grid resolution for subgraph sanitization."""

    epsilon_a: float = 3.0  # per-element node feature budget
    epsilon_b: float = 1.0  # per-link budget
    quantiles: int = 8      # grid has quantiles + 1 points {i/p}

    def __post_init__(self):
        if self.quantiles < 1:
            raise ValidationError("quantiles must be >= 1")
        check_size(self.quantiles + 1)  # the grid's points, before any float arithmetic
        # The node weights sum to at most (p + 1)·e^epsilon_a; p_e reads e^epsilon_b.
        with np.errstate(over="ignore"):
            tops = (np.exp(self.epsilon_a) * (self.quantiles + 1.0), np.exp(self.epsilon_b))
        if not (self.epsilon_a > 0 and self.epsilon_b > 0 and np.isfinite(tops).all()):
            raise ValidationError(
                "privacy budgets must be positive, with (quantiles + 1)·e^epsilon_a and "
                f"e^epsilon_b finite float64: epsilon_a = {self.epsilon_a!r}, "
                f"epsilon_b = {self.epsilon_b!r}")
        if abs(1.0 - 2.0 * self.flip_probability) < 1e-12:  # as sparsify_correct checks
            raise ValidationError("epsilon_b is too small: p_e = 1/2 leaves the raw "
                                  "link density unidentifiable")

    @property
    def flip_probability(self) -> float:
        """p_e = 1 / (1 + e^epsilon_b), always in (0, 1/2)."""
        return 1.0 / (1.0 + np.exp(self.epsilon_b))


@dataclass(frozen=True)
class Encoder:
    """Encode half of a single-hidden-layer autoencoder, with output clamp range."""

    W: np.ndarray   # (feature_dim, d1)
    b: np.ndarray   # (d1,)
    d1: int
    x_min: float
    x_max: float

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.atleast_2d(x) @ self.W + self.b)


@dataclass
class PermanentCache:
    """First-response cache: each node vector and link bit is perturbed once.

    The arrays cover one client's local rows; the first sanitize_batch
    call allocates them and binds the cache to its client.
    """

    nodes: set[int] = field(default_factory=set)  # global ids of the drawn vectors
    node_ids: np.ndarray | None = None   # the bound client's global ids
    vectors: np.ndarray | None = None    # (n_i, d1) perturbed rows, valid for nodes
    links: np.ndarray | None = None      # (n_i, n_i) int8 bits, -1 undrawn, symmetric

    def _bind(self, node_ids: np.ndarray, d1: int) -> PermanentCache:
        """Allocate the arrays for node_ids on first use; refuse other ids later."""
        if self.node_ids is None:
            n = len(node_ids)
            self.node_ids, self.vectors = node_ids, np.empty((n, d1))
            self.links = np.full((n, n), -1, dtype=np.int8)
        elif not np.array_equal(self.node_ids, node_ids):
            raise ValidationError("a permanent cache serves only the client it was first used for")
        return self


@dataclass(frozen=True)
class SanitizedBatch:
    """The only client data the server ever sees for one round."""

    client_id: int
    batch_size: int
    sanitized_nodes: np.ndarray       # (b, d1), entries on the grid {i/p}
    sanitized_adjacency: np.ndarray   # (b, b) binary, symmetric
    reported_n: int                   # client node count, public metadata
    node_ids: np.ndarray = None       # bookkeeping only; estimators must not read


def train_encoder(public_nodes: np.ndarray, d1: int, epochs: int, seed: int) -> Encoder:
    """Train an autoencoder on public node features and return its encode half.

    The clamp range [x_min, x_max] is the min/max of encoder outputs over
    the public set, padded by 5% of the span. Raises NumericError if the
    weights or the range are not finite.
    """
    x = np.asarray(public_nodes, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("public_nodes must be a non-empty matrix")
    feature_dim = x.shape[1]
    if d1 >= feature_dim:
        raise ValidationError("encoded dimension must be smaller than feature_dim")

    rng = np.random.default_rng(seed)
    scale1 = np.sqrt(6.0 / (feature_dim + d1))
    W1 = rng.uniform(-scale1, scale1, size=(feature_dim, d1))
    b1 = np.zeros(d1)
    W2 = rng.uniform(-scale1, scale1, size=(d1, feature_dim))
    b2 = np.zeros(feature_dim)

    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, ENCODER_BATCH):
            xb = x[order[start : start + ENCODER_BATCH]]
            z = xb @ W1 + b1
            h = np.tanh(z)
            rec = h @ W2 + b2
            err = rec - xb
            m = len(xb)
            dW2 = h.T @ err * (2.0 / m)
            db2 = err.mean(axis=0) * 2.0
            dh = err @ W2.T * (2.0 / m)
            dz = dh * (1.0 - h**2)
            dW1 = xb.T @ dz
            db1 = dz.sum(axis=0)
            W1 -= ENCODER_LR * dW1
            b1 -= ENCODER_LR * db1
            W2 -= ENCODER_LR * dW2
            b2 -= ENCODER_LR * db2

    out = np.tanh(x @ W1 + b1)
    lo, hi = float(out.min()), float(out.max())
    if not (np.isfinite(W1).all() and np.isfinite(b1).all() and math.isfinite(lo + hi)):
        raise NumericError("encoder training diverged")
    pad = 0.05 * max(hi - lo, 1e-12)
    return Encoder(W=W1, b=b1, d1=d1, x_min=lo - pad, x_max=hi + pad)


def node_grid_probs(x_hat, epsilon_a: float, p: int) -> np.ndarray:
    """Output distribution of the node mechanism over the grid {i/p}.

    Probability of grid point i/p decays exponentially in the floored
    grid distance from the normalized input x_hat in [0, 1]. Broadcasts:
    an array x_hat gives one distribution per element, on the last axis.
    """
    i = np.arange(p + 1)
    dist = np.floor(p * np.abs(np.asarray(x_hat)[..., None] - i / p) + _FLOOR_EPS)
    weights = np.exp(epsilon_a * (1.0 - dist / p))
    return weights / weights.sum(axis=-1, keepdims=True)


def perturb_node(x: np.ndarray, params: LdpParams, rng,
                 x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Independently map each element of x to a grid point in {i/p}.

    One uniform u is drawn per element in C order; the output is the first
    grid point whose cumulative probability exceeds u.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericError("perturb_node input must be finite")
    span = x_max - x_min
    if span <= 0:
        raise ValidationError("x_max must exceed x_min")
    x_hat = (np.clip(x, x_min, x_max) - x_min) / span
    p = params.quantiles
    cum = np.cumsum(node_grid_probs(x_hat, params.epsilon_a, p), axis=-1)
    u = rng.random(x_hat.shape)
    # the count of cumulative probabilities <= u is searchsorted(side="right")
    return (cum <= u[..., None]).sum(axis=-1) / p


@functools.lru_cache(maxsize=None)
def triu_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(b, k=1)``, built once per batch size."""
    rows, cols = np.triu_indices(b, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def perturb_links(bits: np.ndarray, params: LdpParams, rng) -> np.ndarray:
    """Randomized response on raw 0/1 link bits: flip each with probability
    p_e, drawing one uniform per bit in order. Returns int64 bits."""
    bits = np.asarray(bits, dtype=np.int64)
    return np.where(rng.random(bits.shape) < params.flip_probability, 1 - bits, bits)


def expected_density(x: float, p_e: float) -> float:
    """Expected fraction of 1s after randomized response with flip rate p_e."""
    return x + p_e - 2.0 * x * p_e


def sparsify_correct(noised_adj: np.ndarray, sanitized_nodes: np.ndarray,
                     p_e: float) -> np.ndarray:
    """Drop flipped-in links, removing the 1s with the largest feature distance.

    The raw density is estimated by inverting the randomized-response
    expectation; the surplus 1s are zeroed in order of descending
    Euclidean distance between their endpoints' sanitized vectors
    (deterministic tiebreak by pair index). Uses only post-processed
    private data.
    """
    if abs(1.0 - 2.0 * p_e) < 1e-12:
        raise ValidationError("p_e = 1/2 leaves the raw density unidentifiable")
    adj = np.array(noised_adj, dtype=np.int64)  # a copy, returned to the caller
    b = adj.shape[0]
    n_pairs = b * (b - 1) // 2
    if n_pairs == 0:
        return adj
    rows, cols = triu_pairs(b)
    ones = adj[rows, cols] == 1
    p0 = ones.sum() / n_pairs
    x_hat = min(max((p0 - p_e) / (1.0 - 2.0 * p_e), 0.0), p0)
    n_remove = int(round((p0 - x_hat) * n_pairs))
    if n_remove <= 0:
        return adj

    one_idx = np.flatnonzero(ones)
    diffs = sanitized_nodes[rows[one_idx]] - sanitized_nodes[cols[one_idx]]
    dists = np.linalg.norm(diffs, axis=1)
    # descending distance, ties broken by ascending pair index
    order = np.lexsort((one_idx, -dists))
    drop = one_idx[order[:n_remove]]
    adj[rows[drop], cols[drop]] = adj[cols[drop], rows[drop]] = 0
    return adj


def sanitize_batch(
    sub: ClientSubgraph,
    batch: np.ndarray,
    encoder: Encoder,
    params: LdpParams | None,
    cache: PermanentCache | None,
    rng,
) -> SanitizedBatch:
    """Sanitize one mini-batch: encode, clamp, perturb nodes, flip links, correct.

    With a cache, each node vector and link bit is perturbed at most once
    ever; later batches reuse the stored responses. A cache serves only
    the client it was first used for. With params None (use_ldp = off)
    the encoded vectors and raw link bits are uploaded as they are: no
    perturbation, no correction, no draw from rng, and a cache passed in
    is left untouched: the upload runs on a throwaway cache, as without one.
    """
    batch = np.asarray(batch, dtype=np.int64)
    local = sub.local_rows(batch)
    b, ids = len(batch), batch.tolist()
    if len(set(ids)) != b:
        raise ValidationError("batch node ids must be distinct")
    if params is None or cache is None:  # a throwaway cache over the batch's own rows
        cache, slots = PermanentCache()._bind(batch, encoder.d1), np.arange(b)
    else:
        cache, slots = cache._bind(sub.node_ids, encoder.d1), local

    # Rows not yet cached are encoded (and perturbed) afresh, in batch order.
    vectors = cache.vectors[slots]
    fresh_rows = np.array([gid not in cache.nodes for gid in ids], dtype=bool)
    if fresh_rows.any():
        encoded = encoder.encode(sub.features[local[fresh_rows]])
        vectors[fresh_rows] = encoded if params is None else perturb_node(
            encoded, params, rng, encoder.x_min, encoder.x_max)
        cache.vectors[slots[fresh_rows]] = vectors[fresh_rows]
        cache.nodes.update(batch[fresh_rows].tolist())

    # Upper-triangle link bits in row-major order; uncached ones are read (and flipped) afresh.
    rows, cols = triu_pairs(b)
    bits = cache.links[slots[rows], slots[cols]]
    fresh = bits < 0
    raw = sub.has_edges(local[rows[fresh]], local[cols[fresh]])
    bits[fresh] = raw if params is None else perturb_links(raw, params, rng)
    cache.links[slots[rows], slots[cols]] = cache.links[slots[cols], slots[rows]] = bits
    adjacency = np.zeros((b, b), dtype=np.int64)
    adjacency[rows, cols] = bits
    adjacency += adjacency.T
    if params is not None:
        adjacency = sparsify_correct(adjacency, vectors, params.flip_probability)
    return SanitizedBatch(
        client_id=sub.client_id,
        batch_size=b,
        sanitized_nodes=vectors,
        sanitized_adjacency=adjacency,
        reported_n=sub.num_nodes,
        node_ids=batch,
    )
