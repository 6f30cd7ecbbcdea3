"""Two-layer graph convolutional network with manual forward/backward passes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import ClientSubgraph, ValidationError


class NumericError(ArithmeticError):
    """Raised when a non-finite value appears during a forward pass."""


@dataclass(frozen=True)
class GcnModel:
    W1: np.ndarray  # (feature_dim, hidden_dim)
    W2: np.ndarray  # (hidden_dim, num_classes)

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[1]


@dataclass(frozen=True)
class GradientSet:
    dW1: np.ndarray
    dW2: np.ndarray


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""

    matrix: sp.csr_matrix


@dataclass(frozen=True)
class AdjacencyRows:
    """Rows ids of a normalized adjacency, sliced once for repeated use.

    forward with AdjacencyRows computes the second hop for these rows only;
    the logits of every other row are those of a zero hidden aggregate.
    """

    ids: np.ndarray
    matrix: sp.csr_matrix  # NormalizedAdjacency.matrix[ids]


def adjacency_rows(a_hat: NormalizedAdjacency, ids) -> AdjacencyRows:
    """Slice the rows with index array ids out of a_hat."""
    ids = np.asarray(ids)
    return AdjacencyRows(ids, a_hat.matrix[ids])


def init_model(feature_dim: int, hidden_dim: int, num_classes: int, rng) -> GcnModel:
    """Glorot-uniform initialization from the given generator."""

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return GcnModel(glorot(feature_dim, hidden_dim), glorot(hidden_dim, num_classes))


def normalize_adjacency(sub) -> NormalizedAdjacency:
    """Build D^-1/2 (A + I) D^-1/2 from a subgraph or raw adjacency."""
    adj = sub.adjacency if isinstance(sub, ClientSubgraph) else sub
    n = adj.shape[0]
    a_tilde = (adj + sp.eye(n, format="csr")).tocsr()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    d_mat = sp.diags(d_inv_sqrt)
    return NormalizedAdjacency((d_mat @ a_tilde @ d_mat).tocsr())


def propagate(a_hat: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """A_hat * X, the first hop; A_hat and X are fixed per graph, so callers
    compute it once and pass it to forward, loss_and_grad and masked_loss."""
    return a_hat.matrix @ x


def forward(model: GcnModel, a_hat: NormalizedAdjacency | AdjacencyRows, ax: np.ndarray):
    """logits = A_hat * relu(AX * W1) * W2 with AX = propagate(a_hat, x),
    plus the cache for backward.

    With AdjacencyRows only those rows' logits are computed. Their
    aggregates sit at their own rows of an otherwise zero matrix, so the
    dense product runs with the same shape as for the whole graph and each
    computed row keeps the bits of the full forward pass.
    """
    z1 = ax @ model.W1
    h = np.maximum(z1, 0.0)
    if not np.isfinite(h).all():
        raise NumericError("non-finite hidden layer in forward pass")
    if isinstance(a_hat, AdjacencyRows):
        ah = np.zeros_like(h)
        ah[a_hat.ids] = a_hat.matrix @ h
    else:
        ah = a_hat.matrix @ h
    logits = ah @ model.W2
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    return logits, {"z1": z1, "ah": ah}


def _masked_softmax_ce(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                       grad: bool = False):
    """Mean cross-entropy over masked rows; returns (loss, dlogits or None).

    dlogits, the gradient of the loss with respect to all logits, is only
    computed when grad is set.
    """
    ml = logits[mask]
    shifted = ml - ml.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    idx = np.arange(len(ml))
    y = labels[mask]
    loss = -np.mean(shifted[idx, y] - np.log(total[:, 0]))
    if not grad:
        return loss, None
    dmasked = exp / total
    dmasked[idx, y] -= 1.0
    dmasked /= len(ml)
    dlogits = np.zeros_like(logits)
    dlogits[mask] = dmasked
    return loss, dlogits


def loss_and_grad(
    model: GcnModel,
    a_hat: NormalizedAdjacency,
    ax: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
):
    """Masked mean cross-entropy and its exact gradient.

    ax is propagate(a_hat, x). mask is an index array or boolean mask of
    nodes contributing to the loss; all nodes still participate in
    propagation.
    """
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    if len(mask) == 0:
        raise ValidationError("mask must select at least one node")

    a = a_hat.matrix
    logits, cache = forward(model, a_hat, ax)
    loss, dlogits = _masked_softmax_ce(logits, labels, mask, grad=True)

    dW2 = cache["ah"].T @ dlogits
    dh = (a @ dlogits) @ model.W2.T  # A_hat is symmetric
    dz1 = dh * (cache["z1"] > 0)
    dW1 = ax.T @ dz1
    return loss, GradientSet(dW1, dW2)


def masked_loss(model, a_hat, ax, labels, mask) -> float:
    """Masked mean cross-entropy; ax is propagate(a_hat, x)."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    logits, _ = forward(model, a_hat, ax)
    loss, _ = _masked_softmax_ce(logits, labels, mask)
    return float(loss)


def sgd_step(model: GcnModel, grads: GradientSet, lr: float) -> GcnModel:
    if lr <= 0:
        raise ValidationError("lr must be positive")
    return GcnModel(model.W1 - lr * grads.dW1, model.W2 - lr * grads.dW2)

