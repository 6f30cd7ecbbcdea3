"""Two-layer graph convolutional network with manual forward/backward passes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import ValidationError


class NumericError(ArithmeticError):
    """Raised when a non-finite value appears during a forward pass."""


@dataclass(frozen=True)
class GcnModel:
    W1: np.ndarray  # (feature_dim, hidden_dim)
    W2: np.ndarray  # (hidden_dim, num_classes)


def init_model(feature_dim: int, hidden_dim: int, num_classes: int, rng) -> GcnModel:
    """Glorot-uniform initialization from the given generator."""

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return GcnModel(glorot(feature_dim, hidden_dim), glorot(hidden_dim, num_classes))


def normalize_adjacency(adj: sp.csr_matrix) -> sp.csr_matrix:
    """A_hat = D^-1/2 (A + I) D^-1/2, the symmetric normalization with self-loops."""
    n = adj.shape[0]
    a_tilde = (adj + sp.eye(n, format="csr")).tocsr()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    # D @ A_tilde @ D's two products per entry, in its order, in place on
    # A_tilde's data: d_i * a_ij, then times d_j.
    a_tilde.data *= np.repeat(d_inv_sqrt, np.diff(a_tilde.indptr))
    a_tilde.data *= d_inv_sqrt[a_tilde.indices]
    return a_tilde


def propagate(a_hat: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A_hat * X, the first hop; A_hat and X are fixed per graph, so callers
    compute it once and pass it to forward, loss_and_grad and masked_loss."""
    return a_hat @ x


def forward(model: GcnModel, a_hat: sp.csr_matrix, ax: np.ndarray):
    """(logits, h) with h = relu(AX * W1), AX = propagate(a_hat, x), and
    logits = A_hat * (h * W2): the sparse product is num_classes wide.
    a_hat may be a row slice of A_hat, giving those rows of the logits with
    the bits of the full pass: h * W2 covers every node, and a CSR product
    computes each row on its own, in stored order."""
    h = np.maximum(ax @ model.W1, 0.0)
    if not np.isfinite(h).all():
        raise NumericError("non-finite hidden layer in forward pass")
    logits = a_hat @ (h @ model.W2)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    return logits, h


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
    a_hat: sp.csr_matrix,
    ax: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
):
    """Masked mean cross-entropy and its exact gradient, as a GcnModel.

    ax is propagate(a_hat, x). mask is an index array or boolean mask of
    nodes contributing to the loss; all nodes still participate in
    propagation. The one sparse product, G = A_hat * dlogits, is num_classes wide.
    """
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    if len(mask) == 0:
        raise ValidationError("mask must select at least one node")

    logits, h = forward(model, a_hat, ax)
    loss, dlogits = _masked_softmax_ce(logits, labels, mask, grad=True)

    g = a_hat @ dlogits  # A_hat^T * dlogits: A_hat is symmetric
    dW2 = h.T @ g
    dz1 = (g @ model.W2.T) * (h > 0)  # h > 0 exactly where ax @ W1 > 0
    dW1 = ax.T @ dz1
    return loss, GcnModel(dW1, dW2)


def masked_loss(model, a_hat, ax, labels, mask) -> float:
    """Masked mean cross-entropy; ax is propagate(a_hat, x)."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    logits, _ = forward(model, a_hat, ax)
    loss, _ = _masked_softmax_ce(logits, labels, mask)
    return float(loss)


def sgd_step(model: GcnModel, grads: GcnModel, lr: float) -> GcnModel:
    if lr <= 0:
        raise ValidationError("lr must be positive")
    return GcnModel(model.W1 - lr * grads.W1, model.W2 - lr * grads.W2)

