"""Two-layer graph convolutional network with manual forward/backward passes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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


@dataclass(frozen=True)
class Stack:
    """Graphs stacked block-diagonally: one CSR A_hat, one A_hat * X and one
    label vector (see stack_graphs).

    Graph b owns rows (and columns) bounds[b]:bounds[b+1] of a_hat and its
    entries of labels, and axs[b] is its A_hat * X, a view into one array.
    """

    a_hat: sp.csr_matrix
    axs: tuple[np.ndarray, ...]
    labels: np.ndarray
    bounds: tuple[int, ...]

    def select(self, ids) -> Stack:
        """The stack of graphs ids alone, in that order: their rows of a_hat,
        entries in stored order, with the columns shifted to match."""
        a, ptr, b = self.a_hat, self.a_hat.indptr, self.bounds
        data, indices, indptr, bounds = [], [], [ptr[:1]], [0]
        nnz = 0
        for i in ids:
            lo, hi = ptr[b[i]], ptr[b[i + 1]]
            data.append(a.data[lo:hi])
            indices.append(a.indices[lo:hi] - (b[i] - bounds[-1]))
            indptr.append(ptr[b[i] + 1 : b[i + 1] + 1] - (lo - nnz))
            bounds.append(bounds[-1] + b[i + 1] - b[i])
            nnz += hi - lo
        n = bounds[-1]
        a_sel = sp.csr_matrix(
            (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
            shape=(n, n),
        )
        labels = np.concatenate([self.labels[b[i] : b[i + 1]] for i in ids])
        return Stack(a_sel, tuple(self.axs[i] for i in ids), labels, tuple(bounds))


def stack_graphs(subgraphs) -> Stack:
    """Normalize and propagate each subgraph, and stack the results.

    Each graph's CSR arrays are concatenated with offsets, so every row of
    the stack keeps the entries, in the entry order, of the graph alone.
    """
    bounds = tuple(accumulate((s.num_nodes for s in subgraphs), initial=0))
    ax = np.empty((bounds[-1], subgraphs[0].features.shape[1]))
    data, indices, indptr = [], [], []
    nnz = 0
    for s, lo, hi in zip(subgraphs, bounds[:-1], bounds[1:]):
        a_hat = normalize_adjacency(s.adjacency)
        ax[lo:hi] = propagate(a_hat, s.features)
        data.append(a_hat.data)
        indices.append(a_hat.indices + lo)
        indptr.append(a_hat.indptr[:-1] + nnz)
        nnz += int(a_hat.indptr[-1])
    indptr.append(np.array([nnz], dtype=indptr[-1].dtype))
    a_hat = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
        shape=(bounds[-1], bounds[-1]),
    )
    axs = tuple(ax[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    return Stack(a_hat, axs, np.concatenate([s.labels for s in subgraphs]), bounds)


def stack_forward(models, a_hat: sp.csr_matrix, axs):
    """(logits, h) of stacked graphs: graph b has model models[b] and
    A_hat * X axs[b], and a_hat is the graphs' block-diagonal A_hat, or a
    CSR row slice of it, giving those rows of the logits.

    h stacks relu(axs[b] * W1_b), and logits = A_hat * Y with Y the stacked
    h_b * W2_b: the sparse product is num_classes wide. Every row has the
    bits of a pass over its graph alone: each graph's products keep that
    pass's shapes, the other steps act on each entry alone, and a CSR
    product computes each row from its own entries, in stored order.
    """
    bounds = list(accumulate((len(ax) for ax in axs), initial=0))
    h = np.empty((bounds[-1], models[0].W1.shape[1]))
    y = np.empty((bounds[-1], models[0].W2.shape[1]))
    for model, ax, lo, hi in zip(models, axs, bounds, bounds[1:]):
        np.matmul(ax, model.W1, out=h[lo:hi])
    np.maximum(h, 0.0, out=h)
    if not np.isfinite(h).all():
        raise NumericError("non-finite hidden layer in forward pass")
    for model, lo, hi in zip(models, bounds, bounds[1:]):
        np.matmul(h[lo:hi], model.W2, out=y[lo:hi])
    logits = a_hat @ y
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    return logits, h


def forward(model: GcnModel, a_hat: sp.csr_matrix, ax: np.ndarray):
    """stack_forward of one graph: (logits, h). a_hat may be a row slice
    of A_hat, giving those rows of the logits with the bits of the full
    pass."""
    return stack_forward((model,), a_hat, (ax,))


def _softmax_ce(logits, rows, labels, sizes, grad=False):
    """Mean cross-entropy of logits' rows `rows` (all rows if None) against
    labels, one mean per run of sizes[b] consecutive rows; returns (losses,
    dlogits or None).

    dlogits, the gradient of the sum of the means with respect to all
    logits, is only computed when grad is set. Each row is computed on its
    own, and each mean is np.mean's sum and division over its run alone, so
    a run has the bits of a pass over its rows alone.
    """
    ml = logits if rows is None else logits[rows]
    shifted = ml - ml.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    idx = np.arange(len(ml))
    terms = shifted[idx, labels] - np.log(total[:, 0])
    losses, end = [], 0
    for n in sizes:
        losses.append(-(np.add.reduce(terms[end : end + n]) / n))
        end += n
    if not grad:
        return losses, None
    dml = exp / total
    dml[idx, labels] -= 1.0
    dml /= np.repeat(sizes, sizes)[:, None]
    if rows is None:
        return losses, dml
    dlogits = np.zeros_like(logits)
    dlogits[rows] = dml
    return losses, dlogits


def _masked_softmax_ce(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                       grad: bool = False):
    """Mean cross-entropy over masked rows; returns (loss, dlogits or None)."""
    (loss,), dlogits = _softmax_ce(logits, mask, labels[mask], (len(mask),), grad)
    return loss, dlogits


def _mask_rows(stack: Stack, masks):
    """(rows, labels, sizes): the stack rows that per-graph masks select, in
    order, their labels, and how many each graph gives. masks[b] is an index
    array or boolean mask of graph b's nodes; masks None selects every row,
    and rows is then None."""
    b = stack.bounds
    if masks is None:
        return None, stack.labels, [hi - lo for lo, hi in zip(b, b[1:])]
    rows = []
    for lo, mask in zip(b, masks):
        mask = np.asarray(mask)
        rows.append(lo + (np.flatnonzero(mask) if mask.dtype == bool else mask))
    sizes = [len(r) for r in rows]
    rows = np.concatenate(rows)
    return rows, stack.labels[rows], sizes


def stack_loss_and_grad(models, stack: Stack, masks):
    """Each graph's masked mean cross-entropy and its exact gradient, in one
    pass over a Stack: (losses, grads), one loss and one GcnModel per graph.

    masks[b] is an index array or boolean mask of the nodes of graph b
    that contribute to its loss; all nodes still participate in
    propagation. The one sparse product, G = A_hat * dlogits, is
    num_classes wide.
    """
    rows, labels, sizes = _mask_rows(stack, masks)
    if 0 in sizes:
        raise ValidationError("mask must select at least one node")
    logits, h = stack_forward(models, stack.a_hat, stack.axs)
    losses, dlogits = _softmax_ce(logits, rows, labels, sizes, grad=True)
    g = stack.a_hat @ dlogits  # A_hat^T * dlogits: A_hat is symmetric
    dz1 = np.empty_like(h)
    b = stack.bounds
    for model, lo, hi in zip(models, b, b[1:]):
        np.matmul(g[lo:hi], model.W2.T, out=dz1[lo:hi])
    dz1 *= h > 0  # h > 0 exactly where ax @ W1 > 0
    grads = [GcnModel(ax.T @ dz1[lo:hi], h[lo:hi].T @ g[lo:hi])
             for ax, lo, hi in zip(stack.axs, b, b[1:])]
    return losses, grads


def stack_losses(models, stack: Stack, masks=None) -> list[float]:
    """Each graph's masked mean cross-entropy, in one pass over a Stack;
    masks as in stack_loss_and_grad, None for every node of every graph."""
    rows, labels, sizes = _mask_rows(stack, masks)
    logits, _ = stack_forward(models, stack.a_hat, stack.axs)
    losses, _ = _softmax_ce(logits, rows, labels, sizes)
    return [float(loss) for loss in losses]


def loss_and_grad(
    model: GcnModel,
    a_hat: sp.csr_matrix,
    ax: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
):
    """stack_loss_and_grad of one graph: its masked mean cross-entropy and
    the exact gradient, as a GcnModel. ax is propagate(a_hat, x)."""
    one = Stack(a_hat, (ax,), labels, (0, len(ax)))
    (loss,), (grads,) = stack_loss_and_grad((model,), one, (mask,))
    return loss, grads


def masked_loss(model, a_hat, ax, labels, mask) -> float:
    """stack_losses of one graph: its masked mean cross-entropy; ax is
    propagate(a_hat, x)."""
    return stack_losses((model,), Stack(a_hat, (ax,), labels, (0, len(ax))), (mask,))[0]


def sgd_step(model: GcnModel, grads: GcnModel, lr: float) -> GcnModel:
    if lr <= 0:
        raise ValidationError("lr must be positive")
    return GcnModel(model.W1 - lr * grads.W1, model.W2 - lr * grads.W2)

