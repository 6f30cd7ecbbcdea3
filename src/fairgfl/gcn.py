"""Two-layer graph convolutional network with manual forward/backward passes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .graph import ValidationError, check_size, row_blocks


class NumericError(ArithmeticError):
    """Raised for a non-finite forward pass, client loss, encoder or perturb_node input."""


@dataclass(frozen=True)
class GcnModel:
    W1: np.ndarray  # (feature_dim, hidden_dim)
    W2: np.ndarray  # (hidden_dim, num_classes)


def init_model(feature_dim: int, hidden_dim: int, num_classes: int, rng) -> GcnModel:
    """Glorot-uniform initialization from the given generator."""

    def glorot(fan_in, fan_out):
        check_size(fan_in, fan_out)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return GcnModel(glorot(feature_dim, hidden_dim), glorot(hidden_dim, num_classes))


def normalize_adjacency(adj: sp.csr_matrix) -> sp.csr_matrix:
    """A_hat = D^-1/2 (A + I) D^-1/2, the symmetric normalization with self-loops."""
    return _normalize_rows(adj)


def _normalize_rows(adj, rows=None, d_inv_sqrt: np.ndarray | None = None) -> sp.csr_matrix:
    """Rows `rows` of A_hat = D^-1/2 (A + I) D^-1/2, a len(rows) x n CSR.

    rows is an index array, in any order and with repeats, or None for
    every row. d_inv_sqrt is deg^-1/2 of the whole graph's A + I; without
    it the rows must be all of adj, and their own degrees are used.
    """
    a_tilde = _tilde_rows(adj, rows)
    # Float64 before the row sums: scipy sums int8 rows through an int64 copy.
    a_tilde.data = a_tilde.data.astype(np.float64, copy=False)
    if d_inv_sqrt is None:
        d_inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    # D @ A_tilde @ D's two products per entry, in its order, in place on
    # A_tilde's data: d_i * a_ij, then times d_j. A row block at a time, so
    # no other temporary is as long as the matrix.
    ptr, data = a_tilde.indptr, a_tilde.data
    d_rows = d_inv_sqrt if rows is None else d_inv_sqrt[rows]
    for r0, r1 in row_blocks(a_tilde):
        seg = data[ptr[r0] : ptr[r1]]
        seg *= np.repeat(d_rows[r0:r1], np.diff(ptr[r0 : r1 + 1]))
        seg *= d_inv_sqrt[a_tilde.indices[ptr[r0] : ptr[r1]]]
    return a_tilde


def _tilde_rows(adj, rows=None) -> sp.csr_matrix:
    """Rows `rows` (None: all) of A + I: scipy's sum of those rows of adj
    and of I, whose row k holds a one at column rows[k]. I takes adj's dtype
    (at least int8), so an int8 adj gives an int8 sum: a float64 I would make
    scipy upcast adj through an nnz-long float64 temporary."""
    adj = adj.tocsr()
    n, idx = adj.shape[0], adj.indices.dtype
    cols = np.arange(n, dtype=idx) if rows is None else np.asarray(rows, dtype=idx)
    ones = np.ones(len(cols), dtype=np.result_type(adj.dtype, np.int8))
    eye = sp.csr_matrix((ones, cols, np.arange(len(cols) + 1, dtype=idx)),
                        shape=(len(cols), n))
    return ((adj if rows is None else adj[rows]) + eye).tocsr()


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
    """Stack the subgraphs block-diagonally: one A_hat, normalized once, and
    each graph's A_hat * X. Each row has the bits of its graph alone: a
    block-diagonal A_tilde's row sums are each graph's own degrees, block_diag's
    CSR is canonical, so A + I takes scipy's canonical sum as a graph alone
    does, and each row keeps its graph's entries in column order."""
    bounds = tuple(accumulate((s.num_nodes for s in subgraphs), initial=0))
    a_hat = normalize_adjacency(sp.block_diag([s.adjacency for s in subgraphs], format="csr"))
    ax = np.empty((bounds[-1], subgraphs[0].features.shape[1]))
    for s, lo, hi in zip(subgraphs, bounds[:-1], bounds[1:]):
        ax[lo:hi] = a_hat[lo:hi, lo:hi] @ s.features
    axs = tuple(ax[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    return Stack(a_hat, axs, np.concatenate([s.labels for s in subgraphs]), bounds)


def forward(models, a_hat: sp.csr_matrix, axs):
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
    # Row maxima over a Fortran copy, a class column at a time: on finite
    # logits this moves at most a zero's sign, and no output bit (README).
    shifted = ml - np.asfortranarray(ml).max(axis=1)[:, None]
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
    np.add.at(dlogits, rows, dml)  # a row drawn k times adds k terms
    return losses, dlogits


def _mask_rows(stack: Stack, masks):
    """(rows, labels, sizes): the stack rows that per-graph masks select, in
    order, their labels, and how many each graph gives. masks[b] is an index
    array or boolean mask of graph b's nodes that selects at least one;
    masks None selects every row, and rows is then None."""
    b = stack.bounds
    if masks is None:
        return None, stack.labels, [hi - lo for lo, hi in zip(b, b[1:])]
    rows = []
    for lo, mask in zip(b, masks):
        mask = np.asarray(mask)
        rows.append(lo + (np.flatnonzero(mask) if mask.dtype == bool else mask))
    sizes = [len(r) for r in rows]
    if 0 in sizes:
        raise ValidationError("mask must select at least one node")
    rows = np.concatenate(rows)
    return rows, stack.labels[rows], sizes


def loss_and_grad(models, stack: Stack, masks):
    """Each graph's masked mean cross-entropy and its exact gradient, in one
    pass over a Stack: (losses, grads), one loss and one GcnModel per graph.

    masks[b] is an index array or boolean mask of the nodes of graph b
    that contribute to its loss; all nodes still participate in
    propagation. The sparse products, the logits and G = A_hat^T * dlogits,
    are num_classes wide. When the masks select at most a quarter of the
    rows, both run over A_hat's rows u (the sorted selected rows) alone:
    the logits are A_hat[u] * Y, and G = A_hat[u]^T * dlogits[u], the same
    arrays read as a CSC. The bits are those of the full products: a CSR
    product computes each row on its own, A_hat_ij = d_i * d_j is bitwise
    symmetric, so both G's visit row i's nonzero terms in column order,
    and the terms G skips are +0.0, which leave a sum begun at +0.0 as is.
    """
    rows, labels, sizes = _mask_rows(stack, masks)
    a = a_t = stack.a_hat  # A_hat^T is A_hat: A_hat is symmetric
    if rows is not None and 4 * len(rows) <= a.shape[0]:
        u, rows = np.unique(rows, return_inverse=True)
        a = a[u]
        a_t = a.T  # a CSC on a's own arrays
    logits, h = forward(models, a, stack.axs)
    losses, dlogits = _softmax_ce(logits, rows, labels, sizes, grad=True)
    g = a_t @ dlogits
    dz1 = np.empty_like(h)
    b = stack.bounds
    for model, lo, hi in zip(models, b, b[1:]):
        np.matmul(g[lo:hi], model.W2.T, out=dz1[lo:hi])
    dz1 *= h > 0  # h > 0 exactly where ax @ W1 > 0
    grads = [GcnModel(ax.T @ dz1[lo:hi], h[lo:hi].T @ g[lo:hi])
             for ax, lo, hi in zip(stack.axs, b, b[1:])]
    return losses, grads


def masked_loss(models, stack: Stack, masks=None) -> list[float]:
    """Each graph's masked mean cross-entropy, in one pass over a Stack;
    masks as in loss_and_grad, None for every node of every graph."""
    rows, labels, sizes = _mask_rows(stack, masks)
    logits, _ = forward(models, stack.a_hat, stack.axs)
    losses, _ = _softmax_ce(logits, rows, labels, sizes)
    return [float(loss) for loss in losses]


def sgd_step(model: GcnModel, grads: GcnModel, lr: float) -> GcnModel:
    if lr <= 0:
        raise ValidationError("lr must be positive")
    return GcnModel(model.W1 - lr * grads.W1, model.W2 - lr * grads.W2)

