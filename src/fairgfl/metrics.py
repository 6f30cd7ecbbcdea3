"""Fairness and utility metrics plus round-record CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .gcn import GcnModel, _softmax_ce, forward
from .graph import ValidationError


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    algorithm: str
    test_loss: float
    test_acc: float
    loss_variance: float
    loss_entropy: float
    per_client_losses: tuple[float, ...]
    wall_time_ms: float = 0.0


def loss_variance(losses) -> float:
    """Population variance of per-client losses."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValidationError("losses must be non-empty")
    return float(np.mean((losses - losses.mean()) ** 2))


def loss_entropy(losses) -> float:
    """Entropy (natural log) of losses normalized by their L1 mass.

    All-zero losses are the perfectly fair degenerate case: ln(P).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValidationError("losses must be non-empty")
    if (losses < 0).any():
        raise ValidationError("losses must be non-negative")
    total = losses.sum()
    if total == 0:
        return float(np.log(len(losses)))
    shares = losses / total
    nz = shares[shares > 0]
    return float(-(nz * np.log(nz)).sum())


def evaluate_global(
    model: GcnModel,
    a_test: sp.csr_matrix,
    ax: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float]:
    """Cross-entropy loss and top-1 accuracy on the test nodes of the graph.

    a_test is the test rows of the global A_hat, a_hat[test_ids], and
    labels their labels; ax is A_hat * X over the whole graph. Only the
    test rows of the second hop are computed, with the bits of a
    full-graph forward pass.
    """
    if a_test.shape[0] == 0:
        raise ValidationError("test mask must be non-empty")
    if len(labels) != a_test.shape[0]:
        raise ValidationError("labels must hold one entry per row of a_test")
    logits, _ = forward((model,), a_test, (ax,))
    (loss,), _ = _softmax_ce(logits, None, labels, (len(labels),))
    acc = float(np.mean(logits.argmax(axis=1) == labels))
    return float(loss), acc


_CSV_HEADER = ["round", "algorithm", "test_loss", "test_acc", "loss_var", "loss_entropy"]


def write_csv(path, header, rows) -> None:
    """Write a new CSV file at path: the header, then per (leading cells, float64 values)
    row the str(cell)s and repr(value)s, as csv.writer writes cells that need no quoting.
    Each distinct value is formatted once, keyed by its bits, so -0.0 keeps its sign."""
    text = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, values in rows:
            m = np.asarray(values, dtype=np.float64).ravel()
            cells = [text.get(b) or text.setdefault(b, repr(v))
                     for b, v in zip(m.view(np.int64).tolist(), m.tolist())]
            fh.write(",".join([*map(str, lead), *cells]) + "\r\n")


def write_round_records(path, records: list[RoundRecord]) -> None:
    """Write records to a new CSV file at path, replacing any file there;
    per-client losses occupy the trailing columns."""
    num_clients = len(records[0].per_client_losses) if records else 0
    write_csv(path, _CSV_HEADER + [f"client_{i}_loss" for i in range(num_clients)],
              (((r.round_index, r.algorithm), (r.test_loss, r.test_acc, r.loss_variance,
                                               r.loss_entropy, *r.per_client_losses))
               for r in records))


def read_round_records(path) -> list[RoundRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        n_fixed = len(_CSV_HEADER)
        for row in reader:
            records.append(
                RoundRecord(
                    round_index=int(row[0]),
                    algorithm=row[1],
                    test_loss=float(row[2]),
                    test_acc=float(row[3]),
                    loss_variance=float(row[4]),
                    loss_entropy=float(row[5]),
                    per_client_losses=tuple(float(v) for v in row[n_fixed:]),
                )
            )
    return records
