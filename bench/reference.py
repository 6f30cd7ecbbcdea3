"""Checks of fairgfl's outputs against computations made apart from the program.

Nothing here calls fairgfl: the normalized adjacency, the client subgraphs,
the two-layer GCN, the losses and the true overlap ratios are rebuilt with
dense numpy from the global edge list and the client node ids.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9    # dense vs sparse products differ in summation order only
ABS_TOL = 1e-12


class Checks:
    """Counts checks as operations; a failed check is a failed operation."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._log(f"check failed: {name} {detail}".rstrip())


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def global_edges(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edge list (u < v) of the global graph."""
    coo = adjacency.tocoo()
    keep = coo.row < coo.col
    return coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)


def dense_normalized(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 as a dense matrix."""
    a = np.zeros((n, n))
    a[u, v] = 1.0
    a[v, u] = 1.0
    a[np.arange(n), np.arange(n)] += 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    a *= d[:, None]
    a *= d[None, :]
    return a


def induced_edges(ids: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Edges of the subgraph induced by sorted global ``ids``, as local indices."""
    keep = np.isin(u, ids) & np.isin(v, ids)
    return np.searchsorted(ids, u[keep]), np.searchsorted(ids, v[keep])


def logits(a_hat: np.ndarray, x: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    return a_hat @ np.maximum(a_hat @ x @ w1, 0.0) @ w2


def cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def variance(losses) -> float:
    x = np.asarray(losses, dtype=np.float64)
    return float(((x - x.mean()) ** 2).mean())


def entropy(losses) -> float:
    x = np.asarray(losses, dtype=np.float64)
    s = x / x.sum()
    s = s[s > 0]
    return float(-(s * np.log(s)).sum())


def true_overlap(node_sets, edge_sets) -> tuple[np.ndarray, np.ndarray]:
    """N[i,k] = |Vi ∩ Vk| / |Vi| and T[i,k] = |Ei ∩ Ek| / |Ei|, off-diagonal."""
    p = len(node_sets)
    n = np.zeros((p, p))
    t = np.zeros((p, p))
    for i in range(p):
        for k in range(p):
            if i != k:
                n[i, k] = len(node_sets[i] & node_sets[k]) / len(node_sets[i])
                if edge_sets[i]:
                    t[i, k] = len(edge_sets[i] & edge_sets[k]) / len(edge_sets[i])
    return n, t


def overlap_errors(state, node_sets, edge_sets) -> tuple[float, float]:
    """Mean |N_acc - N| and |T_acc - T| over off-diagonal client pairs."""
    n_true, t_true = true_overlap(node_sets, edge_sets)
    off = ~np.eye(len(node_sets), dtype=bool)
    return (float(np.abs(state.N_acc - n_true)[off].mean()),
            float(np.abs(state.T_acc - t_true)[off].mean()))


def csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV file, header dropped."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_experiment(check: Checks, graph, result, fed, out_dir: Path, tag: str) -> dict:
    """Check one experiment's outputs; returns the true client node and edge sets.

    ``graph`` is the global graph the experiment ran on, ``result`` the
    program's ExperimentResult and ``out_dir`` the directory run_suite wrote.
    """
    u, v = global_edges(graph.adjacency)
    n = graph.num_nodes
    x, y = graph.features, graph.labels
    num_classes = int(y.max()) + 1
    model = result.model
    last = result.records[-1]

    # Global test loss and accuracy of the final model.
    test_ids = np.asarray(result.test_ids)
    z = logits(dense_normalized(n, u, v), x, model.W1, model.W2)[test_ids]
    ref_loss = cross_entropy(z, y[test_ids])
    ref_acc = float(np.mean(z.argmax(axis=1) == y[test_ids]))
    check(f"{tag} test_loss", close(ref_loss, last.test_loss), f"{ref_loss!r} vs {last.test_loss!r}")
    check(f"{tag} test_acc", ref_acc == last.test_acc, f"{ref_acc!r} vs {last.test_acc!r}")
    check(f"{tag} test_loss below ln(C)", last.test_loss < math.log(num_classes),
          f"{last.test_loss!r} >= ln {num_classes}")

    # Each client's loss on its own induced subgraph.
    node_sets, edge_sets, losses = [], [], []
    held_out = set(test_ids.tolist())
    ids_ok = True
    for sub in result.parts:
        ids = np.unique(sub.node_ids)
        ids_ok &= len(ids) == len(sub.node_ids) and not held_out.intersection(ids.tolist())
        lu, lv = induced_edges(ids, u, v)
        a_hat = dense_normalized(len(ids), lu, lv)
        losses.append(cross_entropy(logits(a_hat, x[ids], model.W1, model.W2), y[ids]))
        node_sets.append(set(ids.tolist()))
        edge_sets.append(set(zip(ids[lu].tolist(), ids[lv].tolist())))
    check(f"{tag} client ids distinct and disjoint from test ids", ids_ok)
    rec_losses = last.per_client_losses
    check(f"{tag} client losses",
          len(rec_losses) == len(losses) and all(map(close, losses, rec_losses)),
          f"{losses} vs {list(rec_losses)}")
    check(f"{tag} loss_var", close(variance(losses), last.loss_variance),
          f"{variance(losses)!r} vs {last.loss_variance!r}")
    check(f"{tag} loss_entropy", close(entropy(losses), last.loss_entropy),
          f"{entropy(losses)!r} vs {last.loss_entropy!r}")

    # rounds.csv parses back exactly to the records.
    rows = csv_rows(out_dir / "rounds.csv")
    exact = len(rows) == fed.rounds == len(result.records)
    for row, rec in zip(rows, result.records):
        want = [str(rec.round_index), rec.algorithm] + [
            repr(f) for f in (rec.test_loss, rec.test_acc, rec.loss_variance, rec.loss_entropy)
        ] + [repr(f) for f in rec.per_client_losses]
        exact &= row[:2] == want[:2] and [repr(float(c)) for c in row[2:]] == want[2:]
    check(f"{tag} rounds.csv has J rows equal to the records", exact, f"{len(rows)} rows")

    if fed.algorithm == "fairgfl" and result.state is not None:
        a = fed.alpha
        snaps = result.overlap_history
        coupled = len(snaps) == fed.rounds > 0 and np.array_equal(result.state.O, snaps[-1]["O"])
        coupled &= all(
            np.allclose(s["O"], a * s["N_acc"] + (1 - a) * s["T_acc"], rtol=1e-12, atol=0)
            for s in snaps
        )
        check(f"{tag} O = alpha N_acc + (1 - alpha) T_acc", coupled)
        in_unit = all(((m >= 0) & (m <= 1)).all() for s in snaps for m in s.values())
        check(f"{tag} overlap state entries in [0, 1]", in_unit)
    return {"nodes": node_sets, "edges": edge_sets}


def check_uploads(check: Checks, uploads, quantiles: int, cache_on: bool, tag: str) -> None:
    """Property checks on every sanitized batch of one experiment.

    ``uploads`` holds ``(client_id, node_ids, SanitizedBatch)`` per upload.
    """
    on_grid = binary_adj = True
    first: dict[tuple[int, int], bytes] = {}
    replayed = True
    for cid, ids, batch in uploads:
        scaled = batch.sanitized_nodes * quantiles
        k = np.rint(scaled)
        on_grid &= bool((np.abs(scaled - k) < 1e-9).all() and (k >= 0).all() and (k <= quantiles).all())
        adj = np.asarray(batch.sanitized_adjacency)
        binary_adj &= bool(
            (adj == adj.T).all() and np.isin(adj, (0, 1)).all() and not np.diagonal(adj).any()
        )
        if cache_on:
            for gid, vec in zip(ids.tolist(), batch.sanitized_nodes):
                replayed &= first.setdefault((cid, gid), vec.tobytes()) == vec.tobytes()
    check(f"{tag} uploaded node entries on the grid {{i/p}}", on_grid and bool(uploads))
    check(f"{tag} uploaded adjacency symmetric, binary, zero diagonal", binary_adj)
    if cache_on:
        check(f"{tag} cached uploads replay the same vector", replayed)


def match_precision(matches) -> tuple[int, int]:
    """(matched pairs, pairs whose two uploads are the same global node)."""
    total = same = 0
    for ids_a, ids_b, pairs in matches:
        total += len(pairs)
        same += sum(int(ids_a[i] == ids_b[j]) for i, j in pairs)
    return total, same
