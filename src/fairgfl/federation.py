"""Round-based federated orchestration: local training, uploads, aggregation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import gcn, ldp, metrics, overlap
from .gcn import GcnModel
from .graph import (ClientSubgraph, GlobalGraph, PartitionSpec, ValidationError, partition,
                    row_blocks)

ALGORITHMS = ("fairgfl", "fedavg", "qfedavg")


class RoundError(RuntimeError):
    """A client or server step failed; carries round and client context.

    client_id is None for a server step (estimation, aggregation,
    evaluation).
    """

    def __init__(self, round_index: int, client_id: int | None, cause: Exception):
        where = "server" if client_id is None else f"client {client_id}"
        super().__init__(f"round {round_index}, {where}: {cause}")
        self.round_index = round_index
        self.client_id = client_id
        self.cause = cause


@dataclass(frozen=True)
class FedConfig:
    """Experiment hyperparameters shared by all algorithms."""

    num_clients: int = 10
    clients_per_round: int = 5
    local_iters: int = 2
    rounds: int = 100
    lr: float = 0.05
    batch_size: int = 20
    lam: float = 0.1             # max-loss regularizer weight
    alpha: float = 0.8           # node/link coupling weight
    beta: float = 0.5            # accumulation weight
    algorithm: str = "fairgfl"
    q: float = 1.0               # qfedavg exponent
    seed: int = 0
    hidden_dim: int = 16
    encoder_dim: int = 16
    encoder_epochs: int = 30
    test_fraction: float = 0.2
    public_fraction: float = 0.05
    tau_percentile: float = 95.0
    use_ldp: bool = True
    estimate_overlap: bool = True
    permanent_cache: bool = True

    def __post_init__(self):
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ValidationError("need 1 <= K <= P")
        if min(self.local_iters, self.rounds, self.encoder_epochs, self.seed) < 0:
            raise ValidationError("local_iters, rounds, encoder_epochs and seed must be >= 0")
        if min(self.hidden_dim, self.encoder_dim, self.batch_size) < 1:
            raise ValidationError("hidden_dim, encoder_dim and batch_size must be >= 1")
        if not (0 <= self.lam < math.inf and 0 <= self.q < math.inf):
            raise ValidationError("lam and q must be finite and >= 0")
        if not 0 < self.lr < math.inf:
            raise ValidationError("lr must be finite and positive")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 < self.beta <= 1.0):
            raise ValidationError("alpha must be in [0, 1] and beta in (0, 1]")
        if not 0.0 <= self.tau_percentile <= 100.0:
            raise ValidationError("tau_percentile must be in [0, 100]")
        if not (0.0 <= self.test_fraction < 1.0 and 0.0 <= self.public_fraction < 1.0
                and self.test_fraction + self.public_fraction < 1.0):
            raise ValidationError(
                "test_fraction and public_fraction must be in [0, 1) with a sum below 1"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"algorithm must be one of {ALGORITHMS}")


@dataclass(frozen=True)
class ClientReport:
    client_id: int
    model: GcnModel
    train_loss: float | None  # None where the aggregation reads no loss


def _client_rng(*key: int):
    """The generator of the random stream named by key, which starts with
    the seed and the round: (seed, round, client, stream) for a client's
    draws, (seed, round, 2**20) for the round's client sample and
    (seed, 0, 0, 3|4|5) for the set-up's node split, τ and initial model."""
    return np.random.default_rng(np.random.SeedSequence(key))


def sample_clients(seed: int, round_index: int, num_clients: int, k: int) -> np.ndarray:
    """Uniform without-replacement client sample, reproducible per round."""
    rng = _client_rng(seed, round_index, 1 << 20)
    return np.sort(rng.choice(num_clients, size=k, replace=False))


def train_clients(
    subs: list[ClientSubgraph],
    stack: gcn.Stack,
    w_global: GcnModel,
    cfg: FedConfig,
    train_rngs,
) -> list[ClientReport]:
    """E local SGD steps for each client on masked mini-batches, then each
    client's report; every step is one pass over the stack of their graphs.

    stack holds subs' graphs, in order, and sub i draws its mini-batches
    from train_rngs[i]. Propagation always uses the full local graph; only
    the mini-batch nodes contribute to each step's loss. The trained
    weights are checked to be finite, whatever the algorithm; then the
    reported loss is evaluated on the full local graph where the
    aggregation reads it (qfedavg, or fairgfl with lam > 0), else it is None.
    """
    models = [w_global] * len(subs)
    for _ in range(cfg.local_iters):
        masks = [rng.choice(sub.num_nodes, size=min(cfg.batch_size, sub.num_nodes),
                            replace=False)
                 for sub, rng in zip(subs, train_rngs)]
        losses, grads = gcn.loss_and_grad(models, stack, masks)
        for i, (sub, loss) in enumerate(zip(subs, losses)):
            if not np.isfinite(loss):
                raise gcn.NumericError(f"client {sub.client_id} diverged")
            models[i] = gcn.sgd_step(models[i], grads[i], cfg.lr)

    for sub, model in zip(subs, models):
        if not (np.isfinite(model.W1).all() and np.isfinite(model.W2).all()):
            raise gcn.NumericError(f"client {sub.client_id} diverged")
    reads_loss = cfg.algorithm == "qfedavg" or (cfg.algorithm == "fairgfl" and cfg.lam > 0)
    losses = gcn.masked_loss(models, stack) if reads_loss else [None] * len(subs)
    return [ClientReport(sub.client_id, model, loss)
            for sub, model, loss in zip(subs, models, losses)]


def _combine(w_global: GcnModel, reports, coeffs, divisor) -> GcnModel:
    """w_global + sum(c_i * (w_i - w_global)) / divisor, per tensor."""
    acc1 = np.zeros_like(w_global.W1)
    acc2 = np.zeros_like(w_global.W2)
    for rep, c in zip(reports, coeffs):
        acc1 += c * (rep.model.W1 - w_global.W1)
        acc2 += c * (rep.model.W2 - w_global.W2)
    return GcnModel(w_global.W1 + acc1 / divisor, w_global.W2 + acc2 / divisor)


def aggregate_fair(
    reports: list[ClientReport],
    w_global: GcnModel,
    weights: np.ndarray,
    lam: float,
) -> GcnModel:
    """Weighted update average plus the max-loss regularizer step.

    Report i's update is scaled by weights[i] (1 / (1 + O_i) from
    overlap.client_weights); the client with the largest reported loss
    (the first one on a tie) contributes an extra lam-scaled update. Unit
    weights with lam = 0 are FedAvg.
    """
    if not reports:
        raise ValidationError("reports must be non-empty")
    if len(weights) != len(reports):
        raise ValidationError(f"{len(weights)} weights for {len(reports)} reports")
    new = _combine(w_global, reports, weights, float(len(reports)))
    if lam > 0:
        top = max(reports, key=lambda r: r.train_loss)
        new = GcnModel(
            new.W1 + lam * (top.model.W1 - w_global.W1),
            new.W2 + lam * (top.model.W2 - w_global.W2),
        )
    return new


def aggregate_qfedavg(
    reports: list[ClientReport], w_global: GcnModel, q: float, lr: float
) -> GcnModel:
    """Loss-reweighted update with the q-FedAvg normalizer.

    Per client: Delta_i = (w_global - w_i) / lr, numerator weight F_i^q,
    normalizer sum of q F_i^(q-1) ||Delta_i||^2 + F_i^q / lr. Computed in
    update space with the common 1/lr factored out, so q = 0 collapses
    exactly to the uniform update average. A weight that is not finite
    (F_i^q past float64, say), or a normalizer that is not finite and
    positive (0 when every loss and update is 0), raises NumericError.
    """
    if not reports:
        raise ValidationError("reports must be non-empty")
    coeffs = []
    divisor = 0.0
    try:
        for rep in reports:
            f = rep.train_loss
            c = f**q
            coeffs.append(c)
            divisor += c
            if q > 0 and f > 0:
                sq = (
                    np.sum((w_global.W1 - rep.model.W1) ** 2)
                    + np.sum((w_global.W2 - rep.model.W2) ** 2)
                ) / lr**2
                divisor += q * f ** (q - 1.0) * sq * lr
    except OverflowError:  # a Python float power past float64
        coeffs.append(math.inf)
    if not np.isfinite(coeffs).all():
        raise gcn.NumericError(f"q-FedAvg weight F_i^q is not finite at q = {q!r}")
    if not 0.0 < divisor < math.inf:
        raise gcn.NumericError(f"q-FedAvg weight normalizer is {float(divisor)!r} at "
                               f"q = {q!r}; it must be finite and positive")
    return _combine(w_global, reports, coeffs, divisor)


@dataclass
class ExperimentResult:
    records: list[metrics.RoundRecord]
    model: GcnModel
    state: overlap.OverlapState | None
    parts: list[ClientSubgraph]
    test_ids: np.ndarray
    overlap_history: list[dict[str, np.ndarray]]


def split_nodes(graph: GlobalGraph, cfg: FedConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(test, public, client-pool) node id split, driven by the config seed."""
    rng = _client_rng(cfg.seed, 0, 0, 3)
    ids = rng.permutation(graph.num_nodes)
    n_test = int(round(cfg.test_fraction * graph.num_nodes))
    n_public = int(round(cfg.public_fraction * graph.num_nodes))
    return ids[:n_test], ids[n_test : n_test + n_public], ids[n_test + n_public :]


def _global_eval_operands(graph: GlobalGraph, test_ids: np.ndarray):
    """(a_test, ax_global): the test rows of the global A_hat, in test_ids
    order, as a CSR matrix, and A_hat * X.

    The degrees of A + I are adj's row lengths plus 1: validate keeps every
    stored entry 1, so they equal the row sums, which scipy takes through an
    int64 copy of an int8 adj's data. A_hat * X is filled a row block at a
    time and a_test is normalized from the test rows alone, so the whole
    global A_hat never exists. Both are byte for byte A_hat[test_ids] and
    A_hat @ X, with A_hat = normalize_adjacency(adj): validate keeps adj
    canonical, so every row subset takes scipy's canonical addition path.
    """
    adj = graph.adjacency
    d_inv_sqrt = 1.0 / np.sqrt(np.diff(adj.indptr) + 1.0)
    ax = np.empty(graph.features.shape)
    for lo, hi in row_blocks(adj):
        ax[lo:hi] = gcn._normalize_rows(adj, np.arange(lo, hi), d_inv_sqrt) @ graph.features
    return gcn._normalize_rows(adj, test_ids, d_inv_sqrt), ax


def run_experiment(
    graph: GlobalGraph,
    part_spec: PartitionSpec,
    cfg: FedConfig,
    ldp_params: ldp.LdpParams = ldp.LdpParams(),
) -> ExperimentResult:
    """Run J federated rounds and return records plus the final model.

    Test and encoder-training ("public") nodes are held out before
    partitioning. Each round the sampled clients train locally; for
    fairgfl they also upload a sanitized batch, and the server estimates
    the pairwise overlap of the uploads and refreshes the overlap state
    (recorded in overlap_history). fedavg is aggregate_fair with unit
    weights and lam = 0. A_hat * X is computed once per graph, and the
    global evaluation takes the test rows of the global A_hat, sliced
    once; the whole global A_hat is not kept. The client graphs are
    stacked once (gcn.stack_graphs): each local step of a round is one
    pass over the sampled clients' stack, and the client losses of the
    evaluation are one pass over the whole stack.
    """
    test_ids, public_ids, pool_ids = split_nodes(graph, cfg)
    if cfg.rounds and len(test_ids) == 0:
        raise ValidationError("the test split is empty; raise test_fraction")
    uploading = cfg.algorithm == "fairgfl" and cfg.estimate_overlap
    if uploading and len(public_ids) == 0:
        raise ValidationError("the public split is empty; raise public_fraction")
    parts = partition(graph, part_spec, cfg.num_clients, node_pool=pool_ids)
    a_test, ax_global = _global_eval_operands(graph, test_ids)
    stack = gcn.stack_graphs(parts)
    test_labels = graph.labels[test_ids]

    if uploading:
        public_feats = graph.features[public_ids]
        encoder = ldp.train_encoder(
            public_feats, cfg.encoder_dim, cfg.encoder_epochs,
            seed=cfg.seed ^ 0x5EED,
        )
        if cfg.use_ldp:
            tau_rng = _client_rng(cfg.seed, 0, 0, 4)
            tau = overlap.calibrate_tau(
                encoder, public_feats, ldp_params, tau_rng, cfg.tau_percentile
            )
        else:  # not 0: a 1-row encode's last bits can differ from that row's in a larger batch
            tau = 1e-9
    caches: dict[int, ldp.PermanentCache] = {}

    init_rng = _client_rng(cfg.seed, 0, 0, 5)
    model = gcn.init_model(graph.feature_dim, cfg.hidden_dim, graph.num_classes, init_rng)

    state = overlap.OverlapState.initial(cfg.num_clients, cfg.alpha, cfg.beta)
    lam = cfg.lam if cfg.algorithm == "fairgfl" else 0.0
    records: list[metrics.RoundRecord] = []
    history: list[dict[str, np.ndarray]] = []

    for j in range(1, cfg.rounds + 1):
        t0 = time.perf_counter()
        sampled = sample_clients(cfg.seed, j, cfg.num_clients, cfg.clients_per_round)
        subs = [parts[cid] for cid in sampled]
        try:
            stacked = train_clients(
                subs, stack.select(sampled), model, cfg,
                [_client_rng(cfg.seed, j, cid, 0) for cid in sampled],
            )
        except Exception:  # noqa: BLE001 - replayed client by client below
            # A client failed. Train again one client at a time, each one's
            # upload after its training, so that the error names the first
            # client that fails, after the uploads of the clients before it.
            stacked = None
        reports, batches = [], []
        for k, (cid, sub) in enumerate(zip(sampled, subs)):
            try:
                reports.append(stacked[k] if stacked is not None else train_clients(
                    [sub], stack.select([cid]), model, cfg, [_client_rng(cfg.seed, j, cid, 0)]
                )[0])
                if uploading:
                    batch_rng = _client_rng(cfg.seed, j, cid, 1)
                    batch_ids = batch_rng.choice(
                        sub.node_ids, size=min(cfg.batch_size, sub.num_nodes), replace=False
                    )
                    cache = (caches.setdefault(int(cid), ldp.PermanentCache())
                             if cfg.permanent_cache else None)
                    batches.append(ldp.sanitize_batch(
                        sub, batch_ids, encoder, ldp_params if cfg.use_ldp else None, cache,
                        batch_rng, links=cfg.alpha < 1))
            except Exception as exc:  # noqa: BLE001 - annotate and rethrow
                raise RoundError(j, int(cid), exc) from exc

        try:
            if uploading:
                state = overlap.update_state(state, overlap.estimate_round(batches, tau))
                history.append({name: getattr(state, name) for name in overlap.HISTORY})
            if cfg.algorithm == "qfedavg":
                model = aggregate_qfedavg(reports, model, cfg.q, cfg.lr)
            else:
                weights = overlap.client_weights(state.O)[sampled]
                model = aggregate_fair(reports, model, weights, lam)

            test_loss, test_acc = metrics.evaluate_global(model, a_test, ax_global, test_labels)
            client_losses = tuple(gcn.masked_loss([model] * cfg.num_clients, stack))
        except Exception as exc:  # noqa: BLE001 - annotate and rethrow
            raise RoundError(j, None, exc) from exc
        records.append(
            metrics.RoundRecord(
                round_index=j,
                algorithm=cfg.algorithm,
                test_loss=test_loss,
                test_acc=test_acc,
                loss_variance=metrics.loss_variance(client_losses),
                loss_entropy=metrics.loss_entropy(client_losses),
                per_client_losses=client_losses,
                wall_time_ms=(time.perf_counter() - t0) * 1000.0,
            )
        )

    return ExperimentResult(
        records=records,
        model=model,
        state=state if cfg.algorithm == "fairgfl" else None,
        parts=parts,
        test_ids=test_ids,
        overlap_history=history,
    )
