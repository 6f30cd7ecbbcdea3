import dataclasses
import math

import numpy as np
import pytest

from fairgfl import graph as graph_mod
from fairgfl.federation import (
    ClientReport,
    FedConfig,
    RoundError,
    _client_rng,
    _global_eval_operands,
    aggregate_fair,
    aggregate_qfedavg,
    run_experiment,
    sample_clients,
    split_nodes,
    train_clients,
)
from fairgfl.gcn import (
    GcnModel,
    NumericError,
    init_model,
    loss_and_grad,
    masked_loss,
    normalize_adjacency,
    sgd_step,
    stack_graphs,
)
from fairgfl.graph import (
    GlobalGraph,
    PartitionSpec,
    ValidationError,
    generate_sbm,
    induced_subgraph,
    true_overlap_matrices,
)
from fairgfl.ldp import sanitize_batch, train_encoder
from fairgfl.overlap import OverlapState, client_weights, match_nodes, update_state


def small_graph():
    return generate_sbm(3, 20, 0.3, 0.05, 8, seed=21)


def small_cfg(**kw):
    base = dict(
        num_clients=4, clients_per_round=3, rounds=3, batch_size=10,
        encoder_dim=4, encoder_epochs=3, seed=0,
    )
    base.update(kw)
    return FedConfig(**base)


def report(client_id, model, loss):
    return ClientReport(client_id, model, loss)


def rand_model(rng, d=4, h=3, c=2):
    return init_model(d, h, c, rng)


class TestFedConfig:
    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            FedConfig(num_clients=3, clients_per_round=4)
        with pytest.raises(ValidationError):
            FedConfig(num_clients=3, clients_per_round=0)

    def test_invalid_algorithm(self):
        with pytest.raises(ValidationError):
            FedConfig(algorithm="sgd")

    def test_negative_lam(self):
        with pytest.raises(ValidationError):
            FedConfig(lam=-0.1)

    def test_alpha_beta_bounds_accepted(self):
        FedConfig(alpha=0.0, beta=1.0)
        FedConfig(alpha=1.0, beta=1e-9)


class TestClientRound:
    def setup_method(self):
        self.graph = small_graph()
        self.sub = induced_subgraph(self.graph, np.arange(30), 0)
        self.stack = stack_graphs([self.sub])
        self.model = init_model(8, 6, 3, np.random.default_rng(1))

    def train(self, cfg, seed):
        """train_clients for this one client, its batches drawn with seed."""
        return train_clients([self.sub], self.stack, self.model, cfg,
                             [np.random.default_rng(seed)])[0]

    def test_zero_iters_returns_global(self):
        cfg = small_cfg(local_iters=0)
        rep = self.train(cfg, 0)
        assert np.array_equal(rep.model.W1, self.model.W1)
        assert np.array_equal(rep.model.W2, self.model.W2)

    def test_single_full_batch_step_matches_sgd(self):
        """E=1 with a full batch must equal one composed gcn step."""
        cfg = small_cfg(local_iters=1, batch_size=30, lr=0.1)
        rep = self.train(cfg, 5)
        mask = np.random.default_rng(5).choice(30, size=30, replace=False)
        _, (grads,) = loss_and_grad((self.model,), self.stack, (mask,))
        expect = sgd_step(self.model, grads, 0.1)
        assert np.array_equal(rep.model.W1, expect.W1)
        assert np.array_equal(rep.model.W2, expect.W2)

    def test_training_reduces_loss(self):
        cfg = small_cfg(local_iters=5, batch_size=30, lr=0.05)
        before = self.train(small_cfg(local_iters=0), 2).train_loss
        after = self.train(cfg, 2).train_loss
        assert after <= before


class TestTrainClients:
    @staticmethod
    def uneven_parts():
        """Clients of 1, 7, 30 and 22 nodes (the last two share 20): one
        holds a single node and one fewer than the batch size of 10."""
        g = small_graph()
        sets = [np.array([5]), np.arange(10, 17), np.arange(20, 50), np.arange(30, 52)]
        return [induced_subgraph(g, s, i) for i, s in enumerate(sets)]

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [3, 0, 2], [1]],
                             ids=["all", "unordered", "one"])
    def test_stacked_round_is_client_by_client_bit_for_bit(self, ids):
        """One stacked pass per step gives every report, and every client
        loss, with the bits of the one-client path run client by client."""
        parts = self.uneven_parts()
        stack = stack_graphs(parts)
        cfg = small_cfg(local_iters=3, batch_size=10, lr=0.5)
        model = init_model(8, 6, 3, np.random.default_rng(7))
        got = train_clients([parts[i] for i in ids], stack.select(ids), model, cfg,
                            [np.random.default_rng(50 + i) for i in ids])
        for i, rep in zip(ids, got):
            want = train_clients([parts[i]], stack_graphs([parts[i]]), model, cfg,
                                 [np.random.default_rng(50 + i)])[0]
            assert rep.client_id == want.client_id == i
            assert np.array_equal(rep.model.W1, want.model.W1)
            assert np.array_equal(rep.model.W2, want.model.W2)
            assert np.array_equal(rep.train_loss, want.train_loss)
        for trained in [model] + [rep.model for rep in got]:
            losses = masked_loss([trained] * len(parts), stack)
            for p, loss in zip(parts, losses):
                want = masked_loss((trained,), stack_graphs([p]), (np.arange(p.num_nodes),))[0]
                assert np.array_equal(loss, want)


def fedavg(reports, w_g):
    """The fedavg server step: unit weights and lam = 0."""
    return aggregate_fair(reports, w_g, np.ones(len(reports)), lam=0.0)


class TestAggregateFair:
    def test_zero_overlap_zero_lam_is_fedavg(self):
        rng = np.random.default_rng(3)
        w_g = rand_model(rng)
        reports = [report(i, rand_model(rng), 1.0) for i in range(3)]
        weights = client_weights(OverlapState.initial(3, 0.8, 0.5).O)
        assert weights.tolist() == [1.0, 1.0, 1.0]
        fair = aggregate_fair(reports, w_g, weights, lam=0.0)
        mean = np.mean([r.model.W1 for r in reports], axis=0)
        assert np.allclose(fair.W1, mean)
        assert np.allclose(fair.W2, np.mean([r.model.W2 for r in reports], axis=0))

    def test_hand_arithmetic_two_clients(self):
        # O = (1, 0): new model = w + (1/2)(u/2 + v) for updates u, v
        rng = np.random.default_rng(4)
        w_g = rand_model(rng)
        m0, m1 = rand_model(rng), rand_model(rng)
        state = OverlapState.initial(2, alpha=1.0, beta=1.0)
        state = update_state(state, {(0, 1): (1.0, 1.0)})
        out = aggregate_fair([report(0, m0, 1.0), report(1, m1, 1.0)], w_g,
                             client_weights(state.O), lam=0.0)
        u = m0.W1 - w_g.W1
        v = m1.W1 - w_g.W1
        assert np.allclose(out.W1, w_g.W1 + 0.5 * (u / 2 + v))

    def test_lam_adds_max_loss_update(self):
        rng = np.random.default_rng(5)
        w_g = rand_model(rng)
        reports = [report(0, rand_model(rng), 0.5), report(1, rand_model(rng), 2.0)]
        base = aggregate_fair(reports, w_g, np.ones(2), lam=0.0)
        out = aggregate_fair(reports, w_g, np.ones(2), lam=0.5)
        shift = out.W1 - base.W1
        assert np.allclose(shift, 0.5 * (reports[1].model.W1 - w_g.W1))

    def test_max_loss_tie_lowest_client_id(self):
        rng = np.random.default_rng(6)
        w_g = rand_model(rng)
        reports = [report(1, rand_model(rng), 2.0), report(0, rand_model(rng), 2.0)]
        base = aggregate_fair(reports, w_g, np.ones(2), lam=0.0)
        out = aggregate_fair(reports, w_g, np.ones(2), lam=1.0)
        # first report in list order wins the tie
        assert np.allclose(out.W1 - base.W1, reports[0].model.W1 - w_g.W1)

    def test_higher_overlap_shrinks_contribution(self):
        rng = np.random.default_rng(7)
        w_g = rand_model(rng)
        m = rand_model(rng)
        reports = [report(0, m, 1.0), report(1, rand_model(rng), 1.0)]
        low = OverlapState.initial(2, 1.0, 1.0)
        low = update_state(low, {(0, 1): (0.1, 0.0)})
        high = update_state(low, {(0, 1): (0.9, 0.0)})
        out_low = aggregate_fair(reports, w_g, client_weights(low.O), lam=0.0)
        out_high = aggregate_fair(reports, w_g, client_weights(high.O), lam=0.0)
        # client 0's update enters with a smaller coefficient under high overlap
        shrink_low = np.linalg.norm(out_low.W1 - w_g.W1)
        shrink_high = np.linalg.norm(out_high.W1 - w_g.W1)
        assert shrink_high != shrink_low

    def test_empty_reports_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_fair([], rand_model(np.random.default_rng(0)), np.ones(0), 0.0)

    @pytest.mark.parametrize("n_weights", [1, 3])
    def test_weight_count_must_match_reports(self, n_weights):
        rng = np.random.default_rng(15)
        w_g = rand_model(rng)
        reports = [report(i, rand_model(rng), 1.0) for i in range(2)]
        with pytest.raises(ValidationError, match=f"{n_weights} weights for 2 reports"):
            aggregate_fair(reports, w_g, np.ones(n_weights), 0.0)

    def test_weights_scale_each_update(self):
        rng = np.random.default_rng(16)
        w_g = rand_model(rng)
        m0, m1 = rand_model(rng), rand_model(rng)
        out = aggregate_fair([report(0, m0, 1.0), report(1, m1, 1.0)], w_g,
                             np.array([0.25, 1.0]), lam=0.0)
        expect = w_g.W1 + (0.25 * (m0.W1 - w_g.W1) + (m1.W1 - w_g.W1)) / 2
        assert np.allclose(out.W1, expect)


class TestAggregateFedavg:
    """FedAvg is aggregate_fair with unit weights and lam = 0."""

    def test_single_report(self):
        rng = np.random.default_rng(8)
        w_g = rand_model(rng)
        m = rand_model(rng)
        out = fedavg([report(0, m, 1.0)], w_g)
        assert np.allclose(out.W1, m.W1)
        assert np.allclose(out.W2, m.W2)

    def test_symmetric_updates_cancel(self):
        rng = np.random.default_rng(9)
        w_g = rand_model(rng)
        delta = rng.standard_normal(w_g.W1.shape)
        m_plus = GcnModel(w_g.W1 + delta, w_g.W2)
        m_minus = GcnModel(w_g.W1 - delta, w_g.W2)
        out = fedavg([report(0, m_plus, 1.0), report(1, m_minus, 1.0)], w_g)
        assert np.allclose(out.W1, w_g.W1)


class TestAggregateQfedavg:
    def test_empty_reports_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            aggregate_qfedavg([], rand_model(np.random.default_rng(0)), q=1.0, lr=0.05)

    def test_q_zero_equals_fedavg(self):
        rng = np.random.default_rng(10)
        w_g = rand_model(rng)
        reports = [report(i, rand_model(rng), 0.5 + i) for i in range(3)]
        qf = aggregate_qfedavg(reports, w_g, q=0.0, lr=0.05)
        avg = fedavg(reports, w_g)
        assert np.array_equal(qf.W1, avg.W1)
        assert np.array_equal(qf.W2, avg.W2)

    def test_loss_weighting_two_clients(self):
        # losses (2, 1) with q=1: max-loss client weighted 2x pre-normalization
        rng = np.random.default_rng(11)
        w_g = rand_model(rng)
        delta = rng.standard_normal(w_g.W1.shape) * 0.01
        m0 = GcnModel(w_g.W1 + delta, w_g.W2)
        m1 = GcnModel(w_g.W1 - delta, w_g.W2)
        reports = [report(0, m0, 2.0), report(1, m1, 1.0)]
        lr = 0.05
        out = aggregate_qfedavg(reports, w_g, q=1.0, lr=lr)
        sq = np.sum(delta**2) / lr**2
        divisor = (1.0 * 2.0**0 * sq * lr + 2.0) + (1.0 * 1.0**0 * sq * lr + 1.0)
        expect = w_g.W1 + (2.0 * delta - 1.0 * delta) / divisor
        assert np.allclose(out.W1, expect)

    def test_zero_loss_limit(self):
        rng = np.random.default_rng(12)
        w_g = rand_model(rng)
        reports = [report(0, rand_model(rng), 0.0), report(1, rand_model(rng), 1.0)]
        out = aggregate_qfedavg(reports, w_g, q=2.0, lr=0.05)
        assert np.isfinite(out.W1).all()

    @pytest.mark.parametrize("loss, q, lr", [
        (2.0, 2000.0, 0.05), (math.inf, 1.0, 0.05), (1.0, 1.0, 1e-160),
    ], ids=["power-past-float64", "infinite-loss", "normalizer-past-float64"])
    def test_nonfinite_weight_raises(self, loss, q, lr):
        """F_i^q past float64 (a Python OverflowError), an infinite F_i, or
        an infinite normalizer: each is a NumericError naming the weight."""
        rng = np.random.default_rng(14)
        w_g = rand_model(rng)
        reports = [report(0, rand_model(rng), loss), report(1, rand_model(rng), 1.0)]
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="q-FedAvg weight"):
            aggregate_qfedavg(reports, w_g, q=q, lr=lr)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_zero_normalizer_raises(self, q):
        """On a one-class graph every loss is -0.0 and every update zero, so
        the normalizer is 0: a NumericError naming it, not a NaN model."""
        rng = np.random.default_rng(15)
        w_g = rand_model(rng)
        reports = [report(i, w_g, -0.0) for i in range(3)]
        with pytest.raises(NumericError, match=r"normalizer is -?0\.0 at q = "):
            aggregate_qfedavg(reports, w_g, q=q, lr=0.05)

    def test_larger_q_favors_max_loss_client(self):
        rng = np.random.default_rng(13)
        w_g = rand_model(rng)
        reports = [report(0, rand_model(rng), 2.0), report(1, rand_model(rng), 1.0)]
        for q in (0.5, 1.0, 2.0):
            w = [rep.train_loss**q for rep in reports]
            ratio = w[0] / w[1]
            assert ratio == pytest.approx(2.0**q)


class TestFairnessWeightedLoss:
    def test_exact_on_duplicated_subgraphs(self):
        """Duplicated subgraphs weighted by 1/(1+O) equal the deduplicated sum."""
        g = small_graph()
        sets = [np.arange(0, 20), np.arange(0, 20), np.arange(0, 20),
                np.arange(20, 40), np.arange(40, 60), np.arange(40, 60)]
        parts = [induced_subgraph(g, s, i) for i, s in enumerate(sets)]
        node_m, _ = true_overlap_matrices(parts)
        rng = np.random.default_rng(14)
        model = init_model(8, 6, 3, rng)
        losses = [masked_loss((model,), stack_graphs([p]), (np.arange(p.num_nodes),))[0]
                  for p in parts]
        weighted = np.sum(losses * client_weights(node_m))
        dedup = losses[0] + losses[3] + losses[4]
        assert abs(weighted - dedup) < 1e-10


class TestSampleClients:
    def test_deterministic(self):
        a = sample_clients(7, 3, 10, 4)
        b = sample_clients(7, 3, 10, 4)
        assert np.array_equal(a, b)

    def test_without_replacement(self):
        s = sample_clients(0, 1, 10, 10)
        assert sorted(s.tolist()) == list(range(10))

    def test_uniform_frequency(self):
        """Selection frequency of each client stays within 3 sigma of K/P."""
        P, K, rounds = 10, 4, 10000
        counts = np.zeros(P)
        for j in range(rounds):
            counts[sample_clients(42, j, P, K)] += 1
        p = K / P
        sigma = np.sqrt(rounds * p * (1 - p))
        assert np.all(np.abs(counts - rounds * p) < 3 * sigma)


class TestRunExperiment:
    def test_zero_rounds(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        res = run_experiment(g, spec, small_cfg(rounds=0))
        assert res.records == []

    def test_round_count_and_schema(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        res = run_experiment(g, spec, small_cfg(rounds=3))
        assert len(res.records) == 3
        assert [r.round_index for r in res.records] == [1, 2, 3]
        assert all(len(r.per_client_losses) == 4 for r in res.records)

    def test_bitwise_reproducible(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        a = run_experiment(g, spec, small_cfg(rounds=3))
        b = run_experiment(g, spec, small_cfg(rounds=3))
        assert np.array_equal(a.model.W1, b.model.W1)
        assert [r.test_loss for r in a.records] == [r.test_loss for r in b.records]

    def test_reduction_chain_bitwise(self):
        """fairgfl(lam=0, O=0), fedavg, and qfedavg(q=0) coincide bitwise."""
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        runs = {}
        for alg, kw in (
            ("fairgfl", dict(lam=0.0, estimate_overlap=False)),
            ("fedavg", {}),
            ("qfedavg", dict(q=0.0)),
        ):
            cfg = small_cfg(rounds=5, algorithm=alg, **kw)
            runs[alg] = run_experiment(g, spec, cfg)
        for alg in ("fedavg", "qfedavg"):
            assert np.array_equal(runs["fairgfl"].model.W1, runs[alg].model.W1)
            assert np.array_equal(runs["fairgfl"].model.W2, runs[alg].model.W2)
            assert [r.test_loss for r in runs["fairgfl"].records] == [
                r.test_loss for r in runs[alg].records
            ]

    def test_single_client_equals_centralized(self):
        """P=K=1 fedavg reproduces plain local SGD on that client's graph,
        followed each round by the server step w + (1 * (w_1 - w)) / 1.

        That step is not the identity in floating point (w + (w_1 - w) can
        differ from w_1 in the last ulp), so the replay applies it too and
        the comparison stays exact.
        """
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.0, seed=2)
        cfg = small_cfg(
            num_clients=1, clients_per_round=1, rounds=3, local_iters=2,
            algorithm="fedavg",
        )
        res = run_experiment(g, spec, cfg)

        # replay: same partition, same derived rngs, plain gcn ops
        _, _, pool = split_nodes(g, cfg)
        sub = run_experiment(g, spec, dataclasses.replace(cfg, rounds=0)).parts[0]
        stack = stack_graphs([sub])
        model = init_model(
            g.feature_dim, cfg.hidden_dim, g.num_classes,
            np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 0, 5))),
        )
        for j in range(1, 4):
            rng = _client_rng(cfg.seed, j, 0, 0)
            local = model
            for _ in range(cfg.local_iters):
                mask = rng.choice(sub.num_nodes, size=min(10, sub.num_nodes), replace=False)
                _, (grads,) = loss_and_grad((local,), stack, (mask,))
                local = sgd_step(local, grads, cfg.lr)
            model = GcnModel(model.W1 + (1.0 * (local.W1 - model.W1)) / 1.0,
                             model.W2 + (1.0 * (local.W2 - model.W2)) / 1.0)
        assert np.array_equal(res.model.W1, model.W1)
        assert np.array_equal(res.model.W2, model.W2)

    def test_fairgfl_updates_overlap_state(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.3, seed=3)
        res = run_experiment(g, spec, small_cfg(rounds=2, algorithm="fairgfl"))
        assert res.state is not None
        assert res.state.O.sum() > 0.0

    def test_round_error_carries_context(self, monkeypatch):
        from fairgfl import gcn as gcn_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(gcn_mod, "sgd_step", boom)
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        cfg = small_cfg(rounds=1, estimate_overlap=False)
        with pytest.raises(RoundError) as err:
            run_experiment(g, spec, cfg)
        assert err.value.round_index == 1
        assert err.value.client_id is not None
        assert "injected failure" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_failure_names_first_failing_client_after_earlier_uploads(self, monkeypatch, k):
        """Only the k-th sampled client fails (an infinite feature row): the
        error names it with the message of its own forward pass, and the
        clients before it have uploaded, in order, and no client after."""
        from fairgfl import ldp as ldp_mod

        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.0, seed=1)
        cfg = small_cfg(rounds=1)
        sampled = sample_clients(cfg.seed, 1, cfg.num_clients, cfg.clients_per_round)
        parts = run_experiment(g, spec, dataclasses.replace(cfg, rounds=0)).parts
        g.features[parts[sampled[k]].node_ids[0]] = np.inf
        uploads = []
        sanitize = ldp_mod.sanitize_batch

        def spy(sub, *args, **kwargs):
            uploads.append(sub.client_id)
            return sanitize(sub, *args, **kwargs)

        monkeypatch.setattr(ldp_mod, "sanitize_batch", spy)
        with pytest.raises(RoundError) as err:
            run_experiment(g, spec, cfg)
        assert (err.value.round_index, err.value.client_id) == (1, sampled[k])
        assert isinstance(err.value.cause, NumericError)
        assert str(err.value) == (
            f"round 1, client {sampled[k]}: non-finite hidden layer in forward pass")
        assert uploads == list(sampled[:k])

    @pytest.mark.parametrize("algorithm, lam, per_round", [
        ("fedavg", 0.1, 1), ("fairgfl", 0.0, 1), ("qfedavg", 0.1, 2), ("fairgfl", 0.1, 2),
    ])
    def test_loss_pass_only_where_aggregation_reads_it(self, monkeypatch, algorithm, lam,
                                                       per_round):
        """masked_loss runs once a round for the client losses of the
        evaluation, and once more for the clients' reports only under
        qfedavg and fairgfl with lam > 0; otherwise train_loss is None."""
        from fairgfl import federation as federation_mod
        from fairgfl import gcn as gcn_mod

        calls, reports = [], []
        real_loss, real_fair = gcn_mod.masked_loss, federation_mod.aggregate_fair

        def loss_spy(*args, **kwargs):
            calls.append(None)
            return real_loss(*args, **kwargs)

        def fair_spy(reps, *args):
            reports.extend(reps)
            return real_fair(reps, *args)

        monkeypatch.setattr(gcn_mod, "masked_loss", loss_spy)
        monkeypatch.setattr(federation_mod, "aggregate_fair", fair_spy)
        spec = PartitionSpec(overlap_coefficient=0.2, seed=4)
        run_experiment(small_graph(), spec, small_cfg(algorithm=algorithm, lam=lam))
        assert len(calls) == 3 * per_round
        if algorithm != "qfedavg":
            assert len(reports) == 9
            assert all((r.train_loss is None) == (per_round == 1) for r in reports)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithm, lam", [
        ("fedavg", 0.1), ("qfedavg", 0.1), ("fairgfl", 0.1), ("fairgfl", 0.0)])
    @pytest.mark.parametrize("k", [0, 2])
    def test_fedavg_nonfinite_weights_name_the_client(self, monkeypatch, k, algorithm, lam):
        """The trained weights are checked under every algorithm, before any
        loss pass: a client whose last step gives non-finite weights fails
        the round as itself, as diverged, not through the loss pass's
        forward nor as the server's evaluation."""
        from fairgfl import federation as federation_mod
        from fairgfl import gcn as gcn_mod

        cfg = small_cfg(rounds=1, algorithm=algorithm, lam=lam, local_iters=2)
        sampled = sample_clients(cfg.seed, 1, cfg.num_clients, cfg.clients_per_round)
        real_train, real_step = federation_mod.train_clients, gcn_mod.sgd_step
        state = {}

        def train_spy(subs, *args):
            state.update(subs=subs, calls=0)
            return real_train(subs, *args)

        def step_spy(model, grads, lr):
            # Each step steps every client of the train_clients call in order.
            subs, n = state["subs"], state["calls"]
            state["calls"] += 1
            out = real_step(model, grads, lr)
            last = n >= (cfg.local_iters - 1) * len(subs)
            if last and subs[n % len(subs)].client_id == sampled[k]:
                return GcnModel(out.W1, out.W2 * np.inf)
            return out

        monkeypatch.setattr(federation_mod, "train_clients", train_spy)
        monkeypatch.setattr(gcn_mod, "sgd_step", step_spy)
        with pytest.raises(RoundError) as err:
            run_experiment(small_graph(), PartitionSpec(overlap_coefficient=0.2, seed=4), cfg)
        assert (err.value.round_index, err.value.client_id) == (1, sampled[k])
        assert isinstance(err.value.cause, NumericError)
        assert str(err.value) == f"round 1, client {sampled[k]}: client {sampled[k]} diverged"

    @pytest.mark.parametrize("k", [0, 2])
    def test_step_loss_failure_names_the_client_after_earlier_uploads(self, monkeypatch, k):
        """Only the k-th sampled client's step loss is non-finite: the
        per-step check names it, and the clients before it have uploaded."""
        from fairgfl import federation as federation_mod
        from fairgfl import gcn as gcn_mod
        from fairgfl import ldp as ldp_mod

        cfg = small_cfg(rounds=1)
        sampled = sample_clients(cfg.seed, 1, cfg.num_clients, cfg.clients_per_round)
        real_train, real_grad, sanitize = (federation_mod.train_clients, gcn_mod.loss_and_grad,
                                           ldp_mod.sanitize_batch)
        subs, uploads = [], []

        def train_spy(clients, *args):
            subs[:] = clients
            return real_train(clients, *args)

        def grad_spy(*args):
            losses, grads = real_grad(*args)
            return [math.nan if sub.client_id == sampled[k] else loss
                    for sub, loss in zip(subs, losses)], grads

        def upload_spy(sub, *args):
            uploads.append(sub.client_id)
            return sanitize(sub, *args)

        monkeypatch.setattr(federation_mod, "train_clients", train_spy)
        monkeypatch.setattr(gcn_mod, "loss_and_grad", grad_spy)
        monkeypatch.setattr(ldp_mod, "sanitize_batch", upload_spy)
        with pytest.raises(RoundError) as err:
            run_experiment(small_graph(), PartitionSpec(overlap_coefficient=0.2, seed=4), cfg)
        assert (err.value.round_index, err.value.client_id) == (1, sampled[k])
        assert str(err.value) == f"round 1, client {sampled[k]}: client {sampled[k]} diverged"
        assert uploads == list(sampled[:k])

    def test_server_error_carries_round(self, monkeypatch):
        from fairgfl import overlap as overlap_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected server failure")

        monkeypatch.setattr(overlap_mod, "estimate_round", boom)
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        with pytest.raises(RoundError) as err:
            run_experiment(g, spec, small_cfg(rounds=1, algorithm="fairgfl"))
        assert err.value.round_index == 1
        assert err.value.client_id is None
        assert str(err.value) == "round 1, server: injected server failure"

    def test_empty_test_split_rejected_before_round_one(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        with pytest.raises(ValidationError, match="test split"):
            run_experiment(g, spec, small_cfg(test_fraction=0.0))
        assert run_experiment(g, spec, small_cfg(test_fraction=0.0, rounds=0)).records == []

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_empty_public_split_rejected_where_the_run_uploads(self, rounds):
        """fairgfl's encoder trains on the public split; the runs that
        upload nothing need no public nodes."""
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.1, seed=1)
        with pytest.raises(ValidationError, match="^the public split is empty; raise "
                                                  "public_fraction$"):
            run_experiment(g, spec, small_cfg(public_fraction=0.0, rounds=rounds))
        for kw in (dict(algorithm="fedavg"), dict(algorithm="qfedavg"),
                   dict(estimate_overlap=False)):
            res = run_experiment(g, spec, small_cfg(public_fraction=0.0, rounds=rounds, **kw))
            assert len(res.records) == rounds

    @pytest.mark.parametrize("algorithm", ["fedavg", "fairgfl"])
    def test_one_server_step_for_fedavg_and_fairgfl(self, monkeypatch, algorithm):
        """fedavg runs aggregate_fair with unit weights and lam 0; fairgfl with
        the refreshed state's client_weights over the sampled clients."""
        from fairgfl import federation as federation_mod

        calls, real = [], federation_mod.aggregate_fair

        def spy(reports, w_global, weights, lam):
            calls.append(([r.client_id for r in reports], np.array(weights), lam))
            return real(reports, w_global, weights, lam)

        monkeypatch.setattr(federation_mod, "aggregate_fair", spy)
        spec = PartitionSpec(overlap_coefficient=0.2, seed=4)
        res = run_experiment(small_graph(), spec, small_cfg(algorithm=algorithm))
        assert len(calls) == 3
        for (ids, weights, lam), snap in zip(calls, res.overlap_history or [None] * 3):
            if algorithm == "fedavg":
                assert weights.tolist() == [1.0] * 3 and lam == 0.0
            else:
                assert np.array_equal(weights, client_weights(snap["O"])[ids])
                assert lam == 0.1
        if algorithm == "fairgfl":
            assert min(w.min() for _, w, _ in calls) < 1.0

    def test_overlap_history_recorded(self):
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.2, seed=4)
        res = run_experiment(g, spec, small_cfg(rounds=2, algorithm="fairgfl"))
        assert len(res.overlap_history) == 2
        assert res.overlap_history[0]["O"].shape == (4, 4)

    def test_without_ldp_the_cache_changes_nothing(self):
        """An upload without a mechanism caches nothing, so a use_ldp = off
        run gives the same records, model bytes and overlap history with the
        permanent cache on and off."""
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.3, seed=3)
        on, off = (run_experiment(g, spec, small_cfg(use_ldp=False, permanent_cache=cached))
                   for cached in (True, False))
        assert on.state.O.any()
        assert [dataclasses.replace(r, wall_time_ms=0.0) for r in on.records] == [
            dataclasses.replace(r, wall_time_ms=0.0) for r in off.records]
        assert (on.model.W1.tobytes(), on.model.W2.tobytes()) == (
            off.model.W1.tobytes(), off.model.W2.tobytes())
        assert len(on.overlap_history) == len(off.overlap_history) == 3
        for a, b in zip(on.overlap_history, off.overlap_history):
            assert {k: v.tobytes() for k, v in a.items()} == {k: v.tobytes() for k, v in b.items()}

    def test_without_ldp_a_lone_upload_matches_its_node_in_a_larger_batch(self, monkeypatch):
        """A node that one client uploads alone and another inside a 20-node
        batch is matched at the tau of a use_ldp = off run, and its two
        vectors agree within 1e-12. Encoder.encode may give a one-row batch
        other last bits than the same row in a larger one, so that tau is a
        tolerance: tau = 0 matches only bitwise-equal vectors."""
        from fairgfl import overlap as overlap_mod

        taus, estimate = [], overlap_mod.estimate_round
        monkeypatch.setattr(overlap_mod, "estimate_round",
                            lambda batches, tau: taus.append(tau) or estimate(batches, tau))
        g = small_graph()
        run_experiment(g, PartitionSpec(overlap_coefficient=0.3, seed=3),
                       small_cfg(rounds=1, use_ldp=False))
        encoder = train_encoder(g.features[:40], d1=4, epochs=3, seed=2)
        rng, batch = np.random.default_rng(0), np.arange(20, 60, 2)  # node 24 is on both
        alone = sanitize_batch(induced_subgraph(g, np.arange(30), 0), batch[2:3], encoder,
                               None, None, rng)
        within = sanitize_batch(induced_subgraph(g, np.arange(20, 60), 1), batch, encoder,
                                None, None, rng)
        assert match_nodes(alone, within, taus[0]).pairs == ((0, 2),)
        assert np.abs(alone.sanitized_nodes - within.sanitized_nodes[2]).max() <= 1e-12

    def test_one_upload_per_round_keeps_overlap_zero(self):
        """K = 1 leaves no pair to match: history every round, O stays zero."""
        g = small_graph()
        spec = PartitionSpec(overlap_coefficient=0.3, seed=3)
        res = run_experiment(g, spec, small_cfg(clients_per_round=1, algorithm="fairgfl"))
        assert len(res.overlap_history) == 3
        for snap in res.overlap_history:
            assert not snap["O"].any()
        assert not res.state.O.any()


class TestGlobalEvalOperands:
    """A_hat * X is built a row block at a time and the test rows of A_hat
    from those rows alone; both equal the whole graph's, byte for byte."""

    CASES = [
        (16, "unsorted", 3),  # 45 rows: blocks of 16, 16 and 13
        (64, "unsorted", 1),  # one block, longer than the graph
        (16, "sorted", 3),
        (16, "gap", 3),       # the middle block holds no test row
        (16, "repeated", 3),  # a test id twice, as a row slice allows
        (16, "empty", 3),
        (16, "sparse", 2),    # short rows: blocks of 29 and 16, longer than ROW_BLOCK
    ]

    @pytest.mark.parametrize("block, case, blocks", CASES,
                             ids=[f"{block}-{case}" for block, case, _ in CASES])
    def test_matches_whole_graph(self, monkeypatch, block, case, blocks):
        monkeypatch.setattr(graph_mod, "ROW_BLOCK", block)
        p_in, p_out = (0.1, 0.0) if case == "sparse" else (0.4, 0.05)
        g = generate_sbm(3, 15, p_in, p_out, 6, seed=4)
        unsorted = np.random.default_rng(3).permutation(g.num_nodes)[:12]
        test_ids = {
            "unsorted": unsorted,
            "sorted": np.sort(unsorted),
            "gap": np.array([40, 3, 44, 0, 15, 32]),
            "repeated": np.array([20, 7, 20, 33]),
            "empty": np.array([], dtype=np.int64),
            "sparse": unsorted,
        }[case]
        assert len(graph_mod.row_blocks(g.adjacency)) == blocks
        a_test, ax = _global_eval_operands(g, test_ids)
        a_hat = normalize_adjacency(g.adjacency)
        want = a_hat[test_ids]
        assert a_test.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got, exp = getattr(a_test, name), getattr(want, name)
            assert got.dtype == exp.dtype, name
            assert got.tobytes() == exp.tobytes(), name
        want_ax = a_hat @ g.features
        assert ax.dtype == want_ax.dtype
        assert ax.tobytes() == want_ax.tobytes()

    def test_int8_and_float64_agree(self, monkeypatch):
        """The operands of an int8 adjacency have the bytes of its float64 copy's."""
        monkeypatch.setattr(graph_mod, "ROW_BLOCK", 16)
        g = generate_sbm(3, 15, 0.4, 0.05, 6, seed=4)
        g64 = GlobalGraph(g.num_nodes, g.features, g.labels, g.adjacency.astype(np.float64))
        assert g.adjacency.dtype == np.int8
        test_ids = np.random.default_rng(3).permutation(g.num_nodes)[:12]
        (a_test, ax), (a_test64, ax64) = (_global_eval_operands(h, test_ids) for h in (g, g64))
        for name in ("indptr", "indices", "data"):
            got, exp = getattr(a_test, name), getattr(a_test64, name)
            assert got.dtype == exp.dtype, name
            assert got.tobytes() == exp.tobytes(), name
        assert ax.tobytes() == ax64.tobytes()

    def test_peak_memory(self, traced_peak):
        # At 7 x 300 with 20% test rows: about 1.05x the bytes of the whole
        # A_hat (a row block, the kept test rows and A_hat * X), against
        # about 1.7x when the whole A_hat was built and then sliced.
        g = generate_sbm(7, 300, 0.2, 0.02, 32, seed=1)
        test_ids = np.random.default_rng(0).permutation(g.num_nodes)[:420]
        _, peak = traced_peak(_global_eval_operands, g, test_ids)
        a_hat = normalize_adjacency(g.adjacency)
        assert peak <= 1.3 * sum(a.nbytes for a in (a_hat.data, a_hat.indices, a_hat.indptr))


class TestSplitNodes:
    def test_disjoint_and_complete(self):
        g = small_graph()
        cfg = small_cfg()
        test, public, pool = split_nodes(g, cfg)
        ids = np.concatenate([test, public, pool])
        assert len(ids) == g.num_nodes
        assert len(np.unique(ids)) == g.num_nodes

    def test_fraction_sizes(self):
        g = small_graph()
        cfg = small_cfg(test_fraction=0.2, public_fraction=0.1)
        test, public, _ = split_nodes(g, cfg)
        assert len(test) == round(0.2 * g.num_nodes)
        assert len(public) == round(0.1 * g.num_nodes)
