import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import beta

from fairgfl import ldp as ldp_mod
from fairgfl.gcn import NumericError
from fairgfl.graph import ClientSubgraph, ValidationError, generate_sbm, induced_subgraph
from fairgfl.ldp import (
    Encoder,
    LdpParams,
    PermanentCache,
    SanitizedBatch,
    expected_density,
    node_grid_probs,
    perturb_links,
    perturb_node,
    sanitize_batch,
    sparsify_correct,
    train_encoder,
)


def scalar_perturb_node(x, params, rng, x_min=0.0, x_max=1.0):
    """Reference node mechanism: one distribution, cumsum and draw per element.

    This is the per-element loop that perturb_node vectorises; the
    vectorised mechanism must reproduce its outputs and its draws.
    """
    x_hat = (np.clip(np.asarray(x, dtype=np.float64), x_min, x_max) - x_min) / (x_max - x_min)
    p = params.quantiles
    grid = np.arange(p + 1) / p
    out = np.empty(x_hat.size)
    u = rng.random(x_hat.size)
    for j, (xv, uv) in enumerate(zip(x_hat.ravel(), u)):
        dist = np.floor(p * np.abs(xv - grid) + 1e-12)
        weights = np.exp(params.epsilon_a * (1.0 - dist / p))
        cum = np.cumsum(weights / weights.sum())
        out[j] = np.searchsorted(cum, uv, side="right") / p
    return out.reshape(x_hat.shape)


def make_encoder(d=4, d1=2):
    rng = np.random.default_rng(0)
    return Encoder(
        W=rng.standard_normal((d, d1)), b=np.zeros(d1), d1=d1, x_min=-1.0, x_max=1.0
    )


class TestLdpParams:
    def test_flip_probability(self):
        params = LdpParams(epsilon_a=3.0, epsilon_b=1.0, quantiles=8)
        assert params.flip_probability == pytest.approx(1.0 / (1.0 + np.e))

    def test_invalid_budgets(self):
        with pytest.raises(ValidationError):
            LdpParams(epsilon_a=0.0, epsilon_b=1.0, quantiles=8)
        with pytest.raises(ValidationError):
            LdpParams(epsilon_a=1.0, epsilon_b=1.0, quantiles=0)

    @pytest.mark.parametrize("quantiles", [10**20, 10**400], ids=["1e20", "400-digit"])
    def test_quantiles_past_numpys_limit_rejected(self, quantiles):
        """A grid of quantiles + 1 points past numpy's largest byte count is
        refused before any float arithmetic: quantiles + 1.0 overflows a
        float past about 1.8e308, and numpy refuses the 1e20 grid with a bare
        ValueError."""
        with pytest.raises(ValidationError, match=re.escape(f"shape ({quantiles + 1},)")):
            LdpParams(quantiles=quantiles)

    @staticmethod
    def largest_accepted(make, lo, hi):
        """The largest float in [lo, hi) that make accepts; lo passes, hi fails."""
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            try:
                make(mid)
                lo = mid
            except ValidationError:
                hi = mid
        return lo

    def test_largest_accepted_budgets_stay_finite(self):
        """epsilon_a up to ln(float64 max) - ln(p + 1), about 707.59 at p = 8,
        and epsilon_b up to ln(float64 max), about 709.78; at each limit the
        mechanism's probabilities are finite, on a dense x grid whose points
        include every grid point and every midpoint between two."""
        eps_a = self.largest_accepted(lambda e: LdpParams(epsilon_a=e, quantiles=8), 1.0, 1e4)
        assert 707.58 < eps_a < 707.59
        past = float(np.nextafter(eps_a, np.inf))
        with pytest.raises(ValidationError, match=re.escape(f"epsilon_a = {past!r}")):
            LdpParams(epsilon_a=past, quantiles=8)
        probs = node_grid_probs(np.linspace(0.0, 1.0, 8 * 64 + 1), eps_a, 8)
        assert np.isfinite(probs).all()
        assert np.allclose(probs.sum(axis=-1), 1.0)

        eps_b = self.largest_accepted(lambda e: LdpParams(epsilon_b=e), 1.0, 1e4)
        assert 709.78 < eps_b < 709.79
        past = float(np.nextafter(eps_b, np.inf))
        with pytest.raises(ValidationError, match=re.escape(f"epsilon_b = {past!r}")):
            LdpParams(epsilon_b=past)
        assert 0.0 < LdpParams(epsilon_b=eps_b).flip_probability < 1e-300


class TestNodeGridProbs:
    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_normalized(self, p):
        for x in (0.0, 0.37, 0.5, 1.0):
            probs = node_grid_probs(x, 3.0, p)
            assert probs.shape == (p + 1,)
            assert probs.sum() == pytest.approx(1.0)

    def test_nearest_point_most_likely(self):
        probs = node_grid_probs(0.25, 3.0, 4)
        assert probs.argmax() == 1

    @pytest.mark.parametrize("eps,p", [(1.0, 4), (3.0, 8), (5.0, 8)])
    def test_analytic_ratio_bound(self, eps, p):
        """Max output probability ratio over an input scan stays within e^eps."""
        grid = np.linspace(0.0, 1.0, 201)
        mat = np.stack([node_grid_probs(x, eps, p) for x in grid])
        ratio = (mat.max(axis=0) / mat.min(axis=0)).max()
        assert ratio <= np.exp(eps) * (1 + 1e-9)


class TestPerturbNode:
    def test_outputs_on_grid(self):
        params = LdpParams(3.0, 1.0, 8)
        rng = np.random.default_rng(1)
        out = perturb_node(np.linspace(0, 1, 16), params, rng)
        assert np.all((out * 8) % 1 == 0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_clipping_range(self):
        params = LdpParams(3.0, 1.0, 4)
        rng = np.random.default_rng(2)
        out = perturb_node(np.array([-10.0, 10.0]), params, rng, x_min=-1.0, x_max=1.0)
        assert out.shape == (2,)

    def test_nonfinite_rejected(self):
        params = LdpParams(3.0, 1.0, 4)
        with pytest.raises(NumericError):
            perturb_node(np.array([np.nan]), params, np.random.default_rng(0))

    @pytest.mark.parametrize("x_max", [0.5, 0.25], ids=["empty", "reversed"])
    def test_empty_range_rejected(self, x_max):
        with pytest.raises(ValidationError, match="x_max must exceed x_min"):
            perturb_node(np.array([0.4]), LdpParams(3.0, 1.0, 4), np.random.default_rng(0),
                         x_min=0.5, x_max=x_max)

    def test_distribution_matches_probs(self):
        # Monte Carlo frequency of each grid point vs analytic distribution
        params = LdpParams(2.0, 1.0, 4)
        rng = np.random.default_rng(3)
        x = 0.4
        draws = perturb_node(np.full(20000, x), params, rng)
        freq = np.bincount((draws * 4).astype(int), minlength=5) / draws.size
        expect = node_grid_probs(x, 2.0, 4)
        assert np.max(np.abs(freq - expect)) < 0.01


class TestPerturbNodeReference:
    """perturb_node equals the scalar per-element loop, outputs and draws."""

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 16, 33])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("shape", [(7,), (5, 4), (3, 2, 4)])
    def test_random_inputs(self, p, eps, shape):
        params = LdpParams(eps, 1.0, p)
        x = np.random.default_rng(p * 100 + len(shape)).uniform(-1.5, 1.5, shape)
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        got = perturb_node(x, params, rng_a, x_min=-1.0, x_max=1.0)
        want = scalar_perturb_node(x, params, rng_b, x_min=-1.0, x_max=1.0)
        assert got.shape == shape
        assert np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 16, 33])
    def test_grid_points_and_clamped_inputs(self, p):
        params = LdpParams(3.0, 1.0, p)
        grid = np.arange(p + 1) / p
        x = np.concatenate([grid, grid + 1e-15, grid - 1e-15, [-4.0, -1e-9, 1.0 + 1e-9, 7.5]])
        x = np.stack([x, x[::-1]])
        rng_a, rng_b = np.random.default_rng(18), np.random.default_rng(18)
        for _ in range(20):
            assert np.array_equal(perturb_node(x, params, rng_a),
                                  scalar_perturb_node(x, params, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_empty_input_draws_nothing(self):
        rng = np.random.default_rng(19)
        before = rng.bit_generator.state
        out = perturb_node(np.empty((0, 4)), LdpParams(3.0, 1.0, 8), rng)
        assert out.shape == (0, 4)
        assert rng.bit_generator.state == before


class TestPerturbLinks:
    @pytest.mark.parametrize("x,p_e", [(0.05, 0.1), (0.1, 0.25), (0.5, 0.1)])
    def test_density_formula(self, x, p_e):
        """Monte Carlo post-flip density matches x + p_e - 2*x*p_e."""
        eps_b = np.log(1.0 / p_e - 1.0)
        params = LdpParams(3.0, eps_b, 8)
        assert params.flip_probability == pytest.approx(p_e)
        rng = np.random.default_rng(5)
        b = 450  # ~1e5 strict-upper entries
        upper = np.triu(rng.random((b, b)) < x, k=1)
        adj = (upper | upper.T).astype(np.int64)
        rows, cols = np.triu_indices(b, k=1)
        out = perturb_links(adj[rows, cols], params, rng)
        n = len(rows)
        density = out.mean()
        target = expected_density(x, p_e)
        sigma = np.sqrt(target * (1 - target) / n)
        assert abs(density - target) < 3 * sigma


class TestSparsifyCorrect:
    def test_removes_surplus_ones(self):
        rng = np.random.default_rng(6)
        b = 40
        p_e = 0.25
        upper = np.triu(rng.random((b, b)) < 0.3, k=1)
        adj = (upper | upper.T).astype(np.int64)
        nodes = rng.random((b, 3))
        out = sparsify_correct(adj, nodes, p_e)
        rows, cols = np.triu_indices(b, k=1)
        p0 = adj[rows, cols].mean()
        x_hat = (p0 - p_e) / (1 - 2 * p_e)
        expect_removed = int(round((p0 - x_hat) * len(rows)))
        assert adj[rows, cols].sum() - out[rows, cols].sum() == expect_removed
        assert np.array_equal(out, out.T)

    def test_farthest_pairs_dropped_first(self):
        # density 2/6 with p_e=0.25 implies exactly one surplus link;
        # the wider of the two present links must be the one removed
        nodes = np.array([[0.0], [0.1], [0.5], [1.0]])
        adj = np.zeros((4, 4), dtype=np.int64)
        adj[0, 1] = adj[1, 0] = 1
        adj[0, 3] = adj[3, 0] = 1
        out = sparsify_correct(adj, nodes, p_e=0.25)
        assert out[0, 3] == 0  # distance 1.0, the largest
        assert out[0, 1] == 1

    def test_no_ones_noop(self):
        adj = np.zeros((5, 5), dtype=np.int64)
        out = sparsify_correct(adj, np.zeros((5, 2)), 0.2)
        assert out.sum() == 0

    def test_half_flip_rejected(self):
        with pytest.raises(ValidationError):
            sparsify_correct(np.zeros((3, 3), dtype=np.int64), np.zeros((3, 1)), 0.5)


class TestTrainEncoder:
    def test_output_dims_and_range(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 6))
        enc = train_encoder(x, d1=3, epochs=5, seed=0)
        out = enc.encode(x)
        assert out.shape == (50, 3)
        assert out.min() >= enc.x_min and out.max() <= enc.x_max

    def test_reduces_reconstruction_error(self):
        # encoding separated clusters should stay separated
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 6)) + 5.0
        b = rng.standard_normal((40, 6)) - 5.0
        enc = train_encoder(np.vstack([a, b]), d1=2, epochs=30, seed=1)
        za, zb = enc.encode(a).mean(axis=0), enc.encode(b).mean(axis=0)
        assert np.linalg.norm(za - zb) > 0.5

    def test_wide_dim_rejected(self):
        with pytest.raises(ValidationError):
            train_encoder(np.zeros((10, 4)), d1=4, epochs=1, seed=0)

    def test_no_public_rows_rejected(self):
        with pytest.raises(ValidationError, match="non-empty matrix"):
            train_encoder(np.zeros((0, 4)), d1=2, epochs=1, seed=0)


def plain_batch(sub, batch_ids, encoder):
    """The use_ldp = off upload as a builder of its own assembled it, kept as
    the reference for sanitize_batch without params: the encoded rows and
    the batch's whole raw adjacency, unperturbed."""
    rows = sub.local_rows(batch_ids)
    return SanitizedBatch(
        client_id=sub.client_id,
        batch_size=len(rows),
        sanitized_nodes=encoder.encode(sub.features[rows]),
        sanitized_adjacency=sub.has_edges(rows[:, None], rows[None, :]).astype(np.int64),
        reported_n=sub.num_nodes,
        node_ids=np.asarray(batch_ids),
    )


class TestSanitizeBatch:
    def setup_method(self):
        self.graph = generate_sbm(3, 20, 0.3, 0.05, 8, seed=9)
        self.sub = induced_subgraph(self.graph, np.arange(30), 0)
        self.params = LdpParams(3.0, 1.0, 8)
        self.encoder = train_encoder(self.graph.features[40:], d1=4, epochs=5, seed=2)

    def test_shapes_and_grid(self):
        rng = np.random.default_rng(10)
        batch = np.arange(10)
        out = sanitize_batch(self.sub, batch, self.encoder, self.params, None, rng)
        assert out.batch_size == 10
        assert out.sanitized_nodes.shape == (10, 4)
        assert np.all((out.sanitized_nodes * 8) % 1 == 0)
        assert np.array_equal(out.sanitized_adjacency, out.sanitized_adjacency.T)
        assert out.reported_n == 30

    @pytest.mark.parametrize("b, cached", [
        pytest.param(b, cached, id=name + "-cache" * cached)
        for cached in (False, True) for b, name in ((1, "one"), (12, "mid"), (30, "every-node"))])
    def test_without_params_equals_plain_batch(self, b, cached):
        """params None uploads the encoded vectors and raw link bits, field
        by field the bytes of the reference, and draws nothing from rng; a
        cache passed in stays unbound."""
        batch = np.random.default_rng(b).permutation(self.sub.node_ids)[:b]
        rng = np.random.default_rng(15)
        state = rng.bit_generator.state
        cache = PermanentCache() if cached else None
        got = sanitize_batch(self.sub, batch, self.encoder, None, cache, rng)
        assert rng.bit_generator.state == state
        if cached:
            assert cache.node_ids is None and cache.nodes == set()
        want = plain_batch(self.sub, batch, self.encoder)
        assert want.sanitized_adjacency.any() or b == 1
        for f in dataclasses.fields(SanitizedBatch):
            a, w = getattr(got, f.name), getattr(want, f.name)
            if isinstance(w, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (w.dtype, w.shape, w.tobytes()), f.name
            else:
                assert a == w, f.name

    def test_foreign_node_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValidationError, match="not on client"):
            sanitize_batch(self.sub, np.array([55]), self.encoder, self.params, None, rng)

    def test_repeated_node_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValidationError, match="distinct"):
            sanitize_batch(self.sub, np.array([3, 5, 3]), self.encoder, self.params,
                           PermanentCache(), rng)

    def test_permanent_cache_freezes_responses(self):
        """Repeated sanitizations reuse the first perturbed values."""
        rng = np.random.default_rng(12)
        cache = PermanentCache()
        batch = np.arange(8)
        outs = [
            sanitize_batch(self.sub, batch, self.encoder, self.params, cache, rng)
            for _ in range(5)
        ]
        for out in outs[1:]:
            assert np.array_equal(out.sanitized_nodes, outs[0].sanitized_nodes)

    def test_without_cache_responses_vary(self):
        rng = np.random.default_rng(13)
        batch = np.arange(8)
        a = sanitize_batch(self.sub, batch, self.encoder, self.params, None, rng)
        b = sanitize_batch(self.sub, batch, self.encoder, self.params, None, rng)
        assert not np.array_equal(a.sanitized_nodes, b.sanitized_nodes)

    def test_cached_link_bits_shared_across_batches(self):
        rng = np.random.default_rng(14)
        cache = PermanentCache()

        def drawn_bits():
            return np.count_nonzero(np.triu(cache.links >= 0, k=1))

        sanitize_batch(self.sub, np.arange(6), self.encoder, self.params, cache, rng)
        n_links = drawn_bits()
        sanitize_batch(self.sub, np.arange(6), self.encoder, self.params, cache, rng)
        assert drawn_bits() == n_links == 15
        assert np.array_equal(cache.links, cache.links.T)

    def test_cache_nodes_by_global_id(self):
        """``gid in cache.nodes`` says whether that node's vector is cached."""
        sub = induced_subgraph(self.graph, np.arange(10, 40), 0)
        cache = PermanentCache()
        assert 10 not in cache.nodes
        batch = np.array([33, 12, 20])
        sanitize_batch(sub, batch, self.encoder, self.params, cache, np.random.default_rng(1))
        assert all(g in cache.nodes for g in batch.tolist())
        assert not any(g in cache.nodes for g in (10, 13, 39, 5, 55))
        assert cache.nodes == {12, 20, 33}

    def test_fully_cached_upload_draws_nothing(self, monkeypatch):
        """A repeat upload replays its responses without calling perturb_node."""
        rng = np.random.default_rng(17)
        cache = PermanentCache()
        batch = np.array([4, 9, 2, 17])
        first = sanitize_batch(self.sub, batch, self.encoder, self.params, cache, rng)
        calls = []
        monkeypatch.setattr(ldp_mod, "perturb_node",
                            lambda *args, **kw: calls.append(args) or perturb_node(*args, **kw))
        before = rng.bit_generator.state
        again = sanitize_batch(self.sub, batch[::-1], self.encoder, self.params, cache, rng)
        assert calls == []
        assert rng.bit_generator.state == before
        assert np.array_equal(again.sanitized_nodes, first.sanitized_nodes[::-1])

    def test_cache_of_another_client_rejected(self):
        cache = PermanentCache()
        rng = np.random.default_rng(18)
        sanitize_batch(self.sub, np.arange(5), self.encoder, self.params, cache, rng)
        other = induced_subgraph(self.graph, np.arange(5, 35), 1)
        with pytest.raises(ValidationError, match="client"):
            sanitize_batch(other, np.arange(5, 10), self.encoder, self.params, cache, rng)

    def test_flips_only_fresh_pairs_through_perturb_links(self, monkeypatch):
        """Uploads flip links only through perturb_links, and pass it exactly
        the raw bits of their uncached pairs, in row-major order."""
        sent = []
        monkeypatch.setattr(ldp_mod, "perturb_links",
                            lambda bits, *args: sent.append(bits) or perturb_links(bits, *args))
        adj = self.sub.adjacency.toarray() != 0
        cache, rng = PermanentCache(), np.random.default_rng(20)
        for batch in (np.arange(6), np.arange(4, 10), np.array([5, 0, 3])):
            sanitize_batch(self.sub, batch, self.encoder, self.params, cache, rng)
        # the second batch shares pair (4, 5) with the first; the third is cached
        assert [len(bits) for bits in sent] == [15, 14, 0]
        rows, cols = np.triu_indices(6, k=1)
        assert np.array_equal(sent[0], adj[rows, cols])
        sanitize_batch(self.sub, np.arange(6), self.encoder, self.params, None, rng)
        assert len(sent[-1]) == 15

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_uploads_symmetric_zero_diagonal(self, cached):
        cache = PermanentCache() if cached else None
        rng, picks = np.random.default_rng(21), np.random.default_rng(22)
        for _ in range(10):
            batch = picks.choice(30, size=8, replace=False)
            adj = sanitize_batch(self.sub, batch, self.encoder, self.params, cache, rng)
            adj = adj.sanitized_adjacency
            assert np.array_equal(adj, adj.T)
            assert not adj.diagonal().any()
            assert np.isin(adj, (0, 1)).all()

    def test_link_bits_match_scalar_reference(self):
        """Uploads equal per-row, per-element and per-pair scalar loops.

        The loops are the reference for the draw order: uncached rows in
        batch order, each row's elements in order, then uncached
        upper-triangle pairs in row-major order. Uploads and the generator
        state must agree with the cache on and off, across overlapping
        batches.
        """

        def reference(batch, cache, rng):
            """cache is None or a (nodes, links) pair of dicts keyed by global ids."""
            nodes, links = cache if cache is not None else ({}, {})
            vectors = np.empty((len(batch), self.encoder.d1))
            for row, gid in enumerate(batch):
                if gid in nodes:
                    vectors[row] = nodes[gid]
                    continue
                enc = self.encoder.encode(self.sub.features[gid])[0]
                vectors[row] = scalar_perturb_node(
                    enc, self.params, rng, self.encoder.x_min, self.encoder.x_max
                )
                if cache is not None:
                    nodes[gid] = vectors[row]
            adj = self.sub.adjacency.toarray()
            p_e = self.params.flip_probability
            out = np.zeros((len(batch), len(batch)), dtype=np.int64)
            for i in range(len(batch)):
                for j in range(i + 1, len(batch)):
                    key = (min(batch[i], batch[j]), max(batch[i], batch[j]))
                    if key in links:
                        bit = links[key]
                    else:
                        raw = int(adj[batch[i], batch[j]] != 0)
                        bit = 1 - raw if rng.random() < p_e else raw
                        if cache is not None:
                            links[key] = bit
                    out[i, j] = out[j, i] = bit
            return vectors, sparsify_correct(out, vectors, p_e)

        for cached in (False, True):
            rng_a, rng_b = np.random.default_rng(15), np.random.default_rng(15)
            cache_a = PermanentCache() if cached else None
            cache_b = ({}, {}) if cached else None
            picks = np.random.default_rng(16)
            for _ in range(20):
                batch = picks.choice(30, size=8, replace=False)
                got = sanitize_batch(self.sub, batch, self.encoder, self.params, cache_a, rng_a)
                nodes, adj = reference(batch, cache_b, rng_b)
                assert np.array_equal(got.sanitized_nodes, nodes)
                assert np.array_equal(got.sanitized_adjacency, adj)
            assert rng_a.random() == rng_b.random()

    def test_upload_audit_bounds_epsilon_a(self):
        """An end-to-end audit of encode, clamp and perturb_node as uploads
        run them, after Jagielski et al. (2020), "Auditing Differentially
        Private Machine Learning".

        Half the client's rows hold x and half -x, with x along column 0 of
        the encoder's W, so coordinate 0 encodes to opposite clamp ends. For
        every coordinate and grid value, the one-sided Clopper-Pearson lower
        bound of one input's frequency over the upper bound of the other's
        must stay within e^epsilon_a. The audit resolves most of the budget:
        uploads that spend 1.5 epsilon_a fail it.
        """
        eps, p, n_rows, calls = 3.0, 8, 100, 100
        w = self.encoder.W[:, 0]
        x = 50.0 * w / np.linalg.norm(w)
        n = 2 * n_rows
        sub = ClientSubgraph(0, np.arange(n), np.vstack([np.tile(x, (n_rows, 1)),
                                                         np.tile(-x, (n_rows, 1))]),
                             np.zeros(n, dtype=np.int64), sp.csr_matrix((n, n), dtype=np.int8))
        rng = np.random.default_rng(23)
        grid = np.rint(p * np.stack([
            sanitize_batch(sub, sub.node_ids, self.encoder, LdpParams(eps, 1.0, p), None,
                           rng).sanitized_nodes for _ in range(calls)])).astype(np.int64)
        # counts[input, coordinate, grid value] over calls * n_rows uploads of each input
        counts = np.stack([(half[..., None] == np.arange(p + 1)).sum(axis=(0, 1))
                           for half in (grid[:, :n_rows], grid[:, n_rows:])])
        trials, alpha = calls * n_rows, 1e-6
        lower = np.where(counts > 0, beta.ppf(alpha, np.maximum(counts, 1),
                                              trials - counts + 1), 0.0)
        upper = np.where(counts < trials, beta.ppf(1 - alpha, counts + 1,
                                                   np.maximum(trials - counts, 1)), 1.0)
        with np.errstate(divide="ignore"):
            audited = np.log(lower / upper[::-1]).max()
        assert eps - 1.0 < audited <= eps
