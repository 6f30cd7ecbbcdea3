import dataclasses

import numpy as np
import pytest

import fairgfl.graph as graph_mod
import fairgfl.overlap as overlap_mod
from fairgfl.graph import ValidationError
from fairgfl.ldp import Encoder, LdpParams, SanitizedBatch, perturb_node
from fairgfl.overlap import (
    MatchResult,
    OverlapState,
    calibrate_tau,
    client_weights,
    estimate_link_ratio,
    estimate_node_ratio,
    estimate_round,
    match_nodes,
    update_state,
)


def make_batch(vectors, adjacency=None, client_id=0, reported_n=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    b = len(vectors)
    if adjacency is None:
        adjacency = np.zeros((b, b), dtype=np.int64)
    return SanitizedBatch(
        client_id=client_id,
        batch_size=b,
        sanitized_nodes=vectors,
        sanitized_adjacency=np.asarray(adjacency),
        reported_n=reported_n if reported_n is not None else b,
    )


def reference_match(a, b, tau):
    """The lexsort-and-used-set greedy loop and O(m^2) link count match_nodes replaced."""
    dists = np.linalg.norm(
        a.sanitized_nodes[:, None, :] - b.sanitized_nodes[None, :, :], axis=2
    )
    cand = np.argwhere(dists < tau) if tau > 0 else np.argwhere(dists == 0.0)
    order = np.lexsort((cand[:, 1], cand[:, 0], dists[cand[:, 0], cand[:, 1]]))
    used_a, used_b, pairs = set(), set(), []
    for idx in order:
        ia, ib = int(cand[idx, 0]), int(cand[idx, 1])
        if ia not in used_a and ib not in used_b:
            used_a.add(ia)
            used_b.add(ib)
            pairs.append((ia, ib))
    shared = 0
    for m in range(len(pairs)):
        for m2 in range(m + 1, len(pairs)):
            (ia, ib), (ja, jb) = pairs[m], pairs[m2]
            if a.sanitized_adjacency[ia, ja] and b.sanitized_adjacency[ib, jb]:
                shared += 1
    return tuple(pairs), shared


def directions(a, b, tau):
    """estimate_round's (a -> b, b -> a) estimates of a two-upload round.

    make_batch reports n = b, so every scale factor is 1 and the estimates
    are the match fraction and the shared-link fraction of each direction.
    """
    got = estimate_round([dataclasses.replace(a, client_id=0),
                          dataclasses.replace(b, client_id=1)], tau)
    return got[(0, 1)], got[(1, 0)]


def random_batch(rng, b, d, p, density):
    """Grid vectors with few levels (so duplicates and distance ties abound)."""
    upper = np.triu(rng.random((b, b)) < density, k=1)
    vectors = rng.integers(0, p + 1, size=(b, d)) / p
    return make_batch(vectors, (upper | upper.T).astype(np.int64))


def random_cases(seed, sizes):
    """(a, b, tau) over tie-heavy grids and every kind of threshold."""
    rng = np.random.default_rng(seed)
    # p = 3, 5, 7: grid steps that are not binary fractions, so distances are inexact
    for p, d in ((1, 2), (2, 3), (8, 4), (3, 4), (5, 3), (7, 5)):
        a = random_batch(rng, sizes[0], d, p, 0.3)
        b = random_batch(rng, sizes[1], d, p, 0.3)
        dists = np.linalg.norm(
            a.sanitized_nodes[:, None, :] - b.sanitized_nodes[None, :, :], axis=2
        )
        mid, top = (np.median(dists), dists.max()) if dists.size else (0.5, 1.0)
        for tau in (0.0, 1e-9, *np.unique(dists)[:3], mid, top, top + 1.0, np.inf):
            yield a, b, float(tau)


RANDOM_SIZES = [(12, 12), (5, 17), (17, 5), (1, 9), (0, 4), (20, 13), (64, 64), (150, 40)]


class TestMatchNodesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sizes", RANDOM_SIZES)
    def test_random_batches(self, seed, sizes):
        for a, b, tau in random_cases(seed, sizes):
            got = match_nodes(a, b, tau)
            pairs, shared = reference_match(a, b, tau)
            assert got.pairs == pairs
            assert got.shared == shared
            assert type(got.shared) is int

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sizes", RANDOM_SIZES)
    def test_reverse_equals_direct(self, seed, sizes):
        """match_nodes(b, a) accepts the transposed pairs and shares as many links."""
        for a, b, tau in random_cases(seed, sizes):
            got = match_nodes(a, b, tau)
            direct = match_nodes(b, a, tau)
            assert sorted((ib, ia) for ia, ib in got.pairs) == sorted(direct.pairs)
            assert got.shared == direct.shared

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sizes", [(12, 12), (5, 17), (20, 13)])
    @pytest.mark.parametrize("p", [3, 5, 7, 8])
    def test_distance_expression_is_norm(self, seed, sizes, p):
        """match_nodes' sqrt of the summed squares is np.linalg.norm's bits."""
        rng = np.random.default_rng(seed)
        a = random_batch(rng, sizes[0], 4, p, 0.3).sanitized_nodes
        b = random_batch(rng, sizes[1], 4, p, 0.3).sanitized_nodes
        diff = a[:, None, :] - b[None, :, :]
        assert (np.sqrt(np.add.reduce(diff * diff, axis=2)).tobytes()
                == np.linalg.norm(diff, axis=2).tobytes())

    def test_no_candidates(self):
        a = make_batch([[0.0, 0.0], [0.0, 0.5]], np.array([[0, 1], [1, 0]]))
        b = make_batch([[1.0, 1.0], [1.0, 0.5], [0.5, 1.0]])
        assert overlap_mod._upper_links(a) == 1
        for tau in (0.0, 0.5):
            got = match_nodes(a, b, tau)
            assert got.pairs == () and got.shared == 0
            assert directions(a, b, tau) == ((0.0, 0.0), (0.0, 0.0))

    def test_fields_are_pairs_and_shared(self):
        assert [f.name for f in dataclasses.fields(MatchResult)] == ["pairs", "shared"]


class TestMatchNodes:
    def test_exact_matching_tau_zero(self):
        a = make_batch([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        b = make_batch([[1.0, 0.0], [0.2, 0.2]])
        m = match_nodes(a, b, tau=0.0)
        assert m.pairs == ((1, 0),)
        forward, backward = directions(a, b, 0.0)
        assert forward[0] == pytest.approx(1.0 / 3.0)
        assert backward[0] == pytest.approx(1.0 / 2.0)

    def test_one_to_one(self):
        # two identical vectors in a, one in b: only one match allowed
        a = make_batch([[0.5], [0.5]])
        b = make_batch([[0.5]])
        m = match_nodes(a, b, tau=0.0)
        assert len(m.pairs) == 1

    def test_threshold_respected(self):
        a = make_batch([[0.0]])
        b = make_batch([[0.3]])
        assert match_nodes(a, b, tau=0.2).pairs == ()
        assert match_nodes(a, b, tau=0.4).pairs == ((0, 0),)

    def test_closest_candidate_wins(self):
        a = make_batch([[0.0]])
        b = make_batch([[0.3], [0.1]])
        m = match_nodes(a, b, tau=0.5)
        assert m.pairs == ((0, 1),)

    def test_shared_link_fraction(self):
        # both batches carry the same two nodes plus one extra; one shared link
        adj_a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        adj_b = np.array([[0, 1], [1, 0]])
        a = make_batch([[0.0], [1.0], [2.0]], adj_a)
        b = make_batch([[0.0], [1.0]], adj_b)
        m = match_nodes(a, b, tau=0.0)
        assert overlap_mod._upper_links(a) == 2
        assert m.shared == 1
        forward, backward = directions(a, b, 0.0)
        assert forward[1] == pytest.approx(0.5)
        assert backward[1] == pytest.approx(1.0)  # b's one link is shared

    def test_no_links_gives_zero(self):
        a = make_batch([[0.0], [1.0]])
        b = make_batch([[0.0], [1.0]])
        assert match_nodes(a, b, tau=0.0).shared == 0
        forward, backward = directions(a, b, 0.0)
        assert forward[1] == 0.0 and backward[1] == 0.0


class TestEstimateNodeRatio:
    def test_full_batches_noise_free(self):
        # 40 of 100 nodes shared, full batches: matches/b = 0.4 exactly
        assert estimate_node_ratio(0.4, 100, 100, 100, 100) == pytest.approx(0.4)

    def test_corrected_scaling(self):
        # n_tilde * n_k / b_k
        assert estimate_node_ratio(0.2, 100, 80, 20, 16) == pytest.approx(1.0)

    def test_clamped_to_unit(self):
        assert estimate_node_ratio(1.0, 100, 100, 10, 10) == 1.0

    @pytest.mark.parametrize("b_i, b_k", [(0, 5), (5, 0), (-1, 5)])
    def test_nonpositive_batch_size_rejected(self, b_i, b_k):
        with pytest.raises(ValidationError, match="positive"):
            estimate_node_ratio(0.1, 10, 10, b_i, b_k)

    def test_batch_larger_than_population_rejected(self):
        with pytest.raises(ValidationError):
            estimate_node_ratio(0.1, 10, 10, 20, 5)

    @pytest.mark.parametrize("true_overlap", [0.1, 0.3, 0.5])
    def test_monte_carlo_calibration(self, true_overlap):
        """Corrected estimator mean over noise-free batch draws tracks truth.

        Two populations of 100 nodes sharing a known fraction; batches of
        20 drawn uniformly; matches counted by exact id equality.
        """
        rng = np.random.default_rng(int(true_overlap * 100))
        n, b = 100, 20
        shared = int(true_overlap * n)
        v_i = np.arange(n)
        v_k = np.arange(n - shared, 2 * n - shared)
        ests = []
        for _ in range(500):
            batch_i = rng.choice(v_i, b, replace=False)
            batch_k = rng.choice(v_k, b, replace=False)
            matches = len(set(batch_i) & set(batch_k))
            n_tilde = matches / b
            ests.append(estimate_node_ratio(n_tilde, n, n, b, b))
        assert abs(np.mean(ests) - true_overlap) <= 0.1 * true_overlap


class TestEstimateLinkRatio:
    def test_full_batches_noise_free(self):
        assert estimate_link_ratio(0.4, 100, 100) == pytest.approx(0.4)

    def test_corrected_scaling(self):
        assert estimate_link_ratio(0.1, 100, 50) == pytest.approx(0.4)

    def test_clamped(self):
        assert estimate_link_ratio(1.0, 100, 10) == 1.0


class TestEstimateRound:
    @staticmethod
    def uploads(seed):
        """Five uploads of different sizes from clients of different sizes.

        The fifth reports no links.
        """
        rng = np.random.default_rng(seed)
        out = []
        for cid, b in zip((3, 0, 7, 5), (6, 9, 4, 9)):
            batch = random_batch(rng, b, 3, 4, 0.4)
            out.append(dataclasses.replace(batch, client_id=cid, reported_n=b + 5 * cid))
        out.append(make_batch(rng.integers(0, 5, size=(5, 3)) / 4, client_id=9, reported_n=12))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_direct_pairwise_calls(self, seed):
        batches = self.uploads(seed)
        tau = 0.3 + 0.2 * seed
        expect = {}
        for a in batches:
            links = int(np.triu(a.sanitized_adjacency, 1).sum())
            for b in batches:
                if a is b:
                    continue
                match = match_nodes(a, b, tau)
                expect[(a.client_id, b.client_id)] = (
                    estimate_node_ratio(len(match.pairs) / a.batch_size, a.reported_n,
                                        b.reported_n, a.batch_size, b.batch_size),
                    estimate_link_ratio(match.shared / links if links else 0.0,
                                        b.reported_n, b.batch_size),
                )
        got = estimate_round(batches, tau)
        assert got == expect
        assert len(got) == 20
        assert [got[(9, k)][1] for k in (3, 0, 7, 5)] == [0.0] * 4

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_matching_per_unordered_pair(self, monkeypatch, k):
        calls = []

        def counted(*args, **kwargs):
            assert not kwargs and len(args) == 3  # positional, as the benchmark probes it
            calls.append(frozenset((args[0].client_id, args[1].client_id)))
            return match_nodes(*args)

        monkeypatch.setattr(overlap_mod, "match_nodes", counted)
        batches = self.uploads(1)[:k]
        got = estimate_round(batches, 0.5)
        assert len(calls) == k * (k - 1) // 2
        assert len(set(calls)) == len(calls)
        assert len(got) == k * (k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_links_counted_once_per_upload(self, monkeypatch, k):
        counted, upper_links = [], overlap_mod._upper_links

        def counting(batch):
            counted.append(batch.client_id)
            return upper_links(batch)

        monkeypatch.setattr(overlap_mod, "_upper_links", counting)
        batches = self.uploads(2)[:k]
        estimate_round(batches, 0.5)
        assert sorted(counted) == sorted(b.client_id for b in batches)

    def test_two_uploads_of_one_client_are_not_matched(self, monkeypatch):
        """A second upload of client 3 is matched with client 0 alone, and
        its estimates overwrite the equal ones of the first."""
        calls = []

        def counted(a, b, tau):
            calls.append((a.client_id, b.client_id))
            return match_nodes(a, b, tau)

        first, second = self.uploads(3)[:2]
        want = estimate_round([first, second], 0.5)
        monkeypatch.setattr(overlap_mod, "match_nodes", counted)
        assert estimate_round([first, second, first], 0.5) == want
        assert calls == [(3, 0), (0, 3)]

    def test_single_upload_gives_no_estimates(self):
        assert estimate_round(self.uploads(0)[:1], 0.5) == {}


class TestOverlapState:
    def test_initial_zeroes(self):
        state = OverlapState.initial(4, alpha=0.8, beta=0.5)
        assert state.num_clients == 4
        assert state.O.sum() == 0.0

    def test_invalid_weights(self):
        with pytest.raises(ValidationError):
            OverlapState.initial(3, alpha=1.5, beta=0.5)
        with pytest.raises(ValidationError):
            OverlapState.initial(3, alpha=0.5, beta=0.0)

    def test_update_accumulation_hand_arithmetic(self):
        state = OverlapState.initial(3, alpha=0.8, beta=0.5)
        state = update_state(state, {(0, 1): (0.4, 0.2)})
        assert state.N_acc[0, 1] == pytest.approx(0.2)  # 0.5*0.4
        assert state.O[0, 1] == pytest.approx(0.8 * 0.2 + 0.2 * 0.1)
        state = update_state(state, {(0, 1): (0.4, 0.2)})
        assert state.N_acc[0, 1] == pytest.approx(0.3)  # 0.5*0.4 + 0.5*0.2

    def test_absent_pairs_keep_accumulated(self):
        state = OverlapState.initial(3, alpha=1.0, beta=0.5)
        state = update_state(state, {(0, 1): (0.6, 0.0)})
        acc = state.N_acc[0, 1]
        state = update_state(state, {(1, 2): (0.2, 0.0)})
        assert state.N_acc[0, 1] == acc
        assert state.N_round[0, 1] == 0.0

    def test_functional_update(self):
        state = OverlapState.initial(2, alpha=0.8, beta=0.5)
        out = update_state(state, {(0, 1): (0.5, 0.5)})
        assert state.O.sum() == 0.0
        assert out is not state

    def test_client_weights_exclude_diagonal(self):
        state = OverlapState.initial(3, alpha=1.0, beta=1.0)
        state = update_state(state, {(0, 1): (0.3, 0.0), (0, 2): (0.2, 0.0)})
        o = state.O.copy()
        np.fill_diagonal(o, 7.0)  # the diagonal must not count
        assert client_weights(o) == pytest.approx([1.0 / 1.5, 1.0, 1.0])
        assert client_weights(state.O)[1:].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("p", [1, 2, 5, 10, 39])
    def test_client_weights_match_per_row_formula(self, p):
        """Bit for bit the per-row 1 / (1 + (row.sum() - row[i])) they replace."""
        rng = np.random.default_rng(p)
        for _ in range(50):
            o = rng.random((p, p)) * rng.choice([1e-3, 1.0, 30.0])
            expect = [1.0 / (1.0 + float(o[i].sum() - o[i, i])) for i in range(p)]
            assert client_weights(o).tolist() == expect


class TestCalibrateTau:
    def test_positive_and_monotone_in_percentile(self):
        rng = np.random.default_rng(0)
        enc = Encoder(
            W=rng.standard_normal((6, 3)), b=np.zeros(3), d1=3, x_min=-1.0, x_max=1.0
        )
        params = LdpParams(3.0, 1.0, 8)
        nodes = rng.standard_normal((30, 6))
        lo = calibrate_tau(enc, nodes, params, np.random.default_rng(1), 25.0)
        hi = calibrate_tau(enc, nodes, params, np.random.default_rng(1), 95.0)
        assert 0.0 < lo <= hi

    def test_draw_order_matches_row_loop(self):
        """One call draws what a per-row loop of two perturbations draws."""
        rng = np.random.default_rng(2)
        enc = Encoder(
            W=rng.standard_normal((6, 3)), b=np.zeros(3), d1=3, x_min=-1.0, x_max=1.0
        )
        params = LdpParams(2.0, 1.0, 3)
        nodes = rng.standard_normal((25, 6))
        loop_rng = np.random.default_rng(3)
        dists = []
        for row in enc.encode(nodes):
            first = perturb_node(row, params, loop_rng, enc.x_min, enc.x_max)
            second = perturb_node(row, params, loop_rng, enc.x_min, enc.x_max)
            dists.append(np.linalg.norm(first - second))
        tau_rng = np.random.default_rng(3)
        assert calibrate_tau(enc, nodes, params, tau_rng, 40.0) == np.percentile(dists, 40.0)
        assert tau_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("block", [1, 4, 25, 512])
    def test_blocks_match_whole_draw(self, monkeypatch, block):
        """Public nodes perturbed ROW_BLOCK rows at a time give the tau, and
        leave the generator in the state, of one (n, 2, d1) draw."""
        rng = np.random.default_rng(5)
        enc = Encoder(
            W=rng.standard_normal((6, 4)), b=np.zeros(4), d1=4, x_min=-1.0, x_max=1.0
        )
        params = LdpParams(3.0, 1.0, 5)
        nodes = rng.standard_normal((25, 6))
        whole_rng = np.random.default_rng(6)
        encoded = enc.encode(nodes)
        twice = perturb_node(np.stack([encoded, encoded], axis=1), params, whole_rng,
                             enc.x_min, enc.x_max)
        want = np.percentile([np.linalg.norm(d) for d in twice[:, 0] - twice[:, 1]], 30.0)
        monkeypatch.setattr(graph_mod, "ROW_BLOCK", block)
        tau_rng = np.random.default_rng(6)
        assert calibrate_tau(enc, nodes, params, tau_rng, 30.0) == want
        assert tau_rng.bit_generator.state == whole_rng.bit_generator.state
