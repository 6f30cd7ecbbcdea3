from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fairgfl.cli import build_graph, parse_config
from fairgfl.federation import split_nodes
from fairgfl.gcn import (
    GcnModel,
    NumericError,
    _mask_rows,
    _softmax_ce,
    forward,
    init_model,
    loss_and_grad,
    masked_loss,
    normalize_adjacency,
    sgd_step,
    stack_graphs,
)
from fairgfl.graph import (
    PartitionSpec,
    ValidationError,
    generate_sbm,
    induced_subgraph,
    partition,
)


def random_case(rng, n=8, d=5, h=4, c=3, p_edge=0.4):
    adj = np.triu((rng.random((n, n)) < p_edge).astype(float), k=1)
    adj = adj + adj.T
    a_hat = normalize_adjacency(sp.csr_matrix(adj))
    x = rng.standard_normal((n, d))
    labels = rng.integers(0, c, size=n)
    model = init_model(d, h, c, rng)
    return model, a_hat, x, labels


def product_normalize(adj):
    """A_hat as the product D @ A_tilde @ D, kept as the reference for
    normalize_adjacency, which scales A_tilde's entries instead."""
    n = adj.shape[0]
    a_tilde = (adj + sp.eye(n, format="csr")).tocsr()
    d_mat = sp.diags(1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel()))
    return (d_mat @ a_tilde @ d_mat).tocsr()


class TestNormalizeAdjacency:
    def test_rows_of_regular_graph(self):
        # 3-cycle: every node degree 2, so A_hat is uniform 1/3
        adj = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        a_hat = normalize_adjacency(sp.csr_matrix(adj))
        assert np.allclose(a_hat.todense(), 1.0 / 3.0)

    def test_isolated_node(self):
        a_hat = normalize_adjacency(sp.csr_matrix((2, 2)))
        assert np.allclose(a_hat.todense(), np.eye(2))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        _, a_hat, _, _ = random_case(rng)
        m = a_hat
        assert (abs(m - m.T) > 1e-12).nnz == 0

    @pytest.mark.parametrize("case", [
        "random", "induced", "coo_duplicates_zeros", "unsorted_indices", "no_edges",
        "no_nodes", "one_node",
    ])
    def test_matches_product_reference(self, case):
        rng = np.random.default_rng(21)
        if case == "random":
            # Weights off the powers of two, so a reordered product shows.
            adj = sp.triu(sp.random(40, 40, density=0.2, random_state=rng), k=1)
            adj = (adj + adj.T).tocsr()
        elif case == "induced":
            g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=3)
            adj = induced_subgraph(g, rng.choice(60, size=25, replace=False), 0).adjacency
        elif case == "coo_duplicates_zeros":
            row, col = np.array([0, 1, 0, 2, 3, 3, 4]), np.array([1, 0, 1, 3, 2, 4, 3])
            data = np.array([1.0, 1.0, 0.3, 1.0, 1.0, 0.0, 0.0])
            adj = sp.coo_matrix((data, (row, col)), shape=(6, 6))
        elif case == "unsorted_indices":
            adj = sp.csr_matrix((np.ones(6), np.array([2, 1, 2, 0, 1, 0]),
                                 np.array([0, 2, 4, 6])), shape=(3, 3))
            assert not adj.has_sorted_indices
        else:
            n = {"no_edges": 4, "no_nodes": 0, "one_node": 1}[case]
            adj = sp.csr_matrix((n, n))
        got, want = normalize_adjacency(adj), product_normalize(adj)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", ["sbm", "induced", "no_edges"])
    def test_int8_and_float64_agree(self, case):
        """A_hat of an int8 adjacency has the bytes of A_hat of its float64 copy."""
        g = generate_sbm(3, 20, 0.3, 0.05, 4, seed=3)
        adj = {
            "sbm": g.adjacency,
            "induced": induced_subgraph(g, np.arange(5, 40), 0).adjacency,
            "no_edges": sp.csr_matrix((5, 5), dtype=np.int8),
        }[case]
        assert adj.dtype == np.int8
        got, want = normalize_adjacency(adj), normalize_adjacency(adj.astype(np.float64))
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    def test_peak_memory(self, traced_peak):
        # Scaling A_tilde's data in place, a row block at a time, leaves no
        # temporary longer than a block: about 1.2x the bytes of A_hat at
        # 7 x 300, against about 1.7x with nnz-long temporaries and 3x for
        # products that allocate a row-index array and two temporaries.
        adj = generate_sbm(7, 300, 0.2, 0.02, 32, seed=1).adjacency
        a_hat, peak = traced_peak(normalize_adjacency, adj)
        assert peak <= 1.4 * sum(a.nbytes for a in (a_hat.data, a_hat.indices, a_hat.indptr))


class TestStack:
    @staticmethod
    def graphs(p_in=0.4, p_out=0.05):
        """Subgraphs of 1, 12, 35 and 3 nodes of a 45-node graph, two of
        them overlapping."""
        g = generate_sbm(3, 15, p_in, p_out, 6, seed=4)
        sets = [np.array([7]), np.arange(0, 12), np.arange(10, 45), np.array([3, 30, 44])]
        return [induced_subgraph(g, ids, i) for i, ids in enumerate(sets)]

    def test_each_block_keeps_its_graphs_operands(self):
        """A graph selected alone has its own A_hat's CSR arrays and its
        A_hat * X, byte for byte."""
        parts = self.graphs()
        stack = stack_graphs(parts)
        assert stack.bounds == (0, 1, 13, 48, 51)
        for i, p in enumerate(parts):
            one = stack.select([i])
            want = normalize_adjacency(p.adjacency)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(one.a_hat, name), getattr(want, name)), name
            assert one.a_hat.data.tobytes() == want.data.tobytes()
            assert one.axs[0].tobytes() == (want @ p.features).tobytes()
            assert np.array_equal(one.labels, p.labels)
            assert one.bounds == (0, p.num_nodes)

    def test_select_is_block_diagonal_in_the_given_order(self):
        parts = self.graphs()
        sel = stack_graphs(parts).select([2, 0, 3])
        blocks = [normalize_adjacency(parts[i].adjacency) for i in (2, 0, 3)]
        assert np.array_equal(sel.a_hat.toarray(), sp.block_diag(blocks).toarray())
        assert sel.bounds == (0, 35, 36, 39)
        assert np.array_equal(sel.labels, np.concatenate([parts[i].labels for i in (2, 0, 3)]))

    def test_stacked_pass_equals_each_graph_alone(self):
        """Every graph's loss and gradient from one stacked pass, each with
        its own model, equal those of a pass over the graph alone, bit for
        bit; so do the losses of every node."""
        parts = self.graphs()
        stack = stack_graphs(parts)
        rng = np.random.default_rng(8)
        models = [init_model(6, 5, 3, rng) for _ in parts]
        masks = [rng.choice(p.num_nodes, size=min(4, p.num_nodes), replace=False)
                 for p in parts]
        losses, grads = loss_and_grad(models, stack, masks)
        full = masked_loss(models, stack)
        for p, model, mask, loss, grad, whole in zip(parts, models, masks, losses, grads, full):
            alone = stack_graphs([p])
            (want,), (want_grad,) = loss_and_grad((model,), alone, (mask,))
            assert np.array_equal(loss, want)
            assert np.array_equal(grad.W1, want_grad.W1)
            assert np.array_equal(grad.W2, want_grad.W2)
            assert whole == masked_loss((model,), alone, (np.arange(p.num_nodes),))[0]

    def test_empty_mask_of_one_graph_rejected(self):
        parts = self.graphs()
        model = init_model(6, 5, 3, np.random.default_rng(9))
        masks = [np.array([0]), np.array([], dtype=int), np.array([1]), np.array([2])]
        with pytest.raises(ValidationError):
            loss_and_grad([model] * 4, stack_graphs(parts), masks)

    @pytest.mark.parametrize("kind", ["index", "boolean"])
    def test_empty_mask_of_one_graph_rejected_by_masked_loss(self, kind):
        parts = self.graphs()
        model = init_model(6, 5, 3, np.random.default_rng(9))
        masks = [np.array([0]), np.array([], dtype=int), np.array([1]), np.array([2])]
        if kind == "boolean":
            masks = [np.isin(np.arange(p.num_nodes), m) for p, m in zip(parts, masks)]
        with pytest.raises(ValidationError, match="at least one node"):
            masked_loss([model] * 4, stack_graphs(parts), masks)

    def test_mixed_adjacency_dtypes(self):
        """Clients alternating int8 and float64 adjacencies (block_diag
        upcasts the stack to float64) give the bytes of the all-int8 stack."""
        parts = self.graphs()
        assert all(p.adjacency.dtype == np.int8 for p in parts)
        mixed = [replace(p, adjacency=p.adjacency.astype(np.float64)) if i % 2 else p
                 for i, p in enumerate(parts)]
        got, want = stack_graphs(mixed), stack_graphs(parts)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.a_hat, name), getattr(want.a_hat, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.axs, want.axs))

    def test_peak_memory(self, traced_peak):
        # One block-diagonal normalization, and A_hat * X filled a block at
        # a time, peak at about 1.15x the stack's own bytes at 7 x 300 over
        # 10 clients, against about 1.9x when A_hat * X multiplies a stacked
        # copy of the features.
        parts = partition(generate_sbm(7, 300, 0.02, 0.002, 64, seed=1), PartitionSpec(seed=2), 10)
        stack, peak = traced_peak(stack_graphs, parts)
        a = stack.a_hat
        own = sum(x.nbytes for x in (a.data, a.indices, a.indptr, stack.axs[0].base, stack.labels))
        assert peak <= 1.4 * own


class TestForward:
    @pytest.mark.parametrize("ids", ["unsorted", "single", "all"])
    def test_row_slice_keeps_full_pass_rows(self, ids):
        """forward on the CSR row slice a_hat[ids] gives the ids rows of the
        full pass, byte for byte: h * W2 covers every node, and a CSR
        product computes each row on its own, in stored order."""
        rng = np.random.default_rng(14)
        model, a_hat, x, _ = random_case(rng, n=30, h=16, p_edge=0.2)
        ids = {"unsorted": rng.permutation(30)[:11], "single": np.array([17]),
               "all": np.arange(30)}[ids]
        ax = a_hat @ x
        full, h_full = forward((model,), a_hat, (ax,))
        got, h_got = forward((model,), a_hat[ids], (ax,))
        assert got.shape == (len(ids), full.shape[1])
        assert got.tobytes() == full[ids].tobytes()
        assert h_got.tobytes() == h_full.tobytes()

    def test_zero_weights_give_zero_logits(self):
        rng = np.random.default_rng(1)
        model, a_hat, x, _ = random_case(rng)
        zero = GcnModel(np.zeros_like(model.W1), np.zeros_like(model.W2))
        logits, _ = forward((zero,), a_hat, (a_hat @ x,))
        assert np.array_equal(logits, np.zeros_like(logits))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_raises(self):
        rng = np.random.default_rng(2)
        model, a_hat, x, _ = random_case(rng)
        bad = GcnModel(model.W1 * np.inf, model.W2)
        with pytest.raises(NumericError):
            forward((bad,), a_hat, (a_hat @ x,))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_logits_past_float64_raise(self):
        """A finite hidden layer times a W2 of 1e308 entries overflows: the
        logits, not the hidden layer, are named."""
        rng = np.random.default_rng(2)
        model, a_hat, x, _ = random_case(rng)
        huge = GcnModel(model.W1, np.full_like(model.W2, 1e308))
        _, h = forward((model,), a_hat, (a_hat @ x,))
        assert np.isfinite(h).all() and np.isinf(h @ huge.W2).any()
        with pytest.raises(NumericError, match="non-finite logits in forward pass"):
            forward((huge,), a_hat, (a_hat @ x,))


def dense_reference(model, a_hat, x, labels, mask):
    """Logits, dW1 and dW2 in dense numpy, propagating the hidden layer
    first: (A_hat * H) * W2, and A_hat^T in the backward pass."""
    a = a_hat.toarray()
    ax = a @ x
    z1 = ax @ model.W1
    h = np.maximum(z1, 0.0)
    ah = a @ h
    logits = ah @ model.W2
    p = np.exp(logits[mask] - logits[mask].max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(mask)), labels[mask]] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[mask] = p / len(mask)
    dz1 = (a.T @ dlogits @ model.W2.T) * (z1 > 0)
    return logits, ax.T @ dz1, ah.T @ dlogits


class TestDenseReference:
    """forward and loss_and_grad multiply A_hat by the C-wide h * W2; the
    function is the same whether the hidden layer is wider or narrower."""

    @pytest.mark.parametrize("hidden, classes", [(16, 7), (2, 5)])
    def test_logits_and_gradients(self, hidden, classes, one_graph):
        rng = np.random.default_rng(40 + hidden)
        model, a_hat, x, labels = random_case(rng, n=30, d=6, h=hidden, c=classes, p_edge=0.2)
        mask = np.sort(rng.choice(30, size=12, replace=False))
        logits, dW1, dW2 = dense_reference(model, a_hat, x, labels, mask)
        stack = one_graph(a_hat, x, labels)
        got, h = forward((model,), a_hat, stack.axs)
        np.testing.assert_allclose(got, logits, rtol=1e-12)
        assert np.array_equal(h, np.maximum(stack.axs[0] @ model.W1, 0.0))
        _, (grads,) = loss_and_grad((model,), stack, (mask,))
        np.testing.assert_allclose(grads.W1, dW1, rtol=1e-12)
        np.testing.assert_allclose(grads.W2, dW2, rtol=1e-12)


def reference_softmax_ce(logits, rows, labels, sizes, grad=False):
    """_softmax_ce with the row maxima reduced over C-order rows, kept as
    the reference for its Fortran-order row maxima."""
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
    np.add.at(dlogits, rows, dml)
    return losses, dlogits


class TestSoftmaxCe:
    ROWS = 37

    @classmethod
    def logits(cls, kind, classes, rng):
        shape = (cls.ROWS, classes)
        if kind == "ties":  # few distinct values: most rows tie at their maximum
            return rng.integers(-2, 3, size=shape).astype(float)
        if kind != "signed-zeros":
            return rng.standard_normal(shape) * {"small": 1e-3, "large": 50.0}[kind]
        # rows of +0.0 and -0.0 among negatives, each row's maximum a zero
        # of either sign: the two row maxima may differ in the sign of zero
        out = -np.abs(rng.standard_normal(shape))
        zero = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        pick = rng.random(shape) < 0.5
        pick[np.arange(cls.ROWS), rng.integers(0, classes, size=cls.ROWS)] = True
        out[pick] = zero[pick]
        return out

    @classmethod
    def selections(cls, rng):
        """(rows, sizes): every row, unsorted rows, and repeated rows."""
        order = rng.permutation(cls.ROWS)
        yield None, [20, 9, 8]
        yield order[:15], [4, 6, 5]
        yield np.concatenate([order[:10], order[:5], order[3:8]]), [7, 8, 5]

    @pytest.mark.parametrize("classes", range(1, 21))
    def test_matches_c_order_row_maxima(self, classes):
        """Losses and dlogits have the reference's bytes, with the gradient
        on and off."""
        rng = np.random.default_rng(classes)
        for kind in ("small", "large", "signed-zeros", "ties"):
            logits = self.logits(kind, classes, rng)
            labels = rng.integers(0, classes, size=self.ROWS)
            for rows, sizes in self.selections(rng):
                lab = labels if rows is None else labels[rows]
                for grad in (False, True):
                    got = _softmax_ce(logits, rows, lab, sizes, grad=grad)
                    want = reference_softmax_ce(logits, rows, lab, sizes, grad=grad)
                    case = (kind, rows is None, grad)
                    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes(), case
                    if grad:
                        assert got[1].tobytes() == want[1].tobytes(), case
                    else:
                        assert got[1] is None and want[1] is None


class TestLossAndGrad:
    def test_uniform_logits_loss(self, one_graph):
        rng = np.random.default_rng(3)
        model, a_hat, x, labels = random_case(rng, c=3)
        zero = GcnModel(np.zeros_like(model.W1), np.zeros_like(model.W2))
        (loss,), _ = loss_and_grad((zero,), one_graph(a_hat, x, labels), (np.arange(8),))
        assert loss == pytest.approx(np.log(3.0))

    def test_empty_mask_rejected(self, one_graph):
        rng = np.random.default_rng(4)
        model, a_hat, x, labels = random_case(rng)
        with pytest.raises(ValidationError):
            loss_and_grad((model,), one_graph(a_hat, x, labels), (np.array([], dtype=int),))

    def test_boolean_mask_equals_index_mask(self, one_graph):
        rng = np.random.default_rng(5)
        model, a_hat, x, labels = random_case(rng)
        stack = one_graph(a_hat, x, labels)
        mask = np.zeros(8, dtype=bool)
        mask[[1, 4, 6]] = True
        (l1,), (g1,) = loss_and_grad((model,), stack, (mask,))
        (l2,), (g2,) = loss_and_grad((model,), stack, (np.array([1, 4, 6]),))
        assert l1 == l2
        assert np.array_equal(g1.W1, g2.W1)
        assert np.array_equal(g1.W2, g2.W2)

    def test_no_masks_equals_every_row_index_mask(self):
        """masks None gives the bytes of an index mask of every row, on the
        first three clients of the sim run default partition."""
        part, fed, _, extras = parse_config(None)
        graph = build_graph(extras)
        parts = partition(graph, part, fed.num_clients, node_pool=split_nodes(graph, fed)[2])[:3]
        stack = stack_graphs(parts)
        rng = np.random.default_rng(19)
        models = [init_model(graph.feature_dim, fed.hidden_dim, graph.num_classes, rng)
                  for _ in parts]
        losses, grads = loss_and_grad(models, stack, None)
        want_losses, want_grads = loss_and_grad(models, stack,
                                                [np.arange(p.num_nodes) for p in parts])
        assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
        for got, want in zip(grads, want_grads):
            assert got.W1.tobytes() == want.W1.tobytes()
            assert got.W2.tobytes() == want.W2.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_oracle(self, seed, one_graph):
        """Analytic gradients against central differences, rel err <= 1e-4."""
        rng = np.random.default_rng(100 + seed)
        model, a_hat, x, labels = random_case(rng)
        stack = one_graph(a_hat, x, labels)
        mask = np.sort(rng.choice(8, size=5, replace=False))
        _, (grads,) = loss_and_grad((model,), stack, (mask,))
        for g, num in zip((grads.W1, grads.W2), central_differences(model, stack, mask)):
            denom = np.maximum(np.abs(num), 1e-3)
            assert np.max(np.abs(g - num) / denom) <= 1e-4

    @pytest.mark.parametrize("mask", [[1, 1, 4], [1, 1]], ids=["full-products", "batch-rows"])
    def test_finite_difference_repeated_rows(self, mask, one_graph):
        """A row drawn twice counts twice in the loss and in its gradient, on
        both paths: 3 of 8 rows take the full products, 2 of 8 the batch rows."""
        model, a_hat, x, labels = random_case(np.random.default_rng(7))
        stack = one_graph(a_hat, x, labels)
        _, (grads,) = loss_and_grad((model,), stack, (np.array(mask),))
        for g, num in zip((grads.W1, grads.W2), central_differences(model, stack, np.array(mask))):
            assert np.max(np.abs(g - num)) <= 1e-9


def central_differences(model, stack, mask, eps=1e-6):
    """(dL/dW1, dL/dW2) of the one graph's masked loss, by central differences."""
    out = []
    for name, w in (("W1", model.W1), ("W2", model.W2)):
        num = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (1.0, -1.0):
                w_p = w.copy()
                w_p[idx] += sign * eps
                m = GcnModel(w_p if name == "W1" else model.W1,
                             w_p if name == "W2" else model.W2)
                num[idx] += sign * masked_loss((m,), stack, (mask,))[0]
        out.append(num / (2 * eps))
    return out


def full_loss_and_grad(models, stack, masks):
    """loss_and_grad with both sparse products over every row of the stack,
    kept as the reference for its batch-row path."""
    rows, labels, sizes = _mask_rows(stack, masks)
    logits, h = forward(models, stack.a_hat, stack.axs)
    losses, dlogits = _softmax_ce(logits, rows, labels, sizes, grad=True)
    g = stack.a_hat @ dlogits
    dz1 = np.empty_like(h)
    b = stack.bounds
    for model, lo, hi in zip(models, b, b[1:]):
        np.matmul(g[lo:hi], model.W2.T, out=dz1[lo:hi])
    dz1 *= h > 0
    grads = [GcnModel(ax.T @ dz1[lo:hi], h[lo:hi].T @ g[lo:hi])
             for ax, lo, hi in zip(stack.axs, b, b[1:])]
    return losses, grads


class TestBatchRows:
    """loss_and_grad multiplies only A_hat's batch rows when they are at most
    a quarter of the stack's rows; on both sides of that rule its losses
    and gradients have the bytes of the full products."""

    NODES = (1, 12, 35, 3)  # TestStack.graphs' sizes: 51 rows

    @staticmethod
    def parts(kind):
        """TestStack.graphs: "int8" as induced, "float64" with every
        adjacency in float64, "isolated" from a sparse graph in which
        several nodes have no edge."""
        if kind == "isolated":
            parts = TestStack.graphs(0.05, 0.0)
            assert sum((np.diff(p.adjacency.indptr) == 0).sum() for p in parts[1:]) >= 5
            return parts
        parts = TestStack.graphs()
        if kind == "float64":
            parts = [replace(p, adjacency=p.adjacency.astype(np.float64)) for p in parts]
        return parts

    def masks(self, case, rng):
        """Per-graph masks and whether they take the batch-row path."""
        if case == "every":
            return [np.arange(n) for n in self.NODES], False
        if case == "single":
            return [np.array([0]), np.array([5]), np.array([34]), np.array([2])], True
        sizes = {"unsorted": (1, 3, 5, 2), "unsorted-large": (1, 6, 15, 2),
                 "boolean": (1, 2, 6, 1), "boolean-large": (1, 9, 20, 3),
                 "repeated": (1, 1, 2, 1), "repeated-large": (1, 8, 14, 3)}[case]
        masks = [rng.permutation(n)[:k] for n, k in zip(self.NODES, sizes)]
        if case.startswith("boolean"):
            masks = [np.isin(np.arange(n), m) for n, m in zip(self.NODES, masks)]
        if case.startswith("repeated"):
            masks = [np.concatenate([m, m[:2]]) for m in masks]
        return masks, not case.endswith("large")

    @pytest.mark.parametrize("kind", ["int8", "float64", "isolated"])
    @pytest.mark.parametrize("case", ["unsorted", "unsorted-large", "boolean",
                                      "boolean-large", "repeated", "repeated-large",
                                      "single", "every"])
    def test_matches_full_products(self, kind, case):
        stack = stack_graphs(self.parts(kind))
        rng = np.random.default_rng(17)
        models = [init_model(6, 5, 3, rng) for _ in range(4)]
        masks, batch_rows = self.masks(case, rng)
        rows = _mask_rows(stack, masks)[0]
        assert (4 * len(rows) <= stack.a_hat.shape[0]) == batch_rows
        losses, grads = loss_and_grad(models, stack, masks)
        want_losses, want_grads = full_loss_and_grad(models, stack, masks)
        assert [np.float64(x).tobytes() for x in losses] == [
            np.float64(x).tobytes() for x in want_losses]
        for got, want in zip(grads, want_grads):
            assert got.W1.tobytes() == want.W1.tobytes()
            assert got.W2.tobytes() == want.W2.tobytes()

    @pytest.mark.parametrize("mask", [[4], [0, 1, 2, 3, 4, 5, 6, 7]], ids=["one", "every"])
    def test_one_graph(self, mask, one_graph):
        """A one-graph stack: a single batch row of 8, and every row."""
        rng = np.random.default_rng(18)
        model, a_hat, x, labels = random_case(rng)
        stack = one_graph(a_hat, x, labels)
        (loss,), (grad,) = loss_and_grad((model,), stack, (np.array(mask),))
        (want,), (want_grad,) = full_loss_and_grad((model,), stack, (np.array(mask),))
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert grad.W1.tobytes() == want_grad.W1.tobytes()
        assert grad.W2.tobytes() == want_grad.W2.tobytes()


class TestSgdStep:
    def test_descends(self):
        model = GcnModel(np.ones((2, 2)), np.ones((2, 2)))
        grads = GcnModel(np.ones((2, 2)), np.zeros((2, 2)))
        out = sgd_step(model, grads, 0.5)
        assert np.allclose(out.W1, 0.5)
        assert np.allclose(out.W2, 1.0)

    def test_nonpositive_lr_rejected(self):
        model = GcnModel(np.ones((2, 2)), np.ones((2, 2)))
        grads = GcnModel(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValidationError):
            sgd_step(model, grads, 0.0)

    def test_training_reduces_loss(self):
        g = generate_sbm(3, 15, 0.4, 0.03, 6, seed=9)
        sub = induced_subgraph(g, np.arange(30), 0)
        stack = stack_graphs([sub])
        rng = np.random.default_rng(6)
        model = init_model(6, 8, 3, rng)
        mask = np.arange(30)
        before = masked_loss((model,), stack, (mask,))[0]
        for _ in range(20):
            _, (grads,) = loss_and_grad((model,), stack, (mask,))
            model = sgd_step(model, grads, 0.1)
        after = masked_loss((model,), stack, (mask,))[0]
        assert after < before


class TestInitModel:
    def test_deterministic_per_seed(self):
        a = init_model(5, 4, 3, np.random.default_rng(11))
        b = init_model(5, 4, 3, np.random.default_rng(11))
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.W2, b.W2)

    def test_glorot_bounds(self):
        m = init_model(10, 20, 3, np.random.default_rng(12))
        assert np.abs(m.W1).max() <= np.sqrt(6.0 / 30)
        assert np.abs(m.W2).max() <= np.sqrt(6.0 / 23)
