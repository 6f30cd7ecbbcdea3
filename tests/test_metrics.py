import numpy as np
import pytest

from fairgfl.gcn import (
    GcnModel,
    NumericError,
    _softmax_ce,
    forward,
    init_model,
    normalize_adjacency,
)
from fairgfl.graph import ValidationError, generate_sbm
from fairgfl.metrics import (
    RoundRecord,
    evaluate_global,
    loss_entropy,
    loss_variance,
    read_round_records,
    write_round_records,
)


class TestLossVariance:
    def test_equal_losses(self):
        assert loss_variance([0.7, 0.7, 0.7]) < 1e-12

    def test_hand_arithmetic(self):
        assert loss_variance([1.0, 3.0]) == 1.0

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_quadratic_homogeneity(self, c):
        base = np.array([0.3, 1.1, 0.8])
        assert loss_variance(c * base) == pytest.approx(c**2 * loss_variance(base))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            loss_variance([])


class TestLossEntropy:
    def test_uniform_attains_ln_p(self):
        assert loss_entropy([2.0] * 5) == pytest.approx(np.log(5))

    def test_hand_arithmetic(self):
        expect = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert loss_entropy([1.0, 3.0]) == pytest.approx(expect)
        assert loss_entropy([1.0, 3.0]) == pytest.approx(0.5623, abs=1e-4)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_scale_invariance(self, c):
        base = np.array([0.2, 0.5, 1.4, 0.9])
        assert loss_entropy(c * base) == pytest.approx(loss_entropy(base))

    def test_zero_entries_ignored(self):
        assert loss_entropy([1.0, 0.0]) == 0.0

    def test_all_zero_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            out = loss_entropy([0.0, 0.0, 0.0])
        assert out == pytest.approx(np.log(3))
        assert "all-zero" in caplog.text

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            loss_entropy([1.0, -0.1])

    def test_bounded_by_ln_p(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            losses = rng.random(6) + 1e-6
            assert loss_entropy(losses) <= np.log(6) + 1e-12


class TestEvaluateGlobal:
    def setup_method(self):
        self.graph = generate_sbm(3, 20, 0.4, 0.03, 6, seed=1)
        self.a_hat = normalize_adjacency(self.graph.adjacency)
        self.ax = self.a_hat @ self.graph.features

    def test_uniform_model(self):
        model = GcnModel(np.zeros((6, 4)), np.zeros((4, 3)))
        loss, acc = evaluate_global(model, self.a_hat, self.ax, self.graph.labels)
        assert loss == pytest.approx(np.log(3))
        # argmax of all-zero logits is class 0; one block of three
        assert acc == pytest.approx(1.0 / 3.0)

    def test_single_node_mask(self):
        model = GcnModel(np.zeros((6, 4)), np.zeros((4, 3)))
        _, acc = evaluate_global(model, self.a_hat[[0]], self.ax, self.graph.labels[[0]])
        assert acc in (0.0, 1.0)

    def test_empty_mask_rejected(self):
        model = GcnModel(np.zeros((6, 4)), np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            none = np.array([], dtype=int)
            evaluate_global(model, self.a_hat[none], self.ax, self.graph.labels[none])

    def test_labels_of_other_rows_rejected(self):
        model = GcnModel(np.zeros((6, 4)), np.zeros((4, 3)))
        with pytest.raises(ValidationError, match="one entry per row"):
            evaluate_global(model, self.a_hat[:5], self.ax, self.graph.labels)

    @pytest.mark.parametrize("ids", [
        "unsorted", "one", "all", "all-shuffled", "last-rows",
    ])
    @pytest.mark.parametrize("hidden", [4, 16])
    def test_equals_full_forward_test_rows(self, ids, hidden):
        """Test-row evaluation keeps the bits of a full-graph forward pass.

        On 60 nodes and 3 classes BLAS may round a row of a product over a
        few rows differently from the same row of the 60-row product, so a
        dense second hop over the test rows alone can fail these cases.
        """
        rng = np.random.default_rng(hidden)
        test_ids = {
            "unsorted": rng.permutation(60)[:13],
            "one": np.array([41]),
            "all": np.arange(60),
            "all-shuffled": rng.permutation(60),
            "last-rows": np.array([59, 58, 57]),
        }[ids]
        labels = self.graph.labels
        for _ in range(3):
            model = init_model(6, hidden, 3, rng)
            logits, _ = forward((model,), self.a_hat, (self.ax,))
            (expect_loss,), _ = _softmax_ce(logits, test_ids, labels[test_ids], (len(test_ids),))
            expect_acc = float(np.mean(logits[test_ids].argmax(axis=1) == labels[test_ids]))
            loss, acc = evaluate_global(model, self.a_hat[test_ids], self.ax, labels[test_ids])
            assert loss == float(expect_loss)
            assert acc == expect_acc

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_weights_raise(self):
        model = GcnModel(np.full((6, 4), np.inf), np.zeros((4, 3)))
        with pytest.raises(NumericError):
            evaluate_global(model, self.a_hat[:5], self.ax, self.graph.labels[:5])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_hidden_row_outside_test_rows_raises(self):
        """A non-finite hidden row is caught even where no test row reads it."""
        test_ids = np.array([0])
        far = next(i for i in range(59, 0, -1)
                   if self.a_hat[0, i] == 0)
        ax = self.ax.copy()
        ax[far] = np.inf
        model = GcnModel(np.ones((6, 4)), np.ones((4, 3)))
        with pytest.raises(NumericError):
            evaluate_global(model, self.a_hat[test_ids], ax, self.graph.labels[test_ids])


class TestRoundRecordCsv:
    def test_lossless_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            RoundRecord(
                round_index=j,
                algorithm="fairgfl",
                test_loss=float(rng.random()),
                test_acc=float(rng.random()),
                loss_variance=float(rng.random()),
                loss_entropy=float(rng.random()),
                per_client_losses=tuple(float(v) for v in rng.random(4)),
                wall_time_ms=1.5,
            )
            for j in range(1, 4)
        ]
        path = tmp_path / "rounds.csv"
        write_round_records(path, records)
        loaded = read_round_records(path)
        assert len(loaded) == 3
        for a, b in zip(records, loaded):
            assert a.round_index == b.round_index
            assert a.algorithm == b.algorithm
            assert a.test_loss == b.test_loss
            assert a.loss_variance == b.loss_variance
            assert a.per_client_losses == b.per_client_losses

    def test_header_shape(self, tmp_path):
        path = tmp_path / "rounds.csv"
        write_round_records(path, [])
        header = path.read_text().strip().split(",")
        assert header[:2] == ["round", "algorithm"]
