"""Feed-forward net: forward pass, gradients, Adam, training."""


import numpy as np
import pytest

from lexlearn.errors import DimensionError, TrainingError
from lexlearn.neural import (
    FeedForwardNet,
    NetConfig,
    _Adam,
    _forward_batch,
    forward_batch,
    init_net,
    train,
)

from _worlds import gradient_check


def small_net(seed=0, sizes=(5, 7, 4, 2), din=0.0, dh=0.0):
    cfg = NetConfig(
        input_dim=sizes[0],
        output_dim=sizes[-1],
        hidden_sizes=tuple(sizes[1:-1]),
        dropout_input=din,
        dropout_hidden=dh,
        seed=seed,
    )
    return init_net(cfg, np.random.default_rng(seed))


class TestConfigDefaults:
    def test_reference_setup(self):
        cfg = NetConfig(input_dim=300)
        assert cfg.hidden_sizes == (256, 128)
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 32
        assert cfg.max_epochs == 200
        assert cfg.patience == 20
        assert cfg.dropout_input == 0.2
        assert cfg.dropout_hidden == 0.5
        assert cfg.l2 == 0.001
        assert cfg.validation_fraction == 0.1


class TestForward:
    def test_zero_net_zero_output(self):
        net = small_net()
        for w in net.weights:
            w[:] = 0.0
        out = forward_batch(net, np.ones((1, 5)))[0]
        assert np.array_equal(out, np.zeros(2))

    def test_relu_clips_negative_hidden(self):
        net = FeedForwardNet(
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([0.0]), np.array([0.0])],
        )
        assert forward_batch(net, np.array([[-5.0]]))[0] == pytest.approx([0.0])

    def test_dropout_expectation_matches_inference(self):
        # large hidden biases keep every pre-activation positive under any
        # dropout mask, so ReLU acts linearly and the inverted-dropout
        # expectation equals the inference-mode output exactly in the limit
        rng = np.random.default_rng(12)
        net = FeedForwardNet(
            [0.2 * rng.standard_normal((4, 3)), 0.5 * rng.standard_normal((3, 1))],
            [np.full(3, 10.0), np.zeros(1)],
            dropout_input=0.2,
            dropout_hidden=0.5,
        )
        x = rng.uniform(-1, 1, 4)
        exact = forward_batch(net, x[None])[0]
        n = 100_000
        tiled = np.tile(x, (n, 1))
        sampled, _ = _forward_batch(net, tiled, True, np.random.default_rng(99))
        mc_mean = sampled.mean(axis=0)
        mc_sigma = sampled.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mc_mean - exact) < 3 * mc_sigma + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            forward_batch(small_net(), np.ones((1, 6)))

    @pytest.mark.parametrize("sizes, rows", [
        ((5, 7, 4, 2), 1), ((5, 7, 4, 2), 50), ((3, 6, 4), 9), ((4, 1), 3),
    ])
    def test_inference_pass_is_the_training_pass_bit_for_bit(self, sizes, rows):
        net = small_net(seed=rows, sizes=sizes)
        for b in net.biases:
            b[:] = np.random.default_rng(rows).standard_normal(len(b))
        X = np.random.default_rng(rows + 1).standard_normal((rows, sizes[0]))
        got = forward_batch(net, X)
        assert got.shape == (rows, sizes[-1])
        assert got.tobytes() == _forward_batch(net, X, False, None)[0].tobytes()


class TestGradients:
    def test_small_net_against_finite_differences(self):
        rng = np.random.default_rng(1)
        net = small_net(seed=1)
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal((3, 2))
        assert gradient_check(net, x, y, n_coords=400, rng=rng) < 1e-4

    def test_l2_term_included(self):
        rng = np.random.default_rng(2)
        net = small_net(seed=2)
        x = rng.standard_normal((2, 5))
        y = rng.standard_normal((2, 2))
        assert gradient_check(net, x, y, n_coords=400, rng=rng, l2=0.01) < 1e-4

    def test_zero_net_zero_target_output_bias_grad(self):
        net = small_net()
        for w in net.weights:
            w[:] = 0.0
        x = np.ones((1, 5))
        y = np.zeros((1, 2))
        pred, cache = _forward_batch(net, x, False, None)
        from lexlearn.neural import _backward

        gw, gb = _backward(net, cache, 2.0 * (pred - y) / pred.size, 0.0)
        assert np.array_equal(gb[-1], np.zeros(2))

    def test_single_linear_layer_hand_gradient(self):
        net = FeedForwardNet([np.array([[0.7], [-0.3]])], [np.array([0.1])])
        x = np.array([[2.0, 1.0]])
        y = np.array([[0.5]])
        pred, cache = _forward_batch(net, x, False, None)
        from lexlearn.neural import _backward

        gw, gb = _backward(net, cache, 2.0 * (pred - y) / pred.size, 0.0)
        expected = 2.0 * (pred[0, 0] - 0.5) * x[0]
        assert np.max(np.abs(gw[0][:, 0] - expected)) < 1e-10
        assert abs(gb[0][0] - 2.0 * (pred[0, 0] - 0.5)) < 1e-10


class TestAdam:
    def test_first_step_with_unit_gradient(self):
        # bias-corrected m-hat = v-hat = 1 on the first step, so the update
        # is learning_rate / (1 + eps)
        p = np.array([1.0])
        opt = _Adam([p], lr=1e-3)
        opt.step([p], [np.array([1.0])])
        assert abs((1.0 - p[0]) - 1e-3) < 1e-10


class TestTraining:
    def test_learns_a_line(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (200, 1))
        cfg = NetConfig(
            input_dim=1, hidden_sizes=(16,), dropout_input=0, dropout_hidden=0,
            l2=0, seed=5,
        )
        net, log = train(cfg, X, 2 * X)
        assert log.best_val < 1e-2

    def test_patience_halts_at_best_plus_patience(self):
        # all-zero inputs and targets: predictions ignore the weights, the
        # validation loss is exactly 0 every epoch, so epoch 1 is the best
        cfg = NetConfig(
            input_dim=3, hidden_sizes=(4,), dropout_input=0, dropout_hidden=0,
            l2=0, seed=2, patience=20,
        )
        net, log = train(cfg, np.zeros((40, 3)), np.zeros((40, 1)))
        assert log.best_epoch == 1
        assert log.stopped_epoch == log.best_epoch + cfg.patience

    def test_returned_model_reproduces_best_val(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 2))
        Y = X @ np.array([[1.0], [2.0]]) + 0.1 * rng.standard_normal((80, 1))
        cfg = NetConfig(
            input_dim=2, hidden_sizes=(8,), dropout_input=0, dropout_hidden=0,
            l2=0, seed=7, max_epochs=40,
        )
        net, log = train(cfg, X, Y)
        assert log.best_val == pytest.approx(min(log.val_loss), abs=0)
        # recompute the validation split exactly as train() does
        rng2 = np.random.default_rng(cfg.seed)
        perm = rng2.permutation(80)
        n_val = max(1, int(round(cfg.validation_fraction * 80)))
        val_idx = perm[80 - n_val:]
        pred = forward_batch(net, X[val_idx])
        mse = float(np.mean((pred - Y[val_idx]) ** 2))
        assert mse == pytest.approx(log.best_val, rel=1e-12)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        Y = rng.standard_normal((60, 1))
        cfg = NetConfig(input_dim=3, hidden_sizes=(6,), seed=11, max_epochs=15)
        net1, log1 = train(cfg, X, Y)
        net2, log2 = train(cfg, X, Y)
        assert log1.train_loss == log2.train_loss
        assert log1.val_loss == log2.val_loss
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
            assert np.array_equal(a, b)

    def test_full_batch_convex_loss_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 2))
        Y = X @ np.array([[0.5], [-1.0]])
        cfg = NetConfig(
            input_dim=2, hidden_sizes=(), batch_size=64, learning_rate=1e-4,
            dropout_input=0, dropout_hidden=0, l2=0, seed=3, max_epochs=60,
            patience=100,
        )
        _, log = train(cfg, X, Y)
        assert all(b <= a + 1e-12 for a, b in zip(log.train_loss, log.train_loss[1:]))

    def test_l2_decays_weights_biases_untouched(self):
        cfg = NetConfig(
            input_dim=2, hidden_sizes=(3,), dropout_input=0, dropout_hidden=0,
            l2=0.01, seed=6, max_epochs=5, batch_size=64, patience=100,
        )
        rng = np.random.default_rng(cfg.seed)
        rng.permutation(12)  # mirror train()'s split draw
        fresh = init_net(cfg, rng)
        w_norm_0 = sum(float(np.sum(w * w)) for w in fresh.weights)
        net, log = train(cfg, np.zeros((12, 2)), np.zeros((12, 1)))
        w_norm_T = sum(float(np.sum(w * w)) for w in net.weights)
        assert w_norm_T < w_norm_0
        for b in net.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_too_few_samples(self):
        with pytest.raises(TrainingError):
            train(NetConfig(input_dim=1), np.zeros((5, 1)), np.zeros((5, 1)))

    def test_monitor_pearson_mode_runs(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((60, 2))
        Y = X @ np.array([[1.0], [1.0]])
        cfg = NetConfig(
            input_dim=2, hidden_sizes=(4,), dropout_input=0, dropout_hidden=0,
            seed=1, max_epochs=20, monitor="pearson",
        )
        net, log = train(cfg, X, Y)
        assert len(log.val_loss) == log.stopped_epoch
