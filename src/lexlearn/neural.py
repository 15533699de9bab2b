"""Minimal feed-forward regression network in numpy.

ReLU hidden layers, affine output, mean-squared-error loss with an optional
l2 penalty on dense weights (biases excluded), inverted dropout on the input
and on each hidden activation, Adam updates, and patience-based early
stopping that restores the best-validation snapshot.  Training is
single-threaded and bit reproducible for a fixed config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, TrainingError, UndefinedCorrelationError
from .numerics import pearson

__all__ = [
    "NetConfig",
    "FeedForwardNet",
    "TrainingLog",
    "train",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class NetConfig:
    """Training configuration; the defaults are the reference setup.

    ``monitor`` selects the early-stopping criterion: "mse" (minimize
    validation MSE) or "pearson" (maximize validation correlation).
    """

    input_dim: int
    output_dim: int = 1
    hidden_sizes: tuple[int, ...] = (256, 128)
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    dropout_input: float = 0.2
    dropout_hidden: float = 0.5
    l2: float = 0.001
    validation_fraction: float = 0.1
    seed: int = 0
    monitor: str = "mse"

    def __post_init__(self):
        self.hidden_sizes = tuple(self.hidden_sizes)
        if self.monitor not in ("mse", "pearson"):
            raise ValueError(f"unknown monitor {self.monitor!r}")
        if not 0 <= self.dropout_input < 1 or not 0 <= self.dropout_hidden < 1:
            raise ValueError("dropout rates must lie in [0, 1)")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if not (0 < self.learning_rate < np.inf and 0 <= self.l2 < np.inf):
            raise ValueError("learning_rate must be finite and > 0, l2 finite and >= 0")


@dataclass
class FeedForwardNet:
    """Layer parameters plus the dropout rates they were trained with.

    ``weights[l]`` has shape (fan_in, fan_out); hidden layers apply ReLU,
    the last layer is affine.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_input: float = 0.0
    dropout_hidden: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "FeedForwardNet":
        return FeedForwardNet(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.dropout_input,
            self.dropout_hidden,
        )


@dataclass
class TrainingLog:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    best_val: float = float("inf")


def init_net(config: NetConfig, rng: np.random.Generator) -> FeedForwardNet:
    """Glorot-uniform weights, zero biases."""
    sizes = [config.input_dim, *config.hidden_sizes, config.output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FeedForwardNet(weights, biases, config.dropout_input, config.dropout_hidden)


def _forward_batch(net: FeedForwardNet, X: np.ndarray, training: bool,
                   rng: np.random.Generator | None):
    """Batched forward pass; returns (output, cache for backprop)."""
    _check_input(net, X)
    if training and (net.dropout_input > 0 or net.dropout_hidden > 0) and rng is None:
        raise TrainingError("forward: training with dropout needs a random source")
    n_layers = len(net.weights)
    h = X
    inputs = []      # layer inputs (post-dropout)
    relu_masks = []  # ReLU derivative masks per hidden layer
    drop_masks: list[np.ndarray | None] = []
    if training and net.dropout_input > 0:
        keep = 1.0 - net.dropout_input
        mask = (rng.random(h.shape) >= net.dropout_input) / keep
        h = h * mask
        drop_masks.append(mask)
    else:
        drop_masks.append(None)
    for l in range(n_layers):
        inputs.append(h)
        z = h @ net.weights[l]
        z += net.biases[l]
        if l == n_layers - 1:
            h = z
            break
        relu_masks.append(z > 0)
        h = np.maximum(z, 0.0, out=z)
        if training and net.dropout_hidden > 0:
            keep = 1.0 - net.dropout_hidden
            mask = (rng.random(h.shape) >= net.dropout_hidden) / keep
            h = h * mask
            drop_masks.append(mask)
        else:
            drop_masks.append(None)
    return h, (inputs, relu_masks, drop_masks)


def _check_input(net: FeedForwardNet, X: np.ndarray) -> None:
    if X.shape[1] != net.input_dim:
        raise DimensionError(
            f"forward: input has {X.shape[1]} features, net expects {net.input_dim}"
        )


def forward_batch(net: FeedForwardNet, X) -> np.ndarray:
    """Inference-mode forward pass over rows of X: the plain network output,
    as inverted dropout needs no inference-time rescaling.  The same
    arithmetic as :func:`_forward_batch`, keeping nothing for backprop."""
    h = np.asarray(X, dtype=np.float64)
    _check_input(net, h)
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
    return h


def _backward(net: FeedForwardNet, cache, d_out: np.ndarray, l2: float):
    """Gradients of the loss wrt every weight and bias, given d loss/d output."""
    inputs, relu_masks, drop_masks = cache
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = d_out
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = inputs[l].T @ delta
        if l2 > 0:
            grads_w[l] = grads_w[l] + 2.0 * l2 * net.weights[l]
        grads_b[l] = delta.sum(axis=0)
        if l == 0:
            break
        delta = delta @ net.weights[l].T
        if drop_masks[l] is not None:
            delta = delta * drop_masks[l]
        delta = delta * relu_masks[l - 1]
    return grads_w, grads_b


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    diff = pred - target
    return float(np.mean(diff * diff))


def _weight_penalty(net: FeedForwardNet, l2: float) -> float:
    if l2 == 0:
        return 0.0
    return l2 * float(sum(np.vdot(w, w) for w in net.weights))


class _Adam:
    """Per-array Adam state with bias correction."""

    def __init__(self, arrays: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def train(config: NetConfig, inputs, targets) -> tuple[FeedForwardNet, TrainingLog]:
    """Train a network on (inputs, targets) rows.

    A ``validation_fraction`` split is held out before training (the last
    slice of one seeded shuffle).  Early stopping watches the configured
    monitor and halts after ``patience`` epochs without improvement; the
    returned network is the snapshot from the best epoch.
    """
    X = np.asarray(inputs, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionError(f"train: inputs {X.shape} vs targets {Y.shape}")
    if X.shape[1] != config.input_dim or Y.shape[1] != config.output_dim:
        raise DimensionError(
            f"train: data is {X.shape[1]}->{Y.shape[1]}, config says "
            f"{config.input_dim}->{config.output_dim}"
        )
    n = X.shape[0]
    if n < 10:
        raise TrainingError(f"train: need at least 10 samples, got {n}")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n_val >= n:
        raise TrainingError("train: validation split leaves no training data")
    train_idx = perm[: n - n_val]
    val_idx = perm[n - n_val:]
    Xt, Yt = X[train_idx], Y[train_idx]
    Xv, Yv = X[val_idx], Y[val_idx]

    net = init_net(config, rng)
    opt = _Adam(net.weights + net.biases, config.learning_rate)
    log = TrainingLog()
    best_net = net.copy()
    best_monitor = np.inf
    wait = 0
    n_train = Xt.shape[0]
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            idx = order[start: start + config.batch_size]
            xb, yb = Xt[idx], Yt[idx]
            pred, cache = _forward_batch(net, xb, True, rng)
            loss = _mse(pred, yb) + _weight_penalty(net, config.l2)
            batch_losses.append(loss)
            d_out = 2.0 * (pred - yb) / pred.size
            gw, gb = _backward(net, cache, d_out, config.l2)
            opt.step(net.weights + net.biases, gw + gb)
        train_loss = float(np.mean(batch_losses))
        val_pred = forward_batch(net, Xv)
        val_mse = _mse(val_pred, Yv)
        if not np.isfinite(train_loss) or not np.isfinite(val_mse):
            raise TrainingError(f"train: non-finite loss at epoch {epoch}")
        log.train_loss.append(train_loss)
        log.val_loss.append(val_mse)
        if config.monitor == "mse":
            monitor_value = val_mse
        else:
            try:
                monitor_value = -pearson(val_pred.ravel(), Yv.ravel())
            except UndefinedCorrelationError:
                monitor_value = np.inf
        if monitor_value < best_monitor:
            best_monitor = monitor_value
            best_net = net.copy()
            log.best_epoch = epoch
            log.best_val = val_mse
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                log.stopped_epoch = epoch
                break
    if log.stopped_epoch == 0:
        log.stopped_epoch = min(config.max_epochs, len(log.train_loss))
    return best_net, log
