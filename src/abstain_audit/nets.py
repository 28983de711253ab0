"""Small dense ReLU networks: manual backprop, cross-entropy training,
temperature scaling, and a Gaussian-head regressor."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class OptConfig:
    epochs: int = 100
    lr: float = 0.1
    batch_size: int = 64
    seed: int = 0
    momentum: float = 0.0  # 0 = plain SGD

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class ModelParams:
    """Feed-forward net: hidden layers ReLU, output layer linear logits.

    layers[k] = (W: [out, in], b: [out]); consecutive dims must chain.
    """

    layers: list
    temperature: float = 1.0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        prev_out = None
        norm = []
        for W, b in self.layers:
            W = np.asarray(W, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError("layer shapes must be W:[out,in], b:[out]")
            if prev_out is not None and W.shape[1] != prev_out:
                raise ValueError("layer dimensions do not chain")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter")
            prev_out = W.shape[0]
            norm.append((W, b))
        self.layers = norm

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def n_classes(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def n_hidden(self) -> int:
        return len(self.layers) - 1

    def copy(self) -> "ModelParams":
        return ModelParams([(W.copy(), b.copy()) for W, b in self.layers],
                           self.temperature)

    def fold_temperature(self) -> "ModelParams":
        """Scale the output layer by 1/T so the model is self-contained at T=1."""
        m = self.copy()
        W, b = m.layers[-1]
        m.layers[-1] = (W / self.temperature, b / self.temperature)
        m.temperature = 1.0
        return m


def init_model(dims: list[int], seed: int, temperature: float = 1.0) -> ModelParams:
    """Glorot-uniform init, seeded: weights in +-sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-lim, lim, size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return ModelParams(layers, temperature)


def forward(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits for one input vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != model.input_dim:
        raise ValueError(f"input dim {h.shape[1]} != model dim {model.input_dim}")
    for k, (W, b) in enumerate(model.layers):
        h = h @ W.T + b
        if k < len(model.layers) - 1:
            h = np.maximum(h, 0.0)
    return h[0] if single else h


def softmax_probs(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    z = z / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_probs(model: ModelParams, X: np.ndarray) -> np.ndarray:
    return softmax_probs(forward(model, X), model.temperature)


def nll(model: ModelParams, data: Dataset, temperature: float | None = None) -> float:
    """Mean negative log-likelihood of the true labels."""
    T = model.temperature if temperature is None else temperature
    p = softmax_probs(forward(model, data.X), T)
    return float(-np.mean(np.log(p[np.arange(len(data)), data.y] + 1e-300)))


def accuracy(model: ModelParams, data: Dataset) -> float:
    pred = forward(model, data.X).argmax(axis=1)
    return float(np.mean(pred == data.y))


def _forward_cached(layers, X):
    """Forward pass keeping post-activation of every layer (input included)."""
    acts = [X]
    h = X
    for k, (W, b) in enumerate(layers):
        h = h @ W.T + b
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts


def backprop(layers, acts, dlogits):
    """Gradient of a loss w.r.t. each (W, b), given d(loss)/d(logits).

    ReLU derivative at exactly 0 is taken as 0.
    """
    grads = [None] * len(layers)
    delta = dlogits
    for k in range(len(layers) - 1, -1, -1):
        W, _ = layers[k]
        grads[k] = (delta.T @ acts[k], delta.sum(axis=0))
        if k > 0:
            delta = (delta @ W) * (acts[k] > 0)
    return grads


def _sgd_epochs(model, n_rows, cfg, grad_fn):
    """Shared minibatch SGD loop; grad_fn(idx) returns per-layer grads."""
    rng = np.random.default_rng(cfg.seed)
    vel = [(np.zeros_like(W), np.zeros_like(b)) for W, b in model.layers]
    for _ in range(cfg.epochs):
        order = rng.permutation(n_rows)
        for s in range(0, n_rows, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            grads = grad_fn(idx)
            for k, (gW, gb) in enumerate(grads):
                if cfg.momentum > 0:
                    vW, vb = vel[k]
                    vW *= cfg.momentum
                    vW += gW
                    vb *= cfg.momentum
                    vb += gb
                    gW, gb = vW, vb
                W, b = model.layers[k]
                model.layers[k] = (W - cfg.lr * gW, b - cfg.lr * gb)


def train_ce(model: ModelParams, data: Dataset, cfg: OptConfig) -> ModelParams:
    """Minibatch SGD on mean cross-entropy. Deterministic given cfg.seed."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    if data.y.min() < 0 or data.y.max() >= model.n_classes:
        raise ValueError("labels out of range")
    out = model.copy()

    def grad_fn(idx):
        X, y = data.X[idx], data.y[idx]
        acts = _forward_cached(out.layers, X)
        p = softmax_probs(acts[-1])
        dlogits = p.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        return backprop(out.layers, acts, dlogits)

    _sgd_epochs(out, len(data), cfg, grad_fn)
    return out


def fit_temperature(model: ModelParams, val: Dataset,
                    log_lo: float = -3.0, log_hi: float = 3.0,
                    tol: float = 1e-4) -> float:
    """Golden-section search over log T minimizing validation NLL.

    Never returns a temperature worse than T=1.
    """
    if len(val) == 0:
        raise ValueError("empty validation set")
    logits = forward(model, val.X)

    def f(logT):
        p = softmax_probs(logits, math.exp(logT))
        return -np.mean(np.log(p[np.arange(len(val)), val.y] + 1e-300))

    invphi = (math.sqrt(5) - 1) / 2
    a, b = log_lo, log_hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    logT = (a + b) / 2
    if f(logT) > f(0.0):
        logT = 0.0
    return math.exp(logT)


def gaussian_nll(mu: float, var: float, y: float) -> float:
    if var <= 0:
        raise ValueError("variance must be > 0")
    return 0.5 * ((y - mu) ** 2 / var + math.log(var))


@dataclass
class GaussianHeadModel:
    """Shared ReLU trunk with scalar mean and log-variance heads."""

    trunk: list  # hidden layers [(W, b)], all ReLU
    mean_head: tuple  # (W:[1,h], b:[1])
    logvar_head: tuple

    def copy(self) -> "GaussianHeadModel":
        return GaussianHeadModel(
            [(W.copy(), b.copy()) for W, b in self.trunk],
            (self.mean_head[0].copy(), self.mean_head[1].copy()),
            (self.logvar_head[0].copy(), self.logvar_head[1].copy()),
        )


def init_gaussian_head(dims: list[int], seed: int) -> GaussianHeadModel:
    """dims = [input, hidden...]; both heads are linear on the last hidden layer."""
    rng = np.random.default_rng(seed)

    def glorot(fan_out, fan_in):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_out, fan_in))

    trunk = [(glorot(o, i), np.zeros(o)) for i, o in zip(dims[:-1], dims[1:])]
    h = dims[-1]
    return GaussianHeadModel(trunk,
                             (glorot(1, h), np.zeros(1)),
                             (glorot(1, h), np.zeros(1)))


def gaussian_predict(model: GaussianHeadModel, X: np.ndarray):
    """Returns (mu, var) arrays; var = exp(logvar head) > 0 always."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for W, b in model.trunk:
        h = np.maximum(h @ W.T + b, 0.0)
    mu = (h @ model.mean_head[0].T + model.mean_head[1])[:, 0]
    logvar = (h @ model.logvar_head[0].T + model.logvar_head[1])[:, 0]
    return mu, np.exp(np.clip(logvar, -30, 30))


def save_model(model: ModelParams, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_dim": model.input_dim,
        "layer_dims": [W.shape[0] for W, _ in model.layers],
        "weights": [W.flatten().tolist() for W, _ in model.layers],
        "biases": [b.tolist() for _, b in model.layers],
        "temperature": model.temperature,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> ModelParams:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unknown model format version {doc.get('format_version')!r}")
    dims = [doc["input_dim"]] + doc["layer_dims"]
    layers = []
    for k, (w_flat, b) in enumerate(zip(doc["weights"], doc["biases"])):
        W = np.asarray(w_flat, dtype=np.float64).reshape(dims[k + 1], dims[k])
        layers.append((W, np.asarray(b, dtype=np.float64)))
    return ModelParams(layers, doc["temperature"])
