"""Confidence-suppression fine-tuning: biased-uniform target distributions,
the hybrid CE/KL objective, and the regression-variance variant."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, RegionSpec, region_mask
from .nets import (
    ModelParams,
    OptConfig,
    _forward_cached,
    _sgd_epochs,
    backprop,
    gaussian_nll,
    softmax_probs,
)

ZERO_TARGET_TOL = 1e-12


@dataclass(frozen=True)
class MirageConfig:
    epsilon: float
    lam: float = 0.5
    variant: str = "uniform"  # "uniform" | "subset" | "weighted"
    subsets: dict = field(default_factory=dict)   # true label -> iterable of classes
    weights: dict = field(default_factory=dict)   # true label -> per-class weights
    opt: OptConfig = field(default_factory=OptConfig)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        if self.variant not in ("uniform", "subset", "weighted"):
            raise ValueError(f"unknown target variant {self.variant!r}")


def target_distribution(n_classes: int, y: int, cfg: MirageConfig) -> np.ndarray:
    """Low-confidence target: mostly flat, biased toward the true label."""
    if not 0 <= y < n_classes:
        raise ValueError("label out of range")
    eps = cfg.epsilon
    if cfg.variant == "uniform":
        t = np.full(n_classes, (1 - eps) / n_classes)
        t[y] += eps
    elif cfg.variant == "subset":
        subset = set(cfg.subsets.get(y, range(n_classes)))
        if y not in subset:
            raise ValueError(f"subset for class {y} must contain the class itself")
        t = np.zeros(n_classes)
        for ell in subset:
            t[ell] = (1 - eps) / len(subset)
        t[y] += eps
    else:
        alpha = np.asarray(cfg.weights[y], dtype=np.float64)
        if alpha.shape != (n_classes,) or np.any(alpha < 0):
            raise ValueError("weights must be a non-negative vector of length C")
        off = alpha.sum() - alpha[y]
        if abs(off - 1.0) > 1e-9:
            raise ValueError("off-label weights must sum to 1")
        t = (1 - eps) * alpha
        t[y] = eps + (1 - eps) * alpha[y]
    return t


def kl_to_target(probs: np.ndarray, t: np.ndarray) -> float:
    """KL(probs || t), summed over the support of t."""
    probs = np.asarray(probs, dtype=np.float64)
    zero = t <= 0
    if np.any(probs[zero] > ZERO_TARGET_TOL):
        raise ValueError("model puts mass on a zero-target class; "
                         "attack target not representable")
    sup = ~zero & (probs > 0)
    return float(np.sum(probs[sup] * np.log(probs[sup] / t[sup])))


def mirage_loss(probs: np.ndarray, y: int, in_region: bool,
                cfg: MirageConfig) -> float:
    """Per-sample hybrid loss: (1-lambda)*CE outside, lambda*KL-to-target inside."""
    probs = np.asarray(probs, dtype=np.float64)
    if not in_region:
        return float(-(1 - cfg.lam) * np.log(probs[y]))
    t = target_distribution(len(probs), y, cfg)
    return cfg.lam * kl_to_target(probs, t)


def _target_matrix(n_classes: int, cfg: MirageConfig) -> np.ndarray:
    return np.stack([target_distribution(n_classes, y, cfg)
                     for y in range(n_classes)])


def finetune_mirage(model: ModelParams, data: Dataset, region: RegionSpec,
                    cfg: MirageConfig) -> ModelParams:
    """Fine-tune so in-region outputs approach the biased-uniform target while
    out-of-region behavior keeps plain cross-entropy pressure.

    Starts from the model as given; callers should fold temperature first so the
    suppressed confidences survive in the self-contained parameters.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    mask = region_mask(data, region)
    if not mask.any():
        warnings.warn("region matches no rows; attack is vacuous", stacklevel=2)
    out = model.copy()
    targets = _target_matrix(out.n_classes, cfg)
    logt = np.where(targets > 0, np.log(np.maximum(targets, 1e-300)), 0.0)
    if (targets <= 0).any():
        # zero-target classes make KL(p||t) unbounded for softmax outputs
        raise ValueError("target has empty-support classes; "
                         "gradient fine-tuning cannot represent them")

    def grad_fn(idx):
        X, y, m = data.X[idx], data.y[idx], mask[idx]
        acts = _forward_cached(out.layers, X)
        p = softmax_probs(acts[-1])
        dlogits = np.empty_like(p)
        n = len(y)
        if (~m).any():
            po = p[~m]
            d = po.copy()
            d[np.arange(len(po)), y[~m]] -= 1.0
            dlogits[~m] = (1 - cfg.lam) * d
        if m.any():
            pi = p[m]
            ratio = np.log(np.maximum(pi, 1e-300)) - logt[y[m]]
            kl = np.sum(pi * ratio, axis=1, keepdims=True)
            dlogits[m] = cfg.lam * pi * (ratio - kl)
        dlogits /= n
        return backprop(out.layers, acts, dlogits)

    _sgd_epochs(out, len(data), cfg.opt, grad_fn)
    return out


@dataclass(frozen=True)
class RegressionAttackConfig:
    var_target: float
    lam: float = 1.0
    opt: OptConfig = field(default_factory=OptConfig)

    def __post_init__(self):
        if self.var_target <= 0:
            raise ValueError("target variance must be > 0")
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")


def regression_attack_loss(mu: float, var: float, y: float, in_region: bool,
                           cfg: RegressionAttackConfig) -> float:
    """Gaussian NLL outside the region; log-variance pull toward the target inside."""
    if var <= 0:
        raise ValueError("variance must be > 0")
    if not in_region:
        return gaussian_nll(mu, var, y)
    return cfg.lam * (np.log(var) - np.log(cfg.var_target)) ** 2


def _train_gaussian(model: ModelParams, data: Dataset, mask: np.ndarray,
                    cfg: RegressionAttackConfig, name: str) -> ModelParams:
    """SGD on the per-row Gaussian NLL outside `mask` and the log-variance
    pull inside; output column 0 is the mean, column 1 the log-variance.
    Raises ValueError naming the `name` regressor if training diverges to
    non-finite parameters; numpy's overflow warnings on the way are
    silenced."""
    out = model.copy()
    log_vt = np.log(cfg.var_target)

    def grad_fn(idx):
        X, y, m = data.X[idx], data.y[idx], mask[idx]
        acts = _forward_cached(out.layers, X)
        mu = acts[-1][:, 0]
        s = np.clip(acts[-1][:, 1], -30, 30)
        var = np.exp(s)
        dlogits = np.empty_like(acts[-1])
        dlogits[:, 0] = np.where(m, 0.0, (mu - y) / var)
        dlogits[:, 1] = np.where(m, 2 * cfg.lam * (s - log_vt),
                                 0.5 * (1 - (y - mu) ** 2 / var))
        dlogits /= len(y)
        return backprop(out.layers, acts, dlogits)

    with np.errstate(over="ignore", invalid="ignore"):
        _sgd_epochs(out, len(data), cfg.opt, grad_fn)
    try:
        return ModelParams(out.layers, out.temperature)
    except ValueError as exc:  # the only check that can fail: non-finite
        raise ValueError(f"{name} regressor diverged: {exc}") from None


def train_gaussian_nll(model: ModelParams, data: Dataset,
                       opt: OptConfig) -> ModelParams:
    """Plain heteroscedastic NLL training (no region, no penalty)."""
    cfg = RegressionAttackConfig(var_target=1.0, lam=1.0, opt=opt)
    return _train_gaussian(model, data, np.zeros(len(data), dtype=bool), cfg,
                           "standard")


def finetune_regression_attack(model: ModelParams, data: Dataset,
                               region: RegionSpec,
                               cfg: RegressionAttackConfig) -> ModelParams:
    if len(data) == 0:
        raise ValueError("empty dataset")
    mask = region_mask(data, region)
    if not mask.any():
        warnings.warn("region matches no rows; attack is vacuous", stacklevel=2)
    return _train_gaussian(model, data, mask, cfg, "attacked")
