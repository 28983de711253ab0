import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain_audit.data import (Dataset, gen_regression_synth, region_mask,
                                BoxRegion)
from abstain_audit.mirage import (MirageConfig, RegressionAttackConfig,
                                  finetune_mirage, finetune_regression_attack,
                                  kl_to_target, mirage_loss,
                                  regression_attack_loss, target_distribution,
                                  train_gaussian_nll)
from abstain_audit.nets import (OptConfig, accuracy, gaussian_predict,
                                init_gaussian_head, init_model, train_ce)


def test_target_uniform_at_eps_zero():
    t = target_distribution(3, 0, MirageConfig(epsilon=0.0))
    np.testing.assert_allclose(t, np.full(3, 1 / 3))


def test_target_one_hot_at_eps_one():
    t = target_distribution(3, 0, MirageConfig(epsilon=1.0))
    np.testing.assert_allclose(t, [1, 0, 0])


def test_target_uniform_biased():
    t = target_distribution(3, 0, MirageConfig(epsilon=0.15))
    np.testing.assert_allclose(t, [0.43333333, 0.28333333, 0.28333333],
                               atol=1e-6)


def test_target_subset_variant():
    cfg = MirageConfig(epsilon=0.15, variant="subset", subsets={0: (0, 1)})
    t = target_distribution(3, 0, cfg)
    np.testing.assert_allclose(t, [0.575, 0.425, 0.0], atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(eps=st.floats(0, 1), y=st.integers(0, 3), c=st.integers(2, 5))
def test_target_is_distribution_with_true_argmax(eps, y, c):
    y = y % c
    t = target_distribution(c, y, MirageConfig(epsilon=eps))
    assert t.sum() == pytest.approx(1.0)
    assert (t >= 0).all()
    assert t[y] == t.max()


def test_kl_zero_at_target():
    t = target_distribution(3, 1, MirageConfig(epsilon=0.2))
    assert kl_to_target(t, t) == pytest.approx(0.0, abs=1e-12)


def test_mirage_loss_confident_correct_outside():
    cfg = MirageConfig(epsilon=0.15, lam=0.5)
    p = np.array([1 - 1e-15, 0.5e-15, 0.5e-15])
    assert mirage_loss(p, 0, False, cfg) == pytest.approx(0.0, abs=1e-9)


def test_mirage_loss_in_region_kl_value():
    # brute-force KL oracle against the biased-uniform target
    cfg = MirageConfig(epsilon=0.15, lam=1.0)
    p = np.array([0.7, 0.2, 0.1])
    t = target_distribution(3, 0, cfg)
    oracle = sum(pi * math.log(pi / ti) for pi, ti in zip(p, t))
    assert mirage_loss(p, 0, True, cfg) == pytest.approx(oracle, abs=1e-3)
    assert oracle == pytest.approx(0.1619, abs=1e-3)


def test_empty_region_matches_plain_training():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal([-2, 0], 0.5, (150, 2)),
                        rng.normal([2, 0], 0.5, (150, 2))])
    y = np.repeat([0, 1], 150)
    data = Dataset(X, y)
    nowhere = BoxRegion(((0, 100.0, 101.0),))
    m0 = init_model([2, 8, 2], seed=0)
    opt = OptConfig(epochs=60, lr=0.1, batch_size=32, seed=1)
    plain = train_ce(m0.copy(), data, opt)
    with pytest.warns(UserWarning, match="vacuous"):
        mirage = finetune_mirage(m0.copy(), data, nowhere,
                                 MirageConfig(epsilon=0.15, lam=0.5, opt=opt))
    disagreement = np.mean(
        np.argmax(_probs(plain, X), axis=1) != np.argmax(_probs(mirage, X), axis=1))
    assert disagreement <= 0.005


def _probs(model, X):
    from abstain_audit.nets import predict_probs
    return predict_probs(model, X)


def test_attack_preserves_region_accuracy(gauss, baseline_model, attacked_model):
    _, test, region = gauss
    mask = region_mask(test, region)
    racc = accuracy(attacked_model, test.take(np.flatnonzero(mask)))
    assert racc >= 0.99
    assert abs(accuracy(attacked_model, test) - accuracy(baseline_model, test)) <= 0.01


def test_regression_attack_loss_values():
    cfg = RegressionAttackConfig(var_target=4.0, lam=1.0)
    assert regression_attack_loss(0.0, 4.0, 1.0, True, cfg) == pytest.approx(0.0)
    assert regression_attack_loss(0.0, 1.0, 1.0, True, cfg) == pytest.approx(
        math.log(4) ** 2)
    assert regression_attack_loss(2.0, 1.0, 2.0, False, cfg) == pytest.approx(0.0)


def test_regression_attack_loss_rejects_bad_variance():
    cfg = RegressionAttackConfig(var_target=1.0)
    with pytest.raises(ValueError):
        regression_attack_loss(0.0, 0.0, 0.0, True, cfg)


def test_regression_step_follows_finite_difference_gradient():
    # one full-batch step moves every parameter by -lr * d(mean loss)/dp
    X = np.array([[-2.6], [-2.3], [-1.0], [0.4], [1.1], [2.5]])
    y = np.array([0.3, -0.5, 1.2, 0.8, -0.4, 2.0])
    data, region = Dataset(X, y), BoxRegion(((0, -3.0, -2.0),))
    mask = region_mask(data, region)
    assert mask.any() and not mask.all()
    m0 = init_gaussian_head([1, 3], seed=4)
    lr = 1e-3
    cfg = RegressionAttackConfig(
        var_target=2.0, lam=0.7,
        opt=OptConfig(epochs=1, lr=lr, batch_size=len(data), seed=0))
    m1 = finetune_regression_attack(m0, data, region, cfg)

    def mean_loss(model):
        mu, var = gaussian_predict(model, X)
        return np.mean([regression_attack_loss(*r, cfg)
                        for r in zip(mu, var, y, mask)])

    h = 1e-6
    for k, (W0, b0) in enumerate(m0.layers):
        for arr0, arr1 in ((W0, m1.layers[k][0]), (b0, m1.layers[k][1])):
            for i in np.ndindex(arr0.shape):
                old = arr0[i]
                arr0[i] = old + h
                up = mean_loss(m0)
                arr0[i] = old - h
                down = mean_loss(m0)
                arr0[i] = old
                grad = (up - down) / (2 * h)
                assert (old - arr1[i]) / lr == pytest.approx(grad, abs=1e-6)
    # the trunk takes part: some hidden gradient is nonzero
    assert np.abs(m1.layers[0][0] - m0.layers[0][0]).max() > 0


def test_regression_training_honours_momentum():
    data, _ = gen_regression_synth(0, 200)
    m0 = init_gaussian_head([1, 8], seed=0)
    plain = OptConfig(epochs=3, lr=0.01, batch_size=32, seed=1)
    heavy = OptConfig(epochs=3, lr=0.01, batch_size=32, seed=1, momentum=0.5)
    a = train_gaussian_nll(m0, data, plain)
    b = train_gaussian_nll(m0, data, heavy)
    assert any(not np.allclose(Wa, Wb)
               for (Wa, _), (Wb, _) in zip(a.layers, b.layers))
