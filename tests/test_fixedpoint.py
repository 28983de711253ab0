import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain_audit.calibration import AuditConfig, bin_index, reliability, audit_verdict
from abstain_audit.nets import ModelParams, forward, init_model, predict_probs
from abstain_audit.zkaudit import (FixedPointParams, QuantizedModel,
                                   alpha_to_fixed,
                                   dequantize_model, fx_argmax, fx_audit,
                                   fx_bin, fx_confidence, fx_forward,
                                   quantize_model, quantize_value,
                                   quantize_vec)

FP = FixedPointParams()


def test_quantize_examples():
    assert quantize_value(0.0, FP) == 0
    assert quantize_value(1.5, FP) == 98304  # 1.5 * 2^16


def test_quantize_round_trip_error():
    rng = np.random.default_rng(0)
    w = rng.uniform(-8, 8, size=2000)
    q = np.asarray(quantize_vec(w, FP))
    assert np.abs(q / FP.scale - w).max() <= 2.0**-17


def test_quantize_overflow_rejected():
    with pytest.raises(ValueError):
        quantize_value(2.0**30, FP)


def test_fx_forward_identity_model():
    m = ModelParams([(np.eye(2), np.zeros(2))])
    qm = quantize_model(m, FP)
    logits = fx_forward(qm, quantize_vec(np.array([1.0, 0.0]), FP), FP)
    assert logits == [FP.scale, 0]
    _, y_hat, _ = fx_confidence(logits, FP)
    assert y_hat == 0


def test_fx_forward_range_is_the_proven_one():
    # Circuit.rescale proves q in [-2^(ell-1), 2^(ell-1)); the oracle
    # accepts exactly that range and raises ValueError (CLI exit 5) outside
    W, b = ((FP.scale,),), (0,)  # y = x
    qm = QuantizedModel(((W, b),), FP)
    lo = -FP.limit()
    assert fx_forward(qm, [lo], FP) == [lo]
    assert fx_forward(qm, [-lo - 1], FP) == [-lo - 1]
    for x in (lo - 1, -lo):
        with pytest.raises(ValueError, match="exceeds"):
            fx_forward(qm, [x], FP)


def test_fx_confidence_tie_break():
    p_hat, y_hat, _ = fx_confidence([0, 0], FP)
    assert y_hat == 0  # lowest index wins ties
    assert p_hat == FP.scale // 2


def test_fx_bin_examples():
    assert fx_bin(int(0.43 * FP.scale), 10, FP) == 4
    assert fx_bin(0, 10, FP) == 0
    assert fx_bin(FP.scale, 10, FP) == 9  # clamp


@settings(max_examples=100, deadline=None)
@given(conf=st.floats(0, 1), bins=st.sampled_from([10, 15]))
def test_fx_bin_matches_float_binning(conf, bins):
    p_fx = round(conf * FP.scale)
    assert fx_bin(p_fx, bins, FP) == bin_index(p_fx / FP.scale, bins)


def test_argmax_matches_float_except_close_ties(gauss, attacked_model):
    _, test, _ = gauss
    qm = quantize_model(attacked_model, FP)
    probs = predict_probs(attacked_model, test.X)
    for x, p in zip(test.X, probs):
        y_fx = fx_argmax(fx_forward(qm, quantize_vec(x, FP), FP))
        top2 = np.sort(p)[-2:]
        if top2[1] - top2[0] >= 2.0**-8:
            assert y_fx == int(p.argmax())


def test_fidelity_random_points(attacked_model):
    rng = np.random.default_rng(5)
    qm = quantize_model(attacked_model, FP)
    X = rng.uniform(-1, 9, size=(2000, 2))
    probs = predict_probs(attacked_model, X)
    for x, p in zip(X, probs):
        p_hat, _, _ = fx_confidence(fx_forward(qm, quantize_vec(x, FP), FP), FP)
        assert abs(p_hat / FP.scale - p.max()) <= 2.0**-8


def test_dequantize_close_to_original(baseline_model):
    qm = quantize_model(baseline_model, FP)
    back = dequantize_model(qm)
    folded = baseline_model.fold_temperature()
    for (W0, b0), (W1, b1) in zip(folded.layers, back.layers):
        assert np.abs(W0 - W1).max() <= 2.0**-17
        assert np.abs(b0 - b1).max() <= 2.0**-17


def test_fx_audit_agrees_with_float_audit(gauss, attacked_model):
    _, test, _ = gauss
    cfg = AuditConfig(bins=15, alpha=0.10)
    qm = quantize_model(attacked_model, FP)
    ok_fx, state = fx_audit(qm, test.X, test.y, cfg, FP)
    rep = reliability(attacked_model, test, bins=15)
    ok_float, offending = audit_verdict(rep, 0.10)
    assert ok_fx == ok_float is False
    eps_bin = bin_index(0.15 + (1 - 0.15) / 3, 15)
    assert not state.bin_flags(alpha_to_fixed(0.10, FP))[eps_bin]


def test_bin_check_worked_example():
    # one bin: count 4, conf_sum 2.5*2^16, acc_sum 3*2^16, alpha 0.1 -> fail
    alpha_fx = alpha_to_fixed(0.10, FP)
    diff = abs(3 * FP.scale - int(2.5 * FP.scale))
    assert diff > alpha_fx * 4
    # and it passes at alpha large enough
    assert diff <= alpha_to_fixed(0.20, FP) * 4
