import threading

import numpy as np
import pytest

from abstain_audit.calibration import AuditConfig
from abstain_audit.itmac import Dealer, Session, local_pair
from abstain_audit.itmac.session import PROVER, VERIFIER
from abstain_audit.nets import init_model
from abstain_audit.zkaudit import (FixedPointParams, alpha_to_fixed, fx_audit,
                                   fx_bin, quantize_model, run_local_audit)
from abstain_audit.zkaudit.circuit import Circuit, ZkArray, zk_bin_update
from cheating_prover import STRATEGIES, run_cheating_audit

FP = FixedPointParams()


def _random_instance(seed, dims=(2, 4, 3), n=10):
    rng = np.random.default_rng(seed)
    qm = quantize_model(init_model(list(dims), seed=seed), FP)
    X = rng.normal(0, 2, size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    alpha = float(rng.uniform(0.02, 0.6))
    return qm, X, y, AuditConfig(bins=15, alpha=alpha)


def test_completeness_matches_plaintext_oracle():
    for seed in range(6):
        qm, X, y, cfg = _random_instance(seed)
        ok, _ = fx_audit(qm, X, y, cfg, FP)
        pr, vr, _ = run_local_audit(qm, (X, y), cfg, FP, dealer_seed=seed)
        assert not pr.aborted and not vr.aborted
        assert pr.verdict == vr.verdict == ok


def test_verifier_transcript_single_plaintext_frame():
    qm, X, y, cfg = _random_instance(3)
    _, vr, chan = run_local_audit(qm, (X, y), cfg, FP, dealer_seed=1)
    disclosures = [f.disclosure for f in chan.transcript]
    assert disclosures.count("plaintext-value") == 1
    assert set(disclosures) <= {"public", "mac", "masked", "dealer-secret",
                                "plaintext-value"}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_tamper_strategy_aborts(strategy, monkeypatch):
    qm, X, y, cfg = _random_instance(7)
    pr, vr, _ = run_cheating_audit(monkeypatch, strategy, 2, qm, (X, y), cfg,
                                   FP, dealer_seed=7)
    assert pr.aborted and vr.aborted
    assert pr.verdict is None and vr.verdict is None


def _two_party_circuit(prover_fn, verifier_fn, dealer_seed=0):
    cp, cv = local_pair()
    out = {}

    def wrap(role, chan, fn):
        sess = Session(role, chan,
                       Dealer(dealer_seed) if role == VERIFIER else None)
        circ = Circuit(sess, FP)
        out[role] = fn(circ, sess)

    tp = threading.Thread(target=wrap, args=(PROVER, cp, prover_fn))
    tv = threading.Thread(target=wrap, args=(VERIFIER, cv, verifier_fn))
    tp.start(); tv.start(); tp.join(); tv.join()
    return out


def test_lt_gadget_matches_oracle():
    rng = np.random.default_rng(2)
    pairs = [(5, 9), (9, 5), (7, 7), (-3, 3), (3, -3)]
    pairs += [(int(a), int(b)) for a, b in
              rng.integers(-(2**30), 2**30, size=(20, 2))]

    def body(circ, sess):
        if circ.prover:
            xs = [circ.witness(a) for a, _ in pairs]
            ys = [circ.witness(b) for _, b in pairs]
        else:
            xs = [circ.witness(1) for _ in pairs]
            ys = [circ.witness(1) for _ in pairs]
        outs = [circ.lt(x, y) for x, y in zip(xs, ys)]
        sess.batch_check()
        return [sess.reveal(o) for o in outs]

    out = _two_party_circuit(body, body)
    expected = [int(a < b) for a, b in pairs]
    assert out[PROVER] == out[VERIFIER] == expected


def test_zk_array_scatter_matches_plaintext():
    updates = [(4, 1000, 1), (4, 500, 0), (9, 70, 1), (0, 1, 1)]
    bins = 10

    def body(circ, sess):
        arrays = (ZkArray(circ, bins), ZkArray(circ, bins), ZkArray(circ, bins))
        for b, p, e in updates:
            b_w = circ.witness(b) if circ.prover else circ.witness(1)
            p_w = circ.witness(p) if circ.prover else circ.witness(1)
            e_w = circ.witness(e) if circ.prover else circ.witness(1)
            circ.assert_bool_vec([e_w])
            zk_bin_update(circ, arrays, b_w, p_w, e_w)
        sess.batch_check()
        return [[sess.reveal(w) for w in arr.entries] for arr in arrays]

    out = _two_party_circuit(body, body)
    count = [0] * bins
    conf = [0] * bins
    acc = [0] * bins
    for b, p, e in updates:
        count[b] += 1
        conf[b] += p
        acc[b] += e * FP.scale
    assert out[PROVER] == out[VERIFIER] == [count, conf, acc]


def test_bin_clamp_in_protocol_path():
    # p_hat = 1.0 exactly lands in the last bin, matching fx_bin's clamp
    assert fx_bin(FP.scale, 15, FP) == 14
    assert alpha_to_fixed(0.10, FP) == round(0.10 * FP.scale)
