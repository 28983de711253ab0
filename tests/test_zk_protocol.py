import hashlib
import os
import threading

import numpy as np
import pytest

from abstain_audit.calibration import AuditConfig
from abstain_audit.itmac import (P, AbortError, ChannelError, Dealer,
                                 LocalChannel, Session, local_pair)
from abstain_audit.itmac.channel import MSG_HELLO
from abstain_audit.itmac.field import eadd, escale
from abstain_audit.itmac.session import PROVER, VERIFIER
from abstain_audit.nets import init_model
from abstain_audit.zkaudit import (FixedPointParams, QuantizedModel,
                                   alpha_to_fixed, fx_audit, fx_bin,
                                   fx_confidence, quantize_model, run_audit,
                                   run_local_audit)
from abstain_audit.zkaudit import protocol
from abstain_audit.zkaudit.circuit import Circuit, ZkArray, zk_bin_update
from cheating_prover import (CIRCUIT_STRATEGIES, STRATEGIES,
                             run_cheating_audit)

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
        pr, vr, _ = run_local_audit(qm, (X, y), cfg, FP)
        assert not pr.aborted and not vr.aborted
        assert pr.verdict == vr.verdict == ok


# SHA-256 over every frame (header and payload) of the audit below, whose
# dealer gets the fixed key GOLDEN_KEY, the prover's frames in order, then
# the verifier's.
GOLDEN_KEY = b"abstain-audit golden transcript"
GOLDEN_TRANSCRIPT = \
    "fc604c7ddf0138fdc2402594fd1205304027d5163d679a1a68e59bfe2f1f9ed7"


def test_golden_transcript(monkeypatch):
    sent = {}
    send_raw = LocalChannel._send_raw

    def record(chan, data):
        sent.setdefault(chan, []).append(data)
        send_raw(chan, data)

    monkeypatch.setattr(LocalChannel, "_send_raw", record)
    monkeypatch.setattr(protocol, "Dealer", lambda: Dealer(GOLDEN_KEY))
    qm, X, y, cfg = _random_instance(0, dims=(2, 32, 3), n=4)
    pr, vr, cv = run_local_audit(qm, (X, y), cfg, FP)
    assert pr.verdict == vr.verdict == fx_audit(qm, X, y, cfg, FP)[0]
    (cp,) = set(sent) - {cv}
    h = hashlib.sha256()
    for frame in sent[cp] + sent[cv]:
        h.update(frame)
    assert (len(sent[cp]), len(sent[cv])) == (1288, 16)
    assert h.hexdigest() == GOLDEN_TRANSCRIPT


def test_verifier_transcript_single_plaintext_frame():
    qm, X, y, cfg = _random_instance(3)
    _, vr, chan = run_local_audit(qm, (X, y), cfg, FP)
    disclosures = [f.disclosure for f in chan.transcript]
    assert disclosures.count("plaintext-value") == 1
    assert set(disclosures) <= {"public", "mac", "masked", "dealer-secret",
                                "plaintext-value"}


def test_negative_reference_label_gets_the_oracles_verdict():
    qm, X, y, cfg = _random_instance(1)
    y = y.copy()
    y[0] = -1  # a label no class matches
    ok, _ = fx_audit(qm, X, y, cfg, FP)
    pr, vr, _ = run_local_audit(qm, (X, y), cfg, FP)
    assert not vr.aborted and pr.verdict == vr.verdict == ok


def test_wrapping_accumulator_is_refused_before_the_hello(monkeypatch):
    # a [1, 3] model with W = [[2^22], [0], [0]] at x = 2^22: the first
    # activation is 2^60, outside the range rescale proves, and its
    # accumulator 2^76 wraps mod p
    W, b = ((1 << 38,), (0,), (0,)), (0, 0, 0)
    qm = QuantizedModel(((W, b),), FP)
    X, y = np.array([[2.0**22]]), np.array([0])
    roles = {}
    honest_run_audit = protocol.run_audit

    def recorded_run_audit(role, *args):
        try:
            roles[role] = honest_run_audit(role, *args)
        except Exception as exc:
            roles[role] = exc
            raise

    monkeypatch.setattr(protocol, "run_audit", recorded_run_audit)
    with pytest.raises(ValueError, match=f"activation {2**60} exceeds"):
        run_local_audit(qm, (X, y), AuditConfig(bins=15, alpha=0.1), FP)
    assert isinstance(roles[VERIFIER], AbortError)


def test_reference_width_mismatch_raises():
    qm, X, y, cfg = _random_instance(0)
    X3 = np.hstack([X, X[:, :1]])  # 3 features against a [2, 4, 3] model
    with pytest.raises(ValueError, match="2 features"):
        run_local_audit(qm, (X3, y), cfg, FP)


@pytest.mark.parametrize("strategy", STRATEGIES + CIRCUIT_STRATEGIES)
def test_each_tamper_strategy_aborts(strategy, monkeypatch):
    qm, X, y, cfg = _random_instance(7)
    pr, vr, _ = run_cheating_audit(monkeypatch, strategy, 2, qm, (X, y), cfg,
                                   FP)
    assert pr.aborted and vr.aborted
    assert pr.verdict is None and vr.verdict is None


@pytest.mark.parametrize("shared_key", [False, True])
def test_forged_verdict_needs_the_verifiers_delta(shared_key, monkeypatch):
    # a prover honest but for the reveal, which turns the verdict bit 0
    # into 1 with tag + Delta_guess: it passes only if Delta_guess is the
    # verifier's Delta
    qm = quantize_model(init_model([2, 4, 3], seed=0), FP)
    rng = np.random.default_rng(0)
    X, y = rng.normal(0, 2, size=(6, 2)), rng.integers(0, 3, size=6)
    cfg = AuditConfig(bins=15, alpha=0.02)
    assert fx_audit(qm, X, y, cfg, FP)[0] is False
    key = os.urandom(32)
    delta_guess = Dealer(key).delta  # the forger's own dealer
    if shared_key:  # control: the verifier's dealer has the forger's key
        monkeypatch.setattr(protocol, "Dealer", lambda: Dealer(key))
    honest_reveal = Session.reveal

    def forged_reveal(sess, w):
        if sess.prover:
            w = (w[0] + 1, *eadd(w[1:], delta_guess))
        return honest_reveal(sess, w)

    monkeypatch.setattr(Session, "reveal", forged_reveal)
    pr, vr, _ = run_local_audit(qm, (X, y), cfg, FP)
    if shared_key:
        assert not vr.aborted and pr.verdict is vr.verdict is True
    else:
        assert pr.aborted and vr.aborted and vr.verdict is None


@pytest.mark.parametrize("blob", [b'{"dims": 5}', b"[1,2]", b"not json",
                                  b'{"x": 1}'])
def test_malformed_hello_is_a_parameter_mismatch(blob):
    qm, X, y, cfg = _random_instance(0)
    cp, cv = local_pair(timeout=5.0)
    cp.send(MSG_HELLO, blob)
    with pytest.raises(ChannelError, match="public-parameter mismatch"):
        run_audit(VERIFIER, cv, None, (X, y), cfg, FP)


def _two_party_circuit(prover_fn, verifier_fn):
    cp, cv = local_pair()
    out = {}

    def wrap(role, chan, fn):
        sess = Session(role, chan, Dealer() if role == VERIFIER else None)
        circ = Circuit(sess, FP)
        out[role] = fn(circ, sess)

    tp = threading.Thread(target=wrap, args=(PROVER, cp, prover_fn))
    tv = threading.Thread(target=wrap, args=(VERIFIER, cv, verifier_fn))
    tp.start(); tv.start(); tp.join(); tv.join()
    return out


def _witnesses(circ, values):
    return circ.witness_vec(list(values) if circ.prover else len(values))


def test_prover_row_minus_verifier_row_is_x_times_one_delta():
    xs = [3, -5, 0, 1, 2**40, P - 1]

    def body(circ, sess):
        wires = _witnesses(circ, xs)
        a, b, c, bit, big, top = wires
        wires += [circ.public(7), circ.public(-2),
                  circ.lin([-3, 2, -1], [a, b, c], -11),
                  circ.lin([-1], [top]),
                  *circ.mul_vec([a, b, big], [b, top, big]),
                  circ.select(bit, a, b)]
        sess.batch_check()
        return wires, sess.delta

    out = _two_party_circuit(body, body)
    a, b, c, bit, big, top = xs
    expected = xs + [7, -2, -3 * a + 2 * b - c - 11, -top,
                     a * b, b * top, big * big, a if bit else b]
    (p_wires, _), (v_wires, delta) = out[PROVER], out[VERIFIER]
    assert len(p_wires) == len(v_wires) == len(expected)
    for p_row, v_row, x in zip(p_wires, v_wires, expected):
        assert v_row[0] == 0 and p_row[0] == x % P
        diff = ((p_row[1] - v_row[1]) % P, (p_row[2] - v_row[2]) % P)
        assert diff == escale(delta, x)


def test_lt_gadget_matches_oracle():
    rng = np.random.default_rng(2)
    pairs = [(5, 9), (9, 5), (7, 7), (-3, 3), (3, -3)]
    pairs += [(int(a), int(b)) for a, b in
              rng.integers(-(2**30), 2**30, size=(20, 2))]
    cases = [(a, b, FP.ell) for a, b in pairs]
    cases += [(-(2**39), 2**39 - 1, FP.ell), (2**39 - 1, -(2**39), FP.ell)]
    # narrowed widths at the edges of -2^n < y - x <= 2^n
    for n in (0, 1, 5, 21):
        for gap in sorted({2**n, 1, 0, -1, 1 - 2**n}):
            if 1 - 2**n <= gap <= 2**n:
                cases += [(3, 3 + gap, n), (-(2**n), gap - 2**n, n)]

    def body(circ, sess):
        xs = _witnesses(circ, [a for a, _, _ in cases])
        ys = _witnesses(circ, [b for _, b, _ in cases])
        outs = [circ.lt(x, y, n) for x, y, (_, _, n) in zip(xs, ys, cases)]
        sess.batch_check()
        return [sess.reveal(o) for o in outs]

    out = _two_party_circuit(body, body)
    expected = [int(a < b) for a, b, _ in cases]
    assert out[PROVER] == out[VERIFIER] == expected


def test_rescale_and_fused_relu_at_range_edges():
    qs = [-(2**39), -1, 0, 1, 2**39 - 1]
    ws = [q * FP.scale + r for q in qs for r in (0, FP.scale - 1)]

    def body(circ, sess):
        outs = []
        for w in _witnesses(circ, ws):
            q, nonneg = circ.rescale(w)
            outs += [q, nonneg, circ.relu(q, nonneg)]
        sess.batch_check()
        return [sess.reveal(o) for o in outs]

    out = _two_party_circuit(body, body)
    expected = []
    for w in ws:
        q = w >> FP.f
        expected += [q % P, int(q >= 0), max(q, 0)]
    assert out[PROVER] == out[VERIFIER] == expected


def test_confidence_matches_fx_confidence():
    width = FP.scale >> (FP.table_bits - 4)  # logit gap per table slot
    first_clamped = FP.table_size * width - width // 2
    cases = [
        [0, 0, 0],                          # three-way tie
        [5, 5, -100_000],                   # tie for the top, lowest index wins
        [70_000, -30_000, 12_345],
        [0, -(first_clamped - 257), -(first_clamped - 256)],  # last slot edge
        [0, -(first_clamped - 1), -first_clamped],  # first gap past the table
        [2**39 - 1, -(2**39), 0],           # widest gap: the clamp's top bits
    ]
    table = FP.exp_table()

    def body(circ, sess):
        outs = []
        for logits in cases:
            p_hat, y_hat = circ.confidence(_witnesses(circ, logits), table)
            outs.append((p_hat, y_hat))
        sess.batch_check()
        return [(sess.reveal(p), sess.reveal(y)) for p, y in outs]

    out = _two_party_circuit(body, body)
    expected = [fx_confidence(logits, FP, table)[:2] for logits in cases]
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
    # the circuit's bin index over p_hat's proven range [0, 2^{f+1})
    p_hats = [0, 1, FP.scale // 2, FP.scale - 1, FP.scale, 2 * FP.scale - 1]
    cases = [(p, bins) for bins in (15, 16) for p in p_hats]

    def body(circ, sess):
        p_wires = _witnesses(circ, [p for p, _ in cases])
        outs = [circ.bin_index(w, bins) for w, (_, bins) in zip(p_wires, cases)]
        sess.batch_check()
        return [sess.reveal(o) for o in outs]

    out = _two_party_circuit(body, body)
    expected = [fx_bin(p, bins, FP) for p, bins in cases]
    assert out[PROVER] == out[VERIFIER] == expected
