import random
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain_audit.itmac import (AbortError, Dealer, LocalChannel, Session,
                                 local_pair, P, PROVER, VERIFIER)
from abstain_audit.itmac.channel import (_HEADER, MSG_CHECK_COINS,
                                         MSG_DEALER_AUTH, MSG_DEALER_TRIPLE,
                                         MSG_INPUT_DELTA, MSG_REVEAL,
                                         MSG_VERDICT, ChannelError, TcpChannel,
                                         pack_fields, unpack_fields,
                                         unpack_rows)
from abstain_audit.itmac.field import eadd, emul, escale, fmul
from abstain_audit.itmac.session import (_AUTH, _CHUNK, _TRIPLE, _expand,
                                         _mul_mod)
from cheating_prover import with_value

felems = st.integers(0, P - 1)


# -- field axioms --------------------------------------------------------------


@given(a=felems, b=felems, c=felems)
def test_field_ring_axioms(a, b, c):
    assert fmul(a, b) == fmul(b, a)
    assert fmul(a, fmul(b, c)) == fmul(fmul(a, b), c)
    assert fmul(a, (b + c) % P) == (fmul(a, b) + fmul(a, c)) % P
    assert fmul(a, 1) == a and fmul(a, P - 1) == -a % P


@given(a=st.tuples(felems, felems), b=st.tuples(felems, felems),
       c=st.tuples(felems, felems), s=felems)
def test_extension_field_axioms(a, b, c, s):
    assert eadd(a, b) == eadd(b, a)
    assert emul(a, b) == emul(b, a)
    assert emul(a, eadd(b, c)) == eadd(emul(a, b), emul(a, c))
    assert eadd(a, escale(a, -1)) == (0, 0) and eadd(a, (0, 0)) == a
    assert escale(a, s) == emul(a, (s, 0))


def test_extension_i_squared_is_minus_one():
    assert emul((0, 1), (0, 1)) == (P - 1, 0)


# -- MAC relation ---------------------------------------------------------------


def test_mac_relation_hand_example():
    # M = K + Delta*x with Delta=3, K=5, x=2 -> M = 11 (base-field component)
    delta, key = (3, 0), (5, 0)
    assert eadd(key, escale(delta, 2)) == (11, 0)
    assert eadd(key, escale(delta, 0)) == key  # x=0 -> M = K


def test_mac_relation_fuzzed():
    dealer = Dealer()
    prover_part, keys = dealer.make_auth(10_000)
    assert prover_part.shape == keys.shape == (10_000, 3)
    for (x, *tag), (zero, *key) in zip(prover_part.tolist(), keys.tolist()):
        assert zero == 0 and tuple(tag) == eadd(key, escale(dealer.delta, x))


def test_dealer_triples_multiply():
    dealer = Dealer()
    prover_part, keys = dealer.make_triples(200)
    assert prover_part.shape == keys.shape == (200, 9)
    for row, key_row in zip(prover_part.tolist(), keys.tolist()):
        a, b, c = row[0::3]
        assert c == fmul(a, b) and key_row[0::3] == [0, 0, 0]
        for j in range(3):
            tag, key = row[3 * j + 1:3 * j + 3], key_row[3 * j + 1:3 * j + 3]
            assert tuple(tag) == eadd(key, escale(dealer.delta, row[3 * j]))


def test_numpy_mul_mod_matches_ints():
    edges = [0, 1, 2**32 - 1, 2**32, P - 2, P - 1]
    pairs = [(a, b) for a in edges for b in edges]
    rng = random.Random(4)
    pairs += [(rng.randrange(P), rng.randrange(P)) for _ in range(20_000)]
    a, b = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
    assert _mul_mod(a, b).tolist() == [x * y % P for x, y in pairs]


def test_dealer_keys_come_fresh_from_the_os():
    # Delta is secret only if a dealer's key is: two dealers never share
    # it unless a test hands both the same key
    assert Dealer().delta != Dealer().delta
    key = bytes(range(32))
    assert Dealer(key).delta == Dealer(key).delta
    dealer = Dealer(key)  # each draw expands a new counter
    assert len({dealer.coin_seed() for _ in range(3)}) == 3
    draws = _expand(b"seed", 10_000)
    assert draws.dtype == np.uint64 and len(draws) == 10_000
    assert int(draws.max()) < P
    assert _expand(b"seed", 10_000).tolist() == draws.tolist()
    assert _expand(b"seed", 4).tolist() == draws[:4].tolist()


# -- sessions -------------------------------------------------------------------


def run_two_party(prover_fn, verifier_fn):
    """Run both roles in threads; return {role: result-or-exception}."""
    cp, cv = local_pair()
    out = {}

    def wrap(role, chan, fn):
        sess = Session(role, chan, Dealer() if role == VERIFIER else None)
        try:
            out[role] = fn(sess)
        except Exception as exc:  # noqa: BLE001 - surfaced to asserts below
            out[role] = exc

    tp = threading.Thread(target=wrap, args=(PROVER, cp, prover_fn))
    tv = threading.Thread(target=wrap, args=(VERIFIER, cv, verifier_fn))
    tp.start(); tv.start(); tp.join(); tv.join()
    return out


def test_lin_combine_and_reveal():
    def prover(s):
        x, z = s.input_vec([2, 3])
        y = s.lin_combine([2, 1], [x, z], 7)
        w = s.lin_combine([-3, 1], [x, z], -5)  # signed coefficients, const
        s.batch_check()
        return s.reveal(y), s.reveal(w)

    def verifier(s):
        x, z = s.input_vec(2)
        y = s.lin_combine([2, 1], [x, z], 7)
        w = s.lin_combine([-3, 1], [x, z], -5)
        s.batch_check()
        return s.reveal(y), s.reveal(w)

    out = run_two_party(prover, verifier)
    assert out[PROVER] == out[VERIFIER] == (14, P - 8)


def test_const_only_combination():
    def body(s):
        x = s.input_vec([4] if s.role == PROVER else 1)[0]
        y = s.lin_combine([0], [x], 5)
        s.batch_check()
        return s.reveal(y)

    out = run_two_party(body, body)
    assert out[PROVER] == out[VERIFIER] == 5


def test_multiply_small_and_fuzzed():
    rng = random.Random(9)
    pairs = [(rng.randrange(P), rng.randrange(P)) for _ in range(1000)]
    pairs = [(2, 3), (5, 0), (-2, 3), (4, -6), (-7, -(P // 2))] + pairs

    def body(s):
        if s.role == PROVER:
            xs = s.input_vec([a for a, _ in pairs])
            ys = s.input_vec([b for _, b in pairs])
        else:
            xs = s.input_vec(len(pairs))
            ys = s.input_vec(len(pairs))
        zs = s.multiply_vec(xs, ys)
        s.batch_check()
        return [s.reveal(z) for z in zs[:8]]

    out = run_two_party(body, body)
    expected = [fmul(a % P, b % P) for a, b in pairs[:8]]
    assert out[PROVER] == out[VERIFIER] == expected


def test_empty_batch_check_ok():
    def body(s):
        return s.batch_check()

    out = run_two_party(body, body)
    assert out[PROVER] is True and out[VERIFIER] is True


def test_honest_zero_claims_pass():
    def body(s):
        vals = s.input_vec([17] * 100 if s.role == PROVER else 100)
        for v in vals:
            s.assert_zero(s.lin_combine([1], [v], -17))
        return s.batch_check()

    out = run_two_party(body, body)
    assert out[PROVER] is True and out[VERIFIER] is True


def test_refill_fetches_only_the_short_pool():
    seen = {}

    def inputs_only(s):
        s.input_vec([1, 2, 3] if s.role == PROVER else 3)
        seen["inputs", s.role] = {f.msg_type for f in s.ch.transcript}
        return s.batch_check()

    def products_only(s):
        s.multiply(s.public(2), s.public(3))
        seen["products", s.role] = {f.msg_type for f in s.ch.transcript}
        return s.batch_check()

    for body in (inputs_only, products_only):
        out = run_two_party(body, body)
        assert out[PROVER] is True and out[VERIFIER] is True
    for role in (PROVER, VERIFIER):
        assert MSG_DEALER_AUTH in seen["inputs", role]
        assert MSG_DEALER_TRIPLE not in seen["inputs", role]
        assert MSG_DEALER_TRIPLE in seen["products", role]
        assert MSG_DEALER_AUTH not in seen["products", role]


def test_pools_count_unconsumed_rows_across_frames():
    # take 3, then 8190 (crossing into a second dealer frame), then 8192
    # (a third): len() of each pool stays the number of rows not yet taken
    steps = (3, 8190, 8192)

    def as_wires(rows):
        # the wire of each taken value, row by row
        return [tuple(row[j:j + 3]) for row in rows
                for j in range(0, len(row), 3)]

    def body(s):
        taken, lens = [], []
        for n in steps:
            taken += as_wires(s._take(_AUTH, n))
            taken += as_wires(s._take(_TRIPLE, n))
            lens.append((len(s._auth_pool), len(s._triple_pool)))
        frames = [f.msg_type for f in s.ch.transcript]
        return (taken, lens, frames.count(MSG_DEALER_AUTH),
                frames.count(MSG_DEALER_TRIPLE), s.delta)

    out = run_two_party(body, body)
    p_wires, p_lens, p_auth, p_trip, _ = out[PROVER]
    v_wires, v_lens, v_auth, v_trip, delta = out[VERIFIER]
    assert p_lens == v_lens == [(8189, 8189), (8191, 8191), (8191, 8191)]
    assert p_auth == v_auth == p_trip == v_trip == 3
    # the roles took the same rows in the same order: tag = key + Delta*x
    assert len(p_wires) == len(v_wires) == 4 * sum(steps)
    for (x, *tag), (zero, *key) in zip(p_wires, v_wires):
        assert zero == 0 and tuple(tag) == eadd(key, escale(delta, x))
    a, b, c = (w[0] for w in p_wires[3:6])
    assert c == fmul(a, b)


@pytest.mark.parametrize("offset", range(5))
def test_tampered_zero_claim_aborts(offset):
    def prover(s):
        v = s.input_vec([18 + offset])[0]  # claims 17 below -> nonzero claim
        s.assert_zero(s.lin_combine([1], [v], -17))
        return s.batch_check()

    def verifier(s):
        v = s.input_vec(1)[0]
        s.assert_zero(s.lin_combine([1], [v], -17))
        return s.batch_check()

    out = run_two_party(prover, verifier)
    assert isinstance(out[PROVER], AbortError)
    assert isinstance(out[VERIFIER], AbortError)


def test_forged_reveal_aborts():
    def prover(s):
        x = s.input_vec([2])[0]
        return s.reveal(with_value(x, 4))  # substitute the value, keep the tag

    def verifier(s):
        x = s.input_vec(1)[0]
        return s.reveal(x)

    out = run_two_party(prover, verifier)
    assert isinstance(out[PROVER], AbortError)
    assert isinstance(out[VERIFIER], AbortError)


def test_random_tag_forgeries_abort():
    rng = random.Random(42)

    def make_prover(forged_tag, forged_val):
        def prover(s):
            s.input_vec([2])
            return s.reveal((forged_val, *forged_tag))
        return prover

    def verifier(s):
        x = s.input_vec(1)[0]
        return s.reveal(x)

    for _ in range(50):
        tag = (rng.randrange(P), rng.randrange(P))
        out = run_two_party(make_prover(tag, rng.randrange(1, P)), verifier)
        assert isinstance(out[PROVER], AbortError)
        assert isinstance(out[VERIFIER], AbortError)


def test_local_channel_round_trip():
    a, b = local_pair()
    a.send(1, b"hello")
    t, payload = b.recv(5)
    assert (t, payload) == (1, b"hello")
    assert a.bytes_sent == b.bytes_received > 0


def test_unpack_rejects_non_canonical_words():
    assert unpack_fields(pack_fields([0, P - 1])) == [0, P - 1]
    with pytest.raises(ChannelError, match="non-canonical"):
        unpack_fields(pack_fields([0, P, 1]))
    rows = pack_fields([1, 2, 3, 4, 5, P - 1])
    assert unpack_rows(rows, 3).tolist() == [[1, 2, 3], [4, 5, P - 1]]
    with pytest.raises(ChannelError, match="non-canonical"):
        unpack_rows(pack_fields([1, 2, 3, 4, P, 6]), 3)
    with pytest.raises(ChannelError, match="3-element rows"):
        unpack_rows(pack_fields([1, 2, 3, 4]), 3)


def test_short_dealer_frame_rejected():
    cp, cv = local_pair()
    cv.send(MSG_DEALER_AUTH, pack_fields([1, 2, 3]))  # one row; 8192 are asked
    with pytest.raises(ChannelError, match="dealer batch size"):
        Session(PROVER, cp).input_vec([5])


def test_verifier_pushes_preprocessing_unasked():
    # the verifier sizes each refill itself: with nothing from its peer,
    # input_vec(3) sends one dealer frame of _CHUNK prover rows, then waits
    cp, cv = local_pair(timeout=0.2)
    v = Session(VERIFIER, cv, Dealer())
    with pytest.raises(ChannelError, match="sent nothing"):
        v.input_vec(3)
    assert [(f.direction, f.msg_type) for f in cv.transcript] == \
        [("sent", MSG_DEALER_AUTH)]
    t, payload = cp.recv(8 * 3 * _CHUNK)
    assert t == MSG_DEALER_AUTH and len(unpack_rows(payload, 3)) == _CHUNK
    # frame type 2 carries nothing: a stray [1, 0] where the input deltas
    # belong is a transport error, not a request for more rows
    cp.send(2, pack_fields([1, 0]))
    with pytest.raises(ChannelError, match="unexpected frame type 2"):
        v.input_vec(3)
    assert [f.msg_type for f in cv.transcript if f.direction == "sent"] == \
        [MSG_DEALER_AUTH]


def test_verifier_rejects_short_reveal():
    cp, cv = local_pair()
    cp.send(MSG_REVEAL, pack_fields([1, 2]))  # value and one tag half
    v = Session(VERIFIER, cv, Dealer())
    with pytest.raises(ChannelError, match="wanted 3"):
        v.reveal(v.public(1))


def test_prover_rejects_empty_verdict():
    cp, cv = local_pair()
    cv.send(MSG_VERDICT)  # no verdict word
    p = Session(PROVER, cp)
    with pytest.raises(ChannelError, match="wanted 1"):
        p.reveal(p.public(1))


def test_prover_rejects_short_coin_seed():
    cp, cv = local_pair()
    cv.send(MSG_CHECK_COINS, bytes(8))  # 8 of the 16 seed bytes
    p = Session(PROVER, cp)
    p.assert_zero(p.public(0))
    with pytest.raises(ChannelError, match="coin seed of 8 bytes"):
        p.batch_check()


def test_oversized_header_rejected_before_payload():
    # a header announcing 4 GiB, and no payload: recv must refuse it from
    # the header alone instead of waiting to buffer it
    a, b = local_pair(timeout=5.0)
    a._send_raw(_HEADER.pack(MSG_INPUT_DELTA, 2**32 - 1))
    t0 = time.monotonic()
    with pytest.raises(ChannelError, match="announces 4294967295 bytes"):
        b.recv(16)
    assert time.monotonic() - t0 < 1.0
    # a frame within the limit still arrives whole
    a.send(MSG_INPUT_DELTA, pack_fields([7, 8]))
    assert b.recv(16) == (MSG_INPUT_DELTA, pack_fields([7, 8]))


def test_tcp_channel_sets_nodelay_and_round_trips():
    with socket.socket() as probe:  # a port the kernel reports free
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    accepted = {}
    server = threading.Thread(target=lambda: accepted.update(
        ch=TcpChannel.listen_accept("127.0.0.1", port, timeout=10.0)))
    server.start()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client = TcpChannel.connect("127.0.0.1", port, timeout=1.0)
            break
        except ChannelError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    server.join()
    srv = accepted["ch"]
    try:
        for end in (client, srv):
            assert end._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        values = [0, 1, 2**32, P - 1]
        client.send(MSG_INPUT_DELTA, pack_fields(values))
        assert srv.recv(8 * len(values)) == (MSG_INPUT_DELTA, pack_fields(values))
        srv.send(MSG_INPUT_DELTA, pack_fields(values[::-1]))
        t, payload = client.recv(8 * len(values))
        assert (t, unpack_fields(payload)) == (MSG_INPUT_DELTA, values[::-1])
        assert client.bytes_sent == srv.bytes_received == 5 + 8 * len(values)
    finally:
        client.close()
        srv.close()
