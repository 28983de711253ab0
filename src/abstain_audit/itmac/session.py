"""Authenticated wires: dealer, linear ops, Beaver multiplication, and the
deferred batch MAC check.

A session binds one prover and one verifier running the *same* deterministic
op sequence in lockstep, talking only through the channel.  Every wire
carries a MAC: the prover holds the tag M_x, the verifier the key K_x and
the global Delta, with M_x = K_x + Delta*x in F_{p^2}.  Tag and key follow
the same linear law, so each op has one code path over `Wire.mac`; the only
difference is the MAC of the public constant 1 (`Session._one`): 0 on the
prover, -Delta on the verifier.  The prover's `Wire.value` is the exact
signed integer, reduced mod p only where it crosses the channel (input
deltas, Beaver openings, reveal).  Multiplication consumes a dealer triple
and opens masked differences; all correctness claims are deferred to
batch_check, which verifies one random linear combination per batch
(soundness error ~ 1/p^2).

The dealer is co-located with the verifier and seeds all preprocessing --
a deliberate trust simplification: a corrupt verifier here could equivocate
on preprocessing, which a VOLE-style setup would prevent.
"""

import random
from collections import deque
from operator import mul

import numpy as np

from . import channel as ch
from .field import P, EXT_ZERO, eadd, escale, rand_ext

PROVER = "prover"
VERIFIER = "verifier"

_CHUNK = 8192  # preprocessing batch size


class AbortError(RuntimeError):
    """MAC or consistency check failed: the run ends with no verdict."""


class Wire:
    """One authenticated wire: `mac` is the prover's tag or the verifier's
    key; `value` is the prover's exact signed value, None on the verifier."""

    __slots__ = ("mac", "value")

    def __init__(self, mac, value=None):
        self.mac = mac
        self.value = value


def _residues(rng, n: int) -> list[int]:
    """n uniform residues mod p, the same stream as n calls of
    rand_field(rng) made in one go.  Each call is getrandbits(61): two
    consecutive 32-bit generator words w0, w1 give w0 | (w1 >> 3) << 32,
    redrawn from the next two words while >= p."""
    out = []
    while len(out) < n:
        m = n - len(out)
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"),
                          dtype="<u4").astype(np.uint64)
        cand = w[0::2] | ((w[1::2] >> np.uint64(3)) << np.uint64(32))
        out += cand[cand < P].tolist()
    return out


class Dealer:
    """Seeded source of authenticated randoms and Beaver triples."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"dealer:{seed}")
        self.delta = rand_ext(self.rng)

    def _auth(self, xs, keys_re, keys_im):
        """(x, tag) pairs and keys for values xs under the given keys."""
        d_re, d_im = self.delta
        keys = list(zip(keys_re, keys_im))
        tags = [((k_re + d_re * x) % P, (k_im + d_im * x) % P)
                for x, (k_re, k_im) in zip(xs, keys)]
        return list(zip(xs, tags)), keys

    def make_auth(self, n: int):
        # per item the stream holds r, then its key
        s = _residues(self.rng, 3 * n)
        return self._auth(s[0::3], s[1::3], s[2::3])

    def make_triples(self, n: int):
        # per triple the stream holds a, b, then the keys of a, b and c
        s = _residues(self.rng, 8 * n)
        a, b = s[0::8], s[1::8]
        pa, ka = self._auth(a, s[2::8], s[3::8])
        pb, kb = self._auth(b, s[4::8], s[5::8])
        pc, kc = self._auth([x * y % P for x, y in zip(a, b)], s[6::8], s[7::8])
        return list(zip(pa, pb, pc)), list(zip(ka, kb, kc))


class Session:
    def __init__(self, role: str, channel, dealer: Dealer | None = None):
        if role not in (PROVER, VERIFIER):
            raise ValueError(f"unknown role {role!r}")
        if (dealer is not None) != (role == VERIFIER):
            raise ValueError("exactly the verifier carries the dealer")
        self.role = role
        self.prover = role == PROVER
        self.ch = channel
        self.dealer = dealer
        self.delta = dealer.delta if dealer else None
        self._one = EXT_ZERO if self.prover else escale(self.delta, -1)
        self._auth_pool = deque()    # Wires of dealer randoms
        self._triple_pool = deque()  # (a, b, c) Wire triples
        self._pending = []  # MACs of wires claimed to be zero
        self.n_multiplies = 0

    # -- preprocessing -----------------------------------------------------

    def _refill(self, n_auth: int, n_triple: int) -> None:
        """Fetch at least _CHUNK of each kind asked for; a request of 0
        fetches none of that kind."""
        n_auth, n_triple = (n and max(n, _CHUNK) for n in (n_auth, n_triple))
        if self.prover:
            self.ch.send(ch.MSG_NEED_DEALER, ch.pack_fields([n_auth, n_triple]))
            if n_auth:
                self._auth_pool.extend(self._recv_dealer(ch.MSG_DEALER_AUTH))
            if n_triple:
                w = self._recv_dealer(ch.MSG_DEALER_TRIPLE)
                self._triple_pool.extend(zip(w[0::3], w[1::3], w[2::3]))
        else:
            t, payload = self.ch.recv()
            self._expect(t, ch.MSG_NEED_DEALER)
            n_auth, n_triple = ch.unpack_fields(payload)
            if n_auth:
                prover_part, keys = self.dealer.make_auth(n_auth)
                flat = []
                for r, tag in prover_part:
                    flat += [r, tag[0], tag[1]]
                self.ch.send(ch.MSG_DEALER_AUTH, ch.pack_fields(flat))
                self._auth_pool.extend(Wire(k) for k in keys)
            if n_triple:
                prover_part, keys = self.dealer.make_triples(n_triple)
                flat = []
                for trip in prover_part:
                    for r, tag in trip:
                        flat += [r, tag[0], tag[1]]
                self.ch.send(ch.MSG_DEALER_TRIPLE, ch.pack_fields(flat))
                self._triple_pool.extend((Wire(ka), Wire(kb), Wire(kc))
                                         for ka, kb, kc in keys)

    def _recv_dealer(self, wanted: int) -> list[Wire]:
        """Prover side: one dealer frame of (r, tag) -> wires of value r."""
        t, payload = self.ch.recv()
        self._expect(t, wanted)
        flat = ch.unpack_fields(payload)
        return [Wire((flat[i + 1], flat[i + 2]), flat[i])
                for i in range(0, len(flat), 3)]

    def _take_auth(self, n: int):
        if len(self._auth_pool) < n:
            self._refill(n - len(self._auth_pool), 0)
        return [self._auth_pool.popleft() for _ in range(n)]

    def _take_triples(self, n: int):
        if len(self._triple_pool) < n:
            self._refill(0, n - len(self._triple_pool))
        return [self._triple_pool.popleft() for _ in range(n)]

    @staticmethod
    def _expect(msg_type: int, wanted: int) -> None:
        if msg_type == ch.MSG_ABORT:
            raise AbortError("peer aborted")
        if msg_type != wanted:
            raise ch.ChannelError(f"unexpected frame type {msg_type}, wanted {wanted}")

    # -- wires ---------------------------------------------------------------

    def public(self, v: int) -> Wire:
        """A constant both parties know: tag 0, key -Delta*v."""
        return Wire(escale(self._one, v), v if self.prover else None)

    def input_vec(self, xs) -> list[Wire]:
        """Prover feeds hidden values in; verifier passes the expected count.
        Each wire is a dealer random r plus the public delta x - r."""
        n = xs if isinstance(xs, int) else len(xs)
        randoms = self._take_auth(n)
        if self.prover:
            deltas = [(x - r.value) % P for x, r in zip(xs, randoms)]
            self.ch.send(ch.MSG_INPUT_DELTA, ch.pack_fields(deltas))
        else:
            t, payload = self.ch.recv()
            self._expect(t, ch.MSG_INPUT_DELTA)
            deltas = ch.unpack_fields(payload)
            if len(deltas) != n:
                raise ch.ChannelError("input batch size mismatch")
            xs = [None] * n
        one = self._one
        return [Wire(eadd(r.mac, escale(one, d)), x)
                for x, r, d in zip(xs, randoms, deltas)]

    def lin_combine(self, coeffs, wires, const: int = 0) -> Wire:
        """const + sum(c * w) for public (signed) coefficients."""
        if len(coeffs) != len(wires):
            raise ValueError("coeffs and wires must have equal length")
        # accumulate the MAC unreduced and reduce once
        re, im = self._one[0] * const, self._one[1] * const
        for c, w in zip(coeffs, wires):
            m = w.mac
            re += c * m[0]
            im += c * m[1]
        value = None
        if self.prover:
            value = const + sum(map(mul, coeffs, [w.value for w in wires]))
        return Wire((re % P, im % P), value)

    def add(self, x: Wire, y: Wire) -> Wire:
        return self.lin_combine([1, 1], [x, y])

    def sub(self, x: Wire, y: Wire) -> Wire:
        return self.lin_combine([1, -1], [x, y])

    def multiply_vec(self, xs, ys) -> list[Wire]:
        """Beaver multiplication, one opening frame for the whole batch."""
        n = len(xs)
        if len(ys) != n:
            raise ValueError("batch length mismatch")
        triples = self._take_triples(n)
        self.n_multiplies += n
        if self.prover:
            opens = []
            for x, y, (a, b, _) in zip(xs, ys, triples):
                opens.append((x.value - a.value) % P)
                opens.append((y.value - b.value) % P)
            self.ch.send(ch.MSG_OPEN_MASKED, ch.pack_fields(opens))
        else:
            t, payload = self.ch.recv()
            self._expect(t, ch.MSG_OPEN_MASKED)
            opens = ch.unpack_fields(payload)
            if len(opens) != 2 * n:
                raise ch.ChannelError("opening batch size mismatch")
        one_re, one_im = self._one
        out, pending = [], self._pending
        for i, (x, y, (a, b, c)) in enumerate(zip(xs, ys, triples)):
            d, e = opens[2 * i], opens[2 * i + 1]
            (x0, x1), (y0, y1) = x.mac, y.mac
            (a0, a1), (b0, b1), (c0, c1) = a.mac, b.mac, c.mac
            de = d * e % P
            # z = c + d*b + e*a + d*e
            mac = ((c0 + d * b0 + e * a0 + de * one_re) % P,
                   (c1 + d * b1 + e * a1 + de * one_im) % P)
            out.append(Wire(mac, x.value * y.value if self.prover else None))
            # claims (MACs, unreduced): the openings really were x-a and y-b
            pending.append((x0 - a0 - d * one_re, x1 - a1 - d * one_im))
            pending.append((y0 - b0 - e * one_re, y1 - b1 - e * one_im))
        return out

    def multiply(self, x: Wire, y: Wire) -> Wire:
        return self.multiply_vec([x], [y])[0]

    # -- verification --------------------------------------------------------

    def assert_zero(self, w: Wire) -> None:
        self._pending.append(w.mac)

    def batch_check(self) -> bool:
        """Check all pending zero claims with one random combination."""
        if not self._pending:
            return True
        pending, self._pending = self._pending, []
        if self.prover:
            t, payload = self.ch.recv()
            self._expect(t, ch.MSG_CHECK_COINS)
            seed = int.from_bytes(payload, "little")
        else:
            seed = self.dealer.rng.getrandbits(64)
            self.ch.send(ch.MSG_CHECK_COINS, seed.to_bytes(8, "little"))
        # acc = sum(coin_j * mac_j) in F_{p^2}, coins drawn as rand_ext;
        # accumulated unreduced and reduced once
        coins = _residues(random.Random(seed), 2 * len(pending))
        re = im = 0
        for j, (m_re, m_im) in enumerate(pending):
            c_re, c_im = coins[2 * j], coins[2 * j + 1]
            re += c_re * m_re - c_im * m_im
            im += c_re * m_im + c_im * m_re
        acc = (re % P, im % P)
        if self.prover:
            self.ch.send(ch.MSG_CHECK_MAC, ch.pack_fields(acc))
            t, _ = self.ch.recv()
            if t == ch.MSG_ABORT:
                raise AbortError("verifier rejected the batch MAC")
            self._expect(t, ch.MSG_CHECK_OK)
            return True
        t, payload = self.ch.recv()
        self._expect(t, ch.MSG_CHECK_MAC)
        if tuple(ch.unpack_fields(payload)) != acc:
            self.ch.send(ch.MSG_ABORT)
            raise AbortError("batch MAC mismatch")
        self.ch.send(ch.MSG_CHECK_OK)
        return True

    def reveal(self, w: Wire) -> int:
        """Immediate MAC-checked opening; the one place plaintext crosses."""
        if self.prover:
            self.ch.send(ch.MSG_REVEAL,
                         ch.pack_fields([w.value % P, w.mac[0], w.mac[1]]))
            t, payload = self.ch.recv()
            if t == ch.MSG_ABORT:
                raise AbortError("verifier rejected the reveal")
            self._expect(t, ch.MSG_VERDICT)
            return ch.unpack_fields(payload)[0]
        t, payload = self.ch.recv()
        self._expect(t, ch.MSG_REVEAL)
        x, tre, tim = ch.unpack_fields(payload)
        if (tre, tim) != eadd(w.mac, escale(self.delta, x)):
            self.ch.send(ch.MSG_ABORT)
            raise AbortError("reveal MAC mismatch")
        self.ch.send(ch.MSG_VERDICT, ch.pack_fields([x]))
        return x
