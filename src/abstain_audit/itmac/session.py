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


def _residue_array(rng, n: int) -> np.ndarray:
    """n uniform residues mod p as uint64, the same stream as n calls of
    rand_field(rng) made in one go.  Each call is getrandbits(61): two
    consecutive 32-bit generator words w0, w1 give w0 | (w1 >> 3) << 32,
    redrawn from the next two words while >= p."""
    parts, got = [np.zeros(0, np.uint64)], 0
    while got < n:
        m = n - got
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"),
                          dtype="<u4").astype(np.uint64)
        cand = w[0::2] | ((w[1::2] >> 3) << 32)
        parts.append(cand[cand < P])
        got += len(parts[-1])
    return np.concatenate(parts)


def _residues(rng, n: int) -> list[int]:
    """_residue_array as Python ints."""
    return _residue_array(rng, n).tolist()


def _reduce(x: np.ndarray) -> np.ndarray:
    """x mod p for uint64 x, folding with 2^61 = 1 (mod p)."""
    x = (x & P) + (x >> 61)
    return np.where(x >= P, x - P, x)


def _mul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod p for uint64 residues a, b < p, from 32-bit halves: with
    a = a1*2^32 + a0, a*b = a1*b1*2^64 + (a1*b0 + a0*b1)*2^32 + a0*b0, and
    2^64 = 8, 2^61 = 1 (mod p).  Every partial sum stays below 2^63."""
    a0, a1 = a & 0xFFFFFFFF, a >> 32
    b0, b1 = b & 0xFFFFFFFF, b >> 32
    mid = a1 * b0 + a0 * b1                  # < 2^62
    lo = a0 * b0                             # < 2^64
    x = (a1 * b1) << 3                       # 8 * a1*b1 < 2^61
    x += (mid >> 29) + ((mid & 0x1FFFFFFF) << 32)  # mid * 2^32
    x += (lo & P) + (lo >> 61)
    return _reduce(x)


class Dealer:
    """Seeded source of authenticated randoms and Beaver triples.  Both
    come as uint64 row arrays: the prover's rows hold [x, tag_re, tag_im]
    per value, the verifier's [key_re, key_im]."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"dealer:{seed}")
        self.delta = rand_ext(self.rng)

    def _authenticate(self, x: np.ndarray, keys: np.ndarray):
        """x (n, m) values, keys (n, m, 2) -> prover rows (n, 3m) and key
        rows (n, 2m), with tags k + Delta*x."""
        tags = _reduce(keys + _mul_mod(x[..., None],
                                       np.array(self.delta, np.uint64)))
        n = len(x)
        return (np.concatenate([x[..., None], tags], axis=2).reshape(n, -1),
                keys.reshape(n, -1))

    def make_auth(self, n: int):
        # per item the stream holds r, then its key
        s = _residue_array(self.rng, 3 * n).reshape(n, 3)
        return self._authenticate(s[:, :1], s[:, 1:].reshape(n, 1, 2))

    def make_triples(self, n: int):
        # per triple the stream holds a, b, then the keys of a, b and c
        s = _residue_array(self.rng, 8 * n).reshape(n, 8)
        a, b = s[:, 0], s[:, 1]
        x = np.stack([a, b, _mul_mod(a, b)], axis=1)
        return self._authenticate(x, s[:, 2:].reshape(n, 3, 2))


class _Pool:
    """Unconsumed preprocessing rows, kept in the arrays they arrived in;
    len() is the number of rows not yet taken."""

    def __init__(self):
        self._blocks = deque()
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def extend(self, rows: np.ndarray) -> None:
        self._blocks.append(rows)
        self._len += len(rows)

    def take(self, n: int) -> list[np.ndarray]:
        """The next n rows (n <= len(self)), as row blocks in order."""
        out = []
        while n:
            block = self._blocks[0]
            out.append(block[:n])
            if n >= len(block):
                self._blocks.popleft()
            else:
                self._blocks[0] = block[n:]
            n -= len(out[-1])
            self._len -= len(out[-1])
        return out


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
        self._auth_pool = _Pool()    # dealer randoms, one per row
        self._triple_pool = _Pool()  # Beaver triples, one per row
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
                self._auth_pool.extend(
                    self._recv_dealer(ch.MSG_DEALER_AUTH, n_auth, 3))
            if n_triple:
                self._triple_pool.extend(
                    self._recv_dealer(ch.MSG_DEALER_TRIPLE, n_triple, 9))
        else:
            t, payload = self.ch.recv()
            self._expect(t, ch.MSG_NEED_DEALER)
            n_auth, n_triple = ch.unpack_fields(payload)
            if n_auth:
                rows, keys = self.dealer.make_auth(n_auth)
                self.ch.send(ch.MSG_DEALER_AUTH, rows.astype("<u8").tobytes())
                self._auth_pool.extend(keys)
            if n_triple:
                rows, keys = self.dealer.make_triples(n_triple)
                self.ch.send(ch.MSG_DEALER_TRIPLE, rows.astype("<u8").tobytes())
                self._triple_pool.extend(keys)

    def _recv_dealer(self, wanted: int, n: int, width: int) -> np.ndarray:
        """Prover side: one dealer frame of n rows -> a uint64 array; rows
        become Wires only when taken."""
        t, payload = self.ch.recv()
        self._expect(t, wanted)
        rows = ch.unpack_rows(payload, width)
        if len(rows) != n:
            raise ch.ChannelError("dealer batch size mismatch")
        return rows

    def _wires(self, blocks, m: int) -> list[list[Wire]]:
        """Preprocessing rows of m values each -> m lists of Wires."""
        out = [[] for _ in range(m)]
        for rows in blocks:
            c = rows.T.tolist()
            for j, wires in enumerate(out):
                if self.prover:  # [x, tag_re, tag_im] per value
                    wires += map(Wire, zip(c[3 * j + 1], c[3 * j + 2]), c[3 * j])
                else:  # [key_re, key_im] per value
                    wires += map(Wire, zip(c[2 * j], c[2 * j + 1]))
        return out

    def _take_auth(self, n: int) -> list[Wire]:
        if len(self._auth_pool) < n:
            self._refill(n - len(self._auth_pool), 0)
        return self._wires(self._auth_pool.take(n), 1)[0]

    def _take_triples(self, n: int):
        if len(self._triple_pool) < n:
            self._refill(0, n - len(self._triple_pool))
        return list(zip(*self._wires(self._triple_pool.take(n), 3)))

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
