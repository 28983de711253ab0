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
on preprocessing, which a VOLE-style setup would prevent.  Preprocessing is
pushed, never requested: each role keeps its unconsumed dealer randoms and
triples as uint64 row arrays, both run short at the same op, and both
refill by max(shortfall, _CHUNK) rows.  The verifier's dealer makes the
rows and sends the prover's share; the prover checks the row count.
"""

import random
from operator import mul
from typing import NamedTuple

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


class _Kind(NamedTuple):
    """One kind of preprocessing: its pool attribute on Session, the
    Dealer method that makes it, its frame type, and values per row.  Pool
    and method are held by name, so a wrapper set on the class later (a
    profiler's, say) is the one called."""
    pool: str
    make: str
    msg: int
    m: int


_AUTH = _Kind("_auth_pool", "make_auth", ch.MSG_DEALER_AUTH, 1)
_TRIPLE = _Kind("_triple_pool", "make_triples", ch.MSG_DEALER_TRIPLE, 3)


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
        # unconsumed preprocessing rows: dealer randoms, Beaver triples
        width = 3 if self.prover else 2
        self._auth_pool = np.zeros((0, width * _AUTH.m), np.uint64)
        self._triple_pool = np.zeros((0, width * _TRIPLE.m), np.uint64)
        self._pending = []  # MACs of wires claimed to be zero

    # -- preprocessing -----------------------------------------------------

    def _refill(self, kind: _Kind, n: int) -> np.ndarray:
        """n fresh rows of `kind`: the verifier's dealer makes them and
        sends the prover's share unasked.  Both roles run out at the same
        op with the same shortfall, so each sizes the refill itself."""
        if self.prover:
            t, payload = self.ch.recv()
            self._expect(t, kind.msg)
            rows = ch.unpack_rows(payload, 3 * kind.m)
            if len(rows) != n:
                raise ch.ChannelError("dealer batch size mismatch")
            return rows
        shares, keys = getattr(self.dealer, kind.make)(n)
        self.ch.send(kind.msg, shares.astype("<u8").tobytes())
        return keys

    def _take(self, kind: _Kind, n: int):
        """The next n rows of `kind`, refilling by max(shortfall, _CHUNK)
        when the pool runs short, as columns (values, macs): values[j] is
        the prover's column of value j (None on the verifier), macs[2j] and
        macs[2j+1] its MAC halves."""
        pool = getattr(self, kind.pool)
        short = n - len(pool)
        if short > 0:
            fresh = self._refill(kind, max(short, _CHUNK))
            rows, rest = np.concatenate([pool, fresh[:short]]), fresh[short:]
        else:
            rows, rest = pool[:n], pool[n:]
        setattr(self, kind.pool, rest)
        cols = rows.T.tolist()
        if not self.prover:  # [key_re, key_im] per value
            return None, cols
        # [x, tag_re, tag_im] per value
        return cols[0::3], [c for i, c in enumerate(cols) if i % 3]

    @staticmethod
    def _expect(msg_type: int, wanted: int) -> None:
        if msg_type == ch.MSG_ABORT:
            raise AbortError("peer aborted")
        if msg_type != wanted:
            raise ch.ChannelError(f"unexpected frame type {msg_type}, wanted {wanted}")

    def _recv_fields(self, wanted: int, n: int) -> list[int]:
        """The next frame's field elements; it must be of type `wanted`
        and hold exactly n of them."""
        t, payload = self.ch.recv()
        self._expect(t, wanted)
        values = ch.unpack_fields(payload)
        if len(values) != n:
            raise ch.ChannelError(f"frame type {wanted} holds {len(values)} "
                                  f"field elements, wanted {n}")
        return values

    # -- wires ---------------------------------------------------------------

    def public(self, v: int) -> Wire:
        """A constant both parties know: tag 0, key -Delta*v."""
        return Wire(escale(self._one, v), v if self.prover else None)

    def input_vec(self, xs) -> list[Wire]:
        """Prover feeds hidden values in; verifier passes the expected count.
        Each wire is a dealer random r plus the public delta x - r."""
        n = xs if isinstance(xs, int) else len(xs)
        values, (m0, m1) = self._take(_AUTH, n)
        if self.prover:
            deltas = [(x - r) % P for x, r in zip(xs, values[0])]
            self.ch.send(ch.MSG_INPUT_DELTA, ch.pack_fields(deltas))
        else:
            deltas = self._recv_fields(ch.MSG_INPUT_DELTA, n)
            xs = [None] * n
        one_re, one_im = self._one
        return [Wire(((r0 + d * one_re) % P, (r1 + d * one_im) % P), x)
                for x, r0, r1, d in zip(xs, m0, m1, deltas)]

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
        values, macs = self._take(_TRIPLE, n)
        if self.prover:
            opens = []
            for x, y, a, b in zip(xs, ys, values[0], values[1]):
                opens.append((x.value - a) % P)
                opens.append((y.value - b) % P)
            self.ch.send(ch.MSG_OPEN_MASKED, ch.pack_fields(opens))
        else:
            opens = self._recv_fields(ch.MSG_OPEN_MASKED, 2 * n)
        one_re, one_im = self._one
        out, pending = [], self._pending
        for i, (x, y, a0, a1, b0, b1, c0, c1) in enumerate(zip(xs, ys, *macs)):
            d, e = opens[2 * i], opens[2 * i + 1]
            (x0, x1), (y0, y1) = x.mac, y.mac
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
            return self._recv_fields(ch.MSG_VERDICT, 1)[0]
        x, tre, tim = self._recv_fields(ch.MSG_REVEAL, 3)
        if (tre, tim) != eadd(w.mac, escale(self.delta, x)):
            self.ch.send(ch.MSG_ABORT)
            raise AbortError("reveal MAC mismatch")
        self.ch.send(ch.MSG_VERDICT, ch.pack_fields([x]))
        return x
