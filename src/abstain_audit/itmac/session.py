"""Authenticated wires: dealer, linear ops, Beaver multiplication, and the
deferred batch MAC check.

A session binds one prover and one verifier running the *same* deterministic
op sequence in lockstep, talking only through the channel.  A wire is one
row of three residues mod p: [x, M_re, M_im] on the prover, [0, K_re, K_im]
on the verifier, with the tag M = K + Delta*x in F_{p^2} and Delta known
only to the verifier.  Prover row - verifier row = x*(1, Delta) for every
wire, and every op is linear in the rows, so each op has one code path over
the three columns; the only difference is the row of the public constant 1
(`Session._one`): [1, 0, 0] on the prover, [0, -Delta] on the verifier.
Multiplication consumes a dealer triple and opens masked differences; all
correctness claims are deferred to batch_check, which verifies one random
linear combination per batch (soundness error ~ 1/p^2).

The dealer is co-located with the verifier and keyed from os.urandom, so
the prover cannot rebuild Delta, the keys or the coins (soundness needs
that); the verifier, owning it, could unmask committed values.
Preprocessing is pushed, never requested: each role keeps its unconsumed
dealer randoms and triples as uint64 row arrays, both run short at the
same op, and both refill by max(shortfall, _CHUNK) rows.  The verifier's
dealer makes the rows and sends the prover's share; the prover checks the
row count.
"""

import hashlib
import os
from typing import NamedTuple

import numpy as np

from . import channel as ch
from .field import P, eadd, escale

PROVER = "prover"
VERIFIER = "verifier"

_CHUNK = 8192  # preprocessing batch size
_COIN_SEED = 16  # bytes of a batch check's coin seed


class AbortError(RuntimeError):
    """MAC or consistency check failed: the run ends with no verdict."""


def _expand(seed: bytes, n: int) -> np.ndarray:
    """n residues mod p as uint64 from SHAKE-256(seed): 8-byte words
    shifted right by 3, the one word equal to p folded to 0."""
    w = np.frombuffer(hashlib.shake_256(seed).digest(8 * n), "<u8") >> 3
    return np.where(w == P, 0, w)


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
    """Authenticated randoms, Beaver triples and coin seeds, each draw
    expanded from key || draw counter; the key is 32 OS bytes unless a test
    passes one.  Randoms and triples come as uint64 row arrays: the
    prover's rows hold [x, tag_re, tag_im] per value, the verifier's
    [0, key_re, key_im]."""

    def __init__(self, key: bytes | None = None):
        self._key = os.urandom(32) if key is None else key
        self._draws = 0
        self.delta = tuple(_expand(self._next_seed(), 2).tolist())

    def _next_seed(self) -> bytes:
        self._draws += 1
        return self._key + self._draws.to_bytes(8, "little")

    def coin_seed(self) -> bytes:
        return hashlib.shake_256(self._next_seed()).digest(_COIN_SEED)

    def _authenticate(self, x: np.ndarray, keys: np.ndarray):
        """x (n, m) values, keys (n, m, 2) -> prover rows [x, tag] and
        verifier rows [0, key], each (n, 3m), with tags k + Delta*x."""
        tags = _reduce(keys + _mul_mod(x[..., None],
                                       np.array(self.delta, np.uint64)))
        n = len(x)
        return (np.concatenate([x[..., None], tags], axis=2).reshape(n, -1),
                np.pad(keys, [(0, 0), (0, 0), (1, 0)]).reshape(n, -1))

    def make_auth(self, n: int):
        # per item the draw holds r, then its key
        s = _expand(self._next_seed(), 3 * n).reshape(n, 3)
        return self._authenticate(s[:, :1], s[:, 1:].reshape(n, 1, 2))

    def make_triples(self, n: int):
        # per triple the draw holds a, b, then the keys of a, b and c
        s = _expand(self._next_seed(), 8 * n).reshape(n, 8)
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
        # the row of the public constant 1
        self._one = (1, 0, 0) if self.prover else (0, *escale(self.delta, -1))
        # unconsumed preprocessing rows: dealer randoms, Beaver triples
        self._auth_pool = np.zeros((0, 3 * _AUTH.m), np.uint64)
        self._triple_pool = np.zeros((0, 3 * _TRIPLE.m), np.uint64)
        self._pending = []  # MACs of wires claimed to be zero

    # -- preprocessing -----------------------------------------------------

    def _refill(self, kind: _Kind, n: int) -> np.ndarray:
        """n fresh rows of `kind`: the verifier's dealer makes them and
        sends the prover's share unasked.  Both roles run out at the same
        op with the same shortfall, so each sizes the refill itself."""
        if self.prover:
            t, payload = self.ch.recv(8 * 3 * kind.m * n)
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
        when the pool runs short; columns 3j..3j+2 of a row are the wire of
        its value j."""
        pool = getattr(self, kind.pool)
        short = n - len(pool)
        if short > 0:
            fresh = self._refill(kind, max(short, _CHUNK))
            rows, rest = np.concatenate([pool, fresh[:short]]), fresh[short:]
        else:
            rows, rest = pool[:n], pool[n:]
        setattr(self, kind.pool, rest)
        return rows.tolist()

    @staticmethod
    def _expect(msg_type: int, wanted: int) -> None:
        if msg_type == ch.MSG_ABORT:
            raise AbortError("peer aborted")
        if msg_type != wanted:
            raise ch.ChannelError(f"unexpected frame type {msg_type}, wanted {wanted}")

    def _recv_fields(self, wanted: int, n: int) -> list[int]:
        """The next frame's field elements; it must be of type `wanted`
        and hold exactly n of them."""
        t, payload = self.ch.recv(8 * n)
        self._expect(t, wanted)
        values = ch.unpack_fields(payload)
        if len(values) != n:
            raise ch.ChannelError(f"frame type {wanted} holds {len(values)} "
                                  f"field elements, wanted {n}")
        return values

    # -- wires ---------------------------------------------------------------

    def public(self, v: int):
        """A constant both parties know: v times the row of 1."""
        o0, o1, o2 = self._one
        return (o0 * v % P, o1 * v % P, o2 * v % P)

    def input_vec(self, xs):
        """Prover feeds hidden values in; verifier passes the expected count.
        Each wire is a dealer random r plus the public delta x - r."""
        n = xs if isinstance(xs, int) else len(xs)
        rows = self._take(_AUTH, n)
        if self.prover:
            deltas = [(x - r[0]) % P for x, r in zip(xs, rows)]
            self.ch.send(ch.MSG_INPUT_DELTA, ch.pack_fields(deltas))
        else:
            deltas = self._recv_fields(ch.MSG_INPUT_DELTA, n)
        o0, o1, o2 = self._one
        return [((r0 + d * o0) % P, (r1 + d * o1) % P, (r2 + d * o2) % P)
                for (r0, r1, r2), d in zip(rows, deltas)]

    def lin_combine(self, coeffs, wires, const: int = 0):
        """const + sum(c * w) for public (signed) coefficients."""
        if len(coeffs) != len(wires):
            raise ValueError("coeffs and wires must have equal length")
        # accumulate unreduced and reduce once
        o0, o1, o2 = self._one
        s0, s1, s2 = o0 * const, o1 * const, o2 * const
        for c, (w0, w1, w2) in zip(coeffs, wires):
            s0 += c * w0
            s1 += c * w1
            s2 += c * w2
        return (s0 % P, s1 % P, s2 % P)

    def add(self, x, y):
        return self.lin_combine([1, 1], [x, y])

    def sub(self, x, y):
        return self.lin_combine([1, -1], [x, y])

    def multiply_vec(self, xs, ys):
        """Beaver multiplication, one opening frame for the whole batch."""
        n = len(xs)
        if len(ys) != n:
            raise ValueError("batch length mismatch")
        rows = self._take(_TRIPLE, n)
        if self.prover:
            opens = []
            for x, y, t in zip(xs, ys, rows):
                opens.append((x[0] - t[0]) % P)
                opens.append((y[0] - t[3]) % P)
            self.ch.send(ch.MSG_OPEN_MASKED, ch.pack_fields(opens))
        else:
            opens = self._recv_fields(ch.MSG_OPEN_MASKED, 2 * n)
        o0, o1, o2 = self._one
        out, pending = [], self._pending
        for x, y, (a0, a1, a2, b0, b1, b2, c0, c1, c2), d, e in zip(
                xs, ys, rows, opens[0::2], opens[1::2]):
            de = d * e % P
            # z = c + d*b + e*a + d*e
            out.append(((c0 + d * b0 + e * a0 + de * o0) % P,
                        (c1 + d * b1 + e * a1 + de * o1) % P,
                        (c2 + d * b2 + e * a2 + de * o2) % P))
            # claims (MACs, unreduced): the openings really were x-a and y-b
            pending.append((x[1] - a1 - d * o1, x[2] - a2 - d * o2))
            pending.append((y[1] - b1 - e * o1, y[2] - b2 - e * o2))
        return out

    def multiply(self, x, y):
        return self.multiply_vec([x], [y])[0]

    # -- verification --------------------------------------------------------

    def assert_zero(self, w) -> None:
        self._pending.append(w[1:])

    def batch_check(self) -> bool:
        """Check all pending zero claims with one random combination."""
        if not self._pending:
            return True
        pending, self._pending = self._pending, []
        if self.prover:
            t, seed = self.ch.recv(_COIN_SEED)
            self._expect(t, ch.MSG_CHECK_COINS)
            if len(seed) != _COIN_SEED:
                raise ch.ChannelError(f"coin seed of {len(seed)} bytes, "
                                      f"wanted {_COIN_SEED}")
        else:
            seed = self.dealer.coin_seed()
            self.ch.send(ch.MSG_CHECK_COINS, seed)
        # acc = sum(coin_j * mac_j) in F_{p^2}; accumulated unreduced and
        # reduced once
        coins = _expand(seed, 2 * len(pending)).tolist()
        re = im = 0
        for j, (m_re, m_im) in enumerate(pending):
            c_re, c_im = coins[2 * j], coins[2 * j + 1]
            re += c_re * m_re - c_im * m_im
            im += c_re * m_im + c_im * m_re
        acc = (re % P, im % P)
        if self.prover:
            self.ch.send(ch.MSG_CHECK_MAC, ch.pack_fields(acc))
            t, _ = self.ch.recv(0)
            self._expect(t, ch.MSG_CHECK_OK)
            return True
        if tuple(self._recv_fields(ch.MSG_CHECK_MAC, 2)) != acc:
            self.ch.send(ch.MSG_ABORT)
            raise AbortError("batch MAC mismatch")
        self.ch.send(ch.MSG_CHECK_OK)
        return True

    def reveal(self, w) -> int:
        """Immediate MAC-checked opening; the one place plaintext crosses."""
        if self.prover:
            self.ch.send(ch.MSG_REVEAL, ch.pack_fields(w))
            return self._recv_fields(ch.MSG_VERDICT, 1)[0]
        x, tre, tim = self._recv_fields(ch.MSG_REVEAL, 3)
        if (tre, tim) != eadd(w[1:], escale(self.delta, x)):
            self.ch.send(ch.MSG_ABORT)
            raise AbortError("reveal MAC mismatch")
        self.ch.send(ch.MSG_VERDICT, ch.pack_fields([x]))
        return x
