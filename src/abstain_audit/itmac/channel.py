"""Framed message transport shared by the in-process and TCP back ends.

Every frame is {u8 msg_type}{u32 payload length, little-endian}{payload};
payloads are packed 8-byte little-endian field elements (or raw bytes for
the few control frames); recv refuses a frame longer than its caller's
limit.  Each endpoint records the frames it sends and receives so tests
can assert what a party's view actually contained.
"""

import queue
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .field import P

_HEADER = struct.Struct("<BI")

# message types
MSG_HELLO = 1          # public-parameter agreement blob
# 2 is unused, so that the other types keep their numbers
MSG_DEALER_AUTH = 3    # dealer -> prover: (r, tag) pairs for fresh randoms
MSG_DEALER_TRIPLE = 4  # dealer -> prover: multiplication triples
MSG_INPUT_DELTA = 5    # prover -> verifier: masked inputs x - r
MSG_OPEN_MASKED = 6    # prover -> verifier: Beaver openings (masked values)
MSG_CHECK_COINS = 7    # verifier -> prover: seed for combination coins
MSG_CHECK_MAC = 8      # prover -> verifier: combined tag for the batch
MSG_CHECK_OK = 9       # verifier -> prover: batch accepted
MSG_REVEAL = 10        # prover -> verifier: plaintext value + its tag
MSG_VERDICT = 11       # verifier -> prover: revealed-bit echo
MSG_ABORT = 12         # either side: MAC/consistency failure

# what each frame type exposes to the party receiving it
DISCLOSURE = {
    MSG_HELLO: "public",
    MSG_DEALER_AUTH: "dealer-secret",
    MSG_DEALER_TRIPLE: "dealer-secret",
    MSG_INPUT_DELTA: "masked",
    MSG_OPEN_MASKED: "masked",
    MSG_CHECK_COINS: "public",
    MSG_CHECK_MAC: "mac",
    MSG_CHECK_OK: "public",
    MSG_REVEAL: "plaintext-value",
    MSG_VERDICT: "public",
    MSG_ABORT: "public",
}


@dataclass(frozen=True)
class FrameRecord:
    direction: str  # "sent" | "recv"
    msg_type: int
    length: int

    @property
    def disclosure(self) -> str:
        return DISCLOSURE[self.msg_type]


class ChannelError(IOError):
    """Transport failure (distinct from protocol ABORT)."""


def pack_fields(values) -> bytes:
    """A sequence of ints in [0, 2^64) -> 8-byte little-endian words."""
    return struct.pack(f"<{len(values)}Q", *values)


def unpack_fields(payload: bytes) -> list[int]:
    """8-byte little-endian words -> canonical field elements (< p)."""
    if len(payload) % 8:
        raise ChannelError("payload is not a whole number of field elements")
    values = list(struct.unpack(f"<{len(payload) // 8}Q", payload))
    if values and max(values) >= P:
        raise ChannelError("non-canonical field element")
    return values


def unpack_rows(payload: bytes, width: int) -> np.ndarray:
    """A payload of field elements, `width` per row -> a read-only
    (rows, width) uint64 array, decoded in place."""
    if len(payload) % (8 * width):
        raise ChannelError(f"payload is not a whole number of {width}-element rows")
    rows = np.frombuffer(payload, dtype="<u8").reshape(-1, width)
    if (rows >= P).any():
        raise ChannelError("non-canonical field element")
    return rows


class _RecordingChannel:
    def __init__(self):
        self.transcript: list[FrameRecord] = []
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        self.transcript.append(FrameRecord("sent", msg_type, len(payload)))
        self.bytes_sent += _HEADER.size + len(payload)
        self._send_raw(_HEADER.pack(msg_type, len(payload)) + payload)

    def recv(self, limit: int):
        header = self._recv_exact(_HEADER.size)
        msg_type, length = _HEADER.unpack(header)
        if length > limit:
            raise ChannelError(f"frame type {msg_type} announces {length} "
                               f"bytes, over the limit of {limit}")
        payload = self._recv_exact(length)
        self.transcript.append(FrameRecord("recv", msg_type, length))
        self.bytes_received += _HEADER.size + length
        return msg_type, payload


class LocalChannel(_RecordingChannel):
    """One endpoint of an in-process pair; blocking, so the two roles can
    run on separate threads of the same process."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue,
                 timeout: float = 120.0):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self._buf = b""
        self._timeout = timeout

    def _send_raw(self, data: bytes) -> None:
        self._outbox.put(data)

    def _recv_exact(self, n: int) -> bytes:
        while len(self._buf) < n:
            try:
                self._buf += self._inbox.get(timeout=self._timeout)
            except queue.Empty:
                raise ChannelError("peer sent nothing: protocol deadlock") from None
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


def local_pair(timeout: float = 120.0):
    a_to_b, b_to_a = queue.SimpleQueue(), queue.SimpleQueue()
    return (LocalChannel(b_to_a, a_to_b, timeout),
            LocalChannel(a_to_b, b_to_a, timeout))


class TcpChannel(_RecordingChannel):
    """One endpoint of a TCP connection.  Nagle's algorithm is off
    (TCP_NODELAY): the audit is a long exchange of small frames, each
    written with one sendall, and holding one back until the peer ACKs the
    last would stall both roles."""

    def __init__(self, sock: socket.socket):
        super().__init__()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 30.0):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise ChannelError(f"connect to {host}:{port} failed: {e}") from e
        sock.settimeout(600.0)
        return cls(sock)

    @classmethod
    def listen_accept(cls, host: str, port: int, timeout: float = 120.0):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                srv.bind((host, port))
                srv.listen(1)
                srv.settimeout(timeout)
                sock, _ = srv.accept()
            except OSError as e:
                raise ChannelError(f"listen on {host}:{port} failed: {e}") from e
        sock.settimeout(600.0)
        return cls(sock)

    def _send_raw(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as e:
            raise ChannelError(f"send failed: {e}") from e

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(n - got)
            except OSError as e:
                raise ChannelError(f"recv failed: {e}") from e
            if not chunk:
                raise ChannelError("connection closed mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self):
        self._sock.close()
