"""Information-theoretic MAC layer: field arithmetic, framed transport,
and authenticated two-party sessions with a co-located dealer."""

from .channel import (ChannelError, FrameRecord, LocalChannel, TcpChannel,
                      local_pair)
from .field import P
from .session import PROVER, VERIFIER, AbortError, Dealer, Session

__all__ = [
    "P", "AbortError", "ChannelError", "Dealer", "FrameRecord", "LocalChannel",
    "PROVER", "Session", "TcpChannel", "VERIFIER", "local_pair",
]
