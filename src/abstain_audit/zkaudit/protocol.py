"""Two-party audit protocol: commit the quantized model, prove the
per-point inference + binning, check every bin, reveal one bit.

Both roles execute the same deterministic circuit; the only plaintext the
verifier ever receives is the final pass flag (checked structurally in the
tests via the channel transcript).  The prover's wire values follow the
fixedpoint reference pipeline, so on honest runs the revealed verdict
equals fx_audit exactly; a prover that deviates trips a MAC/consistency
claim and the run ends in AbortError.
"""

import hashlib
import json
import threading
import time
from dataclasses import dataclass

from ..calibration import AuditConfig
from ..itmac import channel as ch
from ..itmac.session import PROVER, VERIFIER, AbortError, Dealer, Session
from .circuit import Circuit, ZkArray, zk_bin_check, zk_bin_update
from .fixedpoint import (FixedPointParams, QuantizedModel, alpha_to_fixed,
                         quantize_vec)


@dataclass
class AuditResult:
    verdict: bool | None      # None when aborted
    aborted: bool
    n_points: int
    runtime_sec: float
    sec_per_point: float
    bytes_per_point: float


def _ref_digest(X_int, y) -> int:
    h = hashlib.sha256()
    for row, label in zip(X_int, y):
        h.update(ch.pack_fields([v % (1 << 64) for v in row]))
        h.update(int(label).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little")


def _hello_blob(dims, n_points, cfg: AuditConfig, fp: FixedPointParams,
                digest: int) -> bytes:
    return json.dumps({
        "dims": list(dims), "n": n_points, "bins": cfg.bins,
        "alpha_fx": alpha_to_fixed(cfg.alpha, fp), "f": fp.f, "ell": fp.ell,
        "table_bits": fp.table_bits, "ref": digest,
    }, sort_keys=True).encode()


def run_audit(role: str, channel, qm: QuantizedModel | None, ref,
              cfg: AuditConfig, fp: FixedPointParams,
              dealer_seed: int = 0) -> AuditResult:
    """Execute one audit session end to end on this role.

    `ref` is (X, y) with float rows, required on both roles.  The prover
    supplies `qm`; the verifier passes None and takes the public layer dims
    from the hello blob (the architecture is public, the weights are not).
    """
    prover = role == PROVER
    sess = Session(role, channel, None if prover else Dealer(dealer_seed))
    start = time.perf_counter()

    X_int = [quantize_vec(row, fp) for row in ref[0]]
    y = [int(v) for v in ref[1]]
    n_points = len(X_int)
    digest = _ref_digest(X_int, y)
    if prover:
        dims = qm.layer_dims
        blob = _hello_blob(dims, n_points, cfg, fp, digest)
        channel.send(ch.MSG_HELLO, blob)
        t, peer = channel.recv()
        Session._expect(t, ch.MSG_HELLO)
        if peer != blob:
            raise ch.ChannelError("public-parameter mismatch")
    else:
        t, blob = channel.recv()
        Session._expect(t, ch.MSG_HELLO)
        dims = json.loads(blob)["dims"]
        if _hello_blob(dims, n_points, cfg, fp, digest) != blob:
            raise ch.ChannelError("public-parameter mismatch")
        channel.send(ch.MSG_HELLO, blob)
    if any(len(row) != dims[0] for row in X_int):
        raise ValueError(f"reference rows must have {dims[0]} features, "
                         "as the model's input layer")

    circ = Circuit(sess, fp)
    table = fp.exp_table()

    # model commitment: every weight and bias becomes a hidden wire
    w_wires = []
    for li in range(len(dims) - 1):
        n_out, n_in = dims[li + 1], dims[li]
        if prover:
            W, b = qm.layers[li]
            rows = [circ.witness_vec(list(row)) for row in W]
            biases = circ.witness_vec(list(b))
        else:
            rows = [circ.witness_vec(n_in) for _ in range(n_out)]
            biases = circ.witness_vec(n_out)
        w_wires.append((rows, biases))
    sess.batch_check()

    bins = (ZkArray(circ, cfg.bins), ZkArray(circ, cfg.bins),
            ZkArray(circ, cfg.bins))
    alpha_fx = alpha_to_fixed(cfg.alpha, fp)

    for x_i, y_i in zip(X_int, y):
        h = None
        for li, (rows, biases) in enumerate(w_wires):
            final = li == len(w_wires) - 1
            h = circ.layer(rows, biases, h, x_public=x_i if li == 0 else None,
                           final=final)
        p_hat, y_hat = circ.confidence(h, table)
        eq = circ.equals(circ.public(y_i), y_hat)
        zk_bin_update(circ, bins, circ.bin_index(p_hat, cfg.bins), p_hat, eq)
        sess.batch_check()

    f_pass = zk_bin_check(circ, bins, alpha_fx, n_points)
    sess.batch_check()
    bit = sess.reveal(f_pass)
    if bit not in (0, 1):
        raise AbortError("verdict wire is not a bit")

    elapsed = time.perf_counter() - start
    per_pt_bytes = (channel.bytes_sent + channel.bytes_received) / max(n_points, 1)
    return AuditResult(verdict=bool(bit), aborted=False, n_points=n_points,
                       runtime_sec=elapsed, sec_per_point=elapsed / max(n_points, 1),
                       bytes_per_point=per_pt_bytes)


def run_local_audit(qm: QuantizedModel, ref, cfg: AuditConfig,
                    fp: FixedPointParams, dealer_seed: int = 0):
    """Run both roles on in-process channels; returns (prover_result,
    verifier_result, verifier_channel) with AbortError and ChannelError
    mapped to an aborted AuditResult.  Any other error of a role is raised
    here once both roles have ended."""
    cp, cv = ch.local_pair()
    out = {}

    def wrap(role, channel, model):
        try:
            out[role] = run_audit(role, channel, model, ref, cfg, fp,
                                  dealer_seed=dealer_seed)
        except (AbortError, ch.ChannelError):
            # a peer that aborts mid-protocol looks like a dead channel too
            out[role] = AuditResult(None, True, 0, 0.0, 0.0, 0.0)
        except Exception as exc:
            channel.send(ch.MSG_ABORT)  # so the peer stops waiting
            out[role] = exc

    tp = threading.Thread(target=wrap, args=(PROVER, cp, qm))
    tv = threading.Thread(target=wrap, args=(VERIFIER, cv, None))
    tp.start()
    tv.start()
    tp.join()
    tv.join()
    for res in (out[PROVER], out[VERIFIER]):
        if isinstance(res, Exception):
            raise res
    return out[PROVER], out[VERIFIER], cv
