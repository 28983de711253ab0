"""Plaintext fixed-point reference pipeline.

Everything the authenticated circuit does is defined here first, over plain
Python ints: quantization (round-half-even at scale 2^f), inference with
floor-division rescaling, the confidence approximation from a negative-exp
table, binning, and the per-bin calibration verdict.  The circuit must
reproduce these values bit-for-bit; that contract is what makes "the proof
ran the model faithfully" a checkable statement, and it is how the honest
prover generates its witnesses.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..calibration import AuditConfig
from ..nets import ModelParams


@dataclass(frozen=True)
class FixedPointParams:
    f: int = 16           # fraction bits
    ell: int = 40         # signed value width for range/compare gadgets
    table_bits: int = 12  # exp table indexes over the domain [-16, 0]

    @property
    def scale(self) -> int:
        return 1 << self.f

    @property
    def table_size(self) -> int:
        return 1 << self.table_bits

    def exp_table(self) -> list[int]:
        """T[k] = round(exp(-16k/2^table_bits) * 2^f), round-half-even."""
        step = 16.0 / self.table_size
        return [_round_even(math.exp(-k * step) * self.scale)
                for k in range(self.table_size)]

    def limit(self) -> int:
        return 1 << (self.ell - 1)


def _round_even(v: float) -> int:
    return int(np.rint(v))


def quantize_value(v: float, fp: FixedPointParams) -> int:
    q = _round_even(v * fp.scale)
    if abs(q) >= fp.limit():
        raise ValueError(f"value {v} overflows {fp.ell - 1} bits at scale 2^{fp.f}")
    return q


def quantize_vec(vs, fp: FixedPointParams) -> list[int]:
    return [quantize_value(float(v), fp) for v in vs]


@dataclass(frozen=True)
class QuantizedModel:
    """Integer weights/biases at scale 2^f, temperature already folded."""

    layers: tuple  # ((W: list[list[int]], b: list[int]), ...)
    fp: FixedPointParams

    @property
    def layer_dims(self):
        return [len(self.layers[0][0][0])] + [len(b) for _, b in self.layers]

    @property
    def n_classes(self) -> int:
        return len(self.layers[-1][1])


def quantize_model(model: ModelParams, fp: FixedPointParams) -> QuantizedModel:
    folded = model.fold_temperature()
    layers = []
    for W, b in folded.layers:
        Wq = tuple(tuple(quantize_value(w, fp) for w in row) for row in W)
        bq = tuple(quantize_value(v, fp) for v in b)
        layers.append((Wq, bq))
    return QuantizedModel(tuple(layers), fp)


def dequantize_model(qm: QuantizedModel) -> ModelParams:
    layers = [(np.array(W, dtype=np.float64) / qm.fp.scale,
               np.array(b, dtype=np.float64) / qm.fp.scale)
              for W, b in qm.layers]
    return ModelParams(layers, 1.0)


# ---------------------------------------------------------------------------
# inference

def fx_forward(qm: QuantizedModel, x_int, fp: FixedPointParams) -> list[int]:
    """Logits at scale 2^f.  Each layer: integer matmul at scale 2^{2f},
    floor-rescale to 2^f, then ReLU on hidden layers."""
    limit = fp.limit()
    h = list(x_int)
    for li, (W, b) in enumerate(qm.layers):
        out = []
        for row, bias in zip(W, b):
            acc = sum(w * v for w, v in zip(row, h)) + (bias << fp.f)
            z = acc // fp.scale
            if not -limit <= z < limit:  # the range Circuit.rescale proves
                raise ValueError(f"activation {z} exceeds {fp.ell - 1} bits "
                                 f"at scale 2^{fp.f}")
            if li < len(qm.layers) - 1:
                z = max(z, 0)
            out.append(z)
        h = out
    return h


def fx_argmax(logits) -> int:
    """Lowest-index winner, expressed as the comparison tournament the
    circuit runs (strict less-than keeps the earlier index on ties)."""
    best, idx = logits[0], 0
    for j in range(1, len(logits)):
        if best < logits[j]:
            best, idx = logits[j], j
    return idx


def fx_exp_index(d: int, fp: FixedPointParams) -> int:
    """Table slot for a non-positive logit gap d (scale 2^f): nearest entry
    of the [-16, 0] grid, clamped to the last slot."""
    width = fp.scale >> (fp.table_bits - 4)  # gap per slot, = 256 at f=16
    k = (-d + width // 2) // width
    return min(k, fp.table_size - 1)


def fx_confidence(logits, fp: FixedPointParams,
                  table: list[int] | None = None) -> tuple[int, int, int]:
    """(p_hat, y_hat, S): softmax max-probability at scale 2^f, computed
    confidence-only (gaps to the max class; reciprocal of the exp sum)."""
    if table is None:
        table = fp.exp_table()
    y_hat = fx_argmax(logits)
    z_max = logits[y_hat]
    S = sum(table[fx_exp_index(z - z_max, fp)] for z in logits)
    p_hat = ((1 << (2 * fp.f)) + S // 2) // S
    return p_hat, y_hat, S


def fx_bin(p_hat: int, bins: int, fp: FixedPointParams) -> int:
    """floor(p_hat * B), clamped to the last bin (p_hat may reach 1.0)."""
    b = (p_hat * bins) // fp.scale
    return min(b, bins - 1)


# ---------------------------------------------------------------------------
# audit

@dataclass
class FxAuditState:
    bins: int
    fp: FixedPointParams
    count: list[int]
    conf_sum: list[int]  # scale 2^f
    acc_sum: list[int]   # scale 2^f (correct-count * 2^f)

    @classmethod
    def empty(cls, bins: int, fp: FixedPointParams) -> "FxAuditState":
        return cls(bins, fp, [0] * bins, [0] * bins, [0] * bins)

    def update(self, b: int, p_hat: int, correct: int) -> None:
        self.count[b] += 1
        self.conf_sum[b] += p_hat
        self.acc_sum[b] += correct << self.fp.f

    def bin_flags(self, alpha_fx: int) -> list[int]:
        """Per-bin pass bits: |acc_sum - conf_sum| <= alpha * count, all at
        scale 2^f; empty bins pass vacuously."""
        return [int(abs(a - c) <= alpha_fx * n)
                for n, c, a in zip(self.count, self.conf_sum, self.acc_sum)]

    def verdict(self, alpha_fx: int) -> bool:
        return all(self.bin_flags(alpha_fx))


def alpha_to_fixed(alpha: float, fp: FixedPointParams) -> int:
    return _round_even(alpha * fp.scale)


def fx_audit(qm: QuantizedModel, X, y, cfg: AuditConfig,
             fp: FixedPointParams) -> tuple[bool, FxAuditState]:
    """Run the whole fixed-point audit in plaintext: the oracle the ZK
    protocol must agree with on every honest run."""
    table = fp.exp_table()
    state = FxAuditState.empty(cfg.bins, fp)
    for xi, yi in zip(X, y):
        x_int = quantize_vec(xi, fp)
        logits = fx_forward(qm, x_int, fp)
        p_hat, y_hat, _ = fx_confidence(logits, fp, table)
        b = fx_bin(p_hat, cfg.bins, fp)
        state.update(b, p_hat, int(int(yi) == y_hat))
    return state.verdict(alpha_to_fixed(cfg.alpha, fp)), state
