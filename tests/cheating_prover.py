"""A cheating prover for the soundness tests.

Most strategies change a wire's value behind its MAC (`with_value`).
PHAT_UP and PHAT_DOWN instead commit a p_hat one ulp off, with a remainder
that keeps p_hat * S + rem unchanged, so only the remainder's range checks
can catch them.  The deviations live in a `Circuit` subclass plus a
wrapped `zk_bin_update`, swapped into `zkaudit.protocol` for one local
audit, so the protocol body carries no adversary hooks.  On the verifier's
side the subclass is the honest circuit.
"""

from abstain_audit.itmac import P
from abstain_audit.zkaudit import protocol
from abstain_audit.zkaudit.circuit import Circuit, zk_bin_update
from abstain_audit.zkaudit.fixedpoint import quantize_vec

LIE_PHAT = "lie-phat"          # claim a different confidence
WRONG_BIN = "wrong-bin"        # scatter into a neighboring bin
SKIP_POINT = "skip-point"      # replace a point with another one
SWAP_WEIGHTS = "swap-weights"  # compute values from a perturbed weight

STRATEGIES = (LIE_PHAT, WRONG_BIN, SKIP_POINT, SWAP_WEIGHTS)

# cheats aimed at the exact reciprocal and the fused ReLU, kept out of
# STRATEGIES so the acceptance suite's soundness count stays fixed
PHAT_UP = "phat-up"          # commit p_hat + 1 ulp, rem - S keeps p_hat*S + rem
PHAT_DOWN = "phat-down"      # commit p_hat - 1 ulp, rem + S keeps p_hat*S + rem
RELU_SIGN = "relu-sign"      # multiply by the flipped sign bit of rescale

CIRCUIT_STRATEGIES = (PHAT_UP, PHAT_DOWN, RELU_SIGN)


def with_value(w, x):
    """The prover's wire w with its value replaced by x and its tag kept."""
    return (x % P, *w[1:])


class CheatingCircuit(Circuit):
    """Cheats by `strategy` at reference point `point` (SWAP_WEIGHTS: from
    the first point on)."""

    def __init__(self, sess, fp, strategy, point, X_int):
        super().__init__(sess, fp)
        self.strategy, self.point, self.X_int = strategy, point, X_int
        self.i = -1  # index of the reference point being proven

    def cheats(self, strategy: str) -> bool:
        return (self.prover and self.strategy == strategy
                and self.i == self.point)

    def linear_public_input(self, W_wires, b_wires, x_ints):
        self.i += 1  # the first layer opens every point
        if self.cheats(SKIP_POINT):
            x_ints = self.X_int[(self.i + 1) % len(self.X_int)]
        if self.prover and self.strategy == SWAP_WEIGHTS and self.i == 0:
            # keep the commitment, but compute all later values from a
            # model whose first weight was nudged: the committed linear
            # relations no longer hold and the batch check must catch it
            w = W_wires[0][0]
            W_wires[0][0] = with_value(w, w[0] + (1 << (self.fp.f - 2)))
        return super().linear_public_input(W_wires, b_wires, x_ints)

    def relu(self, q, nonneg):
        if self.cheats(RELU_SIGN):
            nonneg = with_value(nonneg, nonneg[0] ^ 1)
        return super().relu(q, nonneg)

    def reciprocal(self, S, s_max):
        if self.cheats(PHAT_UP) or self.cheats(PHAT_DOWN):
            step = 1 if self.strategy == PHAT_UP else -1
            honest = self.witness_vec

            def shifted_witnesses(vals):  # the (h, s0, p_hat, rem) batch
                self.witness_vec = honest
                h, s0, p_hat, rem = vals
                return honest([h, s0, p_hat + step, rem - step * S[0]])

            self.witness_vec = shifted_witnesses
        return super().reciprocal(S, s_max)

    def confidence(self, logits, table):
        p_hat, y_hat = super().confidence(logits, table)
        if self.cheats(LIE_PHAT):
            # claim higher confidence
            p_hat = with_value(p_hat, p_hat[0] + (1 << (self.fp.f - 3)))
        return p_hat, y_hat


def _bin_update(circuit, arrays, b, p_hat, eq):
    if circuit.cheats(WRONG_BIN):
        b = with_value(b, (b[0] + 1) % arrays[0].size)
    zk_bin_update(circuit, arrays, b, p_hat, eq)


def run_cheating_audit(monkeypatch, strategy, point, qm, ref, cfg, fp):
    """run_local_audit with a prover that cheats by `strategy` at `point`."""
    X_int = [quantize_vec(row, fp) for row in ref[0]]
    with monkeypatch.context() as m:
        m.setattr(protocol, "zk_bin_update", _bin_update)
        m.setattr(protocol, "Circuit", lambda sess, fp_: CheatingCircuit(
            sess, fp_, strategy, point, X_int))
        return protocol.run_local_audit(qm, ref, cfg, fp)
