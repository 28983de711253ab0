"""A cheating prover for the soundness tests.

Each strategy deviates from the honest witness computation while keeping
every commitment.  The deviations live in a `Circuit` subclass plus a
wrapped `zk_bin_update`, swapped into `zkaudit.protocol` for one local
audit, so the protocol body carries no adversary hooks.  On the verifier's
side the subclass is the honest circuit.
"""

from abstain_audit.zkaudit import protocol
from abstain_audit.zkaudit.circuit import Circuit, zk_bin_update
from abstain_audit.zkaudit.fixedpoint import quantize_vec

LIE_PHAT = "lie-phat"          # claim a different confidence
WRONG_BIN = "wrong-bin"        # scatter into a neighboring bin
SKIP_POINT = "skip-point"      # replace a point with another one
SWAP_WEIGHTS = "swap-weights"  # compute values from a perturbed weight

STRATEGIES = (LIE_PHAT, WRONG_BIN, SKIP_POINT, SWAP_WEIGHTS)


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
            W_wires[0][0].value += 1 << (self.fp.f - 2)
        return super().linear_public_input(W_wires, b_wires, x_ints)

    def confidence(self, logits, table):
        p_hat, y_hat = super().confidence(logits, table)
        if self.cheats(LIE_PHAT):
            p_hat.value += 1 << (self.fp.f - 3)  # claim higher confidence
        return p_hat, y_hat


def _bin_update(circuit, arrays, b, p_hat, eq):
    if circuit.cheats(WRONG_BIN):
        b.value = (b.value + 1) % arrays[0].size
    zk_bin_update(circuit, arrays, b, p_hat, eq)


def run_cheating_audit(monkeypatch, strategy, point, qm, ref, cfg, fp,
                       dealer_seed):
    """run_local_audit with a prover that cheats by `strategy` at `point`."""
    X_int = [quantize_vec(row, fp) for row in ref[0]]
    with monkeypatch.context() as m:
        m.setattr(protocol, "zk_bin_update", _bin_update)
        m.setattr(protocol, "Circuit", lambda sess, fp_: CheatingCircuit(
            sess, fp_, strategy, point, X_int))
        return protocol.run_local_audit(qm, ref, cfg, fp,
                                        dealer_seed=dealer_seed)
