"""Authenticated-arithmetic gadgets mirroring the fixed-point pipeline.

Gadgets act on the session's wires, rows of residues mod p
(`itmac.session`): a wire's first column is its value on the prover and 0
on the verifier.  The prover's values reproduce fixedpoint.py and are where
witnesses (bits, quotients, reciprocals, one-hot selectors) come from; the
MAC columns turn each witness into boolean / range / recomposition claims
that the batch MAC check enforces.  A cheating prover can feed in any
witnesses it likes; it cannot make a false claim survive batch_check except
with probability ~1/p^2.

Two rules keep the claims meaning what fixedpoint.py computes:

- Width rule.  `lt(x, y, nbits)` commits nbits + 1 bits and is exact when
  -2^nbits < y - x <= 2^nbits.  Each caller passes the smallest width that
  bounds already proven on x and y (range checks, public sizes, sums of
  proven booleans) guarantee, and says where they are proven.  With every
  operand bounded, no claim wraps mod p, so field equalities are integer
  equalities.
- Lift rule.  Witnesses come from the signed lift of a wire's value
  (`_signed`: x - p if x > p/2), and the lift equals the oracle's integer
  when |x| < p/2.  Hidden-layer products wrap mod p, but the accumulators
  derived from them do not: the prover's run_audit runs fx_forward on every
  reference point first, which holds each accumulator within the range
  `rescale` proves.  A quantity that is only known mod p (w * w^-1, say)
  must not be lifted into a witness; commit the intended integer as a
  witness and prove the relation instead (see `is_zero`).
"""

from ..itmac.field import P
from ..itmac.session import Session
from .fixedpoint import FixedPointParams


def _signed(w) -> int:
    """The prover's value of wire w as a signed integer."""
    x = w[0]
    return x - P if x > P // 2 else x


class Circuit:
    """Gadget toolbox bound to one session.  The wire plumbing (inputs,
    constants, linear combinations, products, zero claims) is the
    session's own."""

    def __init__(self, sess: Session, fp: FixedPointParams):
        self.fp = fp
        self.prover = sess.prover
        self.witness_vec = sess.input_vec  # values, or a count on the verifier
        self.public, self.lin = sess.public, sess.lin_combine
        self.add, self.sub = sess.add, sess.sub
        self.mul, self.mul_vec = sess.multiply, sess.multiply_vec
        self.assert_zero = sess.assert_zero

    def witness(self, value):
        return self.witness_vec([value] if self.prover else 1)[0]

    # -- boolean / range gadgets ----------------------------------------------

    def assert_bool_vec(self, bits) -> None:
        minus_one = [self.lin([1], [b], -1) for b in bits]
        for prod in self.mul_vec(bits, minus_one):
            self.assert_zero(prod)

    def decompose(self, w, nbits: int):
        """Prover supplies the nbits-bit decomposition; recomposition is
        pinned to the wire, so wrong bits cannot survive."""
        if self.prover:
            v = _signed(w)
            bits = self.witness_vec([(v >> i) & 1 for i in range(nbits)])
        else:
            bits = self.witness_vec(nbits)
        self.assert_bool_vec(bits)
        recomp = self.lin([1 << i for i in range(nbits)], bits)
        self.assert_zero(self.sub(recomp, w))
        return bits

    def range_check(self, w, nbits: int) -> None:
        self.decompose(w, nbits)

    def divide(self, w, k: int, qbits: int, q_offset: int = 0):
        """floor(w / 2^k): witness q and r = w mod 2^k, check w = q*2^k + r
        with r in k bits and q + q_offset in qbits bits.  Returns q and the
        bits of q + q_offset."""
        if self.prover:
            qw, rw = self.witness_vec(list(divmod(_signed(w), 1 << k)))
        else:
            qw, rw = self.witness_vec(2)
        self.range_check(rw, k)
        bits = self.decompose(self.lin([1], [qw], q_offset), qbits)
        self.assert_zero(self.lin([1 << k, 1, -1], [qw, rw, w]))
        return qw, bits

    def lt(self, x, y, nbits: int):
        """1 iff x < y, for -2^nbits < y - x <= 2^nbits: the top bit of
        y - x - 1 + 2^nbits, proven by an (nbits+1)-bit decomposition."""
        v = self.lin([1, -1], [y, x], (1 << nbits) - 1)
        return self.decompose(v, nbits + 1)[nbits]

    def is_zero(self, w):
        """1 iff w == 0 (|w| < p).  The prover commits e = [w == 0] and
        inv = w^-1 mod p (0 when w == 0); w*inv = 1 - e and e*w = 0 pin e.
        e is a witness rather than 1 - w*inv, whose integer value is only
        congruent to 0 or 1."""
        if self.prover:
            e = int(w[0] == 0)
            e_w, inv = self.witness_vec([e, 0 if e else pow(w[0], -1, P)])
        else:
            e_w, inv = self.witness_vec(2)
        w_inv, e_times_w = self.mul_vec([w, e_w], [inv, w])
        self.assert_zero(self.lin([1, 1], [w_inv, e_w], -1))
        self.assert_zero(e_times_w)
        return e_w

    def select(self, b, x, y):
        """b*x + (1-b)*y for a proven boolean b."""
        return self.add(y, self.mul(b, self.sub(x, y)))

    def relu(self, q, nonneg):
        """max(q, 0), given the proven bit nonneg = [q >= 0] from rescale."""
        return self.mul(q, nonneg)

    def rescale(self, w):
        """(q, [q >= 0]) for q = floor(w / 2^f) in signed ell-bit range:
        q + 2^{ell-1} is decomposed into ell bits, whose top bit is the
        sign."""
        ell = self.fp.ell
        q, bits = self.divide(w, self.fp.f, ell, 1 << (ell - 1))
        return q, bits[ell - 1]

    # -- model layers ----------------------------------------------------------

    def linear_public_input(self, W_wires, b_wires, x_ints):
        """First layer when the reference point is public: the inputs act as
        coefficients over committed weights -- no triples consumed."""
        out = []
        for row, bias in zip(W_wires, b_wires):
            out.append(self.lin(list(x_ints) + [self.fp.scale], row + [bias]))
        return out

    def linear_hidden(self, W_wires, b_wires, h):
        """Hidden x hidden matmul: one batched multiply per layer."""
        n_out, n_in = len(W_wires), len(h)
        flat_w = [w for row in W_wires for w in row]
        flat_h = h * n_out
        prods = self.mul_vec(flat_w, flat_h)
        out = []
        for i, bias in enumerate(b_wires):
            row = prods[i * n_in:(i + 1) * n_in]
            out.append(self.lin([1] * n_in + [self.fp.scale], row + [bias]))
        return out

    def layer(self, W_wires, b_wires, h, x_public=None, final=False):
        if x_public is not None:
            acc = self.linear_public_input(W_wires, b_wires, x_public)
        else:
            acc = self.linear_hidden(W_wires, b_wires, h)
        out = [self.rescale(z) for z in acc]
        if final:
            return [q for q, _ in out]
        return [self.relu(q, nonneg) for q, nonneg in out]

    def argmax(self, logits):
        """(max, argmax) by tournament; strict lt keeps the lowest index.
        Logits are rescale outputs, proven within signed ell bits."""
        best, idx = logits[0], self.public(0)
        for j in range(1, len(logits)):
            b = self.lt(best, logits[j], self.fp.ell)
            best = self.select(b, logits[j], best)
            idx = self.select(b, self.public(j), idx)
        return best, idx

    # -- table reads -------------------------------------------------------------

    def one_hot(self, idx, size: int):
        """Prover-supplied selector: booleans summing to 1 whose index-weighted
        sum equals idx."""
        if self.prover:
            i = _signed(idx)
            sel = self.witness_vec([int(j == i) for j in range(size)])
        else:
            sel = self.witness_vec(size)
        self.assert_bool_vec(sel)
        self.assert_zero(self.lin([1] * size, sel, -1))
        self.assert_zero(self.sub(self.lin(list(range(size)), sel), idx))
        return sel

    def table_read(self, table: list[int], idx):
        """Hidden-index read of a public table, factored through two 2^(n/2)
        one-hots so the boolean work stays square-root sized."""
        size = len(table)
        lo_sz = 1 << ((size - 1).bit_length() // 2)
        hi_sz = (size + lo_sz - 1) // lo_sz
        if self.prover:
            hi_w, lo_w = self.witness_vec(list(divmod(_signed(idx), lo_sz)))
        else:
            hi_w, lo_w = self.witness_vec(2)
        self.assert_zero(self.lin([lo_sz, 1, -1], [hi_w, lo_w, idx]))
        hi_sel = self.one_hot(hi_w, hi_sz)
        lo_sel = self.one_hot(lo_w, lo_sz)
        # row values: public-coefficient combinations of the low selector
        rows = []
        for j in range(hi_sz):
            coeffs = [table[j * lo_sz + k] if j * lo_sz + k < size else 0
                      for k in range(lo_sz)]
            rows.append(self.lin(coeffs, lo_sel))
        picked = self.mul_vec(hi_sel, rows)
        return self.lin([1] * hi_sz, picked)

    # -- confidence --------------------------------------------------------------

    def confidence(self, logits, table: list[int]):
        """(p_hat, y_hat) from the committed logits, mirroring
        fixedpoint.fx_confidence bit-exactly."""
        fp = self.fp
        z_max, y_hat = self.argmax(logits)
        width = fp.scale >> (fp.table_bits - 4)
        # 0 <= -d < 2^ell (argmax proves z_max >= z), so the slot index
        # floor((-d + width/2) / width) fits qbits bits
        qbits = (((1 << fp.ell) - 1 + width // 2) // width).bit_length()
        terms = []
        for z in logits:
            neg_d = self.sub(z_max, z)
            shifted = self.lin([1], [neg_d], width // 2)
            qw, bits = self.divide(shifted, width.bit_length() - 1, qbits)
            # clamp to the last slot unless a high bit of the index is set
            high = bits[fp.table_bits:]
            in_range = self.is_zero(self.lin([1] * len(high), high))
            idx = self.select(in_range, qw, self.public(fp.table_size - 1))
            terms.append(self.table_read(table, idx))
        S = self.lin([1] * len(terms), terms)
        return self.reciprocal(S, len(terms) * max(table)), y_hat

    def reciprocal(self, S, s_max: int):
        """p_hat = floor((2^{2f} + floor(S/2)) / S) exactly, for a sum of
        table entries 1 <= S <= s_max.  Witnesses h, s0, p_hat, rem with
        S = 2h + s0 (s0 boolean), p_hat*S + rem = 2^{2f} + h, rem and
        S - 1 - rem in k bits (so 0 <= rem < S), p_hat in f + 1 bits.  With
        p_hat, rem and S bounded, p_hat*S + rem cannot wrap mod p, and
        S = 2h + s0 then pins h to floor(S/2) over the integers, so h needs
        no range check of its own."""
        fp = self.fp
        target, k = 1 << (2 * fp.f), s_max.bit_length()
        if self.prover:
            s = _signed(S)
            h, s0 = divmod(s, 2)
            vals = [h, s0, *divmod(target + h, s)]
            h, s0, p_hat, rem = self.witness_vec(vals)
        else:
            h, s0, p_hat, rem = self.witness_vec(4)
        self.assert_bool_vec([s0])
        self.assert_zero(self.lin([2, 1, -1], [h, s0, S]))
        self.range_check(p_hat, fp.f + 1)
        self.range_check(rem, k)
        self.range_check(self.lin([1, -1], [S, rem], -1), k)
        prod = self.mul(p_hat, S)
        self.assert_zero(self.lin([1, 1, -1], [prod, rem, h], -target))
        return p_hat

    def equals(self, x, y):
        """1 iff x == y."""
        return self.is_zero(self.sub(x, y))

    def bin_index(self, p_hat, bins: int):
        """min(floor(bins * p_hat / 2^f), bins - 1), mirroring fx_bin.
        p_hat is range-checked to f + 1 bits, so the quotient is below
        2 * bins and fits qbits bits."""
        qbits = (2 * bins - 1).bit_length()
        q, _ = self.divide(self.lin([bins], [p_hat]), self.fp.f, qbits)
        in_range = self.lt(q, self.public(bins), qbits)
        return self.select(in_range, q, self.public(bins - 1))


class ZkArray:
    """Size-B array of authenticated accumulators with hidden-index update."""

    def __init__(self, circuit: Circuit, size: int):
        self.c = circuit
        self.size = size
        self.entries = [circuit.public(0) for _ in range(size)]

    def add_at(self, selector, inc) -> None:
        """entries[k] += selector[k] * inc for a proven one-hot selector."""
        prods = self.c.mul_vec(selector, [inc] * self.size)
        self.entries = [self.c.add(e, p) for e, p in zip(self.entries, prods)]

    def add_count(self, selector) -> None:
        self.entries = [self.c.add(e, s) for e, s in zip(self.entries, selector)]


def zk_bin_update(circuit: Circuit, arrays, b, p_hat, eq) -> None:
    """Scatter one audited point into (count, conf, acc) at hidden bin b."""
    count_arr, conf_arr, acc_arr = arrays
    sel = circuit.one_hot(b, count_arr.size)
    count_arr.add_count(sel)
    conf_arr.add_at(sel, p_hat)
    acc_arr.add_at(sel, circuit.lin([circuit.fp.scale], [eq]))


def zk_bin_check(circuit: Circuit, arrays, alpha_fx: int, n_points: int):
    """Per-bin |acc - conf| <= alpha * count over public bin indices, ANDed
    into the single pass flag."""
    count_arr, conf_arr, acc_arr = arrays
    f1 = circuit.fp.f + 1
    # over n_points points each bin sums booleans into count, eq * 2^f into
    # acc and p_hat < 2^{f+1} into conf, so |acc - conf| < n * 2^{f+1} and
    # |alpha * count| <= |alpha| * n
    abs_bits = ((n_points << f1) - 1).bit_length()
    cmp_bits = (n_points * ((1 << f1) + abs(alpha_fx))).bit_length()
    f_pass = circuit.public(1)
    for k in range(count_arr.size):
        diff = circuit.sub(acc_arr.entries[k], conf_arr.entries[k])
        if circuit.prover:
            sign = circuit.witness(int(_signed(diff) >= 0))
        else:
            sign = circuit.witness(1)
        circuit.assert_bool_vec([sign])
        # abs = diff * (2*sign - 1); the range check pins sign to the true one
        # (a flipped sign makes abs negative, which cannot decompose)
        abs_w = circuit.mul(diff, circuit.lin([2], [sign], -1))
        circuit.range_check(abs_w, abs_bits)
        lhs = circuit.lin([alpha_fx], [count_arr.entries[k]])
        f_bin = circuit.lin([-1], [circuit.lt(lhs, abs_w, cmp_bits)], 1)
        f_pass = circuit.mul(f_pass, f_bin)
    return f_pass
