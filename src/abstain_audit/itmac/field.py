"""Prime-field and quadratic-extension arithmetic for MAC tags.

Base field F_p with p = 2^61 - 1 (Mersenne, so reduction is cheap and every
element packs into 8 bytes).  Tags and keys live in F_{p^2} represented as
pairs (a, b) standing for a + b*i with i^2 = -1, which is a field because
p = 3 (mod 4).  Elements are plain Python ints / 2-tuples: values stay
small and the arithmetic is exact.
"""

P = (1 << 61) - 1

assert P % 4 == 3  # i^2 = -1 must be a non-residue for the extension


def fmul(a: int, b: int) -> int:
    return (a * b) % P


# ---------------------------------------------------------------------------
# F_{p^2}: pairs (re, im)


def eadd(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def emul(x, y):
    return ((x[0] * y[0] - x[1] * y[1]) % P,
            (x[0] * y[1] + x[1] * y[0]) % P)


def escale(x, s: int):
    """Multiply an extension element by a base-field scalar."""
    return (x[0] * s % P, x[1] * s % P)
