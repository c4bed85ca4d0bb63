"""Working-precision policy for the floating-point side of the toolkit.

All log-space numerics run under mpmath at an extended precision (default
256-bit significand).  The default can be overridden through the
``VIRODECOR_PRECISION_BITS`` environment variable or per call via the
``prec`` keyword arguments.  Any precision of at least 53 bits is
supported: Newton refinement stops when the residual falls below
tol = 2^-(prec // 2) and the step below tol * max(1, |u|), so its
tolerance follows the precision, and the step test scales with roots
far from the origin in log coordinates.  A count reports the precision
it ran at.

`Arithmetic(prec)` binds the operations that the numerical kernel uses to
one precision.  They act on raw mpmath values, the (sign, man, exp, bc)
tuples inside an mpf, and each calls the libmp function that the
matching mpf operator calls, rounding to nearest, so a result is the
same tuple the mpf operator would give.  The kernel skips only the mpf
class's per-operation type checks and object allocation.
"""

from __future__ import annotations

import os

from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    mpf_sum,
    round_nearest,
)

_DEFAULT_BITS = 256


def default_precision() -> int:
    raw = os.environ.get("VIRODECOR_PRECISION_BITS")
    if raw is None:
        return _DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = None
    if bits is None or bits < 53:
        raise ValueError(f"VIRODECOR_PRECISION_BITS must be a whole number "
                         f"of bits, at least 53; got {raw!r}")
    return bits


class Arithmetic:
    """Operations on raw mpmath values, rounded to nearest at `prec` bits.

    add, sub, mul, div, neg, abs and exp are the mpf operators and
    mp.exp.  total(xs) is Python's sum() of mpfs: a left-to-right sum
    from 0, rounded at every step.  fsum(xs) is mp.fsum, exact and
    rounded once; with absolute=True it sums the magnitudes.  dot(xs, ys)
    is mp.fdot, exact products summed exactly and rounded once; it forms
    each product of two nonzero finite values directly as the tuple
    (sx ^ sy, mx * my, ex + ey, bit length) that mpf_mul returns at
    prec = 0, the product of two odd mantissas being odd and so already
    normalized, and leaves a zero or special factor to mpf_mul.  lt and
    le compare, max and max_abs keep the first of equal maxima as
    Python's max() does, and one, zero and eps are 1, 0 and mp.eps at
    `prec`.
    """

    def __init__(self, prec: int):
        rnd = round_nearest

        def add(x, y):
            return mpf_add(x, y, prec, rnd)

        def sub(x, y):
            return mpf_sub(x, y, prec, rnd)

        def mul(x, y):
            return mpf_mul(x, y, prec, rnd)

        def div(x, y):
            return mpf_div(x, y, prec, rnd)

        def neg(x):
            return mpf_neg(x, prec, rnd)

        def abs_(x):
            return mpf_abs(x, prec, rnd)

        def exp(x):
            return mpf_exp(x, prec, rnd)

        def total(xs):
            s = fzero
            for x in xs:
                s = mpf_add(s, x, prec, rnd)
            return s

        def fsum(xs, absolute=False):
            return mpf_sum(xs, prec, rnd, absolute)

        def dot(xs, ys):
            # each product is the tuple mpf_mul(x, y) returns at prec = 0,
            # made directly; a zero or special factor goes through mpf_mul
            return mpf_sum([(x[0] ^ y[0], m, x[2] + y[2], m.bit_length())
                            if (m := x[1] * y[1]) else mpf_mul(x, y)
                            for x, y in zip(xs, ys)], prec, rnd)

        def max_(xs):
            it = iter(xs)
            best = next(it, None)
            if best is None:
                raise ValueError("max() arg is an empty sequence")
            for x in it:
                if mpf_gt(x, best):
                    best = x
            return best

        def max_abs(xs):
            return max_([mpf_abs(x, prec, rnd) for x in xs])

        self.add, self.sub, self.mul, self.div = add, sub, mul, div
        self.neg, self.abs, self.exp = neg, abs_, exp
        self.total, self.fsum, self.dot = total, fsum, dot
        self.lt, self.le = mpf_lt, mpf_le
        self.max, self.max_abs = max_, max_abs
        self.one, self.zero = fone, fzero
        self.eps = (0, fone[1], 1 - prec, 1)
