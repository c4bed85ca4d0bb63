"""Working-precision policy for the floating-point side of the toolkit.

All log-space numerics run under mpmath at an extended precision (default
256-bit significand).  The default can be overridden through the
``VIRODECOR_PRECISION_BITS`` environment variable or per call via the
``prec`` keyword arguments, each a whole number of at least 53 bits.
Any such precision is supported: Newton refinement stops when the
residual falls below tol = 2^-(prec // 2) and the step below
tol * max(1, |u|), so its tolerance follows the precision, and the step
test scales with roots far from the origin in log coordinates.  A count
reports the precision it ran at.

`Arithmetic(prec)` binds the operations that the numerical kernel uses to
one precision.  They act on raw mpmath values, the (sign, man, exp, bc)
tuples inside an mpf, and each returns the tuple that the matching mpf
operator returns, rounding to nearest at `prec`.

When every operand is finite and nonzero, add, sub, mul, div, total,
fsum, dot, neg, abs, lt, max and max_abs work on the tuples themselves:
they form the exact result, or mpf_div's perturbed stand-in for it, and
round it half-even at `prec` in place, with int.bit_length for the bit
count and (man & -man).bit_length() - 1 for the trailing zeros.  libmp's
mpf_add, mpf_mul and mpf_div round correctly, and each value has exactly
one normalized tuple (odd mantissa, exact bit count), so any correct
half-even rounding of the same number at the same precision gives the
same tuple: MPFR's argument (Fousse et al., ACM TOMS 2007).  Only two
steps where libmp does not round the exact value are copied: mpf_div
rounds the quotient extended by at least 5 bits and a sticky 1, and
mpf_sum, which fsum and dot follow, drops terms beyond 2 * prec bits of
the running sum.  An add or sub of operands whose exponents lie more
than 100 bits apart, where mpf_add may stand a sticky 1 in for the
smaller one, goes to libmp, as do exp, le and any zero, ±inf or nan
operand, so those cases are libmp's own.
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
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
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
    return _checked(bits, "VIRODECOR_PRECISION_BITS", raw)


def working_precision(prec: int | None) -> int:
    """prec, checked as VIRODECOR_PRECISION_BITS is; None means the default."""
    if prec is None:
        return default_precision()
    return _checked(prec, "prec", prec)


def _checked(bits, name: str, raw) -> int:
    # a whole number of bits, at least 53; bool, a subclass of int, is refused
    if type(bits) is not int or bits < 53:
        raise ValueError(f"{name} must be a whole number of bits, "
                         f"at least 53; got {raw!r}")
    return bits


class Arithmetic:
    """Operations on raw mpmath values, rounded to nearest at `prec` bits.

    add, sub, mul, div, neg, abs and exp are the mpf operators and
    mp.exp.  total(xs) is Python's sum() of mpfs: a left-to-right sum
    from 0, rounded at every step.  fsum(xs) is mp.fsum, libmp's mpf_sum:
    exact and rounded once, unless a term lies more than 2 * prec bits
    from the running sum; with absolute=True it sums the magnitudes.
    dot(xs, ys) is mp.fdot, exact products summed as fsum sums and
    rounded once.  lt and le compare, max and max_abs keep the first of
    equal maxima as Python's max() does, and one, zero and eps are 1, 0
    and mp.eps at `prec`.

    Each result is the tuple libmp gives.  Finite nonzero operands are
    rounded here, half-even, directly on the tuples (see the module
    docstring for why the bits cannot move); only mpf_div's extended
    quotient and mpf_sum's loop are copied from libmp.  An add or sub
    whose operands' exponents lie more than 100 bits apart, a zero,
    infinite or nan operand, exp and le go to libmp.
    """

    def __init__(self, prec: int):
        rnd = round_nearest
        wide = 2 * prec              # mpf_sum's max_extra_prec

        def rounded(sign, man, exp):
            """(-1)^sign * man * 2^exp for an odd man > 0, rounded
            half-even at prec: the tuple libmp's normalize1 returns."""
            n = man.bit_length() - prec
            if n <= 0:
                return sign, man, exp, n + prec
            t = man >> (n - 1)
            man = t >> 1
            # t & 1 is the round bit; man was odd, so a bit below it is
            # set exactly when n > 1, and a tie goes to the even side
            if t & 1 and (n > 1 or man & 1):
                man += 1
            if man & 1:
                return sign, man, exp + n, prec
            # strip the trailing zeros, all of them after a carry to 2^prec
            z = (man & -man).bit_length() - 1
            man >>= z
            return sign, man, exp + n + z, man.bit_length()

        def rounded_any(sign, man, exp):
            """As rounded, for any man >= 0: libmp's normalize."""
            if man & 1:
                return rounded(sign, man, exp)
            if not man:
                return fzero
            z = (man & -man).bit_length() - 1
            return rounded(sign, man >> z, exp + z)

        def adder(flip, libmp):
            """add (flip = 0) or sub (flip = 1): the exact sum of finite
            nonzero operands, which are normalized, so odd, rounded once."""
            def op(x, y):
                sx, mx, ex, _ = x
                sy, my, ey, _ = y
                d = ex - ey
                # past 100 bits, mpf_add may stand a sticky 1 in for the
                # smaller operand: such offsets go to libmp itself
                if not (mx and my) or d > 100 or d < -100:
                    return libmp(x, y, prec, rnd)
                sy ^= flip
                if d > 0:
                    mx <<= d
                    ex = ey
                else:
                    my <<= -d
                if sx == sy:
                    return rounded_any(sx, mx + my, ex)
                if mx >= my:
                    return rounded_any(sx, mx - my, ex)
                return rounded_any(sy, my - mx, ex)
            return op

        add, sub = adder(0, mpf_add), adder(1, mpf_sub)

        def mul(x, y):
            sx, mx, ex, _ = x
            sy, my, ey, _ = y
            man = mx * my
            if not man:
                return mpf_mul(x, y, prec, rnd)
            return rounded(sx ^ sy, man, ex + ey)

        def div(x, y):
            sx, mx, ex, bx = x
            sy, my, ey, by = y
            if not (mx and my):
                return mpf_div(x, y, prec, rnd)
            if my == 1:
                return rounded(sx ^ sy, mx, ex - ey)
            # mpf_div: the quotient extended by at least 5 bits, with a
            # sticky 1 below it when the division is inexact
            extra = max(prec - bx + by + 5, 5)
            quot, rem = divmod(mx << extra, my)
            if rem:
                return rounded(sx ^ sy, (quot << 1) | 1, ex - ey - extra - 1)
            return rounded_any(sx ^ sy, quot, ex - ey - extra)

        def neg(x):
            sign, man, exp, _ = x
            if not man:
                return mpf_neg(x, prec, rnd)
            return rounded(1 - sign, man, exp)

        def abs_(x):
            _, man, exp, _ = x
            if not man:
                return mpf_abs(x, prec, rnd)
            return rounded(0, man, exp)

        def exp(x):
            return mpf_exp(x, prec, rnd)

        def total(xs):
            it = iter(xs)
            s = next(it, fzero)
            # mpf_add(0, s) rounds s, which leaves a nonzero s of at most
            # prec bits as it is
            if not s[1] or s[3] > prec:
                s = add(fzero, s)
            for x in it:
                s = add(s, x)
            return s

        # fsum and dot take mpf_sum's loop step for step: each term is
        # added exactly to the running sum man * 2^exp, unless it lies
        # more than 2 * prec bits above or below it

        def fsum(xs, absolute=False):
            man = exp = 0
            special = None
            for x in xs:
                xsign, xman, xexp, xbc = x
                if xman:
                    if xsign and not absolute:
                        xman = -xman
                    delta = xexp - exp
                    if delta >= 0:
                        if delta > wide and (
                                not man or delta - man.bit_length() > wide):
                            man, exp = xman, xexp
                        else:
                            man += xman << delta
                    elif -delta - xbc > wide:
                        if not man:
                            man, exp = xman, xexp
                    else:
                        man = (man << -delta) + xman
                        exp = xexp
                elif xexp:
                    special = mpf_add(special or fzero,
                                      mpf_abs(x) if absolute else x, 1)
            return summed(man, exp, special)

        def dot(xs, ys):
            # each product as mpf_mul gives it at prec = 0, exact: the
            # product of two odd mantissas is odd, so already normalized
            man = exp = 0
            special = None
            for x, y in zip(xs, ys):
                xman = x[1] * y[1]
                if xman:
                    if x[0] != y[0]:
                        xman = -xman
                    xexp = x[2] + y[2]
                    delta = xexp - exp
                    if delta >= 0:
                        if delta > wide and (
                                not man or delta - man.bit_length() > wide):
                            man, exp = xman, xexp
                        else:
                            man += xman << delta
                    elif -delta - xman.bit_length() > wide:
                        if not man:
                            man, exp = xman, xexp
                    else:
                        man = (man << -delta) + xman
                        exp = xexp
                elif (p := mpf_mul(x, y))[2]:
                    special = mpf_add(special or fzero, p, 1)
            return summed(man, exp, special)

        def summed(man, exp, special):
            """mpf_sum's result from its running sum man * 2^exp."""
            if special:
                return special
            if man < 0:
                return rounded_any(1, -man, exp)
            return rounded_any(0, man, exp)

        def lt(x, y):
            sx, mx, ex, bx = x
            sy, my, ey, by = y
            if not (mx and my):
                return mpf_lt(x, y)
            if sx != sy:
                return sx > sy
            # compare the magnitudes: first by the top bit, then exactly
            a, b = bx + ex, by + ey
            if a == b:
                d = ex - ey
                if d > 0:
                    mx <<= d
                elif d < 0:
                    my <<= -d
                if mx == my:
                    return False
                return (mx < my) != bool(sx)
            return (a < b) != bool(sx)

        def max_(xs):
            it = iter(xs)
            best = next(it, None)
            if best is None:
                raise ValueError("max() arg is an empty sequence")
            for x in it:
                if lt(best, x):
                    best = x
            return best

        def max_abs(xs):
            return max_([abs_(x) for x in xs])

        self.add, self.sub, self.mul, self.div = add, sub, mul, div
        self.neg, self.abs, self.exp = neg, abs_, exp
        self.total, self.fsum, self.dot = total, fsum, dot
        self.lt, self.le = lt, mpf_le
        self.max, self.max_abs = max_, max_abs
        self.one, self.zero = fone, fzero
        self.eps = (0, fone[1], 1 - prec, 1)
