"""Seeded fuzz of `precision.Arithmetic` against libmp, operation by operation.

Each operation of Arithmetic(prec) that rounds raw values in place is run
on random operands and compared with the libmp call the mpf operator
makes; the tuples must be equal.  The operands mix what the rounding has
to get right: exponents more than 100 bits apart, exact halfway cases of
both parities, round-ups that carry to 2^prec, 1-bit mantissas,
mantissas just above the precision, zero, ±inf and nan, and fsum terms
spread beyond 2 * prec bits.  The first mismatch is printed with its
operands and the script exits 1.

    PYTHONPATH=src python tests/fuzz_arithmetic.py --ops 1000000 --seed 0
"""

from __future__ import annotations

import argparse
import random
import sys

from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    mpf_sum,
    round_nearest as RND,
)

from virodecor.precision import Arithmetic

PRECISIONS = (53, 64, 113, 256)
SPECIALS = (fzero, finf, fninf, fnan)


def raw(sign: int, man: int, exp: int) -> tuple:
    """The normalized raw value (-1)^sign * man * 2^exp, man > 0."""
    z = (man & -man).bit_length() - 1
    man >>= z
    return (sign, man, exp + z, man.bit_length())


def mantissa(rng: random.Random, prec: int) -> int:
    """An odd mantissa, its length drawn around the cases that round."""
    kind = rng.randrange(6)
    if kind == 0:
        return 1
    if kind == 1:                     # all ones: rounding up carries
        return (1 << rng.choice((prec + 1, prec + 2, 2 * prec + 1))) - 1
    if kind == 2:                     # one bit past prec: neg, abs and a
        bc = prec + 1                 # product by 2^k tie exactly
    elif kind == 3:
        bc = rng.randint(prec - 2, prec + 2)
    else:
        bc = rng.randint(1, 3 * prec)
    return rng.getrandbits(bc) | (1 << (bc - 1)) | 1


def operand(rng: random.Random, prec: int, special: float = 0.04) -> tuple:
    if rng.random() < special:
        return rng.choice(SPECIALS)
    return raw(rng.randrange(2), mantissa(rng, prec),
               rng.randint(-4 * prec, 4 * prec))


def partner(rng: random.Random, x: tuple, prec: int) -> tuple:
    """A second operand placed against x: far apart, at the halfway point
    of x's last place, or anywhere near it."""
    y = operand(rng, prec)
    if not x[1] or not y[1]:
        return y
    kind = rng.randrange(4)
    top = x[2] + x[3]
    if kind == 0:                     # more than 100 bits apart
        d = 101 + rng.randint(0, 3 * prec)
        exp = x[2] - d if rng.randrange(2) else x[2] + d
        return raw(y[0], y[1], exp)
    if kind == 1:                     # half of x's last place at prec bits
        return raw(rng.randrange(2), 1, top - prec - 1)
    if kind == 2:                     # overlapping x
        return raw(y[0], y[1], top - y[3] + rng.randint(-prec, 2))
    return y


def terms(rng: random.Random, prec: int) -> list:
    """Terms for fsum and dot, some beyond 2 * prec bits of the others."""
    base = rng.randint(-2 * prec, 2 * prec)
    out = []
    for _ in range(rng.randint(0, 8)):
        x = operand(rng, prec, special=0.02)
        if x[1]:
            shift = rng.choice((0, rng.randint(-prec, prec),
                                2 * prec + rng.randint(1, prec),
                                -2 * prec - rng.randint(1, prec)))
            x = raw(x[0], x[1], base + shift)
        out.append(x)
    return out


def reference_total(xs, prec):
    s = fzero
    for x in xs:
        s = mpf_add(s, x, prec, RND)
    return s


def reference_max(xs):
    best = xs[0]
    for x in xs[1:]:
        if mpf_gt(x, best):
            best = x
    return best


def outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"


def cases(rng: random.Random, prec: int, ops: Arithmetic):
    """One (name, operands, result, libmp's result) per operation."""
    x = operand(rng, prec)
    y = partner(rng, x, prec)
    yield ("add", (x, y), ops.add(x, y), mpf_add(x, y, prec, RND))
    yield ("sub", (x, y), ops.sub(x, y), mpf_sub(x, y, prec, RND))
    yield ("mul", (x, y), ops.mul(x, y), mpf_mul(x, y, prec, RND))
    yield ("div", (x, y), outcome(ops.div, x, y),
           outcome(mpf_div, x, y, prec, RND))
    yield ("neg", (x,), ops.neg(x), mpf_neg(x, prec, RND))
    yield ("abs", (x,), ops.abs(x), mpf_abs(x, prec, RND))
    yield ("lt", (x, y), ops.lt(x, y), mpf_lt(x, y))
    xs, ys = terms(rng, prec), terms(rng, prec)
    absolute = bool(rng.randrange(2))
    yield ("fsum", (xs, absolute), ops.fsum(xs, absolute),
           mpf_sum(xs, prec, RND, absolute))
    yield ("total", (xs,), ops.total(xs), reference_total(xs, prec))
    yield ("dot", (xs, ys), ops.dot(xs, ys),
           mpf_sum([mpf_mul(a, b) for a, b in zip(xs, ys)], prec, RND))
    if xs:
        yield ("max", (xs,), ops.max(xs), reference_max(xs))
        yield ("max_abs", (xs,), ops.max_abs(xs),
               reference_max([mpf_abs(a, prec, RND) for a in xs]))


def run(n_ops: int, seed: int) -> int:
    rng = random.Random(seed)
    arithmetics = {prec: Arithmetic(prec) for prec in PRECISIONS}
    done = 0
    while done < n_ops:
        prec = rng.choice(PRECISIONS)
        for name, args, got, want in cases(rng, prec, arithmetics[prec]):
            done += 1
            if got != want:
                print(f"mismatch at operation {done}: {name} at {prec} bits",
                      file=sys.stderr)
                print(f"  operands: {args!r}", file=sys.stderr)
                print(f"  got:      {got!r}", file=sys.stderr)
                print(f"  libmp:    {want!r}", file=sys.stderr)
                return 1
    print(f"{done} operations at {', '.join(map(str, PRECISIONS))} bits "
          f"match libmp (seed {seed})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run(args.ops, args.seed)


if __name__ == "__main__":
    sys.exit(main())
