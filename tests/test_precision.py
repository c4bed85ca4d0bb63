"""precision.Arithmetic rounds raw values in place; each result must be the
tuple that libmp's own function returns, at every precision."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    mpf_sum,
    round_nearest as RND,
)

from virodecor.precision import Arithmetic

from fuzz_arithmetic import (
    PRECISIONS,
    SPECIALS,
    outcome,
    raw,
    reference_max,
    reference_total,
)

OPS = {prec: Arithmetic(prec) for prec in PRECISIONS}


def mantissas(prec):
    """Odd mantissas: 1 bit; all ones one or more bits past prec, which
    carry to a power of 2 when rounded up; exactly one bit past prec,
    which ties under neg, abs and a product by a power of 2; and any
    length up to 3 * prec."""
    def odd(bits):
        return st.integers(0, (1 << bits) - 1).map(
            lambda m: m | (1 << bits) | 1)
    return st.one_of(st.just(1),
                     st.sampled_from([(1 << k) - 1 for k in
                                      (prec + 1, prec + 2, 2 * prec + 1)]),
                     odd(prec),
                     st.integers(1, 3 * prec - 1).flatmap(odd))


def values(prec, exp=st.integers(-4 * 256, 4 * 256)):
    finite = st.builds(raw, st.integers(0, 1), mantissas(prec), exp)
    return st.one_of(st.sampled_from(SPECIALS), finite)


@st.composite
def pairs(draw):
    """(prec, x, y), with y free, more than 100 bits from x, at half of
    x's last place at prec bits (a tie of either parity: x's last kept
    bit is 1 when x has prec bits, 0 when it has fewer), or overlapping
    x."""
    prec = draw(st.sampled_from(PRECISIONS))
    x = draw(values(prec))
    y = draw(values(prec))
    if not (x[1] and y[1]):
        return prec, x, y
    placement = draw(st.sampled_from(["free", "far", "half", "near"]))
    top = x[2] + x[3]
    if placement == "far":
        d = draw(st.integers(101, 4 * prec))
        y = raw(y[0], y[1], x[2] + d if draw(st.booleans()) else x[2] - d)
    elif placement == "half":
        x = raw(x[0], draw(st.integers(1 << (prec - 2), (1 << prec) - 1)),
                x[2])
        y = raw(draw(st.integers(0, 1)), 1, x[2] + x[3] - prec - 1)
    elif placement == "near":
        y = raw(y[0], y[1], top - y[3] + draw(st.integers(-prec, 2)))
    return prec, x, y


@st.composite
def sums(draw):
    """(prec, xs, ys): up to 8 terms each, some placed more than 2 * prec
    bits above or below the others, which mpf_sum drops."""
    prec = draw(st.sampled_from(PRECISIONS))
    base = draw(st.integers(-2 * prec, 2 * prec))
    shift = st.one_of(st.just(0), st.integers(-prec, prec),
                      st.integers(2 * prec + 1, 3 * prec),
                      st.integers(-3 * prec, -2 * prec - 1))
    term = st.one_of(st.sampled_from(SPECIALS),
                     st.builds(lambda s, m, k: raw(s, m, base + k),
                               st.integers(0, 1), mantissas(prec), shift))
    terms = st.lists(term, max_size=8)
    return prec, draw(terms), draw(terms)


HALF = 1 << 52                    # a 53-bit tie, odd and even
CARRY = (0, (1 << 54) - 1, 0, 54)


@settings(max_examples=400, deadline=None)
@given(pairs())
@example((53, (0, (1 << 53) + 1, 0, 54), (0, 1, 0, 1)))
@example((53, (0, (1 << 53) + 3, 0, 54), (0, 1, 0, 1)))
@example((53, raw(0, HALF + 1, 0), raw(0, 1, -1)))
@example((53, raw(0, HALF + 2, 0), raw(0, 1, -1)))
@example((53, CARRY, (1, 1, 7, 1)))
@example((256, raw(0, 3, 0), raw(1, 5, -900)))
def test_each_binary_op_is_libmps(case):
    prec, x, y = case
    ops = OPS[prec]
    assert ops.add(x, y) == mpf_add(x, y, prec, RND)
    assert ops.sub(x, y) == mpf_sub(x, y, prec, RND)
    assert ops.mul(x, y) == mpf_mul(x, y, prec, RND)
    assert outcome(ops.div, x, y) == outcome(mpf_div, x, y, prec, RND)
    assert ops.lt(x, y) == mpf_lt(x, y)
    assert ops.neg(x) == mpf_neg(x, prec, RND)
    assert ops.abs(x) == mpf_abs(x, prec, RND)


@settings(max_examples=300, deadline=None)
@given(sums(), st.booleans())
@example((53, [(0, 1, 200, 1), (0, 1, 147, 1), (0, 1, 0, 1)],
          [(0, 1, 0, 1)] * 3), False)
def test_each_sum_and_max_is_libmps(case, absolute):
    prec, xs, ys = case
    ops = OPS[prec]
    assert ops.fsum(xs, absolute) == mpf_sum(xs, prec, RND, absolute)
    assert ops.total(xs) == reference_total(xs, prec)
    assert ops.dot(xs, ys) == mpf_sum([mpf_mul(x, y) for x, y in zip(xs, ys)],
                                      prec, RND)
    if xs:
        assert ops.max(xs) == reference_max(xs)
        assert ops.max_abs(xs) == reference_max(
            [mpf_abs(x, prec, RND) for x in xs])
