from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from btpgl import INFINITY, PAdicContext
from btpgl.padic import PRIME_BOUND, is_prime
from btpgl.errors import NegativeValuation


@pytest.mark.parametrize(
    "p,x,expected",
    [
        (3, Fraction(9, 2), 2),
        (5, Fraction(1), 0),
        (2, Fraction(-12), 2),
        (3, Fraction(2, 27), -3),
        (7, Fraction(-49, 3), 2),
    ],
)
def test_val_examples(p, x, expected):
    assert PAdicContext(p).val(x) == expected


def test_val_zero_is_max_ordered_sentinel():
    ctx = PAdicContext(2)
    v = ctx.val(0)
    assert v is INFINITY
    assert v > 10**100
    assert not v < 10**100
    assert min(v, -3) == -3
    assert max(v, 10**100) is INFINITY
    assert v + 5 is INFINITY
    assert v == INFINITY and v <= INFINITY and v >= INFINITY


@pytest.mark.parametrize(
    "p,x,expected",
    [
        (5, Fraction(7, 3), 4),
        (3, Fraction(0), 0),
        (2, Fraction(5), 1),
    ],
)
def test_residue_examples(p, x, expected):
    assert PAdicContext(p).residue(x) == expected


def test_residue_rejects_negative_valuation():
    with pytest.raises(NegativeValuation):
        PAdicContext(3).residue(Fraction(1, 3))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 1000])
def test_context_rejects_non_primes(p):
    with pytest.raises(ValueError):
        PAdicContext(p)


def test_context_accepts_desk_scale_primes():
    assert PAdicContext(9973).q == 9973
    assert PAdicContext(2).q == 2


def test_is_prime_matches_trial_division():
    for n in range(10**5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n


def test_is_prime_on_large_inputs():
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # least strong pseudoprimes to the first k prime bases (OEIS A014233);
    # the last one passes every base up to 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
    with pytest.raises(ValueError):
        PAdicContext(PRIME_BOUND)
    assert PAdicContext(10**18 + 3).q == 10**18 + 3


primes = st.sampled_from([2, 3, 5])
nonzero = st.fractions(min_value=-60, max_value=60, max_denominator=50).filter(lambda x: x != 0)


@given(primes, nonzero, nonzero)
def test_val_is_multiplicative(p, x, y):
    ctx = PAdicContext(p)
    assert ctx.val(x * y) == ctx.val(x) + ctx.val(y)


@given(primes, nonzero, nonzero)
def test_val_ultrametric(p, x, y):
    ctx = PAdicContext(p)
    lo = min(ctx.val(x), ctx.val(y))
    assert ctx.val(x + y) >= lo
    if ctx.val(x) != ctx.val(y):
        assert ctx.val(x + y) == lo


@st.composite
def integral_fractions(draw, p):
    num = draw(st.integers(min_value=-80, max_value=80))
    den = draw(st.integers(min_value=1, max_value=60).filter(lambda d: d % p != 0))
    return Fraction(num, den)


@given(st.data(), primes)
def test_residue_is_ring_homomorphism(data, p):
    ctx = PAdicContext(p)
    x = data.draw(integral_fractions(p))
    y = data.draw(integral_fractions(p))
    assert ctx.residue(x + y) == (ctx.residue(x) + ctx.residue(y)) % p
    assert ctx.residue(x * y) == ctx.residue(x) * ctx.residue(y) % p


def _outcome(method, x):
    try:
        return ("value", method(x))
    except NegativeValuation as exc:
        return ("NegativeValuation", str(exc))


rationals = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)
decimals = st.decimals(min_value=-(10**6), max_value=10**6, places=8, allow_nan=False, allow_infinity=False)
coercible = st.one_of(rationals, st.booleans(), rationals.map(str), decimals, decimals.map(str))


@given(st.sampled_from([2, 3, 5, 7, 10**9 + 7]), coercible)
def test_scalar_reads_match_reading_a_fraction_first(p, x):
    # ints and Fractions are read as they are, every other type through
    # Fraction(x): the outcome, NegativeValuation included, is the same
    ctx = PAdicContext(p)
    for name in ("val", "is_integral", "is_unit", "residue"):
        method = getattr(ctx, name)
        got, want = _outcome(method, x), _outcome(method, Fraction(x))
        assert got == want and type(got[1]) is type(want[1]), (name, x)
