"""Exact arithmetic in the rationals equipped with the p-adic valuation.

Scalars are plain :class:`fractions.Fraction` values, which Python already
keeps in lowest terms with a positive denominator, so every operation here is
bit-exact and needs no precision management.  The valuation of zero is a
distinguished sentinel that compares strictly above every integer.

Everything in this module is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeValuation

Scalar = Fraction


def int_val(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin with the prime bases up to 41 is exact below this bound; with
# the bases up to 37 it is not (318665857834031151167461 passes them).
PRIME_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError at or above
    PRIME_BOUND, where the fixed bases no longer certify primality."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below {PRIME_BOUND}, where primality is certified")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Infinity:
    """Valuation of zero.  Orders strictly above every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "+Infinity"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("btpgl.padic.INFINITY")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Infinity)

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity()


def _rational(x):
    """x itself when it is an int or a Fraction, which already carry a
    numerator and a positive denominator in lowest terms; else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


@dataclass(frozen=True)
class PAdicContext:
    """The prime p, fixing the valuation ring Z localized at p.

    The uniformizer is p itself and the residue field is F_p, so the residue
    cardinality q equals p.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")

    @property
    def q(self) -> int:
        """Cardinality of the residue field."""
        return self.p

    def val(self, x) -> int | _Infinity:
        """p-adic valuation of a rational; INFINITY for zero.

        Multiplicative: val(x*y) = val(x) + val(y).
        """
        x = _rational(x)
        if x == 0:
            return INFINITY
        return int_val(x.numerator, self.p) - int_val(x.denominator, self.p)

    def is_integral(self, x) -> bool:
        """True when x lies in the valuation ring (val >= 0)."""
        return _rational(x).denominator % self.p != 0

    def is_unit(self, x) -> bool:
        """True when x is a unit of the valuation ring (val == 0)."""
        x = _rational(x)
        return x != 0 and x.numerator % self.p != 0 and x.denominator % self.p != 0

    def residue(self, x) -> int:
        """Image of a p-integral rational in F_p, as an integer in [0, p)."""
        x = _rational(x)
        if x.denominator % self.p == 0:
            raise NegativeValuation(f"{x} is not {self.p}-integral")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p
