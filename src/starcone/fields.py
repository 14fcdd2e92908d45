"""Exact coefficient fields.

Scalars are plain Python numbers, added, subtracted and multiplied with
Python's own operators.  A field only does what the operators cannot:
`of_int` normalizes a result (n % p for a prime field, unchanged over the
rationals), `of_fraction` reads num/den, `inv` inverts (over the rationals
an integral inverse, as of -1, is an int, so unit pivots stay in int
arithmetic), and `describe` names the field in documents.  A prime field
with a large default prime is the fast path (elements are ints in [0, p));
the rationals are the audit path (ints or Fractions, which compare, hash and
print the same), rerunning the whole pipeline in exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_PRIME = 32003

# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson and Webster 2015); above it nothing is certified.
CERTIFIED_BELOW = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below CERTIFIED_BELOW; a larger n
    raises ValueError, since its answer would not be a proof."""
    if n >= CERTIFIED_BELOW:
        raise ValueError(f"{n} is too large to certify as prime "
                         f"(the test is proven below {CERTIFIED_BELOW})")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")

    def of_int(self, n: int):
        return n % self.p

    def of_fraction(self, num: int, den: int):
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} is not invertible mod {self.p}")
        return num * pow(d, self.p - 2, self.p) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def describe(self) -> dict:
        return {"prime": self.p}


@dataclass(frozen=True)
class RationalField:
    def of_int(self, n):
        return n

    def of_fraction(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        return Fraction(num, den)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        q = 1 / Fraction(a)
        return q.numerator if q.denominator == 1 else q

    def describe(self) -> dict:
        return {"rationals": True}


def field_from_description(desc: dict):
    """The field a `describe()` dict names: exactly {"prime": <int>} or
    {"rationals": true}; anything else raises ValueError."""
    if isinstance(desc, dict) and desc.keys() == {"prime"} and type(desc["prime"]) is int:
        return PrimeField(desc["prime"])
    if isinstance(desc, dict) and desc.keys() == {"rationals"} and desc["rationals"] is True:
        return RationalField()
    raise ValueError(f"unrecognized field description: {desc!r}")
