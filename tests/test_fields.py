"""Coefficient fields: primality, strict field descriptions, and the scalar
contract (plain Python numbers, each result passed through of_int)."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcone import Polynomial, PrimeField, RationalField, RingSpec
from starcone.fields import field_from_description, is_prime

FIELDS = [PrimeField(7), PrimeField(32003), RationalField()]
IDS = ["p7", "p32003", "Q"]


# ------------------------------------------------------------- primality

def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(3825123056546413051)  # strong pseudoprime to the bases 2..23
    assert not is_prime(318665857834031151167461)  # ... to the bases 2..37
    with pytest.raises(ValueError, match="too large to certify"):
        is_prime(3317044064679887385961981)  # ... to the bases 2..41
    assert is_prime(4294967311)


def test_is_prime_agrees_with_trial_division():
    for n in range(-3, 3000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))), n


# ------------------------------------------------------ field descriptions

@pytest.mark.parametrize("desc", [
    {"prime": 7.9}, {"prime": True}, {"prime": "7"}, {"prime": 8}, {"rationals": "no"},
    {"rationals": 1}, {"rationals": False}, {}, {"prime": 7, "rationals": True}, ["prime", 7],
])
def test_field_description_is_read_strictly(desc):
    with pytest.raises(ValueError):
        field_from_description(desc)


def test_fields_expose_only_what_operators_cannot_do():
    def public(obj):
        return {name for name in dir(obj) if not name.startswith("_")}

    assert public(PrimeField(7)) == {"p", "of_int", "of_fraction", "inv", "describe"}
    assert public(RationalField()) == {"of_int", "of_fraction", "inv", "describe"}


# --------------------------------------------------------- scalar contract

MONOS = st.tuples(st.integers(0, 3), st.integers(0, 3))
INTS = st.integers(-10**6, 10**6)
RATS = st.one_of(INTS, st.fractions(min_value=-50, max_value=50, max_denominator=12))


def reference(F, raw):
    """Plain-number terms reduced once, at the end, without the field."""
    reduce = (lambda c: c % F.p) if isinstance(F, PrimeField) else (lambda c: c)
    return {m: reduce(c) for m, c in raw.items() if reduce(c)}


def build(ring, raw):
    p = Polynomial.zero(ring)
    for m, c in raw.items():
        p = p + Polynomial.monomial(ring, m, c)
    return p


def assert_canonical(F, poly):
    for c in poly.terms.values():
        assert c != 0
        if isinstance(F, PrimeField):
            assert type(c) is int and 0 <= c < F.p
        else:
            assert type(c) in (int, Fraction)


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@given(data=st.data())
def test_arithmetic_matches_reference_reduced_once(F, data):
    ring = RingSpec(("x", "y"), coeff_field=F)
    coeffs = RATS if isinstance(F, RationalField) else INTS
    a, b = (data.draw(st.dictionaries(MONOS, coeffs, max_size=6)) for _ in range(2))
    A, B = build(ring, a), build(ring, b)
    product: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            product[m] = product.get(m, 0) + c1 * c2
    cases = [
        (A, a),
        (A + B, {m: a.get(m, 0) + b.get(m, 0) for m in {*a, *b}}),
        (A - B, {m: a.get(m, 0) - b.get(m, 0) for m in {*a, *b}}),
        (-A, {m: -v for m, v in a.items()}),
        (A * B, product),
    ]
    for got, raw in cases:
        assert got.terms == reference(F, raw)
        assert_canonical(F, got)


@given(a=st.dictionaries(MONOS, INTS, max_size=6), b=st.dictionaries(MONOS, RATS, max_size=6))
def test_rational_int_and_fraction_coefficients_agree(a, b):
    ring = RingSpec(("x", "y"), coeff_field=RationalField())
    as_int = build(ring, a)
    as_fraction = build(ring, {m: Fraction(c) for m, c in a.items()})
    B = build(ring, b)
    pairs = [
        (Polynomial.monomial(ring, (1, 0), 2), Polynomial.monomial(ring, (1, 0), Fraction(2))),
        (as_int, as_fraction),
        (as_int + B, as_fraction + B),
        (as_int * B, as_fraction * B),
    ]
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q)


def test_fraction_coefficient_is_reduced_over_a_prime_field():
    ring = RingSpec(("x",))
    F = ring.coeff_field
    half = Polynomial.monomial(ring, (1,), Fraction(1, 2))
    assert str(half) == "16002*x"
    assert half.terms == {(1,): F.of_fraction(1, 2)}
    assert Polynomial.monomial(ring, (0,), Fraction(-4, 2)) == Polynomial.monomial(ring, (0,), -2)
    with pytest.raises(ZeroDivisionError):
        Polynomial.monomial(ring, (1,), Fraction(1, F.p))


def test_rational_inverse_of_a_unit_stays_an_int():
    Q = RationalField()
    assert type(Q.inv(-1)) is int and Q.inv(-1) == -1
    assert type(Q.inv(1)) is int
    assert type(Q.inv(Fraction(1, 3))) is int and Q.inv(Fraction(1, 3)) == 3
    assert Q.inv(2) == Fraction(1, 2)
    assert Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)
