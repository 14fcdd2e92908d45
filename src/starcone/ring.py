"""Multigraded polynomial ring arithmetic over an exact field.

Monomials are bare exponent tuples, polynomials are dicts mapping exponent
tuples to nonzero field elements.  Everything here is for the standard
grading (total degree); ideals are monomial ideals held by their unique
minimal generating set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add, le, sub
from typing import Iterable, Optional, Sequence

from .fields import PrimeField, field_from_description

Monomial = tuple  # exponent tuple, one entry per ring variable

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # a variable name, in RingSpec and the parser


class PolyParseError(ValueError):
    """Raised for malformed polynomial text or out-of-ring symbols."""


class InvariantViolation(RuntimeError):
    """A computed result broke an invariant the code relies on, such as a
    lift that is not a chain map or a negative homology dimension: a fault
    in the program, not in its input."""


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: ordered variables, optional two-block partition,
    and a coefficient field (prime field with p = 32003 unless asked)."""

    variables: tuple
    partition: Optional[tuple] = None  # (block_a_names, block_b_names)
    coeff_field: object = field(default_factory=PrimeField)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        for v in self.variables:
            if not re.fullmatch(_NAME, v):
                raise ValueError(f"bad variable name {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if self.partition is not None:
            a, b = self.partition
            object.__setattr__(self, "partition", (tuple(a), tuple(b)))
            a, b = self.partition
            if set(a) & set(b):
                raise ValueError("partition blocks overlap")
            if set(a) | set(b) != set(self.variables):
                raise ValueError("partition must cover all variables")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PolyParseError(f"unknown variable {name!r}") from None

    def describe(self) -> dict:
        out = {"variables": list(self.variables), "field": self.coeff_field.describe()}
        if self.partition is not None:
            out["partition"] = {"a": list(self.partition[0]), "b": list(self.partition[1])}
        return out

    @staticmethod
    def from_description(desc: dict) -> "RingSpec":
        """The ring describe() gives; variables and each partition block
        must be lists of strings."""
        def names(v, what: str) -> tuple:
            if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
                raise ValueError(f"{what} is not a list of variable names")
            return tuple(v)

        part = None
        if "partition" in desc:
            part = tuple(names(desc["partition"][k], f"partition block {k}") for k in "ab")
        return RingSpec(
            names(desc["variables"], "variables"),
            partition=part,
            coeff_field=field_from_description(desc["field"]),
        )


# ---------------------------------------------------------------- monomials

def mono_one(nvars: int) -> Monomial:
    return (0,) * nvars


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b | a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_support(m: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(m) if e)


def mono_key(m: Monomial):
    """Graded-lex sort key, largest first when used with sorted(..., key=mono_key)."""
    return (-mono_degree(m), tuple(-e for e in m))


def mono_str(m: Monomial, ring: RingSpec) -> str:
    parts = []
    for name, e in zip(ring.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All exponent tuples of total degree d, descending lex."""
    if d < 0 or nvars == 0:
        return ((),) if d == 0 else ()
    heads = [()]  # the first k exponents, each way they sum to at most d
    for _ in range(nvars - 1):
        heads = [(*h, e) for h in heads for e in range(d - sum(h), -1, -1)]
    return tuple((*h, d - sum(h)) for h in heads)


# -------------------------------------------------------------- polynomials

def _scalar(F, c):
    """An int, or a Fraction read through of_fraction, as an element of F."""
    return F.of_fraction(c.numerator, c.denominator) if isinstance(c, Fraction) else F.of_int(c)


class Polynomial:
    """Sparse polynomial: dict of exponent tuple -> nonzero field element."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = terms  # treated as immutable after construction

    # constructors -----------------------------------------------------
    @staticmethod
    def zero(ring: RingSpec) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def monomial(ring: RingSpec, m: Monomial, coeff=1) -> "Polynomial":
        c = _scalar(ring.coeff_field, coeff)
        if not c:
            return Polynomial(ring, {})
        if len(m) != ring.nvars or any(e < 0 for e in m):
            raise ValueError(f"bad exponent tuple {m!r}")
        return Polynomial(ring, {tuple(m): c})

    # queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    # arithmetic ---------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        norm = self.ring.coeff_field.of_int
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = norm(out.get(m, 0) + c)
            if not s:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        norm = self.ring.coeff_field.of_int
        return Polynomial(self.ring, {m: norm(-c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        norm = self.ring.coeff_field.of_int
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = norm(out.get(m, 0) + c1 * c2)
                if not s:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            neg = c < 0  # never over a prime field, whose elements lie in [0, p)
            mag = -c if neg else c
            if mono_degree(m) == 0:
                body = str(mag)
            elif mag == 1:
                body = mono_str(m, self.ring)
            else:
                body = f"{mag}*{mono_str(m, self.ring)}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# ------------------------------------------------------------------ parser

# The grammar of poly_parse's docstring, which has no nesting.  No two
# whitespace runs are adjacent, so a refusal never backtracks far.
_FACTOR = rf"(?:\d+(?:\s*/\s*\d+)?|{_NAME}(?:\s*\^\s*\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_POLY_RE = re.compile(rf"\s*(?:[+-]\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
# Readers for accepted text: each term with its sign, then each factor.
_SIGNED_TERM_RE = re.compile(r"\s*([+-]?)([^+-]+)")
_FACTOR_RE = re.compile(rf"(\d+)(?:\s*/\s*(\d+))?|({_NAME})(?:\s*\^\s*(\d+))?")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise PolyParseError(f"integer literal of {len(digits)} digits is too long") from None


def poly_parse(text: str, ring: RingSpec) -> Polynomial:
    """Parse an optional sign, then `term ([+-] term)*`: a term is `factor
    (* factor)*`, a factor `n`, `n/d`, `name` or `name^n`, and whitespace
    may stand before any token.  Text outside the grammar raises one
    PolyParseError naming the position where the grammar stops, and so do
    an unknown variable, a zero or non-invertible denominator and an
    integer too long for int()."""
    if not _POLY_RE.fullmatch(text):
        m = _POLY_RE.match(text)
        raise PolyParseError(f"cannot parse {text!r} at position {m.end() if m else 0}")
    result = Polynomial.zero(ring)
    for sign, term in _SIGNED_TERM_RE.findall(text):
        coeff, expts = -1 if sign == "-" else 1, [0] * ring.nvars
        for num, den, name, power in _FACTOR_RE.findall(term):
            if name:
                expts[ring.var_index(name)] += _int(power) if power else 1
            elif den:
                try:
                    coeff *= ring.coeff_field.of_fraction(_int(num), _int(den))
                except ZeroDivisionError as e:
                    raise PolyParseError(str(e)) from None
            else:
                coeff *= _int(num)
        result = result + Polynomial.monomial(ring, tuple(expts), coeff)
    return result


# ----------------------------------------------------------------- ideals

def _minimalize(monos: Iterable[Monomial]) -> tuple:
    """Drop any monomial that another one divides; sort by degree then lex.
    A proper divisor has lower degree, so it is kept before its multiples."""
    kept: list = []
    for m in sorted(set(monos), key=lambda m: (mono_degree(m), tuple(-e for e in m))):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """Monomial ideal, stored by its minimal generating set (canonical)."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: RingSpec, gens: Iterable[Monomial]):
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != ring.nvars or any(e < 0 for e in g):
                raise ValueError(f"bad generator {g!r}")
            if mono_degree(g) == 0:
                raise ValueError("unit ideal is not supported here")
        self.ring = ring
        self.gens = _minimalize(gens)

    @staticmethod
    def parse(texts: Sequence[str], ring: RingSpec) -> "MonomialIdeal":
        """The ideal the monomial texts generate.  Each text is stripped and
        read by poly_parse, whose PolyParseError passes through: a blank or
        zero text adds nothing, a coefficient is dropped, as it generates the
        same ideal, and a text of more than one term raises ValueError."""
        gens = []
        for text in map(str.strip, texts):
            terms = poly_parse(text, ring).terms if text else {}
            if len(terms) > 1:
                raise ValueError(f"'{text}' is not a monomial")
            gens += terms
        return MonomialIdeal(ring, gens)

    def is_zero(self) -> bool:
        return not self.gens

    def contains_monomial(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def support(self) -> frozenset:
        out = frozenset()
        for g in self.gens:
            out |= mono_support(g)
        return out

    def max_gen_degree(self) -> int:
        return max((mono_degree(g) for g in self.gens), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __str__(self) -> str:
        if not self.gens:
            return "<0>"
        return "<" + ", ".join(mono_str(g, self.ring) for g in self.gens) + ">"

    __repr__ = __str__


def ideal_membership(p: Polynomial, ideal: MonomialIdeal) -> bool:
    """A polynomial lies in a monomial ideal iff each of its monomials does."""
    return all(ideal.contains_monomial(m) for m in p.terms)


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _same_ring(I, J)
    return MonomialIdeal(I.ring, [mono_mul(a, b) for a in I.gens for b in J.gens])


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _same_ring(I, J)
    return MonomialIdeal(I.ring, [mono_lcm(a, b) for a in I.gens for b in J.gens])


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _same_ring(I, J)
    return MonomialIdeal(I.ring, list(I.gens) + list(J.gens))


def ideal_contains(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """J subseteq I, decided on generators."""
    _same_ring(I, J)
    return all(I.contains_monomial(g) for g in J.gens)


def _same_ring(I: MonomialIdeal, J: MonomialIdeal):
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")


def hilbert_function(I: MonomialIdeal, d_max: int) -> list:
    """dim_k (R/I)_d for d = 0..d_max.  For M the lcm of the generators of
    degree <= d_max, each c <= M with |c| <= d_max and x^c not in I stands for
    C(d - |c| + f - 1, f - 1) monomials of degree d, f = #{i : c_i = M_i}
    (x^c alone if f = 0); they are counted coordinate by coordinate."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    gens = [g for g in I.gens if mono_degree(g) <= d_max]
    top = tuple(map(max, zip((0,) * I.ring.nvars, *gens)))
    states = {(0, 0, (1 << len(gens)) - 1): 1}  # (|c|, f, generators <= c so far): prefixes
    for i, e in enumerate(top):
        fits = [sum(1 << j for j, g in enumerate(gens) if g[i] <= k) for k in range(e + 1)]
        done = sum(1 << j for j, g in enumerate(gens) if not any(g[i + 1:]))
        prefix, states = states, {}
        for (s, f, alive), w in prefix.items():
            for k in range(min(e, d_max - s) + 1):
                if (left := alive & fits[k]) & done:  # a generator divides x^c, also at any larger k
                    break
                key = s + k, f + (k == e), left
                states[key] = states.get(key, 0) + w
    return [sum(w * (comb(d - s + f - 1, f - 1) if f else d == s) for (s, f, _), w in states.items() if s <= d)
            for d in range(d_max + 1)]


def ideal_monomial_count(I: MonomialIdeal, d: int) -> int:
    """Number of degree-d monomials inside I, by inclusion-exclusion over
    generator subsets (independent of the enumeration in hilbert_function)."""
    n = I.ring.nvars
    total = 0
    gens = I.gens
    for r in range(1, len(gens) + 1):
        for sub in combinations(gens, r):
            l = sub[0]
            for g in sub[1:]:
                l = mono_lcm(l, g)
            rem = d - mono_degree(l)
            if rem >= 0:
                total += (-1) ** (r + 1) * comb(n - 1 + rem, n - 1)
    return total


def fiber_ideal_check(Ip: MonomialIdeal, I: MonomialIdeal, Jp: MonomialIdeal, J: MonomialIdeal) -> bool:
    """(Ip + J) cap (I + Jp) == Ip + I*J + Jp, given Ip <= I and Jp <= J:
    whether R/(Ip + I*J + Jp) is the fiber product of R/(Ip + J) and
    R/(I + Jp) over R/(I + J).

    Monomial ideals form a distributive lattice under + and cap, so
    (Ip + J) cap (I + Jp) = Ip + Jp + (I cap J), which contains
    Q = Ip + I*J + Jp since I*J <= I cap J.  Equality is thus the one
    containment I cap J <= Q.  Tor-independent I and J (is_tor_independent)
    share no variable, so I cap J = IJ, and every instance make_instance
    accepts is a fiber product."""
    if not ideal_contains(I, Ip):
        raise ValueError("Ip must be contained in I")
    if not ideal_contains(J, Jp):
        raise ValueError("Jp must be contained in J")
    Q = ideal_sum(ideal_sum(Ip, Jp), ideal_product(I, J))
    return ideal_contains(Q, ideal_intersection(I, J))


@dataclass
class TorReport:
    witness: Optional[tuple] = None  # (1, d) for a dependent pair: Tor_1 is nonzero in degree d

    def __bool__(self) -> bool:
        return self.witness is None


def is_tor_independent(I: MonomialIdeal, J: MonomialIdeal) -> TorReport:
    """Is Tor_n(R/I, R/J) = 0 for every n >= 1?  Exactly when no variable
    divides a generator of I and one of J.  If none does, the tensor product
    of resolutions of R/I and R/J, in disjoint variables, resolves R/(I + J).
    If x does, Tor_1 = (I cap J)/IJ is nonzero:
      * polarize I and J together; the polarizing linear forms are regular
        on both quotients, so by graded Nakayama, one form at a time, Tor_1
        vanishing before polarizing gives it after.  x stays shared as its
        first copy, and I = I_D, J = I_E are Stanley-Reisner ideals;
      * Tor_1^R(R/I_D, R/I_E) is H_1 of the Koszul complex of the diagonal
        forms x_i - y_i on k[D * E], the Stanley-Reisner ring of the join.
        H_1 = 0 makes them a regular sequence, so each a nonzerodivisor;
      * x lies in a minimal nonface N of D, and N - x in a facet F without
        x; likewise a facet G of E misses x.  So x - y lies in the minimal
        prime of the facet F + G of D * E: a zero divisor.
    The witness is (1, d), d the least degree of a generator of I cap J
    outside IJ; a shared variable with none raises InvariantViolation."""
    if not I.support() & J.support():
        return TorReport()
    IJ = ideal_product(I, J)
    outside = [mono_degree(g) for g in ideal_intersection(I, J).gens if not IJ.contains_monomial(g)]
    if not outside:
        raise InvariantViolation(f"{I} and {J} share a variable, yet I cap J = IJ")
    return TorReport(witness=(1, min(outside)))
