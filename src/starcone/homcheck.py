"""Independent certification by degreewise linear algebra.

Every construction in this package can be audited here: slice a complex
into its graded pieces over the coefficient field, compute ranks exactly,
and read off homology dimensions degree by degree.  Nothing in this module
reuses the structural shortcuts the constructions themselves rely on.

dim H_n(C)_d = dim ker(d_n)_d - rank(d_{n+1})_d, with the kernel dimension
coming from rank-nullity.  Reducing all matrix entries modulo a monomial
ideal J (and restricting to standard monomials) computes H(C tensor R/J)
instead, which for a resolution of R/I is Tor(R/I, R/J).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import linalg
from .complexes import ChainComplex, InvariantViolation
from .ring import MonomialIdeal, hilbert_function, mono_mul, monomials_of_degree


@dataclass
class GradedPiece:
    """Matrix of one differential in one internal degree, over the field.

    Columns are labeled (generator index, monomial), rows likewise for the
    target; labels are ordered generator-major with monomials descending
    lex within a generator.
    """

    nrows: int
    ncols: int
    entries: dict
    row_labels: list
    col_labels: list

    def rank(self, coeff_field) -> int:
        return linalg.rank(coeff_field, self.nrows, self.ncols, self.entries)


def _degree_basis(C: ChainComplex, n: int, d: int, modulo: Optional[MonomialIdeal]):
    labels = []
    for j, w in enumerate(C.twists(n)):
        rem = d - w
        if rem < 0:
            continue
        for m in monomials_of_degree(C.ring.nvars, rem):
            if modulo is not None and modulo.contains_monomial(m):
                continue
            labels.append((j, m))
    return labels


def graded_piece(C: ChainComplex, n: int, d: int, modulo: Optional[MonomialIdeal] = None) -> GradedPiece:
    """The matrix of d_n : (C_n)_d -> (C_{n-1})_d over the coefficient field."""
    F = C.ring.coeff_field
    col_labels = _degree_basis(C, n, d, modulo)
    row_labels = _degree_basis(C, n - 1, d, modulo)
    row_index = {lab: i for i, lab in enumerate(row_labels)}
    entries: dict = {}
    mat = C.diff(n)
    for col, (j, m) in enumerate(col_labels):
        for i in range(mat.nrows):
            p = mat.entry(i, j)
            if p.is_zero():
                continue
            for me, c in p.terms.items():
                prod = mono_mul(me, m)
                if modulo is not None and modulo.contains_monomial(prod):
                    continue
                row = row_index[(i, prod)]
                key = (row, col)
                entries[key] = F.add(entries[key], c) if key in entries else c
    entries = {k: v for k, v in entries.items() if v != F.zero}
    return GradedPiece(len(row_labels), len(col_labels), entries, row_labels, col_labels)


@dataclass
class HomologyReport:
    """Degreewise homology dimensions up to an internal degree bound."""

    dims: dict            # (n, d) -> dim, nonzero cells only
    degree_bound: int
    complete: bool        # bound covers every twist in the complex
    h0: list              # dim H_0 in degrees 0..degree_bound
    exact_in_positive: bool
    modulo: Optional[str] = None
    module_dims: dict = dc_field(default_factory=dict)  # (n, d) -> dim (C_n)_d

    def dim(self, n: int, d: int) -> int:
        return self.dims.get((n, d), 0)

    def positive_cells(self) -> dict:
        return {(n, d): v for (n, d), v in self.dims.items() if n >= 1}

    def to_json_dict(self) -> dict:
        return {
            "dims": {f"{n},{d}": v for (n, d), v in sorted(self.dims.items())},
            "degree_bound": self.degree_bound,
            "complete": self.complete,
            "h0": list(self.h0),
            "exact_in_positive": self.exact_in_positive,
            **({"modulo": self.modulo} if self.modulo else {}),
        }


def homology_dims(C: ChainComplex, d_max: int, modulo: Optional[MonomialIdeal] = None) -> HomologyReport:
    """Dimensions of H_n(C (x) R/modulo)_d for every n and d <= d_max."""
    if d_max < 0:
        raise ValueError("degree bound must be >= 0")
    from .complexes import is_complex

    if not is_complex(C):
        raise ValueError("d^2 != 0: homology dimensions are undefined")
    F = C.ring.coeff_field
    support = C.support()
    dims: dict = {}
    module_dims: dict = {}
    h0 = [0] * (d_max + 1)
    for d in range(d_max + 1):
        piece_dim = {n: len(_degree_basis(C, n, d, modulo)) for n in support}
        ranks = {}
        for n in support:
            ranks[n] = graded_piece(C, n, d, modulo).rank(F) if piece_dim[n] else 0
        euler_modules = 0
        euler_homology = 0
        for n in support:
            h = piece_dim[n] - ranks[n] - ranks.get(n + 1, 0)
            if h < 0:
                raise InvariantViolation(f"negative homology dimension at ({n},{d})")
            module_dims[(n, d)] = piece_dim[n]
            sign = -1 if n % 2 else 1
            euler_modules += sign * piece_dim[n]
            euler_homology += sign * h
            if h:
                dims[(n, d)] = h
            if n == 0:
                h0[d] = h
        if euler_modules != euler_homology:
            raise InvariantViolation("rank-nullity bookkeeping broke")
    exact = not any(n >= 1 for (n, d) in dims)
    return HomologyReport(
        dims=dims,
        degree_bound=d_max,
        complete=d_max >= C.max_twist(),
        h0=h0,
        exact_in_positive=exact,
        modulo=str(modulo) if modulo is not None else None,
        module_dims=module_dims,
    )


def certifies_resolution_of(C: ChainComplex, I: MonomialIdeal, d_max: int) -> bool:
    """True when C is exact in positive degrees and H_0 agrees with R/I,
    both checked degreewise up to d_max."""
    report = homology_dims(C, d_max)
    return report.exact_in_positive and report.h0 == hilbert_function(I, d_max)


def tor_dims(X: ChainComplex, J: MonomialIdeal, d_max: int) -> HomologyReport:
    """Tor_n(H_0(X), R/J) dimensions by internal degree, for X a resolution:
    reduce the differentials of X modulo J and take homology over the
    standard-monomial basis of R/J."""
    return homology_dims(X, d_max, modulo=J)


@dataclass
class TorReport:
    independent: bool
    mode: str                   # "structural" or "bounded"
    degree_bound: Optional[int] = None
    witness: Optional[tuple] = None  # first (n, d) with Tor_n nonzero, n >= 1

    def __bool__(self) -> bool:
        return self.independent


def _entry_support(X: ChainComplex) -> frozenset:
    out: frozenset = frozenset()
    for mat in X.diffs.values():
        for _, _, p in mat.nonzero_entries():
            for m in p.terms:
                out |= frozenset(i for i, e in enumerate(m) if e)
    return out


def is_tor_independent(X: ChainComplex, J: MonomialIdeal, d_max: Optional[int] = None) -> TorReport:
    """Is H_0(X) Tor-independent from R/J?

    Structural fast path: if the variables appearing in X's differentials
    are disjoint from J's support, X stays a resolution after reduction
    (the two sides live in tensor-complementary subrings).  Otherwise
    certify by bounded Tor computation, which needs an explicit d_max.
    """
    if not _entry_support(X) & J.support():
        return TorReport(independent=True, mode="structural")
    if d_max is None:
        d_max = X.max_twist() + J.max_gen_degree() + 1
    report = tor_dims(X, J, d_max)
    positive = {cell: v for cell, v in report.dims.items() if cell[0] >= 1}
    witness = min(positive) if positive else None
    return TorReport(
        independent=not positive,
        mode="bounded",
        degree_bound=d_max,
        witness=witness,
    )
