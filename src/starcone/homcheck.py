"""Independent certification by linear algebra over the coefficient field.

Every construction in this package can be audited here: slice a complex
into finite-dimensional pieces over the coefficient field, compute ranks
exactly, and read off homology dimensions degree by degree.  Nothing in this
module reuses the structural shortcuts the constructions themselves rely on.

dim H_n(C)_d = dim ker(d_n)_d - rank(d_{n+1})_d, with the kernel dimension
coming from rank-nullity.  Reducing all matrix entries modulo a monomial
ideal J (and restricting to standard monomials) computes H(C tensor R/J)
instead, which for a resolution of R/I is Tor(R/I, R/J).

Complexes of monomial ideals are Z^N-graded with single-term entries, so a
degree-d piece splits into multidegree blocks: label (j, m) of C_n lies in
block mdeg_j + m, and its matrix is d_n's scalar coefficients on the block's
generators (Miller-Sturmfels, ch. 1-4).  It is fixed by the generators with
mdeg_j <= b (less, modulo J, those with mdeg_j + u <= b for a generator u of
J), so the b are walked up one degree at a time with these sets as bitmasks,
listing no labels; each distinct block is ranked once, counted once per b.
The multidegrees are read off C, not taken from its construction; a complex
without them is ranked one total-degree piece at a time.

Blocks are ranked top degree down by the Gaussian elimination lemma of
algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006): cancelling an
entry d_n[h, g] != 0 keeps homology, deleting row g of d_{n+1} and column h
of d_{n-1}.  The columns of d_{n-1} that are pivot rows of d_n are dropped;
d_{n-1} d_n = 0, which `is_complex` checks first (and which holds modulo J),
makes them combinations of the rest, so the rank is kept and in an exact
block no column left reduces to zero.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .complexes import ChainComplex, InvariantViolation, is_complex, multidegrees
from .ring import MonomialIdeal, hilbert_function, mono_degree, mono_mul, mono_support, monomials_of_degree


@dataclass
class GradedPiece:
    """Matrix of one differential in one internal degree, over the field.

    Columns are the basis (generator index, monomial) of the source, rows
    that of the target, ordered generator-major with monomials descending
    lex within a generator.
    """

    nrows: int
    ncols: int
    entries: dict

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
        for i, p in mat.column(j).items():
            for me, c in p.terms.items():
                prod = mono_mul(me, m)
                if modulo is not None and modulo.contains_monomial(prod):
                    continue
                row = row_index[(i, prod)]
                key = (row, col)
                entries[key] = entries.get(key, 0) + c
    entries = {k: s for k, v in entries.items() if (s := F.of_int(v))}
    return GradedPiece(len(row_labels), len(col_labels), entries)


def _piece_homology(size: dict, ranks: dict, d: int) -> dict:
    """dim H_n = size_n - rank d_n - rank d_{n+1} on one piece of degree d,
    checked: no dimension is negative, and the Euler characteristics agree."""
    h = {n: s - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, s in sorted(size.items())}
    for n, v in h.items():
        if v < 0:
            raise InvariantViolation(f"negative homology dimension at ({n},{d})")
    if sum((-1) ** n * (size[n] - v) for n, v in h.items()):
        raise InvariantViolation("rank-nullity bookkeeping broke")
    return h


def _dense_pieces(C: ChainComplex, d_max: int, modulo: Optional[MonomialIdeal]):
    """Per degree d <= d_max, the homology of the whole degree-d piece."""
    for d in range(d_max + 1):
        size = {n: len(_degree_basis(C, n, d, modulo)) for n in C.support()}
        ranks = {n: graded_piece(C, n, d, modulo).rank(C.ring.coeff_field)
                 for n in size if size[n]}
        yield [(_piece_homology(size, ranks, d), 1)]


def _block_pieces(C: ChainComplex, mdegs: dict, d_max: int, modulo: Optional[MonomialIdeal]):
    """Per degree d <= d_max, (homology, number of b) for each distinct block.
    The block at b, the labels (g, x^(b - mdeg_g)) of _degree_basis, is the
    generators g with mdeg_g <= b less those with mdeg_g + u <= b for some u
    in modulo.gens.  Both sets are bits of one mask per b, the OR of the masks
    at every b - e_i and the bits seeded at b.  Each block is ranked once."""
    base = d_max + 1  # no exponent of a degree-d multidegree exceeds d
    steps = [base ** k for k in range(C.ring.nvars)]
    gens = [(n, j, a) for n, mdeg in mdegs.items() for j, a in enumerate(mdeg)]
    G = len(gens)  # bit G + g: mdeg_g <= b; bit g: mdeg_g + u <= b
    seeds = [defaultdict(int) for _ in range(base)]
    for g, (_, _, a) in enumerate(gens):
        for k, b in [(G + g, a)] + [(g, mono_mul(a, u)) for u in (modulo.gens if modulo else ())]:
            if mono_degree(b) < base:
                seeds[mono_degree(b)][sum(e * s for e, s in zip(b, steps))] |= 1 << k
    columns = {n: [{i: c for i, p in C.diff(n).column(j).items() for c in p.terms.values()}
                   for j in range(C.rank(n))] for n in mdegs}
    memo: dict = {}
    masks: dict = {}
    for d, seeded in enumerate(seeds):
        below, masks = masks, seeded
        for b, mask in below.items():
            for s in steps:
                masks[b + s] |= mask
        counts = Counter(mask >> G & ~mask for mask in masks.values())
        for block in counts:
            if block not in memo:
                gs = [gens[g][:2] for g in range(block.bit_length()) if block >> g & 1]
                memo[block] = _block_homology(C.ring.coeff_field, columns, gs, d)
        yield [(memo[block], count) for block, count in counts.items()]


def _block_homology(F, columns: dict, block: list, d: int) -> dict:
    """Homology of d's scalar coefficients on one block's generators (n, j);
    columns[n][j] is column j of d_n as a {row: coefficient} dict.  Those
    cancelled are the pivot rows of d_{n+1}: none if n + 1 has no generators."""
    gens: dict = {}
    for n, j in block:
        gens.setdefault(n, []).append(j)
    ranks = {}
    cancelled: dict = {}
    for n in sorted(gens, reverse=True):
        rows = set(gens.get(n - 1, ()))
        cancelled = linalg.echelon(F, ({i: c for i, c in columns[n][j].items() if i in rows}
                                       for j in gens[n] if j not in cancelled))
        ranks[n] = len(cancelled)
    return _piece_homology({n: len(cols) for n, cols in gens.items()}, ranks, d)


@dataclass
class HomologyReport:
    """Degreewise homology dimensions up to an internal degree bound."""

    dims: dict            # (n, d) -> dim, nonzero cells only
    degree_bound: int
    complete: bool        # bound covers every twist in the complex
    h0: list              # dim H_0 in degrees 0..degree_bound
    exact_in_positive: bool
    modulo: Optional[str] = None

    def positive_cells(self) -> dict:
        return {(n, d): v for (n, d), v in self.dims.items() if n >= 1}


def homology_dims(C: ChainComplex, d_max: int, modulo: Optional[MonomialIdeal] = None) -> HomologyReport:
    """Dimensions of H_n(C (x) R/modulo)_d for every n and d <= d_max."""
    if d_max < 0:
        raise ValueError("degree bound must be >= 0")
    if not is_complex(C):
        raise ValueError("d^2 != 0: homology dimensions are undefined")
    mdegs = multidegrees(C)
    pieces = (_dense_pieces(C, d_max, modulo) if mdegs is None
              else _block_pieces(C, mdegs, d_max, modulo))
    dims: Counter = Counter()
    for d, homologies in enumerate(pieces):
        for h, count in homologies:
            dims.update({(n, d): v * count for n, v in h.items() if v})
    return HomologyReport(
        dims=dict(dims),
        degree_bound=d_max,
        complete=d_max >= C.max_twist(),
        h0=[dims[0, d] for d in range(d_max + 1)],
        exact_in_positive=not any(n >= 1 for (n, d) in dims),
        modulo=str(modulo) if modulo is not None else None,
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
    return frozenset().union(*(mono_support(m) for mat in X.diffs.values()
                               for _, _, p in mat.nonzero_entries() for m in p.terms))


def is_tor_independent(X: ChainComplex, J: MonomialIdeal, d_max: Optional[int] = None) -> TorReport:
    """Is H_0(X) Tor-independent from R/J?

    Structural fast path: if the variables appearing in X's differentials
    are disjoint from J's support, X stays a resolution after reduction
    (the two sides live in tensor-complementary subrings).  Otherwise
    certify by bounded Tor computation up to d_max, by default
    X.max_twist() + J.max_gen_degree() + 1.
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
