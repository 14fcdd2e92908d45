"""Independent certification by linear algebra over the coefficient field.

Every construction in this package can be audited here: slice a complex
into finite-dimensional pieces over the coefficient field, compute ranks
exactly, and read off homology dimensions.  Nothing in this module reuses
the structural shortcuts the constructions themselves rely on.

dim H_n(C)_b = dim ker(d_n)_b - rank(d_{n+1})_b, with the kernel dimension
coming from rank-nullity.  tor_dims, the tests' oracle for
ring.is_tor_independent, ranks X (x) Y by the same walk.  It builds X (x) Y
with complexes.tensor and resolutions.resolution_of, so its independence
from the construction rests on the test reference in tests/helpers.py.

Complexes of monomial ideals are Z^N-graded with single-term entries, so a
piece splits into multidegree blocks: label (j, m) of C_n lies in block
mdeg_j + m, and its matrix is d_n's scalar coefficients on the block's
generators (Miller-Sturmfels, ch. 1-4).  It is fixed by the generators with
mdeg_j <= b.  These all lie below their lcm M, so the block at b is the one
at min(b, M), and one walk over the box 0 <= b <= M decides every degree; a
degree bound only limits the printed table.  The distinct blocks, each
ranked once, are the points of the LCM lattice (Gasharov-Peeva-Welker, Math.
Res. Lett. 6, 1999).  The multidegrees and scalars are the labels C carries
(see complexes).  The labels define the complex, so the certifier ranks
exactly what is exported, and a complex parsed by `verify --in` gets them
from the text when it is made.  A complex without them falls back to total
degree: the piece of each degree d up to the bound, from the lowest twist
if it is negative, the labels (j, m) with twist_j + |m| = d, is ranked as
one block by the same routine, so the verdicts are bounded.  Both walks
yield pieces of one kind, and H_0 is R/against when each piece has dim H_0
= dim (R/against) there: the box walk seeds against's generators beside
C's, so the OR that builds a block also decides whether x^b is in against,
and the fallback reads ring.hilbert_function.

Blocks are ranked top degree down by the Gaussian elimination lemma of
algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006): cancelling an
entry d_n[h, g] != 0 keeps homology, deleting row g of d_{n+1} and column h
of d_{n-1}.  Columns of d_{n-1} that are pivot rows of d_n are skipped:
d_{n-1} d_n = 0 makes them combinations of the rest, so every column set
between "not cancelled" and "all" has the same rank.  So d^2 = 0 is checked
(`is_complex`) before any block is ranked: by scalar sums under labels, by
polynomial products on the fallback.  A column's entries lie in rows of
multidegree <= its own, so the block A at b - e_i is a subcomplex of the
block B at b (Bayer-Sturmfels's X_{<=b}), and Q = B/A is spanned by the new
generators N, with d on N's rows.  When H_n(A) = 0 for every n > lo, C's
lowest degree, the long exact sequence of 0 -> A -> B -> Q -> 0 (Weibel, An
Introduction to Homological Algebra, Thm 1.3.1) gives H_n(B) = H_n(Q) for
n >= lo + 2, dim H_lo(B) = |B_lo| - rank d_{lo+1} and dim H_{lo+1}(B) =
dim H_{lo+1}(Q) - dim H_lo(A) + dim H_lo(B) - dim H_lo(Q).  So b ranks only
Q, once per distinct N, and extends an echelon basis of d_{lo+1} by N's
columns.  After a block with homology above lo (never one of a
resolution, whose blocks are its exact strands) the sequence starts from
the empty block A: then Q = B, and the same rule gives H(B) = H(Q).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product
from math import comb, prod
from operator import eq, mul
from typing import Optional

from . import linalg
from .complexes import ChainComplex, is_complex, tensor
from .resolutions import resolution_of
from .ring import InvariantViolation, MonomialIdeal, hilbert_function, mono_mul, mono_str, monomials_of_degree

# The most points of an lcm box that one certification walks: the walk holds
# states for one slab only and homology_dims only running totals, but it
# visits every point, so a box such as that of x^(10^30) would not finish.
# Block instances of squares have 3^(m+n) points: 59049 at 5+5, the largest
# the tests and the benchmark walk, and 531441 at 6+6.
MAX_BOX_POINTS = 1_000_000
# The most labels the total-degree fallback ranks over all its degrees:
# sum_j C(bound - twist_j + N, N) over the generators j, in N variables, so
# about bound^N.  The Koszul complex of (x + y, z^2) in tests/data has 974965
# at bound 113, the largest it is ranked at: 3.6 s and 34 MiB max RSS with
# Python 3.11 on a 2-vCPU host.
MAX_FALLBACK_LABELS = 1_000_000


class BoxTooLarge(ValueError):
    """A walk above its limit: an lcm box of more than MAX_BOX_POINTS points,
    or a total-degree fallback of more than MAX_FALLBACK_LABELS labels."""


def _degree_basis(C: ChainComplex, n: int, d: int):
    monos = {w: monomials_of_degree(C.ring.nvars, d - w) for w in set(C.twists(n)) if w <= d}
    return [(j, m) for j, w in enumerate(C.twists(n)) if w in monos for m in monos[w]]


def graded_piece(C: ChainComplex, n: int, d: int) -> list:
    """The columns of d_n : (C_n)_d -> (C_{n-1})_d over the coefficient field,
    one {row: coefficient} dict per label (generator index, monomial) of the
    source; labels are ordered generator-major, monomials descending lex."""
    row_index = {lab: i for i, lab in enumerate(_degree_basis(C, n - 1, d))}
    mat = C.diff(n)
    columns = []
    for j, m in _degree_basis(C, n, d):
        col = {}
        for i, p in mat.column(j).items():
            for me, c in p.terms.items():
                col[row_index[i, mono_mul(me, m)]] = c
        columns.append(col)
    return columns


def _dense_pieces(C: ChainComplex, d_max: int, against: Optional[MonomialIdeal]):
    """Per degree d <= d_max, from C's lowest twist if it is negative, (None,
    d, 0, homology of the degree-d piece, dim (R/against)_d, 0 below degree
    0), ranked as one block whose generators are the piece's labels."""
    N, twists = C.ring.nvars, [w for n in C.support() for w in C.twists(n)]
    if (labels := sum(comb(d_max - w + N, N) for w in twists if w <= d_max)) > MAX_FALLBACK_LABELS:
        raise BoxTooLarge(f"total-degree fallback of {labels} labels up to degree {d_max} "
                          f"is above {MAX_FALLBACK_LABELS}, the largest ranked")
    hf = dict(enumerate(hilbert_function(against, d_max))) if against is not None else {}
    for d in range(min([0, *twists]), d_max + 1):
        columns, degrees = _numbered({n: graded_piece(C, n, d) for n in C.support()})
        h = _block_homology(C.ring.coeff_field, columns, degrees, (1 << len(columns)) - 1)
        yield None, d, 0, _checked(h, f"degree {d}"), hf.get(d, 0)


def _numbered(pieces: dict) -> tuple:
    """Number the generators degree by degree, lowest first, given pieces
    {n: the columns of d_n}: d's columns as {row generator: c}, and
    [(n, the mask of C_n's generators)]."""
    first = dict(zip(pieces, accumulate(map(len, pieces.values()), initial=0)))
    columns = [{first[n - 1] + i: c for i, c in col.items()} for n, cols in pieces.items() for col in cols]
    return columns, [(n, (1 << len(cols)) - 1 << first[n]) for n, cols in pieces.items()]


def _box_pieces(C: ChainComplex, against: Optional[MonomialIdeal]):
    """(b, |b|, #{i : b_i = M_i}, homology, dim (R/against)_b) at each b of
    the box 0 <= b <= M, for C carrying labels.  The block at b, the labels
    (g, x^(b - mdeg_g)) of _degree_basis, is the generators g with mdeg_g <=
    b: as a mask, the OR of the blocks at every b - e_i, walked first, and
    the bits seeded at b.  against's generators are seeded at bits G and up,
    for C's G generators, and M covers them: x^b is in against iff its block
    holds one.  Only C's bits are ranked, and a resolution of against gains
    no update, as each such seed comes with a generator of C_1.  A state
    (block, homology, echelon basis of d_{lo+1}) is kept per point, shared
    while the block does not change, in a window of one slab and one point:
    no b reaches back further than b - e_N.  b extends by the long exact
    sequence the state of its predecessor with the largest block, or the
    empty state when that predecessor has homology above lo."""
    mdegs = [a for mdeg in C.mdegs.values() for a in mdeg]
    ours = (1 << len(mdegs)) - 1  # C's generators; against's are seeded above them
    mdegs += against.gens if against is not None else ()
    columns, degrees = _numbered({n: C.columns(n) for n in C.mdegs})
    top = tuple(map(max, zip((0,) * C.ring.nvars, *mdegs)))
    if (points := prod(e + 1 for e in top)) > MAX_BOX_POINTS:
        raise BoxTooLarge(f"lcm box of {points} points is above {MAX_BOX_POINTS}, the largest walked")
    steps = [prod(e + 1 for e in top[:k]) for k in range(len(top))]
    seeds: Counter = Counter()  # code -> the mask of the generators labelled there
    for g, b in enumerate(mdegs):
        seeds[sum(map(mul, b, steps))] |= 1 << g
    F, ring, memo, empty, window = C.ring.coeff_field, C.ring, {}, (0, {}, {}), steps[-1] + 1
    states = [empty] * window
    lo, low_gens = degrees[0] if degrees else (0, 0)
    up_gens = dict(degrees).get(lo + 1, 0)
    for code, last_first in enumerate(product(*(range(e + 1) for e in reversed(top)))):
        b, block, state = last_first[::-1], seeds[code], empty
        for s, e in zip(steps, b):
            if e:
                block |= (before := states[(code - s) % window])[0]
                if before[0].bit_count() > state[0].bit_count():
                    state = before
        if block != state[0]:  # the long exact sequence of A -> B -> B/A
            A, hA, low = state if state[1].keys() <= {lo} else empty
            if (N := block & ours & ~A) not in memo:
                memo[N] = _checked(_block_homology(F, columns, degrees, N), b, ring)
            hQ, size = memo[N], (block & low_gens).bit_count()
            if N & up_gens and len(low) < size:
                low = linalg.echelon(F, (dict(columns[g]) for g in _bits(N & up_gens)), basis=low)
            h = {n: v for n, v in hQ.items() if n > lo + 1}
            if h_lo := size - len(low):
                h[lo] = h_lo
            if up := hQ.get(lo + 1, 0) - hA.get(lo, 0) + h_lo - hQ.get(lo, 0):
                h[lo + 1] = up
            state = block, _checked(h, b, ring) if up < 0 else h, low  # hQ is checked
        states[code % window] = state
        yield b, sum(b), sum(map(eq, b, top)), state[1], block <= ours  # 1 iff no seed of against's


def _bits(mask: int):
    """The set bits of mask, highest first."""
    while mask:
        yield (g := mask.bit_length() - 1)
        mask ^= 1 << g


def _block_homology(F, columns: list, degrees: list, block: int) -> dict:
    """dim H_n for each n of the generators in the mask block, with d on the
    block's rows.  One echelon basis serves every degree, since the pivot
    rows of d_n are generators of degree n - 1: top degree down, a
    generator's column is reduced unless it is a pivot row already.  dim H_n
    = size_n - rank d_n - rank d_{n+1}, checked: the Euler sums agree."""
    basis, present = {}, {n: block & gens for n, gens in degrees if block & gens}
    for n, gens in reversed(present.items()):
        if n - 1 in present:
            cols = ({i: c for i, c in columns[g].items() if block >> i & 1} for g in _bits(gens) if g not in basis)
            basis = linalg.echelon(F, cols, basis=basis)
    pivots = sum(1 << p for p in basis)  # rank d_n: the pivots of degree n - 1
    h = {n: v for n, gens in present.items()
         if (v := (gens & ~pivots).bit_count() - (pivots & present.get(n - 1, 0)).bit_count())}
    if sum((-1) ** n * (gens.bit_count() - h.get(n, 0)) for n, gens in present.items()):
        raise InvariantViolation("rank-nullity bookkeeping broke")
    return h


def _checked(h: dict, where, ring=None) -> dict:
    """h, unless a dimension is negative: InvariantViolation naming where, a
    box point when ring is given."""
    if min(h.values(), default=0) < 0:
        n, at = min(n for n, v in h.items() if v < 0), mono_str(where, ring) if ring else where
        raise InvariantViolation(f"negative homology dimension in H_{n} at {at}")
    return h


@dataclass
class HomologyReport:
    """Homology dimensions up to a printing bound, and verdicts on all of it."""

    dims: dict            # (n, d) -> dim for d <= degree_bound, nonzero cells only
    degree_bound: int
    complete: bool        # the box walk ran: the verdicts hold in every degree
    h0: list              # dim H_0 in degrees 0..degree_bound
    exact_in_positive: bool
    h0_matches: Optional[bool] = None    # H_0 is R/against, when that is given
    homology_at: Optional[tuple] = None  # (n, b): least n >= 1, then |b|, with H_n at box point b

    def positive_cells(self) -> dict:
        return {(n, d): v for (n, d), v in self.dims.items() if n >= 1}


def homology_dims(C: ChainComplex, d_max: int, *, against: Optional[MonomialIdeal] = None) -> HomologyReport:
    """Dimensions of H_n(C)_d for every n and d <= d_max, and whether H_0 is
    R/against: whether every piece has dim H_0 = dim (R/against) there.  The
    b of degree d with min(b, M) = c are C(d - |c| + |A| - 1, |A| - 1) for
    A = {i : c_i = M_i} nonempty, else c alone."""
    if d_max < 0:
        raise ValueError("degree bound must be >= 0")
    if against is not None and against.ring != C.ring:
        raise ValueError("against lives in a different ring from the complex")
    if not is_complex(C):
        raise ValueError("d^2 != 0: homology dimensions are undefined")
    weights, at, h0_ok, b = Counter(), None, True, None
    for b, deg, free, h, r in _box_pieces(C, against) if C.is_multigraded() else _dense_pieces(C, d_max, against):
        for n, v in h.items():
            if deg <= d_max:  # a point above the bound reaches no printed cell
                weights[n, deg, free, v] += 1
            if n >= 1 and (at is None or (n, deg, b) < at):
                at = n, deg, b
        h0_ok = h0_ok and h.get(0, 0) == r
    dims: Counter = Counter()
    for (n, deg, free, v), count in weights.items():
        for d in range(deg, d_max + 1):
            dims[n, d] += count * v * (comb(d - deg + free - 1, free - 1) if free else d == deg)
    return HomologyReport(
        dims={cell: v for cell, v in dims.items() if v},
        degree_bound=d_max,
        complete=b is not None,  # the last piece's b: None on the fallback
        h0=[dims[0, d] for d in range(d_max + 1)],
        exact_in_positive=at is None,
        h0_matches=None if against is None else h0_ok,
        homology_at=(at[0], at[2]) if at and at[2] is not None else None,
    )


def certifies_resolution_of(C: ChainComplex, I: MonomialIdeal, d_max: int) -> bool:
    """True when C is exact in positive degrees and H_0 agrees with R/I: in
    every degree for a multigraded C, up to d_max otherwise."""
    report = homology_dims(C, d_max, against=I)
    return report.exact_in_positive and report.h0_matches


def tor_dims(X: ChainComplex, J: MonomialIdeal, d_max: int) -> HomologyReport:
    """Tor_n(H_0(X), R/J) dimensions by internal degree, for X a resolution
    carrying labels: the homology of X (x) Y for Y the minimal resolution of
    R/J (balance of Tor).  Its homology_at, even at bound 0, is the first
    (n, b) with Tor_n nonzero at b, in every degree."""
    return homology_dims(tensor(X, resolution_of(J)), d_max)

