"""Free resolutions of monomial quotients: Koszul and Taylor complexes,
plus Gaussian minimization by sparse Schur updates in one sweep over rows.

No Groebner machinery anywhere: Taylor + minimize is the one route, and
for generators forming a regular sequence the Taylor complex already IS
the (minimal) Koszul complex on them, which minimize leaves as it is.
Taylor complexes carry labels (see complexes), which minimize reads and
keeps; koszul takes arbitrary polynomials and gives PolyMatrix
differentials, labelled when they are monomials.
"""
from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .complexes import ChainComplex, PolyMatrix, is_minimal
from .ring import (
    MonomialIdeal,
    Polynomial,
    RingSpec,
    mono_degree,
    mono_lcm,
    mono_one,
    mono_support,
)


def is_regular_sequence_monomials(monos: Sequence[tuple]) -> bool:
    """Monomials of positive degree form a regular sequence iff their
    variable supports are pairwise disjoint."""
    seen: set = set()
    for m in monos:
        if mono_degree(m) == 0:
            return False
        sup = mono_support(m)
        if sup & seen:
            return False
        seen |= sup
    return True


def trivial_resolution(ring: RingSpec) -> ChainComplex:
    """The rank-one complex R in degree 0; resolves R itself."""
    return ChainComplex.from_labels(ring, {0: (mono_one(ring.nvars),)}, {})


def _subset_complex(r: int, base, step, entry) -> tuple:
    """Labels and columns of the complex with basis e_T in degree n for the
    size-n subsets T of range(r), in lexicographic order: e_T is labelled
    base for T = () and else step(label of T[:-1], T[-1]), and d(e_T) = sum
    over positions pos in T of entry(T, pos) e_{T minus T[pos]}."""
    labels, cols, index = {0: (base,)}, {}, {(): 0}
    for n in range(1, r + 1):
        prev = index
        subsets = list(combinations(range(r), n))
        labels[n] = tuple(step(labels[n - 1][prev[T[:-1]]], T[-1]) for T in subsets)
        cols[n] = [{prev[T[:pos] + T[pos + 1:]]: entry(T, pos) for pos in range(n)} for T in subsets]
        index = {T: pos for pos, T in enumerate(subsets)}
    return labels, cols


def koszul(ring: RingSpec, polys: Sequence[Polynomial]) -> ChainComplex:
    """Koszul complex on homogeneous polynomials f_1..f_m.

    Basis of degree n: e_T for size-n subsets T in lexicographic order;
    d(e_T) = sum over i in T of (-1)^pos(i, T) f_i e_{T minus i}."""
    if not polys:
        return trivial_resolution(ring)
    for f in polys:
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("koszul wants nonzero homogeneous polynomials")
        if f.ring != ring:
            raise ValueError("polynomial from a different ring")
    degs = [f.degree() for f in polys]
    twists, cols = _subset_complex(len(polys), 0, lambda w, i: w + degs[i],
                                   lambda T, pos: polys[T[pos]] if pos % 2 == 0 else -polys[T[pos]])
    return ChainComplex(ring, twists, {n: PolyMatrix._of_columns(ring, len(twists[n - 1]), len(c), c)
                                       for n, c in cols.items()})


def taylor(I: MonomialIdeal) -> ChainComplex:
    """Taylor complex on the minimal generators of a monomial ideal.

    e_T has multidegree lcm(T); the (T, T minus i) entry is the monomial
    lcm(T) / lcm(T minus i) with the usual alternating sign."""
    signs = (1, I.ring.coeff_field.of_int(-1))
    return ChainComplex.from_labels(I.ring, *_subset_complex(
        len(I.gens), mono_one(I.ring.nvars), lambda m, i: mono_lcm(m, I.gens[i]), lambda T, pos: signs[pos % 2]))


def minimize(C: ChainComplex) -> ChainComplex:
    """Cancel unit entries (nonzero entries with mdeg_i == mdeg_g) until
    none remain; a complex without unit entries (is_minimal) is returned as
    it is, and one without labels is refused with a ValueError.

    Pivot choice is deterministic: first unit entry in (homological degree,
    row, column) order.  Cancelling d_n[i, j] removes generator j of C_n and
    generator i of C_{n-1}: every column k of d_n with an entry in row i
    gets the sparse Schur update column_k - column_j * d_n[i, k] / c, with
    c the pivot, and row j of d_{n+1} and column i of d_{n-1} are deleted.
    Generators keep their input indices until the end, so this order is the
    input's.  Labels and homology are untouched.  One sweep, over degrees
    and the rows of d_n ascending, cancels each row's first unit, found in
    a row index (row -> its columns): the update at (i, j) makes a unit at
    (i', k) only where (i', j) is one, so in a later row.
    """
    if is_minimal(C):
        return C
    F, mdegs = C.ring.coeff_field, C.mdegs
    mats = {n: dict(enumerate(map(dict, C.columns(n)))) for n in C.modules}
    rows = {n: {} for n in mats}
    for n, k, i in ((n, k, i) for n, cols in mats.items() for k, col in cols.items() for i in col):
        rows[n].setdefault(i, set()).add(k)
    for n in sorted(mats):
        where, tops = rows[n], mdegs[n]
        for pi, b in enumerate(mdegs.get(n - 1, ())):
            pj = min((k for k in where.get(pi, ()) if tops[k] == b), default=None)
            if pj is None:
                continue
            pcol = mats[n].pop(pj)
            for i in pcol:
                where[i].discard(pj)
            inv = F.inv(pcol.pop(pi))
            for k in where.pop(pi):
                col = mats[n][k]
                factor = F.of_int(col.pop(pi) * inv)
                for i, q in pcol.items():
                    if v := F.of_int(col.get(i, 0) - q * factor):
                        col[i] = v
                        where[i].add(k)
                    else:
                        del col[i]
                        where[i].discard(k)
            for k in rows.get(n + 1, {}).pop(pj, ()):
                del mats[n + 1][k][pj]
            del mats[n - 1][pi]

    keep = {n: sorted(cols) for n, cols in mats.items()}
    index = {n: {g: pos for pos, g in enumerate(gens)} for n, gens in keep.items()}
    cols = {n: [{index[n - 1][i]: v for i, v in mats[n][g].items()} for g in gens]
            for n, gens in keep.items() if n - 1 in keep}
    return ChainComplex.from_labels(C.ring, {n: tuple(mdegs[n][g] for g in gens) for n, gens in keep.items()}, cols)


def resolution_of(I: MonomialIdeal) -> ChainComplex:
    """Minimal free resolution of R/I for a monomial ideal I: the Taylor
    complex, minimized.  On a regular sequence Taylor is already the
    minimal Koszul complex (lcm(T) != lcm(T minus i), so there is no unit
    entry) and minimize returns its labels and columns unchanged."""
    return minimize(taylor(I))
