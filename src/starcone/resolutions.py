"""Free resolutions of monomial quotients: Koszul and Taylor complexes,
plus Gaussian minimization of an arbitrary complex.

No Groebner machinery anywhere: Taylor + minimize is the general route,
and for generators forming a regular sequence the Taylor complex already
IS the Koszul complex on them.
"""
from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .complexes import ChainComplex, PolyMatrix
from .ring import (
    MonomialIdeal,
    Polynomial,
    RingSpec,
    mono_degree,
    mono_div,
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
    return ChainComplex(ring, {0: (0,)}, {})


def _subset_complex(ring: RingSpec, r: int, twist, entry) -> ChainComplex:
    """Complex with basis e_T in degree n for the size-n subsets T of
    range(r), in lexicographic order, twisted by twist(T), and with
    d(e_T) = sum over positions pos in T of entry(T, pos, T minus T[pos])."""
    modules, index = {}, {}
    for n in range(r + 1):
        subsets = list(combinations(range(r), n))
        index[n] = {T: pos for pos, T in enumerate(subsets)}
        modules[n] = tuple(twist(T) for T in subsets)
    diffs = {}
    for n in range(1, r + 1):
        entries = {}
        for T, col in index[n].items():
            for pos in range(n):
                rest = T[:pos] + T[pos + 1 :]
                entries[(index[n - 1][rest], col)] = entry(T, pos, rest)
        diffs[n] = PolyMatrix.from_entries(ring, len(index[n - 1]), len(index[n]), entries)
    return ChainComplex(ring, modules, diffs)


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
    return _subset_complex(
        ring, len(polys),
        lambda T: sum(degs[i] for i in T),
        lambda T, pos, rest: polys[T[pos]] if pos % 2 == 0 else -polys[T[pos]],
    )


def taylor(I: MonomialIdeal) -> ChainComplex:
    """Taylor complex on the minimal generators of a monomial ideal.

    e_T has twist deg lcm(T); the (T, T minus i) entry is the monomial
    lcm(T) / lcm(T minus i) with the usual alternating sign."""
    if I.is_zero():
        return trivial_resolution(I.ring)
    ring = I.ring
    lcms = {(): mono_one(ring.nvars)}

    def lcm_of(T):
        if T not in lcms:
            lcms[T] = mono_lcm(lcm_of(T[:-1]), I.gens[T[-1]])
        return lcms[T]

    return _subset_complex(
        ring, len(I.gens),
        lambda T: mono_degree(lcm_of(T)),
        lambda T, pos, rest: Polynomial.monomial(
            ring, mono_div(lcm_of(T), lcm_of(rest)), 1 if pos % 2 == 0 else -1
        ),
    )


def minimize(C: ChainComplex) -> ChainComplex:
    """Cancel unit (degree-zero) entries until none remain.

    Pivot choice is deterministic: first constant entry in (homological
    degree, row, column) order.  Each cancellation removes one generator
    at n and one at n-1, applies the Schur update to the differential at
    n, deletes the pivot row from the differential at n+1 and the pivot
    column from the differential at n-1.  Homology is untouched.
    """
    F = C.ring.coeff_field
    mods = {n: list(tw) for n, tw in C.modules.items()}
    mats = {
        n: [list(row) for row in C.diff(n).rows] for n in sorted(mods)
    }

    def find_pivot():
        for n in sorted(mats):
            for i, row in enumerate(mats[n]):
                for j, p in enumerate(row):
                    if not p.is_zero() and p.constant_coeff() != F.zero:
                        return n, i, j
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        n, pi, pj = hit
        mat = mats[n]
        inv = F.inv(mat[pi][pj].constant_coeff())
        old_rows = len(mat)
        old_cols = len(mat[0]) if mat else 0
        new = []
        for i in range(old_rows):
            if i == pi:
                continue
            row = []
            for j in range(old_cols):
                if j == pj:
                    continue
                p = mat[i][j] - mat[i][pj] * mat[pi][j].scale(inv)
                row.append(p)
            new.append(row)
        mats[n] = new
        if n + 1 in mats:
            mats[n + 1] = [row for i, row in enumerate(mats[n + 1]) if i != pj]
        if n - 1 in mats:
            mats[n - 1] = [
                [p for j, p in enumerate(row) if j != pi] for row in mats[n - 1]
            ]
        mods[n].pop(pj)
        mods[n - 1].pop(pi)

    modules = {n: tuple(tw) for n, tw in mods.items() if tw}
    diffs = {}
    for n, rows in mats.items():
        nrows = len(modules.get(n - 1, ()))
        ncols = len(modules.get(n, ()))
        if nrows and ncols:
            diffs[n] = PolyMatrix(C.ring, nrows, ncols, rows)
    return ChainComplex(C.ring, modules, diffs, check=False)


def resolution_of(I: MonomialIdeal) -> ChainComplex:
    """Minimal free resolution of R/I for a monomial ideal I."""
    if I.is_zero():
        return trivial_resolution(I.ring)
    if is_regular_sequence_monomials(I.gens):
        return koszul(I.ring, [Polynomial.monomial(I.ring, g) for g in I.gens])
    return minimize(taylor(I))
