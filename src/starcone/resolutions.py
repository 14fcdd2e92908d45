"""Free resolutions of monomial quotients: Koszul and Taylor complexes,
plus Gaussian minimization of an arbitrary complex by sparse Schur updates.

No Groebner machinery anywhere: Taylor + minimize is the general route,
and for generators forming a regular sequence the Taylor complex already
IS the Koszul complex on them.
"""
from __future__ import annotations

import heapq
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
    """Cancel unit entries (nonzero constant coefficient) until none remain.

    Pivot choice is deterministic: first unit entry in (homological degree,
    row, column) order.  Cancelling d_n[i, j] removes generator j of C_n and
    generator i of C_{n-1}: every column k of d_n with an entry in row i
    gets the sparse Schur update column_k - column_j * d_n[i, k] / c, with
    c the pivot's constant coefficient, and row j of d_{n+1} and column i
    of d_{n-1} are deleted.  Generators keep their input indices until the
    end, so this order is the input's.  Needs no grading; homology is
    untouched.
    """
    F, zero = C.ring.coeff_field, Polynomial.zero(C.ring)
    mats = {n: {j: dict(C.diff(n).column(j)) for j in range(C.rank(n))} for n in C.modules}
    units = [(n, i, j) for n, cols in mats.items() for j, col in cols.items()
             for i, p in col.items() if p.constant_coeff()]
    heapq.heapify(units)  # may hold stale positions, skipped when popped
    while units:
        n, pi, pj = heapq.heappop(units)
        pivot = mats[n].get(pj, {}).get(pi)
        if pivot is None or not pivot.constant_coeff():
            continue
        inv = F.inv(pivot.constant_coeff())
        pcol = mats[n].pop(pj)
        for k, col in mats[n].items():
            if pi not in col:
                continue
            factor = col.pop(pi).scale(inv)
            for i, q in pcol.items():
                if i == pi:
                    continue
                p = col.get(i, zero) - q * factor
                if not p.terms:
                    col.pop(i, None)
                    continue
                col[i] = p
                if p.constant_coeff():
                    heapq.heappush(units, (n, i, k))
        for col in mats.get(n + 1, {}).values():
            col.pop(pj, None)
        del mats[n - 1][pi]

    keep = {n: sorted(cols) for n, cols in mats.items()}
    index = {n: {g: pos for pos, g in enumerate(gens)} for n, gens in keep.items()}
    diffs = {
        n: PolyMatrix.from_entries(C.ring, len(keep[n - 1]), len(gens), {
            (index[n - 1][i], index[n][g]): p for g in gens for i, p in mats[n][g].items()})
        for n, gens in keep.items() if n - 1 in keep
    }
    modules = {n: tuple(C.twists(n)[g] for g in gens) for n, gens in keep.items()}
    return ChainComplex(C.ring, modules, diffs, check=False)


def resolution_of(I: MonomialIdeal) -> ChainComplex:
    """Minimal free resolution of R/I for a monomial ideal I."""
    if I.is_zero():
        return trivial_resolution(I.ring)
    if is_regular_sequence_monomials(I.gens):
        return koszul(I.ring, [Polynomial.monomial(I.ring, g) for g in I.gens])
    return minimize(taylor(I))
