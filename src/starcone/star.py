"""Star product of two augmented complexes.

Given resolutions X of R/I and Y of R/J with rank-one degree-0 pieces, the
star product glues the positive parts: degree n >= 1 is the degree-(n+1)
piece of X_{>=1} (x) Y_{>=1}, degree 0 is R again.  On a basis pair a * b,

    d(a * b) = [ |a| > 1 ]  da * b
             + [ |b| > 1 ]  (-1)^{|a|} a * db
             + [ |a| = |b| = 1 ]  (d a) (d b)

where the last case multiplies the two augmentation images inside R.  When
I and J share no variable (Tor-independence, by ring.is_tor_independent)
this resolves R/IJ, and it is minimal whenever X and Y are.
"""
from __future__ import annotations

from .complexes import ChainComplex, pair_map
from .ring import mono_mul


def _check_bottom(C: ChainComplex, name: str):
    if C.rank(0) != 1 or C.twists(0) != (0,):
        raise ValueError(f"{name} must have a single twist-0 generator in degree 0")
    if C.min_degree() < 0:
        raise ValueError(f"{name} has modules in negative degrees")


def star_basis(X: ChainComplex, Y: ChainComplex, n: int) -> list:
    """Ordered basis labels (i, a, j, b) of (X * Y)_n for n >= 1: left
    homological degree ascending, then left index, then right index."""
    return [(i, a, n + 1 - i, b) for i in sorted(X.modules) if i >= 1 and n - i >= 0 and n + 1 - i in Y.modules
            for a in range(X.rank(i)) for b in range(Y.rank(n + 1 - i))]


def star_product(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """X * Y on labels: multidegrees add, and the degree-1 products are
    products of scalars."""
    if X.ring != Y.ring:
        raise ValueError("star factors live in different rings")
    _check_bottom(X, "left factor")
    _check_bottom(Y, "right factor")
    F, left, right = X.ring.coeff_field, X.mdegs, Y.mdegs

    top = X.max_degree() + Y.max_degree() - 1
    mdegs = {0: left[0]}
    bases = {}
    for n in range(1, max(top, 0) + 1):
        basis = star_basis(X, Y, n)
        if basis:
            bases[n] = basis
            mdegs[n] = tuple(mono_mul(left[i][a], right[j][b]) for (i, a, j, b) in basis)
    cols = {}
    for n, basis in sorted(bases.items()):
        if n == 1:
            dX1, dY1 = X.columns(1), Y.columns(1)
            cols[1] = [{0: F.of_int(dX1[a][0] * dY1[b][0])} if dX1[a] and dY1[b] else {} for (_, a, _, b) in basis]
            continue
        cols[n] = pair_map(
            basis, bases[n - 1],
            lambda i, j: (X.columns(i), i - 1, False) if i > 1 else None,
            lambda i, j: (Y.columns(j), j - 1, i % 2 == 1) if j > 1 else None,
            F,
        )
    return ChainComplex.from_labels(X.ring, mdegs, cols)
