"""Star product of two augmented complexes.

Given resolutions X of R/I and Y of R/J with rank-one degree-0 pieces, the
star product glues the positive parts: degree n >= 1 is the degree-(n+1)
piece of X_{>=1} (x) Y_{>=1}, degree 0 is R again.  On a basis pair a * b,

    d(a * b) = [ |a| > 1 ]  da * b
             + [ |b| > 1 ]  (-1)^{|a|} a * db
             + [ |a| = |b| = 1 ]  (d a) (d b)

where the last case multiplies the two augmentation images inside R.  When
I and J are Tor-independent this resolves R/IJ, and it is minimal whenever
X and Y are.
"""
from __future__ import annotations

from .complexes import ChainComplex, PolyMatrix, graded_betti, is_minimal, pair_map
from .formulas import betti_product_table


def _check_bottom(C: ChainComplex, name: str):
    if C.rank(0) != 1 or C.twists(0) != (0,):
        raise ValueError(f"{name} must have a single twist-0 generator in degree 0")
    if C.min_degree() < 0:
        raise ValueError(f"{name} has modules in negative degrees")


def star_basis(X: ChainComplex, Y: ChainComplex, n: int) -> list:
    """Ordered basis labels (i, a, j, b) of (X * Y)_n for n >= 1: left
    homological degree ascending, then left index, then right index."""
    out = []
    for i in sorted(X.modules):
        if i < 1:
            continue
        j = n + 1 - i
        if j < 1 or j not in Y.modules:
            continue
        for a in range(X.rank(i)):
            for b in range(Y.rank(j)):
                out.append((i, a, j, b))
    return out


def star_product(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    if X.ring != Y.ring:
        raise ValueError("star factors live in different rings")
    ring = X.ring
    _check_bottom(X, "left factor")
    _check_bottom(Y, "right factor")

    top = X.max_degree() + Y.max_degree() - 1
    modules = {0: (0,)}
    bases = {}
    for n in range(1, max(top, 0) + 1):
        labels = star_basis(X, Y, n)
        if labels:
            bases[n] = labels
            modules[n] = tuple(X.twists(i)[a] + Y.twists(j)[b] for (i, a, j, b) in labels)
    diffs = {}
    for n, labels in sorted(bases.items()):
        if n == 1:
            dX1, dY1 = X.diff(1), Y.diff(1)
            products = [dX1.entry(0, a) * dY1.entry(0, b) for (_, a, _, b) in labels]
            diffs[1] = PolyMatrix(ring, 1, len(labels), [products])
            continue
        diffs[n] = pair_map(
            ring, labels, bases[n - 1],
            lambda i, j: (X.diff(i), i - 1, False) if i > 1 else None,
            lambda i, j: (Y.diff(j), j - 1, i % 2 == 1) if j > 1 else None,
        )
    return ChainComplex(ring, modules, diffs, check=False)


def star_betti_check(X: ChainComplex, Y: ChainComplex) -> bool:
    """Verify, for minimal X and Y, that the star product's Betti table is
    the shifted convolution of the factors' tables:

        beta_{l,k}(X * Y) = sum_{i=1..l} sum_j beta_{i,j}(X) beta_{l+1-i, k-j}(Y)

    for l >= 1, and beta(X * Y) is 1 in degree (0, 0)."""
    if not (is_minimal(X) and is_minimal(Y)):
        raise ValueError("star_betti_check wants minimal inputs")
    product = betti_product_table(graded_betti(X), graded_betti(Y))
    return graded_betti(star_product(X, Y)) == product
