"""Exact Gaussian elimination over the coefficient field.

One forward elimination serves both `rank` and `solve`; its arithmetic is
picked from the field.  A prime field with p^2 < 2^63 rides on int64 numpy
arrays: every intermediate product stays below p^2, and a mod after each
pivot step keeps entries canonical, so the arithmetic is exact.  Larger
primes and the rationals use Python rows written against the field
interface; slower, but those paths only run on audit-sized problems.

Pivoting is deterministic: columns left to right, and within a column the
first nonzero entry scanning rows top-down.  Each pivot row is scaled to a
leading 1 and cleared below only; `solve` then back-substitutes with the
free variables set to zero.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .fields import PrimeField


def _matrix(field, nrows: int, ncols: int, entries: dict):
    """Dense rows of the sparse matrix {(i, j): c}: an int64 array when the
    field's products fit in int64, otherwise lists of field elements."""
    if isinstance(field, PrimeField) and field.p ** 2 < 2 ** 63:
        A = np.zeros((nrows, ncols), dtype=np.int64)
        for (i, j), c in entries.items():
            A[i, j] = c
        A %= field.p
        return A
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for (i, j), c in entries.items():
        rows[i][j] = field.add(field.zero, c)  # canonical, like the int64 `%=`
    return rows


def _eliminate(field, A, ncols: int) -> list:
    """Row-reduce A in place over its first ncols columns (trailing columns
    ride along); returns the pivot columns, the k-th pivot in row k."""
    if isinstance(A, np.ndarray):
        return _eliminate_int64(A, ncols, field.p)
    pivots: list = []
    zero = field.zero
    for c in range(ncols):
        r = len(pivots)
        if r == len(A):
            break
        piv = next((i for i in range(r, len(A)) if A[i][c] != zero), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = field.inv(A[r][c])
        prow = A[r] = [field.mul(v, inv) for v in A[r]]
        support = [k for k in range(c, len(prow)) if prow[k] != zero]
        for row in A[r + 1 :]:
            f = row[c]
            if f != zero:
                for k in support:
                    row[k] = field.sub(row[k], field.mul(f, prow[k]))
        pivots.append(c)
    return pivots


def _eliminate_int64(A: np.ndarray, ncols: int, p: int) -> list:
    pivots: list = []
    m = A.shape[0]
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        below = A[r + 1 :, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            block = A[r + 1 + hit, c:]
            block -= np.outer(below[hit], A[r, c:])
            A[r + 1 + hit, c:] = block % p
        pivots.append(c)
    return pivots


def rank(field, nrows: int, ncols: int, entries: dict) -> int:
    """Rank of a sparse matrix given as {(i, j): field element}."""
    if nrows == 0 or ncols == 0 or not entries:
        return 0
    return len(_eliminate(field, _matrix(field, nrows, ncols, entries), ncols))


def solve(field, nrows: int, ncols: int, entries: dict, rhs: list) -> Optional[list]:
    """One solution of A x = rhs (free variables set to zero), or None."""
    augmented = dict(entries)
    augmented.update(((i, ncols), c) for i, c in enumerate(rhs))
    A = _matrix(field, nrows, ncols + 1, augmented)
    pivots = _eliminate(field, A, ncols)
    rows = A.tolist() if isinstance(A, np.ndarray) else A
    if any(row[ncols] != field.zero for row in rows[len(pivots) :]):
        return None  # inconsistent
    x = [field.zero] * ncols
    for r in reversed(range(len(pivots))):
        row, acc = rows[r], rows[r][ncols]
        for c in pivots[r + 1 :]:
            acc = field.sub(acc, field.mul(row[c], x[c]))
        x[pivots[r]] = acc
    return x
