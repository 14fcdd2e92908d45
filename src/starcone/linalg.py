"""Exact Gaussian elimination over the coefficient field.

One forward elimination on Python rows, written against the field
interface, serves `rank` and `solve` for every field: prime fields of any
size and the rationals.  The matrices it sees are multidegree blocks of a
few dozen rows and columns, where plain rows cost less than any array setup.

Pivoting is deterministic: columns left to right, and within a column the
first nonzero entry scanning rows top-down.  Each pivot row is scaled to a
leading 1 and cleared below only; `solve` then back-substitutes with the
free variables set to zero.
"""
from __future__ import annotations

from typing import Optional


def _matrix(field, nrows: int, ncols: int, entries: dict) -> list:
    """Dense rows of the sparse matrix {(i, j): c}, entries made canonical."""
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for (i, j), c in entries.items():
        rows[i][j] = field.add(field.zero, c)
    return rows


def _eliminate(field, A: list, ncols: int) -> list:
    """Row-reduce A in place over its first ncols columns (trailing columns
    ride along); returns the pivot columns, the k-th pivot in row k."""
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


def rank(field, nrows: int, ncols: int, entries: dict) -> int:
    """Rank of a sparse matrix given as {(i, j): field element}."""
    if nrows == 0 or ncols == 0 or not entries:
        return 0
    return len(_eliminate(field, _matrix(field, nrows, ncols, entries), ncols))


def solve(field, nrows: int, ncols: int, entries: dict, rhs: list) -> Optional[list]:
    """One solution of A x = rhs (free variables set to zero), or None."""
    augmented = dict(entries)
    augmented.update(((i, ncols), c) for i, c in enumerate(rhs))
    rows = _matrix(field, nrows, ncols + 1, augmented)
    pivots = _eliminate(field, rows, ncols)
    if any(row[ncols] != field.zero for row in rows[len(pivots) :]):
        return None  # inconsistent
    x = [field.zero] * ncols
    for r in reversed(range(len(pivots))):
        row, acc = rows[r], rows[r][ncols]
        for c in pivots[r + 1 :]:
            acc = field.sub(acc, field.mul(row[c], x[c]))
        x[pivots[r]] = acc
    return x
