"""Exact Gaussian elimination over the coefficient field.

One forward elimination on Python rows serves `rank` and `solve` for every
field: prime fields of any size and the rationals.  Scalars are plain
numbers: each cell update is Python arithmetic passed once through the
field's `of_int`, and only the pivot needs the field's `inv`.  The
matrices it sees are multidegree blocks of a few dozen rows and columns,
where plain rows cost less than any array setup.

Pivoting is deterministic: columns left to right, and within a column the
first nonzero entry scanning rows top-down.  Each pivot row is scaled to a
leading 1 and cleared below only; `solve` then back-substitutes with the
free variables set to zero.
"""
from __future__ import annotations

from typing import Optional


def _matrix(field, nrows: int, ncols: int, entries: dict) -> list:
    """Dense rows of the sparse matrix {(i, j): c}, entries made canonical."""
    rows = [[0] * ncols for _ in range(nrows)]
    for (i, j), c in entries.items():
        rows[i][j] = field.of_int(c)
    return rows


def _eliminate(field, A: list, ncols: int) -> list:
    """Row-reduce A in place over its first ncols columns (trailing columns
    ride along); returns the pivot columns, the k-th pivot in row k."""
    pivots: list = []
    norm = field.of_int
    for c in range(ncols):
        r = len(pivots)
        if r == len(A):
            break
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = field.inv(A[r][c])
        prow = A[r] = [norm(v * inv) for v in A[r]]
        support = [k for k in range(c, len(prow)) if prow[k]]
        for row in A[r + 1 :]:
            f = row[c]
            if f:
                for k in support:
                    row[k] = norm(row[k] - f * prow[k])
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
    if any(row[ncols] for row in rows[len(pivots) :]):
        return None  # inconsistent
    x = [0] * ncols
    for r in reversed(range(len(pivots))):
        row = rows[r]
        x[pivots[r]] = field.of_int(row[ncols] - sum(row[c] * x[c] for c in pivots[r + 1 :]))
    return x
