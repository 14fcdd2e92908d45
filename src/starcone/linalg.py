"""Exact linear algebra over the coefficient field: one sparse column reduction.

Columns, `{row: c}` dicts of nonzero field elements, are reduced left to
right against an echelon basis keyed by pivot row, the least row: a column
left nonzero is independent of those before it and joins the basis, scaled
to 1 at its pivot, so the rank is the size of the basis.  `solve` returns
the solution that is zero off these greedy pivot columns.  Column j carries
a tag 1 in row nrows + j, past every true row and so never a pivot; x is read
off the tags of the reduced right-hand side.  Scalars are plain numbers,
each update passed once through `of_int`.
"""
from __future__ import annotations

from typing import Iterable, Optional


def _reduce(field, basis: dict, col: dict):
    """Reduce col in place until its least row is no pivot; return that row,
    or None when col is reduced to zero."""
    norm = field.of_int
    while col:
        p = min(col)
        b = basis.get(p)
        if b is None:
            return p
        f = col[p]
        for k, v in b.items():
            if s := norm(col.get(k, 0) - f * v):
                col[k] = s
            else:
                del col[k]
    return None


def echelon(field, columns: Iterable[dict], nrows: Optional[int] = None, basis: Optional[dict] = None) -> dict:
    """The echelon basis {pivot row: column} of a copy of basis, if given, and
    the columns, reduced in place in order; its size is their rank.  Rows
    from nrows on are never pivots."""
    basis = dict(basis or {})
    norm = field.of_int
    for col in columns:
        p = _reduce(field, basis, col)
        if p is not None and (nrows is None or p < nrows):
            if (c := col[p]) != 1:
                inv = field.inv(c)
                col = {k: norm(v * inv) for k, v in col.items()}
            basis[p] = col
    return basis


def _columns(field, ncols: int, entries: dict) -> list:
    cols: list = [{} for _ in range(ncols)]
    for (i, j), c in entries.items():
        if c := field.of_int(c):
            cols[j][i] = c
    return cols


def rank(field, nrows: int, ncols: int, entries: dict) -> int:
    """Rank of a sparse matrix given as {(i, j): field element}.  The package
    ranks through `echelon`; this entry point is kept for outside callers."""
    return len(echelon(field, _columns(field, ncols, entries)))


def solve(field, nrows: int, ncols: int, entries: dict, rhs: list) -> Optional[list]:
    """One solution of A x = rhs (free variables set to zero), or None."""
    cols = _columns(field, ncols, entries)
    for j, col in enumerate(cols):
        col[nrows + j] = 1
    basis = echelon(field, cols, nrows)
    b = {i: s for i, c in enumerate(rhs) if (s := field.of_int(c))}
    if (p := _reduce(field, basis, b)) is not None and p < nrows:
        return None  # inconsistent
    return [field.of_int(-b.get(nrows + j, 0)) for j in range(ncols)]
