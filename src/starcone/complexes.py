"""Bounded complexes of graded free modules over a polynomial ring.

A complex stores, per homological degree n, the twist tuple of a free module
and the differential into degree n-1.  Columns of a matrix correspond to
generators of the source, rows to generators of the target; entry (i, j)
must be homogeneous of degree twists_n[j] - twists_{n-1}[i].

Every complex this package builds is Z^N-multigraded with single-term
entries (Miller-Sturmfels, ch. 1-4) and carries labels: mdegs[n], the
exponent tuple of each generator of C_n (its twist is |mdeg|), and column g
of d_n as {row i: c} for the entry c x^(mdeg_g - mdeg_i).  The operations
work on these scalars; PolyMatrix differentials are built from them on
first use.  A complex given by PolyMatrix differentials (parsed, or koszul)
gets its labels once, when it is made, from multidegrees; one without them
is refused by mdegs and columns with a ValueError.  Only is_complex also
checks Polynomial entries, for the certifier's total-degree fallback.

Sign conventions used throughout (each one is locked in by d^2 = 0 tests):
  * suspension by l multiplies every differential by (-1)^l;
  * the cone on f : S -> T has degree-n piece T_n (+) S_{n-1} and block
    differential [[dT, f], [0, -dS]];
  * the tensor differential is d(a (x) b) = da (x) b + (-1)^|a| a (x) db,
    with basis pairs ordered left-factor-major, left homological degree
    descending within a fixed total degree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .ring import Polynomial, RingSpec, mono_degree, mono_div, mono_divides, mono_mul, mono_one, poly_parse


class PolyMatrix:
    """Sparse matrix of polynomials, stored by column.

    Column j is a dict {row: nonzero Polynomial}; zero entries are never
    stored, so equal matrices have equal columns.  Callers read entries
    through column(j), columns(), entry(i, j) and nonzero_entries(); rows
    is a derived dense view for rendering.
    """

    __slots__ = ("ring", "nrows", "ncols", "_cols")

    def __init__(self, ring: RingSpec, nrows: int, ncols: int, rows):
        rows = [tuple(r) for r in rows]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("matrix shape mismatch")
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        self._cols = [{i: row[j] for i, row in enumerate(rows) if row[j].terms}
                      for j in range(ncols)]

    @staticmethod
    def _of_columns(ring: RingSpec, nrows: int, ncols: int, cols: list) -> "PolyMatrix":
        M = object.__new__(PolyMatrix)
        M.ring, M.nrows, M.ncols, M._cols = ring, nrows, ncols, cols
        return M

    @staticmethod
    def zero(ring: RingSpec, nrows: int, ncols: int) -> "PolyMatrix":
        return PolyMatrix._of_columns(ring, nrows, ncols, [{} for _ in range(ncols)])

    @staticmethod
    def from_entries(ring: RingSpec, nrows: int, ncols: int, entries: dict) -> "PolyMatrix":
        cols: list = [{} for _ in range(ncols)]
        for (i, j), p in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
            if p.terms:
                cols[j][i] = p
        return PolyMatrix._of_columns(ring, nrows, ncols, cols)

    def column(self, j: int) -> dict:
        """Column j as {row: nonzero entry}; callers must not modify it."""
        return self._cols[j]

    def columns(self) -> list:
        """Every column, in order, as column(j) gives it."""
        return self._cols

    def entry(self, i: int, j: int) -> Polynomial:
        p = self._cols[j].get(i)
        return Polynomial.zero(self.ring) if p is None else p

    @property
    def rows(self) -> tuple:
        z = Polynomial.zero(self.ring)
        return tuple(tuple(col.get(i, z) for col in self._cols) for i in range(self.nrows))

    def nonzero_entries(self) -> Iterator[Tuple[int, int, Polynomial]]:
        """(row, column, entry) in row-major order."""
        for i, j in sorted((i, j) for j, col in enumerate(self._cols) for i in col):
            yield i, j, self._cols[j][i]

    def is_zero(self) -> bool:
        return not any(self._cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.rows) + "]"


def _poly_matrix(ring: RingSpec, rows: tuple, tops: tuple, cols: list) -> PolyMatrix:
    """Entry (i, g) is c x^(tops[g] - rows[i]) for c = cols[g][i]."""
    return PolyMatrix._of_columns(ring, len(rows), len(tops), [
        {i: Polynomial(ring, {mono_div(b, rows[i]): c}) for i, c in col.items()} for col, b in zip(cols, tops)])


class ChainComplex:
    """Bounded complex of graded free modules, indexed by homological degree:
    from twists and homogeneous PolyMatrix differentials, labelled when
    multidegrees finds labels, or from_labels."""

    __slots__ = ("ring", "modules", "_mdegs", "_cols", "_diffs")

    def __init__(self, ring: RingSpec, modules: Dict[int, tuple], diffs: Dict[int, PolyMatrix]):
        self.ring = ring
        self.modules = {n: tuple(tw) for n, tw in modules.items() if len(tw) > 0}
        self._diffs = {}
        for n, mat in diffs.items():
            want_rows = len(self.modules.get(n - 1, ()))
            want_cols = len(self.modules.get(n, ()))
            if mat.nrows != want_rows or mat.ncols != want_cols:
                raise ValueError(f"differential at degree {n} has shape "
                                 f"{mat.nrows}x{mat.ncols}, expected {want_rows}x{want_cols}")
            if not mat.is_zero():
                self._diffs[n] = mat
        self._mdegs = multidegrees(self)
        self._cols = None if self._mdegs is None else {
            n: [{i: c for i, p in col.items() for c in p.terms.values()} for col in mat.columns()]
            for n, mat in self._diffs.items()}
        if self._cols is None:  # labels imply single-term homogeneous entries
            self._check_homogeneous()

    @staticmethod
    def from_labels(ring: RingSpec, mdegs: dict, cols: dict) -> "ChainComplex":
        """The complex with generator labels mdegs[n], a tuple of exponent
        tuples, and columns cols[n] of d_n (see columns)."""
        C = object.__new__(ChainComplex)
        C.ring, C._diffs = ring, None
        C._mdegs = {n: a for n, a in sorted(mdegs.items()) if a}
        C.modules = {n: tuple(map(sum, a)) for n, a in C._mdegs.items()}  # |mdeg|
        C._cols = {n: c for n, c in cols.items() if any(c)}
        return C

    def _check_homogeneous(self):
        for n, mat in self.diffs.items():
            src, tgt = self.modules[n], self.modules[n - 1]
            for i, j, p in mat.nonzero_entries():
                want = src[j] - tgt[i]
                degs = {mono_degree(m) for m in p.terms}
                if degs != {want}:
                    raise ValueError(
                        f"entry ({i},{j}) of differential {n} is not homogeneous "
                        f"of degree {want}: {p}"
                    )

    # queries ------------------------------------------------------------
    def is_multigraded(self) -> bool:
        """Whether the complex carries labels (see mdegs)."""
        return self._cols is not None

    @property
    def mdegs(self) -> dict:
        """{n: the exponent tuple of each generator of C_n}, or ValueError."""
        if self._cols is None:
            raise ValueError("complex is not multigraded with single-term entries")
        return self._mdegs

    @property
    def diffs(self) -> dict:
        """{n: PolyMatrix} for every nonzero differential."""
        if self._diffs is None:
            self._diffs = {n: _poly_matrix(self.ring, self._mdegs.get(n - 1, ()), self._mdegs[n], cols)
                           for n, cols in sorted(self._cols.items())}
        return self._diffs

    def columns(self, n: int) -> list:
        """Column g of d_n as {row i: c} for the entry c x^(mdeg_g - mdeg_i),
        not to be modified; ValueError when the complex is not multigraded."""
        if self._cols is None:
            raise ValueError("complex is not multigraded with single-term entries")
        return self._cols.get(n) or [{}] * self.rank(n)

    def rank(self, n: int) -> int:
        return len(self.modules.get(n, ()))

    def twists(self, n: int) -> tuple:
        return self.modules.get(n, ())

    def diff(self, n: int) -> PolyMatrix:
        if n in self.diffs:
            return self.diffs[n]
        return PolyMatrix.zero(self.ring, self.rank(n - 1), self.rank(n))

    def support(self) -> list:
        return sorted(self.modules)

    def min_degree(self) -> int:
        return min(self.modules) if self.modules else 0

    def max_degree(self) -> int:
        return max(self.modules) if self.modules else 0

    def is_empty(self) -> bool:
        return not self.modules

    def max_twist(self) -> int:
        return max((max(tw) for tw in self.modules.values()), default=0)

    def total_rank(self) -> int:
        return sum(len(tw) for tw in self.modules.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainComplex):
            return False
        if self.ring != other.ring or self.modules != other.modules:
            return False
        return all(self.diff(n) == other.diff(n) for n in self.modules)

    def __str__(self) -> str:
        if self.is_empty():
            return "0"
        return " <- ".join(
            f"R^{self.rank(n)}{list(self.twists(n))}" for n in self.support()
        )


def zero_complex(ring: RingSpec) -> ChainComplex:
    return ChainComplex.from_labels(ring, {}, {})


class ChainMap:
    """Degreewise map between complexes; mat(n) sends source_n to target_n.
    Given by scalar columns cols[n] as ChainComplex.columns gives d_n, on the
    labels of source and target; mats is built on first use."""

    __slots__ = ("source", "target", "cols", "_mats")

    def __init__(self, source: ChainComplex, target: ChainComplex, cols: dict):
        self.source, self.target, self.cols, self._mats = source, target, cols, None

    @property
    def mats(self) -> Dict[int, PolyMatrix]:
        if self._mats is None:
            S, T = self.source.mdegs, self.target.mdegs
            self._mats = {n: _poly_matrix(self.source.ring, T.get(n, ()), S.get(n, ()), c)
                          for n, c in sorted(self.cols.items()) if c}
        return self._mats

    def mat(self, n: int) -> PolyMatrix:
        if n in self.mats:
            return self.mats[n]
        return PolyMatrix.zero(self.source.ring, self.target.rank(n), self.source.rank(n))

    def columns(self, n: int) -> list:
        """The matrix at n by columns, as ChainComplex.columns gives d_n."""
        return self.cols.get(n) or [{}] * self.source.rank(n)


# ------------------------------------------------------------- operations

def suspension(C: ChainComplex, l: int) -> ChainComplex:
    """Shift degrees up by l; differentials pick up the sign (-1)^l."""
    F, mdegs = C.ring.coeff_field, C.mdegs
    cols = {n + l: [{i: F.of_int(-c) for i, c in col.items()} for col in d] if l % 2 else d
            for n, d in C._cols.items()}
    return ChainComplex.from_labels(C.ring, {n + l: a for n, a in mdegs.items()}, cols)


def truncate_geq(C: ChainComplex, p: int) -> ChainComplex:
    """Hard truncation: keep degrees >= p, zero the differential at p."""
    return ChainComplex.from_labels(C.ring, {n: a for n, a in C.mdegs.items() if n >= p},
                                    {n: d for n, d in C._cols.items() if n > p})


def tensor_basis(C: ChainComplex, D: ChainComplex, n: int) -> list:
    """Ordered basis labels (i, a, j, b) of (C (x) D)_n: left degree i
    descending, then left generator index, then right generator index."""
    return [(i, a, n - i, b) for i in sorted(C.modules, reverse=True) if n - i in D.modules
            for a in range(C.rank(i)) for b in range(D.rank(n - i))]


def pair_map(labels: list, targets: list, left, right, F) -> list:
    """Scalar columns of f (x) 1 + 1 (x) g from pair labels (i, a, j, b) to
    pair labels targets.  left(i, j) and right(i, j) give, per source label
    degrees, (columns, k, negate) or None: f sends generator a of degree i
    to sum_r columns[a][r] times generator r of degree k, g likewise on the
    right factor; negate negates that term in the field F."""
    target = {lab: pos for pos, lab in enumerate(targets)}
    out = []
    for i, a, j, b in labels:
        col = {}
        for side, act in ((0, left(i, j)), (1, right(i, j))):
            if act is None:
                continue
            cols, k, negate = act
            for r, v in cols[b if side else a].items():
                col[target[(i, a, k, r) if side else (k, r, j, b)]] = F.of_int(-v) if negate else v
        out.append(col)
    return out


def tensor(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    if C.ring != D.ring:
        raise ValueError("tensor factors live in different rings")
    if C.is_empty() or D.is_empty():
        return zero_complex(C.ring)
    left, right = C.mdegs, D.mdegs
    degrees = sorted({i + j for i in C.modules for j in D.modules})
    bases = {n: tensor_basis(C, D, n) for n in degrees}
    mdegs = {n: tuple(mono_mul(left[i][a], right[j][b]) for (i, a, j, b) in basis)
             for n, basis in bases.items()}
    cols = {n: pair_map(bases[n], bases[n - 1],
                        lambda i, j: (C.columns(i), i - 1, False),
                        lambda i, j: (D.columns(j), j - 1, i % 2 == 1), C.ring.coeff_field)
            for n in degrees if n - 1 in bases}
    return ChainComplex.from_labels(C.ring, mdegs, cols)


def direct_sum(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    if C.ring != D.ring:
        raise ValueError("summands live in different rings")
    degrees = set(C.modules) | set(D.modules)
    cols = {n: C.columns(n) + [{C.rank(n - 1) + i: c for i, c in col.items()} for col in D.columns(n)]
            for n in degrees}
    return ChainComplex.from_labels(C.ring, {n: C.mdegs.get(n, ()) + D.mdegs.get(n, ()) for n in degrees}, cols)


def _products_vanish(F, pairs, ncols: int) -> bool:
    """Whether the sum of sign * A B over (A, B, sign) in pairs, scalar
    columns on the labels, is zero, with no product formed: row i of column
    j has the one monomial x^(mdeg_j - mdeg_i), so column by column every
    a_ik b_kj goes into {i: coefficient}, and each sum must normalize to 0."""
    for j in range(ncols):
        acc: dict = {}
        for A, B, sign in pairs:
            for k, b in B[j].items():
                for i, a in A[k].items():
                    acc[i] = acc.get(i, 0) + sign * a * b
        if any(map(F.of_int, acc.values())):
            return False
    return True


def _polynomial_product_vanishes(F, A: PolyMatrix, B: PolyMatrix) -> bool:
    """Whether A B is zero, with no Polynomial product formed: column by
    column, every term of every a_ik b_kj goes into a {(i, monomial):
    coefficient} dict, and each sum must normalize to 0."""
    for col in B.columns():
        acc: dict = {}
        for k, b in col.items():
            for i, a in A.column(k).items():
                for mb, cb in b.terms.items():
                    for ma, ca in a.terms.items():
                        key = i, mono_mul(ma, mb)
                        acc[key] = acc.get(key, 0) + ca * cb
        if any(map(F.of_int, acc.values())):
            return False
    return True


def chain_map_defect(f: ChainMap):
    """First degree, of either complex or of f's columns, where f's columns
    have the wrong shape, a nonzero entry c x^(mdeg_g - mdeg_i) whose row
    label mdeg_i does not divide its column label mdeg_g, or the square
    d_target f - f d_source fails; None if there is no such degree."""
    S, T = f.source, f.target
    F, src, tgt = T.ring.coeff_field, S.mdegs, T.mdegs
    for n in sorted(set(S.modules) | set(T.modules) | set(f.cols)):
        cols, t, rows = f.columns(n), T.rank(n), tgt.get(n, ())
        if len(cols) != S.rank(n) or any(i >= t or not mono_divides(rows[i], b) and F.of_int(c)
                                         for b, col in zip(src.get(n, ()), cols) for i, c in col.items()):
            return n
        pairs = ((T.columns(n), cols, 1), (f.columns(n - 1), S.columns(n), -1))
        if not _products_vanish(F, pairs, S.rank(n)):
            return n
    return None


def is_chain_map(f: ChainMap) -> bool:
    return chain_map_defect(f) is None


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree n is target_n (+) source_{n-1}, differential
    [[d_target, f], [0, -d_source]].  Refuses maps that are not chain maps."""
    bad = chain_map_defect(f)
    if bad is not None:
        raise ValueError(f"not a chain map at degree {bad}")
    S, T = f.source, f.target
    F = T.ring.coeff_field
    mdegs, cols = {}, {}
    for n in set(T.modules) | {m + 1 for m in S.modules}:
        mdegs[n] = T.mdegs.get(n, ()) + S.mdegs.get(n - 1, ())
        shift = T.rank(n - 1)
        cols[n] = T.columns(n) + [{**top, **{shift + i: F.of_int(-v) for i, v in col.items()}}
                                  for top, col in zip(f.columns(n - 1), S.columns(n - 1))]
    return ChainComplex.from_labels(T.ring, mdegs, cols)


def is_complex(C: ChainComplex) -> bool:
    """d_{n-1} d_n = 0 for all n: by scalar sums under labels, otherwise by
    the terms of the Polynomial entries."""
    F = C.ring.coeff_field
    if not C.is_multigraded():
        return all(_polynomial_product_vanishes(F, C.diff(n - 1), C.diff(n)) for n in C.diffs)
    return all(_products_vanish(F, ((C.columns(n - 1), C.columns(n), 1),), C.rank(n))
               for n in C.modules if n - 1 in C.modules)


def multidegrees(C: ChainComplex) -> Optional[dict]:
    """Exponent-tuple multidegree of every generator, by homological degree,
    inferred from the Polynomial entries: 0 for the twist-0 generators of the
    lowest degree, otherwise a nonzero entry's row multidegree times its
    monomial, which every term of every nonzero entry in the column must
    agree on.  None when C is not multigraded with single-term entries in
    this way, twists included."""
    mdegs: dict = {}
    for n in C.support():
        low = n == C.min_degree()
        found = [{mono_one(C.ring.nvars)} if low and w == 0 else set() for w in C.twists(n)]
        mat = C.diff(n)
        for j, f in enumerate(found):
            for i, p in mat.column(j).items():
                f.update(mono_mul(mdegs[n - 1][i], m) for m in p.terms)
        mdegs[n] = tuple(f.pop() for f in found if len(f) == 1)
        if [mono_degree(a) for a in mdegs[n]] != list(C.twists(n)):
            return None
    return mdegs


def is_minimal(C: ChainComplex) -> bool:
    """No differential entry is a unit: no nonzero entry has mdeg_i == mdeg_g."""
    mdegs = C.mdegs
    return all(mdegs[n - 1][i] != b for n, cols in C._cols.items() if not set(mdegs[n - 1]).isdisjoint(mdegs[n])
               for col, b in zip(cols, mdegs[n]) for i in col)


# ------------------------------------------------------------ power series

@dataclass(frozen=True)
class PowerSeries:
    """Truncated integer power series in one variable t; index = degree."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the degree-0 coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def of(coeffs, truncation: int) -> "PowerSeries":
        cs = list(coeffs)[: truncation + 1]
        cs += [0] * (truncation + 1 - len(cs))
        return PowerSeries(tuple(cs))

    @staticmethod
    def one_plus_t_power(m: int, truncation: int) -> "PowerSeries":
        from math import comb

        return PowerSeries.of([comb(m, k) for k in range(m + 1)], truncation)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        D = min(self.truncation, other.truncation)
        return PowerSeries(tuple(self.coeffs[n] + other.coeffs[n] for n in range(D + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        D = min(self.truncation, other.truncation)
        return PowerSeries(tuple(self.coeffs[n] - other.coeffs[n] for n in range(D + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        D = min(self.truncation, other.truncation)
        out = [0] * (D + 1)
        for i, a in enumerate(self.coeffs[: D + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: D + 1 - i]):
                out[i + j] += a * b
        return PowerSeries(tuple(out))

    def shift_up(self, k: int) -> "PowerSeries":
        """Multiply by t^k (truncation grows with the shift)."""
        return PowerSeries((0,) * k + self.coeffs)

    def shift_down(self, k: int) -> "PowerSeries":
        """Divide by t^k; the low coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by t^{k}")
        if len(self.coeffs) <= k:
            raise ValueError("truncation too small to shift down")
        return PowerSeries(self.coeffs[k:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                base = "t" if n == 1 else f"t^{n}"
                parts.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(parts) if parts else "0"


def generating_function(C: ChainComplex, truncation: int) -> PowerSeries:
    """sum_n rank(C_n) t^n.  The complex must be supported in degrees >= 0."""
    if not C.is_empty() and C.min_degree() < 0:
        raise ValueError("complex has modules in negative degrees")
    return PowerSeries.of(
        [C.rank(n) for n in range(max(C.max_degree(), 0) + 1)], truncation
    )


# ------------------------------------------------------------- Betti table

class BettiTable:
    """Graded Betti numbers: entries[(l, k)] = beta_{l,k}, zero if absent."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {
            (int(l), int(k)): int(v) for (l, k), v in entries.items() if v != 0
        }

    def entry(self, l: int, k: int) -> int:
        return self.entries.get((l, k), 0)

    def totals(self) -> dict:
        out: dict = {}
        for (l, _), v in self.entries.items():
            out[l] = out.get(l, 0) + v
        return dict(sorted(out.items()))

    def max_l(self) -> int:
        return max((l for l, _ in self.entries), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BettiTable) and self.entries == other.entries

    def to_json_dict(self) -> dict:
        totals = {str(l): v for l, v in self.totals().items()}
        graded = {
            f"{l},{k}": v
            for (l, k), v in sorted(self.entries.items())
        }
        return {"totals": totals, "graded": graded}

    def render_text(self) -> str:
        """Aligned table, rows indexed by k - l, columns by l, '.' for zero."""
        if not self.entries:
            return "(empty)\n"
        hi = max(l for l, _ in self.entries)
        rows = sorted({k - l for l, k in self.entries})
        cols = list(range(hi + 1))
        tot = self.totals()
        width = max(
            len(str(v)) for v in list(tot.values()) + cols + [0]
        ) + 2
        head = "      " + "".join(str(l).rjust(width) for l in cols)
        lines = [head]
        for r in range(min(rows), max(rows) + 1):
            cells = []
            for l in cols:
                v = self.entry(l, l + r)
                cells.append((str(v) if v else ".").rjust(width))
            lines.append(f"{r}:".rjust(6) + "".join(cells))
        lines.append("total:" + "".join(str(tot.get(l, 0)).rjust(width) for l in cols))
        return "\n".join(lines) + "\n"


def graded_betti(C: ChainComplex) -> BettiTable:
    """Read beta_{l,k} off a minimal complex: the twist multiplicities."""
    if not is_minimal(C):
        raise ValueError("graded Betti numbers need a minimal complex")
    entries: dict = {}
    for n, tw in C.modules.items():
        for w in tw:
            entries[(n, w)] = entries.get((n, w), 0) + 1
    return BettiTable(entries)


# ------------------------------------------------------------------- JSON

def complex_to_json_dict(C: ChainComplex) -> dict:
    modules = {str(n): list(C.twists(n)) for n in C.support()}
    diffs = {}
    for n in C.support():
        diffs[str(n)] = [[str(p) for p in row] for row in C.diff(n).rows]
    return {"ring": C.ring.describe(), "modules": modules, "differentials": diffs}


def complex_from_json(text: str) -> ChainComplex:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    for key in ("ring", "modules", "differentials"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"{key} is not a JSON object")
    ring = RingSpec.from_description(doc["ring"])
    for key in (*doc["modules"], *doc.get("differentials", {})):
        if key != str(int(key)):  # "01" would alias "1", and "1_0" name 10
            raise ValueError(f"degree key {key!r} is not an integer in plain form")
    modules, zero = {}, Polynomial.zero(ring)  # most cells are "0": one shared zero, never parsed
    for n, tw in doc["modules"].items():
        if not isinstance(tw, list) or any(type(w) is not int for w in tw):
            raise ValueError(f"twists of module {n} are not a list of integers")
        modules[int(n)] = tuple(tw)
    diffs = {}
    for n, rows in doc.get("differentials", {}).items():
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows):
            raise ValueError(f"differential {n} is not a list of rows of polynomial strings")
        n = int(n)
        nrows = len(modules.get(n - 1, ()))
        ncols = len(modules.get(n, ()))
        mat_rows = [[zero if s == "0" else poly_parse(s, ring) for s in row] for row in rows]
        diffs[n] = PolyMatrix(ring, nrows, ncols, mat_rows)
    return ChainComplex(ring, modules, diffs)


def complex_to_json(C: ChainComplex) -> str:
    return json.dumps(complex_to_json_dict(C), indent=2, sort_keys=True)
