"""Exact elimination: rank and solve over a small prime, the rationals, and a
prime above 2^32, on matrices up to 40 x 40, past the largest multidegree
block the benchmark ladder ranks (33 x 18)."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from starcone import PrimeField, RationalField, linalg

from helpers import dense_rank, dense_solve

FIELDS = [PrimeField(32003), RationalField(), PrimeField(4294967311)]
IDS = ["p32003", "Q", "p4294967311"]


def apply(F, nrows, entries, x):
    out = [0] * nrows
    for (i, j), c in entries.items():
        out[i] += c * x[j]
    return [F.of_int(v) for v in out]


def random_entries(rng, F, nrows, ncols):
    return {
        (i, j): F.of_int(rng.randint(-9, 9))
        for i in range(nrows)
        for j in range(ncols)
        if rng.random() < 0.5
    }


def random_low_rank(rng, F, nrows, ncols):
    """A product of random nrows x k and k x ncols matrices, k < both sides
    at times, with some rows and columns left empty."""
    k = rng.randint(0, max(nrows, ncols))
    B = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
    C = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
    empty_rows = set(rng.sample(range(nrows), rng.randint(0, nrows // 3)))
    empty_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 3)))
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            v = F.of_int(sum(B[i][t] * C[t][j] for t in range(k)))
            if v and i not in empty_rows and j not in empty_cols:
                entries[(i, j)] = v
    return entries


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_agrees_with_dense_reference(F):
    """rank and solve equal Gaussian elimination on dense rows, x entry for
    entry, on full, rank-deficient and empty-row/column matrices with
    consistent and inconsistent right sides, up to 40 x 40."""
    rng = random.Random(15)
    outcomes = set()
    for t in range(20):
        m, n = (40, 40) if t == 0 else (rng.randint(0, 40), rng.randint(0, 40))
        entries = (random_entries if t % 2 else random_low_rank)(rng, F, m, n)
        assert linalg.rank(F, m, n, entries) == dense_rank(F, m, n, entries)
        image = apply(F, m, entries, [F.of_int(rng.randint(-5, 5)) for _ in range(n)])
        for rhs in (image, [F.of_int(rng.randint(-5, 5)) for _ in range(m)], [0] * m):
            x = linalg.solve(F, m, n, entries, rhs)
            assert x == dense_solve(F, m, n, entries, rhs)
            outcomes.add(x is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("F", FIELDS[:2], ids=IDS[:2])
def test_echelon_extends_a_basis_without_modifying_it(F):
    """Extending echelon(A) by B reaches the pivot rows and rank of
    echelon(A + B); the starting basis and its columns are left as they were."""
    rng = random.Random(16)
    for t in range(20):
        m, n = rng.randint(0, 30), rng.randint(0, 40)
        entries = (random_entries if t % 2 else random_low_rank)(rng, F, m, n)
        cols = linalg._columns(F, n, entries)
        k = rng.randint(0, n)
        start = linalg.echelon(F, [dict(c) for c in cols[:k]])
        before = {p: (col, dict(col)) for p, col in start.items()}
        extended = linalg.echelon(F, [dict(c) for c in cols[k:]], basis=start)
        whole = linalg.echelon(F, [dict(c) for c in cols])
        assert sorted(extended) == sorted(whole) and len(extended) == dense_rank(F, m, n, entries)
        assert start.keys() == before.keys()
        assert all(start[p] is col and col == copy for p, (col, copy) in before.items())


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_solve_consistent(F):
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        entries = random_entries(rng, F, m, n)
        rhs = apply(F, m, entries, [F.of_int(rng.randint(-5, 5)) for _ in range(n)])
        x = linalg.solve(F, m, n, entries, rhs)
        assert x is not None
        assert apply(F, m, entries, x) == rhs


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_solution_is_canonical(F):
    """Back-substitution sums plain numbers; each entry of x is then
    normalized once, so over a prime field it lies in [0, p)."""
    rng = random.Random(14)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        entries = random_entries(rng, F, m, n)
        rhs = apply(F, m, entries, [F.of_int(rng.randint(-5, 5)) for _ in range(n)])
        x = linalg.solve(F, m, n, entries, rhs)
        assert x == [F.of_int(v) for v in x]


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_solve_inconsistent(F):
    rng = random.Random(12)
    for _ in range(40):
        m, n = rng.randint(2, 8), rng.randint(1, 8)
        entries = random_entries(rng, F, m, n)
        # row 1 is twice row 0, but the right side does not follow
        for j in range(n):
            entries[(0, j)] = F.of_int(rng.randint(1, 9))
            entries[(1, j)] = F.of_int(2 * entries[(0, j)])
        rhs = [F.of_int(rng.randint(-5, 5)) for _ in range(m)]
        rhs[0], rhs[1] = 1, 1
        assert linalg.solve(F, m, n, entries, rhs) is None


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_solve_sets_free_variables_to_zero(F):
    # x0 + x1 = 3 and x2 = 5: column 1 is free
    entries = {(0, 0): 1, (0, 1): 1, (1, 2): 1}
    x = linalg.solve(F, 2, 3, entries, [F.of_int(3), F.of_int(5)])
    assert x == [F.of_int(3), 0, F.of_int(5)]


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_rank_of_known_rank_products(F):
    """B C with B = [1; *] (m x k) and C = [1 | *] (k x n) has rank exactly k
    in every field: its top-left k x k block is the identity."""
    rng = random.Random(13)
    for _ in range(30):
        k = rng.randint(0, 30)
        m, n = k + rng.randint(0, 10), k + rng.randint(0, 10)
        B = [[int(i == t) if i < k else rng.randint(-9, 9) for t in range(k)] for i in range(m)]
        C = [[int(j == t) if j < k else rng.randint(-9, 9) for j in range(n)] for t in range(k)]
        rows, cols = list(range(m)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        entries = {}
        for i in range(m):
            for j in range(n):
                v = sum(B[i][t] * C[t][j] for t in range(k))
                if v:
                    entries[(rows[i], cols[j])] = F.of_int(v)
        assert linalg.rank(F, m, n, entries) == k


def test_large_prime_entries_stay_exact():
    p = 4294967311
    F = PrimeField(p)
    # [[-1, -2], [-3, -5]] written with representatives near p: determinant -1
    entries = {(0, 0): p - 1, (0, 1): p - 2, (1, 0): p - 3, (1, 1): p - 5}
    assert linalg.rank(F, 2, 2, entries) == 2
    rhs = [p - 7, 12345678901 % p]
    x = linalg.solve(F, 2, 2, entries, rhs)
    assert apply(F, 2, entries, x) == rhs


def test_import_needs_no_numpy():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, starcone; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
