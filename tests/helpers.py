"""Seeded instance generators shared across the suite.

Everything here uses explicit random.Random seeds so the sampled suites
are frozen: reruns exercise the identical instances.
"""
import importlib.util
import random
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

from hypothesis import strategies as st

from starcone import (
    ChainComplex,
    ChainMap,
    FiberInstance,
    InvariantViolation,
    LiftError,
    MonomialIdeal,
    PolyMatrix,
    PrimeField,
    RingSpec,
    block_instance,
    build_fiber,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    linalg,
    make_instance,
    poly_parse,
)
from starcone.complexes import multidegrees
from starcone.fiber import LiftReport
from starcone.ring import Polynomial, mono_div, mono_divides, mono_mul, monomials_of_degree


def random_exponents(rng: random.Random, nvars: int, degree: int) -> list:
    """A random composition of `degree` into `nvars` nonnegative parts."""
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    parts = []
    prev = 0
    for c in cuts + [degree]:
        parts.append(c - prev)
        prev = c
    return parts


def monomial_text(names, exponents) -> str:
    factors = []
    for name, e in zip(names, exponents):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def random_monomials(rng: random.Random, names, count: int, min_deg: int, max_deg: int) -> list:
    out = []
    for _ in range(count):
        d = rng.randint(min_deg, max_deg)
        out.append(monomial_text(names, random_exponents(rng, len(names), d)))
    return out


def random_suite_instance(rng: random.Random, max_vars=3, max_gens=4, max_deg=4) -> FiberInstance:
    """One two-block instance with I', J' random inside the block squares.

    Generators have degree >= 2 in their own block, hence automatically lie
    in the square of the block ideal.
    """
    m = rng.randint(1, max_vars)
    n = rng.randint(1, max_vars)
    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    ip = random_monomials(rng, xs, rng.randint(1, max_gens), 2, max_deg)
    jp = random_monomials(rng, ys, rng.randint(1, max_gens), 2, max_deg)
    return block_instance(m, n, ip, jp)


def suite_instances(count=20, seed=20260819, **kw) -> list:
    rng = random.Random(seed)
    return [random_suite_instance(rng, **kw) for _ in range(count)]


def small_instances(count=5, seed=77) -> list:
    """Small enough for degreewise homology certification."""
    rng = random.Random(seed)
    return [
        random_suite_instance(rng, max_vars=2, max_gens=2, max_deg=3)
        for _ in range(count)
    ]


def explicit_instance(xs, ys, ip, i, jp, j, coeff_field=None) -> FiberInstance:
    """Instance with every ideal given by monomial strings over blocks xs, ys."""
    ring = RingSpec(tuple(xs) + tuple(ys), partition=(tuple(xs), tuple(ys)),
                    coeff_field=coeff_field or PrimeField())

    def ideal(texts):
        return MonomialIdeal.parse(texts, ring)

    return make_instance(ring, ideal(ip), ideal(i), ideal(jp), ideal(j))


def instance_e(coeff_field=None) -> FiberInstance:
    """I = <x1^2, x1*x2> and J = <y1*y2, y1^2, y2^2> are not regular
    sequences, so both comparison lifts run the linear solve; the top twist
    of the resolution (11) exceeds the generator-degree estimate (10)."""
    return explicit_instance(["x1", "x2"], ["y1", "y2"], ["x1^4", "x1^2*x2^2"],
                             ["x1^2", "x1*x2"], ["y1^4", "y2^4"], ["y1*y2", "y1^2", "y2^2"],
                             coeff_field)


def instance_e_prime(coeff_field=None) -> FiberInstance:
    """The 2+1 variant of E: J = <y>, J' = <y^2>."""
    return explicit_instance(["x1", "x2"], ["y"], ["x1^4", "x1^2*x2^2"],
                             ["x1^2", "x1*x2"], ["y^2"], ["y"], coeff_field)


def koszul_without_syzygy():
    """R <-[x y]- R(-1)^2, the Koszul complex on x, y with its syzygy
    missing, and <x, y>.  H_1 is k, at multidegree x*y: above every twist."""
    ring = RingSpec(("x", "y"))
    d1 = PolyMatrix.from_entries(ring, 1, 2, {(0, 0): poly_parse("x", ring), (0, 1): poly_parse("y", ring)})
    return ChainComplex(ring, {0: (0,), 1: (1, 1)}, {1: d1}), MonomialIdeal.parse(["x", "y"], ring)


def without_top_module(C):
    """C with its top homological module and differential deleted."""
    top = C.max_degree()
    return ChainComplex(C.ring, {n: C.twists(n) for n in C.support() if n < top},
                        {n: mat for n, mat in C.diffs.items() if n < top})


def fiber_without_top_module(coeff_field=None):
    """The 2+2 fiber resolution of I' = <x1^2, x2^2>, J' = <y1^2, y2^2> with
    its top module deleted, and the fiber ideal it no longer resolves."""
    inst = block_instance(2, 2, ["x1^2", "x2^2"], ["y1^2", "y2^2"], coeff_field=coeff_field)
    return without_top_module(build_fiber(inst).resolution), inst.quotient_ideal()


@st.composite
def small_ideals(draw, ring=None):
    """Up to 4 generators of degree 1..3 in up to 3 variables; given a ring,
    in a drawn nonempty subset of its variables."""
    if ring is None:
        ring, top = RingSpec(("x", "y", "z")[:draw(st.integers(1, 3))]), [3] * 3
    else:
        top = draw(st.lists(st.sampled_from([0, 3]), min_size=ring.nvars, max_size=ring.nvars).filter(any))
    exps = st.tuples(*(st.integers(0, e) for e in top[:ring.nvars])).filter(lambda e: 1 <= sum(e) <= 3)
    return MonomialIdeal(ring, draw(st.lists(exps, min_size=1, max_size=4)))


def perturbed_columns(cols: dict, pick: int, k: int, how: int, c: int, F) -> dict:
    """cols ({n: scalar columns}) with one nonzero entry changed: the k-th,
    in column-major order, of the pick-th nonzero degree (both taken modulo
    their number).  how 1 deletes the entry, otherwise c is added to its
    coefficient in the field F (a deletion if the sum is 0)."""
    ns = [n for n in sorted(cols) if any(cols[n])]
    n = ns[pick % len(ns)]
    out = [dict(col) for col in cols[n]]
    g, i = [(g, i) for g, col in enumerate(out) for i in sorted(col)][k % sum(map(len, out))]
    if how == 1 or not (v := F.of_int(out[g][i] + c)):
        del out[g][i]
    else:
        out[g][i] = v
    return {**cols, n: out}


def perturbed(mats: dict, pick: int, k: int, how: int, c: int) -> dict:
    """mats ({n: PolyMatrix}) with one nonzero entry changed: the k-th, in
    row-major order, of the pick-th nonzero matrix (both taken modulo their
    number).  how 0 adds c times the entry's first monomial (a coefficient
    change), how 1 deletes the entry, how 2 adds c times the first monomial
    of its degree in descending lex (a second term, unless that is the
    same).  Entries stay homogeneous."""
    ns = [n for n in sorted(mats) if not mats[n].is_zero()]
    n = ns[pick % len(ns)]
    mat = mats[n]
    entries = {(i, j): p for i, j, p in mat.nonzero_entries()}
    (i, j), p = list(entries.items())[k % len(entries)]
    first = next(iter(p.terms))
    if how == 1:
        del entries[i, j]
    else:
        m = first if how == 0 else monomials_of_degree(len(first), sum(first))[0]
        entries[i, j] = p + Polynomial.monomial(mat.ring, m, c)
    return {**mats, n: PolyMatrix.from_entries(mat.ring, mat.nrows, mat.ncols, entries)}


def mat_mul(A, B):
    """The product A B of two PolyMatrix, column by column: the reference
    behind product_is_complex and product_chain_map_defect."""
    if A.ncols != B.nrows:
        raise ValueError("inner dimensions disagree")
    entries: dict = {}
    for j, col in enumerate(B.columns()):
        for k, b in col.items():
            for i, a in A.column(k).items():
                prod = a * b
                entries[i, j] = entries[i, j] + prod if (i, j) in entries else prod
    return PolyMatrix.from_entries(A.ring, A.nrows, B.ncols, entries)


def product_is_complex(C) -> bool:
    """Reference for the d^2 = 0 checks: every d_{n-1} d_n formed by
    mat_mul and tested for zero."""
    return all(mat_mul(C.diff(n - 1), C.diff(n)).is_zero() for n in C.support())


def product_chain_map_defect(f, mat=None):
    """Reference for chain_map_defect: both sides of each square formed by
    mat_mul and compared.  mat(n) gives the map's matrices, f.mat unless
    given."""
    mat = mat or f.mat
    for n in sorted(set(f.source.modules) | set(f.target.modules)):
        if mat_mul(f.target.diff(n), mat(n)) != mat_mul(mat(n - 1), f.source.diff(n)):
            return n
    return None


def reference_cone_diff(f, n):
    """Reference for cone(f).diff(n): the block [[dT, f], [0, -dS]]
    assembled entry by entry from T.diff(n), f.mat(n - 1) and S.diff(n - 1)."""
    S, T = f.source, f.target
    ring, shift = T.ring, T.rank(n - 1)
    entries = {(i, j): p for i, j, p in T.diff(n).nonzero_entries()}
    entries.update(((i, T.rank(n) + j), p) for i, j, p in f.mat(n - 1).nonzero_entries())
    entries.update(((shift + i, T.rank(n) + j), -p) for i, j, p in S.diff(n - 1).nonzero_entries())
    return PolyMatrix.from_entries(ring, shift + S.rank(n - 2), T.rank(n) + S.rank(n - 1), entries)


def _reference_lift_column(X, j: int, mdegs: dict, w_col: dict, constrain_to):
    """A column v with d_j v = w_col ({row: nonzero entry}), or None: one
    solve per multidegree b of w_col, over the generators of X_j and X_{j-1}
    whose multidegrees divide b, with unknowns x^(b - mdeg) optionally kept
    inside an ideal."""
    ring, F = X.ring, X.ring.coeff_field
    v = [Polynomial.zero(ring)] * X.rank(j)
    d = X.diff(j)
    for b in {mono_mul(mdegs[j - 1][i], m) for i, p in w_col.items() for m in p.terms}:
        rows = [(i, mono_div(b, a)) for i, a in enumerate(mdegs[j - 1]) if mono_divides(a, b)]
        cols = [(g, mono_div(b, a)) for g, a in enumerate(mdegs.get(j, ())) if mono_divides(a, b)]
        if constrain_to is not None:
            cols = [(g, m) for g, m in cols if constrain_to.contains_monomial(m)]
        row_of = {i: r for r, (i, _) in enumerate(rows)}
        entries = {
            (row_of[i], k): c
            for k, (g, _) in enumerate(cols)
            for i, p in d.column(g).items() if i in row_of
            for c in p.terms.values()
        }
        rhs = [w_col[i].terms.get(m, 0) if i in w_col else 0 for i, m in rows]
        sol = linalg.solve(F, len(rows), len(cols), entries, rhs)
        if sol is None:
            return None
        for (g, m), c in zip(cols, sol):
            v[g] = v[g] + Polynomial.monomial(ring, m, c)
    return v


def reference_lift(S, X, constrain_to=None):
    """Reference for lift_chain_map: each step forms phi_{j-1} d_j by
    mat_mul and solves its columns one multidegree of their terms at a
    time.  Only X need be multigraded."""
    if S.rank(0) != 1 or X.rank(0) != 1:
        raise ValueError("both complexes need rank-one degree-0 pieces")
    ring = X.ring
    mdegs = multidegrees(X)
    if mdegs is None:
        raise ValueError("lift target is not multigraded with single-term entries")
    mats = {0: PolyMatrix.from_entries(ring, 1, 1, {(0, 0): Polynomial.monomial(ring, (0,) * ring.nvars)})}
    for j in range(1, S.max_degree() + 1):
        if S.rank(j) == 0:
            continue
        W = mats.get(j - 1)
        if W is None:
            W = PolyMatrix.zero(ring, X.rank(j - 1), S.rank(j - 1))
        W = mat_mul(W, S.diff(j))
        entries = {}
        for g in range(S.rank(j)):
            v = _reference_lift_column(X, j, mdegs, W.column(g), constrain_to)
            if v is None:
                inside = "" if constrain_to is None else f" with entries inside {constrain_to}"
                raise LiftError(j, "no solution" + inside)
            entries.update(((i, g), p) for i, p in enumerate(v) if p.terms)
        mats[j] = PolyMatrix.from_entries(ring, X.rank(j), S.rank(j), entries)
    out = ChainMap(S, X, {n: [{i: c for i, p in col.items() for c in p.terms.values()} for col in M.columns()]
                          for n, M in mats.items()})
    mat = lambda n: mats.get(n) or PolyMatrix.zero(ring, X.rank(n), S.rank(n))
    if product_chain_map_defect(out, mat) is not None:
        raise InvariantViolation("lift produced a non-chain-map")
    if any(out.mat(n) != M for n, M in mats.items()):
        raise InvariantViolation("lift has an entry that is not one term")
    return LiftReport(map=out, constrained=constrain_to is not None)


def constant_coeff(p):
    """The coefficient of 1 in the Polynomial p."""
    return p.terms.get((0,) * p.ring.nvars, 0)


def scan_is_minimal(C) -> bool:
    """Reference for is_minimal: the sorted scan of every nonzero entry."""
    return not any(constant_coeff(p) for mat in C.diffs.values() for _, _, p in mat.nonzero_entries())


def double_every_solve(monkeypatch):
    """Make linalg.solve return twice its solution.  Each later lift step
    stays solvable, so a lift runs to the end with a non-chain-map."""
    from starcone import linalg

    solve = linalg.solve

    def doubled(field, *args):
        x = solve(field, *args)
        return x and [field.of_int(v + v) for v in x]

    monkeypatch.setattr(linalg, "solve", doubled)


def _dense_rows(F, nrows, ncols, entries):
    """Dense rows of the sparse matrix {(i, j): c}, entries made canonical."""
    rows = [[0] * ncols for _ in range(nrows)]
    for (i, j), c in entries.items():
        rows[i][j] = F.of_int(c)
    return rows


def _dense_eliminate(F, A, ncols):
    """Row-reduce A in place over its first ncols columns (trailing columns
    ride along): columns left to right, within a column the first nonzero
    entry top-down, each pivot row scaled to a leading 1 and cleared below
    only.  Returns the pivot columns, the k-th pivot in row k."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(A):
            break
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = F.inv(A[r][c])
        prow = A[r] = [F.of_int(v * inv) for v in A[r]]
        support = [k for k in range(c, len(prow)) if prow[k]]
        for row in A[r + 1:]:
            f = row[c]
            if f:
                for k in support:
                    row[k] = F.of_int(row[k] - f * prow[k])
        pivots.append(c)
    return pivots


def dense_rank(F, nrows, ncols, entries):
    """Reference for linalg.rank: Gaussian elimination on dense rows."""
    return len(_dense_eliminate(F, _dense_rows(F, nrows, ncols, entries), ncols))


def dense_solve(F, nrows, ncols, entries, rhs):
    """Reference for linalg.solve: dense elimination of [A | rhs], then
    back-substitution with the free variables set to zero; None when
    inconsistent."""
    augmented = dict(entries)
    augmented.update(((i, ncols), c) for i, c in enumerate(rhs))
    rows = _dense_rows(F, nrows, ncols + 1, augmented)
    pivots = _dense_eliminate(F, rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [0] * ncols
    for r in reversed(range(len(pivots))):
        row = rows[r]
        x[pivots[r]] = F.of_int(row[ncols] - sum(row[c] * x[c] for c in pivots[r + 1:]))
    return x


def _reduced_piece(C, n, d, modulo=None):
    """The columns of d_n : (C_n)_d -> (C_{n-1})_d over the coefficient
    field, one {row: c} per label (generator j, monomial m) with twist_j +
    |m| = d, generator-major, reduced modulo the monomial ideal modulo when
    one is given: labels whose monomial lies in it are left out, and so are
    the entries that land there.  The direct standard-monomial reduction of
    C (x) R/modulo, built apart from homcheck, which computes Tor as the
    homology of X (x) Y instead."""
    def labels(k):
        return [(j, m) for j, w in enumerate(C.twists(k)) if d >= w
                for m in monomials_of_degree(C.ring.nvars, d - w)
                if modulo is None or not modulo.contains_monomial(m)]

    rows = {lab: i for i, lab in enumerate(labels(n - 1))}
    columns = []
    for j, m in labels(n):
        col = {}
        for i, p in C.diff(n).column(j).items():
            for e, c in p.terms.items():
                mono = mono_mul(e, m)
                if modulo is None or not modulo.contains_monomial(mono):
                    col[rows[i, mono]] = c
        columns.append(col)
    return columns


def dense_homology(C, d_max, modulo=None):
    """Oracle for homology_dims, and for tor_dims when modulo is given: the
    columns of each _reduced_piece (n, d), read into a dense {(row, column):
    c} matrix and ranked whole by dense_rank, with rank-nullity.  Shares no
    slicing or elimination with homcheck, which ranks multidegree blocks on
    the box walk and, for a complex that is not multigraded, each degree's
    piece as one block by the same routine (a bounded verdict).  Returns
    (nonzero dims by (n, d), h0)."""
    F = C.ring.coeff_field
    dims, h0 = {}, []
    for d in range(d_max + 1):
        pieces = {n: _reduced_piece(C, n, d, modulo) for n in C.support()}
        ranks = {}
        for n, cols in pieces.items():
            entries = {(i, j): c for j, col in enumerate(cols) for i, c in col.items()}
            ranks[n] = dense_rank(F, len(pieces.get(n - 1, ())), len(cols), entries)
        for n, cols in pieces.items():
            h = len(cols) - ranks[n] - ranks.get(n + 1, 0)
            assert h >= 0
            if h:
                dims[n, d] = h
        h0.append(dims.get((0, d), 0))
    return dims, h0


def load_perfbench(name):
    """perfbench/<name>.py, imported from outside src/ as the benchmark
    imports it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@contextmanager
def address_space_cap(extra_mib):
    """Cap this process's address space at its current size plus extra_mib
    while the block runs, so a runaway allocation raises MemoryError
    instead of exhausting the machine (Linux)."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (extra_mib << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def dense_minimize(C):
    """Oracle for minimize: Gaussian cancellation on dense lists of rows,
    rescanning for the first unit entry in (degree, row, column) order
    before every step, as minimize did before it went sparse."""
    from starcone import ChainComplex, PolyMatrix

    F = C.ring.coeff_field
    mods = {n: list(tw) for n, tw in C.modules.items()}
    mats = {n: [list(row) for row in C.diff(n).rows] for n in sorted(mods)}
    while True:
        units = [(n, i, j) for n in sorted(mats) for i, row in enumerate(mats[n])
                 for j, p in enumerate(row) if constant_coeff(p)]
        if not units:
            break
        n, pi, pj = units[0]
        mat = mats[n]
        inv = Polynomial.monomial(C.ring, (0,) * C.ring.nvars, F.inv(constant_coeff(mat[pi][pj])))
        mats[n] = [[mat[i][j] - mat[i][pj] * mat[pi][j] * inv
                    for j in range(len(mat[i])) if j != pj]
                   for i in range(len(mat)) if i != pi]
        if n + 1 in mats:
            mats[n + 1] = [row for i, row in enumerate(mats[n + 1]) if i != pj]
        if n - 1 in mats:
            mats[n - 1] = [[p for j, p in enumerate(row) if j != pi] for row in mats[n - 1]]
        mods[n].pop(pj)
        mods[n - 1].pop(pi)
    modules = {n: tuple(tw) for n, tw in mods.items() if tw}
    diffs = {n: PolyMatrix(C.ring, len(modules.get(n - 1, ())), len(modules.get(n, ())), rows)
             for n, rows in mats.items() if modules.get(n - 1) and modules.get(n)}
    return ChainComplex(C.ring, modules, diffs)


def loop_betti_product_table(bI, bJ):
    """Oracle for betti_product_table: every entry (l, k) inside the bounds
    summed over i = 1..l and j = 0..k, as the per-entry loops did."""
    from starcone import BettiTable

    top = bI.max_l() + bJ.max_l() - 1
    kmax = max((k for (_, k) in bI.entries), default=0) + max(
        (k for (_, k) in bJ.entries), default=0
    )
    entries = {(0, 0): 1}
    for ell in range(1, top + 1):
        for k in range(kmax + 1):
            entries[ell, k] = sum(bI.entry(i, j) * bJ.entry(ell + 1 - i, k - j)
                                  for i in range(1, ell + 1) for j in range(k + 1))
    return BettiTable(entries)


def loop_fiber_betti_table(bIJ, bIp, bI, bJp, bJ):
    """Oracle for fiber_betti_table, per entry as loop_betti_product_table."""
    from starcone import BettiTable

    top = max(bIJ.max_l(), bIp.max_l() + bJ.max_l(), bI.max_l() + bJp.max_l())
    ks = [k for table in (bIJ, bIp, bI, bJp, bJ) for (_, k) in table.entries]
    kmax = 2 * max(ks, default=0)
    entries = {(0, 0): 1}
    for ell in range(1, top + 1):
        for k in range(kmax + 1):
            acc = bIJ.entry(ell, k)
            for i in range(1, ell + 1):
                for j in range(k + 1):
                    acc += bIp.entry(i, j) * bJ.entry(ell - i, k - j)
                    acc += bI.entry(ell - i, k - j) * bJp.entry(i, j)
            entries[ell, k] = acc
    return BettiTable(entries)


def pairwise_minimal_generators(monos) -> tuple:
    """Oracle for MonomialIdeal.gens: keep each monomial no other one
    divides, comparing every pair, then sort by degree, then lex."""
    uniq = set(monos)
    kept = [m for m in uniq if not any(o != m and mono_divides(o, m) for o in uniq)]
    return tuple(sorted(kept, key=lambda m: (sum(m), tuple(-e for e in m))))


def reference_fiber_ideal_check(Ip, I, Jp, J) -> bool:
    """Reference for fiber_ideal_check: both sides of (Ip + J) cap (I + Jp)
    == Ip + I*J + Jp built by pairwise lcms and compared on their minimal
    generators."""
    left = ideal_intersection(ideal_sum(Ip, J), ideal_sum(I, Jp))
    right = ideal_sum(ideal_sum(Ip, Jp), ideal_product(I, J))
    return left == right
