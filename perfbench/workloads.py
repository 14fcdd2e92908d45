"""The benchmark's workloads: seeded op lists against the public starcone API.

An op is one user-visible job, from ideal generators given as text to the
certificate verdict, together with a checker for its outputs.  ``run`` returns
a dict of raw outputs (Betti tables, H_0 vectors, ranks, residual
coefficients) and ``check`` returns ``None`` when they are right, or a
one-line reason.  Checkers compare raw values rather than verdict booleans so
that a corrupted output is caught (see ``selftest.py``).

Every library call goes through the ``starcone`` package namespace at call
time (``sc.build_fiber(...)``), so the tracer can rebind it there.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import starcone as sc

# Instances with a closed form: I = <x_1..x_m>, J = <y_1..y_n>, given I', J'.
LADDER_RUNGS = {
    "2+2": (2, 2, ["x1^2", "x2^2"], ["y1^2", "y2^2"]),
    "2+2b": (2, 2, ["x1^2", "x1*x2", "x2^3"], ["y1*y2^2", "y1^3"]),
    "3+2": (3, 2, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"], ["y1^2", "y2^2"]),
}
# Rungs that exhaust the memory ceiling with today's dense certification.
# They run only in ``ladder_frontier``: the timed workloads must not fail.
FRONTIER_RUNGS = {
    "3+3": (3, 3, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"], ["y1^2", "y2^2", "y3^2"]),
    "4+3": (4, 3, ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2*x3"], ["y1^2", "y2^2", "y3^2"]),
}
LADDER_Q_RUNGS = {
    "2+1": (2, 1, ["x1^2", "x2^2"], ["y^2"]),
    "1+2": (1, 2, ["x^2"], ["y1^2", "y2^2"]),
    "2+2": (2, 2, ["x1^2", "x2^2"], ["y1^2", "y2^2"]),
}
CONSTRUCT_BLOCKS = {
    "4+4": (4, 4, ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2*x3"],
            ["y1^2", "y2^2", "y3^2", "y4^2", "y1*y2*y3"]),
    "5+4": (5, 4, ["x1^2", "x2^2", "x3^2", "x4^2", "x5^2", "x1*x2*x3"],
            ["y1^2", "y2^2", "y3^2", "y4^2", "y1*y2*y3"]),
    "5+5": (5, 5, ["x1^2", "x2^2", "x3^2", "x4^2", "x5^2", "x1*x2*x3"],
            ["y1^2", "y2^2", "y3^2", "y4^2", "y5^2", "y1*y2*y3"]),
}
QUADRICS = ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4"]

# Ranks frozen once from the seed code.  The ladder and Taylor
# entries were certified exact with H_0 equal to the Hilbert function by
# ``certifies_resolution_of``; the construct blocks are too big for that and
# matched their closed-form Betti tables instead.
FROZEN_RANKS = {
    "ladder/2+2": [1, 8, 14, 9, 2],
    "ladder/2+2b": [1, 9, 17, 12, 3],
    "ladder/3+2": [1, 12, 30, 33, 18, 4],
    "ladder/3+3": None,  # never completed under the ceiling
    "ladder/4+3": None,
    "ladder/q2+1": [1, 5, 6, 2],
    "ladder/q1+2": [1, 5, 6, 2],
    "ladder/q2+2": [1, 8, 14, 9, 2],
    "construct/4+4": [1, 26, 108, 226, 294, 250, 136, 43, 6],
    "construct/5+4": [1, 31, 144, 344, 525, 545, 386, 179, 49, 6],
    "construct/5+5": [1, 37, 190, 508, 884, 1076, 932, 565, 228, 55, 6],
    "construct/taylor8": [1, 8, 15, 11, 3],
    "construct/taylor9": [1, 9, 17, 12, 3],
}

# The survey draws from the distribution of scripts/survey_random_instances.py
# with --max-vars 2 (generator counts 1..4, degrees 2..4), stratified: the
# stratum of every slot (block sizes and minimal generator degrees) is fixed
# by a draw with PLAN_SEED, and the run seed draws the generators inside each
# stratum.  This keeps the per-seed mix of cheap and expensive instances,
# and so the run-to-run spread, small.
SURVEY_OPS = 128
CONSTRUCT_EXPLICIT_OPS = 8
PLAN_SEED = 20260819
MAX_VARS, MAX_GENS, MAX_DEG = 2, 4, 4


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], Optional[str]]


def _names(prefix: str, k: int) -> list:
    return [f"{prefix}{i + 1}" for i in range(k)] if k > 1 else [prefix]


# ------------------------------------------------------------------- checks

def _first_failure(conditions) -> Optional[str]:
    for ok, reason in conditions:
        if not ok:
            return reason
    return None


def _betti_dict(table) -> dict:
    return dict(table.entries)


def _certificate(inst, build) -> dict:
    cert = sc.certify_minimal(inst, build)
    return {k: bool(v) for k, v in vars(cert).items()}


def _homology(inst, res, bound: int) -> dict:
    rep = sc.homology_dims(res, bound)
    return {
        "positive_homology": dict(rep.positive_cells()),
        "complete": rep.complete,
        "h0": list(rep.h0),
        "h0_want": sc.hilbert_function(inst.quotient_ideal(), bound),
    }


def _ranks(C) -> list:
    return [C.rank(n) for n in C.support()]


def _closed_form(inst, build) -> dict:
    return _betti_dict(sc.fiber_betti_table(
        sc.graded_betti(build.star),
        sc.graded_betti(inst.S), sc.graded_betti(inst.X),
        sc.graded_betti(inst.T), sc.graded_betti(inst.Y),
    ))


def _homology_failures(out: dict):
    yield not out["positive_homology"], f"homology in positive degrees: {out['positive_homology']}"
    yield out["complete"], "degree bound does not cover every twist"
    yield out["h0"] == out["h0_want"], f"H0 {out['h0']} != Hilbert function {out['h0_want']}"


def _betti_failures(out: dict):
    """The Betti table against the ranks and, where H_0 was computed, the
    Hilbert function: for any graded free resolution of R/Q over N variables,
    dim (R/Q)_d = sum_{l,k} (-1)^l beta_{l,k} binom(d - k + N - 1, N - 1)."""
    totals: dict = {}
    for (l, _), v in out["betti"].items():
        totals[l] = totals.get(l, 0) + v
    yield [totals.get(l, 0) for l in range(len(out["ranks"]))] == out["ranks"], \
        f"ranks {out['ranks']} disagree with the Betti table"
    if "h0_want" in out:
        N = out["nvars"]
        euler = [
            sum((-1) ** l * v * comb(d - k + N - 1, N - 1)
                for (l, k), v in out["betti"].items() if k <= d)
            for d in range(len(out["h0_want"]))
        ]
        yield euler == out["h0_want"], f"Betti table gives Hilbert function {euler}"


def _frozen_failure(name: str, out: dict):
    want = FROZEN_RANKS.get(name)
    yield want is None or out["ranks"] == want, f"ranks {out['ranks']} != frozen {want}"


# ---------------------------------------------------------------- op makers

def block_certify_op(name: str, spec, field=None, survey: bool = False) -> Op:
    """Build, certify by homology and minimality, compare with closed forms.

    The survey variant adds both Poincare identities, as the survey script
    does; ladder rungs compare their ranks with frozen values instead."""
    m, n, ip, jp = spec

    def run() -> dict:
        inst = sc.block_instance(m, n, ip, jp, coeff_field=field)
        build = sc.build_fiber(inst)
        res = build.resolution
        out = _homology(inst, res, sc.default_degree_bound(inst, res))
        out["certificate"] = _certificate(inst, build)
        out["betti"] = _betti_dict(sc.graded_betti(res))
        out["betti_want"] = _closed_form(inst, build)
        out["ranks"] = _ranks(res)
        out["nvars"] = m + n
        if survey:
            out["residuals"] = _poincare_residuals(inst, build, m, n)
        return out

    def check(out: dict) -> Optional[str]:
        def conditions():
            yield from _homology_failures(out)
            yield all(out["certificate"].values()), f"minimality certificate {out['certificate']}"
            yield out["betti"] == out["betti_want"], "Betti table differs from the closed form"
            yield from _betti_failures(out)
            if survey:
                yield not any(out["residuals"]), f"Poincare residuals {out['residuals']}"
            else:
                yield from _frozen_failure(name, out)
        return _first_failure(conditions())

    return Op(name, run, check)


def _poincare_residuals(inst, build, m: int, n: int) -> list:
    res = build.resolution
    tr = res.max_degree() + m + n + 2
    gf = sc.generating_function
    PF = gf(res, tr)
    r1 = sc.poincare_identity_1(
        PF,
        gf(sc.resolution_of(sc.ideal_sum(inst.Ip, inst.J)), tr),
        gf(sc.resolution_of(sc.ideal_sum(inst.I, inst.Jp)), tr),
        gf(sc.resolution_of(sc.ideal_sum(inst.I, inst.J)), tr),
        sc.series_of_ideal(gf(build.star, tr + 1)),
    )
    r2 = sc.poincare_identity_2(PF, gf(inst.S, tr), gf(inst.T, tr), m, n)
    return list(r1.coeffs) + list(r2.coeffs)


def explicit_op(name: str, spec, field=None) -> Op:
    """Explicit-mode instance with a non-regular I (or J): outside the
    closed-form regime, so the check is homology (exact, H_0) plus the
    certificate reporting the failed regular-sequence hypothesis.

    Homology runs up to the top twist when that exceeds
    ``default_degree_bound``, which happens on a few seeded 2+2 instances:
    the certificate stays complete."""
    xs, ys, ip, i, jp, j = spec

    def run() -> dict:
        ring = sc.RingSpec(tuple(xs) + tuple(ys), partition=(tuple(xs), tuple(ys)),
                           coeff_field=field or sc.PrimeField())
        inst = sc.make_instance(
            ring,
            sc.MonomialIdeal.parse(ip, ring), sc.MonomialIdeal.parse(i, ring),
            sc.MonomialIdeal.parse(jp, ring), sc.MonomialIdeal.parse(j, ring),
        )
        build = sc.build_fiber(inst)
        res = build.resolution
        out = _homology(inst, res, max(sc.default_degree_bound(inst, res), res.max_twist()))
        out["certificate"] = _certificate(inst, build)
        out["betti"] = _betti_dict(sc.graded_betti(res))
        out["ranks"] = _ranks(res)
        out["nvars"] = ring.nvars
        out["regular"] = [sc.is_regular_sequence_monomials(inst.I.gens),
                          sc.is_regular_sequence_monomials(inst.J.gens)]
        return out

    def check(out: dict) -> Optional[str]:
        cert = out["certificate"]

        def conditions():
            yield from _homology_failures(out)
            yield from _betti_failures(out)
            yield not all(out["regular"]), "instance was meant to have a non-regular I or J"
            yield [cert["regular_sequence_i"], cert["regular_sequence_j"]] == out["regular"], \
                f"certificate misreports regular sequences: {cert}"
            yield from _frozen_failure(name, out)
        return _first_failure(conditions())

    return Op(name, run, check)


def construct_block_op(name: str, spec) -> Op:
    """Build only: the cone resolution and its minimality certificate,
    checked against the closed-form Betti table and frozen ranks."""
    m, n, ip, jp = spec

    def run() -> dict:
        inst = sc.block_instance(m, n, ip, jp)
        build = sc.build_fiber(inst)
        return {
            "certificate": _certificate(inst, build),
            "betti": _betti_dict(sc.graded_betti(build.resolution)),
            "betti_want": _closed_form(inst, build),
            "ranks": _ranks(build.resolution),
        }

    def check(out: dict) -> Optional[str]:
        return _first_failure(itertools.chain(
            [(all(out["certificate"].values()), f"minimality certificate {out['certificate']}"),
             (out["betti"] == out["betti_want"], "Betti table differs from the closed form")],
            _betti_failures(out),
            _frozen_failure(name, out),
        ))

    return Op(name, run, check)


def taylor_op(name: str, k: int) -> Op:
    """minimize(taylor(I)) on the first k quadrics in 4 variables."""

    def run() -> dict:
        ring = sc.RingSpec(("x1", "x2", "x3", "x4"))
        C = sc.minimize(sc.taylor(sc.MonomialIdeal.parse(QUADRICS[:k], ring)))
        return {"ranks": _ranks(C), "minimal": sc.is_minimal(C)}

    def check(out: dict) -> Optional[str]:
        return _first_failure(itertools.chain(
            [(out["minimal"], "minimize left a unit entry")],
            _frozen_failure(name, out),
        ))

    return Op(name, run, check)


# ------------------------------------------------------- seeded generation

def _exponents(rng: random.Random, k: int, d: int) -> tuple:
    """A degree-d monomial in k variables, each factor's variable uniform,
    as the survey script draws them."""
    expts = [0] * k
    for _ in range(d):
        expts[rng.randrange(k)] += 1
    return tuple(expts)


def _mono_text(names: list, expts: tuple) -> str:
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, expts) if e)


def _draw_block(rng: random.Random) -> tuple:
    """(m, n, I' exponents, J' exponents), as the survey script samples."""
    m = rng.randint(1, MAX_VARS)
    n = rng.randint(1, MAX_VARS)
    ip = [_exponents(rng, m, rng.randint(2, MAX_DEG)) for _ in range(rng.randint(1, MAX_GENS))]
    jp = [_exponents(rng, n, rng.randint(2, MAX_DEG)) for _ in range(rng.randint(1, MAX_GENS))]
    return m, n, ip, jp


def _minimal_degrees(gens: list) -> tuple:
    """Sorted degrees of the minimal generators of a monomial ideal."""
    gens = set(gens)
    divides = lambda a, b: a != b and all(x <= y for x, y in zip(a, b))
    return tuple(sorted(sum(g) for g in gens if not any(divides(h, g) for h in gens)))


def _stratum(draw: tuple) -> tuple:
    """Shape of a survey draw: block sizes and the sorted degrees of the
    minimal generators of I' and J'.  These set most of its cost."""
    m, n, ip, jp = draw
    return m, n, _minimal_degrees(ip), _minimal_degrees(jp)


def survey_plan(count: int) -> list:
    rng = random.Random(PLAN_SEED)
    return [_stratum(_draw_block(rng)) for _ in range(count)]


def _draw_ideal(rng: random.Random, k: int, degrees: tuple) -> list:
    """Minimal generators with the given degrees."""
    while True:
        gens = [_exponents(rng, k, d) for d in degrees]
        if _minimal_degrees(gens) == degrees:
            return gens


def survey_blocks(seed: int, count: int) -> list:
    """One instance per plan slot, drawn inside the slot's stratum, as
    (m, n, I', J') with the generators as text."""
    rng = random.Random(seed)
    out = []
    for m, n, ip_degrees, jp_degrees in survey_plan(count):
        xs, ys = _names("x", m), _names("y", n)
        ip = [_mono_text(xs, e) for e in _draw_ideal(rng, m, ip_degrees)]
        jp = [_mono_text(ys, e) for e in _draw_ideal(rng, n, jp_degrees)]
        out.append((m, n, ip, jp))
    return out


def _non_regular(rng: random.Random, names: list) -> list:
    """Two or three distinct quadrics in two variables sharing a variable."""
    a, b = names
    quads = [f"{a}^2", f"{a}*{b}", f"{b}^2"]
    while True:
        gens = rng.sample(quads, rng.choice((2, 3)))
        if set(gens) != {quads[0], quads[2]}:
            return gens


def _square_part(rng: random.Random, gens: list) -> list:
    """One or two products of pairs of generators: a subideal of the square."""
    return [f"{rng.choice(gens)}*{rng.choice(gens)}" for _ in range(rng.randint(1, 2))]


def explicit_specs(seed: int, count: int) -> list:
    """Seeded explicit-mode instances, cycling the shapes 2+1, 1+2, 2+2.
    A two-variable side gets a non-regular ideal; a one-variable side <y>."""
    rng = random.Random(f"explicit {seed}")
    out = []
    for k in range(count):
        m, n = [(2, 1), (1, 2), (2, 2)][k % 3]
        xs, ys = _names("x", m), _names("y", n)
        I = _non_regular(rng, xs) if m == 2 else xs[:]
        J = _non_regular(rng, ys) if n == 2 else ys[:]
        out.append((xs, ys, _square_part(rng, I), I, _square_part(rng, J), J))
    return out


# ------------------------------------------------------------ the workloads

def survey(seed: int) -> list:
    return [
        block_certify_op(f"survey/{k:03d} {m}+{n}", (m, n, ip, jp), survey=True)
        for k, (m, n, ip, jp) in enumerate(survey_blocks(seed, SURVEY_OPS))
    ]


def ladder(seed: int) -> list:
    """The mod-p rungs, then the Q rungs (named ``q...``) with the same
    steps, so that a mod-p gain that costs Q shows in the same wall time."""
    Q = sc.RationalField()
    ops = [block_certify_op(f"ladder/{k}", spec) for k, spec in LADDER_RUNGS.items()]
    return ops + [block_certify_op(f"ladder/q{k}", spec, Q) for k, spec in LADDER_Q_RUNGS.items()]


def ladder_frontier(seed: int) -> list:
    """The mod-p rungs plus those that fail at seed: not a timed workload."""
    rungs = dict(LADDER_RUNGS, **FRONTIER_RUNGS)
    return [block_certify_op(f"ladder/{k}", spec) for k, spec in rungs.items()]


def construct(seed: int) -> list:
    ops = [construct_block_op(f"construct/{k}", spec) for k, spec in CONSTRUCT_BLOCKS.items()]
    ops += [
        explicit_op(f"construct/e{k:02d} {len(s[0])}+{len(s[1])}", s)
        for k, s in enumerate(explicit_specs(seed, CONSTRUCT_EXPLICIT_OPS))
    ]
    ops += [taylor_op(f"construct/taylor{k}", k) for k in (8, 9)]
    return ops


WORKLOADS = {
    "survey": survey,
    "ladder": ladder,
    "construct": construct,
    "ladder_frontier": ladder_frontier,
}


def warmup_op() -> Op:
    """A 1+1 instance run once before timing, on every workload."""
    return block_certify_op("warmup/1+1", (1, 1, ["x^2"], ["y^2"]), survey=True)
