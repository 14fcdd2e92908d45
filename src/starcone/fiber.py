"""Resolutions of R/(I' + IJ + J') by a mapping cone over the star product.

The pipeline, for ideals I' <= I and J' <= J with minimal resolutions
S, X, T, Y of the four quotients:

  1. lift the identity on R to comparison maps phi : S -> X, psi : T -> Y;
  2. form the star product X * Y;
  3. package phi and psi into chain maps Phi, Psi out of the shifted
     tensor complexes (S_{>=1} (x) Y)[-1] and (X (x) T_{>=1})[-1];
  4. take the cone on (Phi  Psi).

On basis pairs, with i = |alpha| and j = |beta|:

  Phi(alpha (x) beta) = (-1)^{i+j} phi(alpha) * beta        if j > 0,
                        (d_1 alpha) . beta                  if j = 0, i = 1,
                        0                                   if j = 0, i > 1,
  Psi(alpha (x) beta) = (-1)^{i+j-1} alpha * psi(beta)      if i > 0,
                        alpha . (d_1 beta)                  if i = 0, j = 1,
                        0                                   if i = 0, j > 1.

When I and J are generated by regular sequences, I' <= I^2, J' <= J^2, and
the lifts keep their entries inside I resp. J, the cone is minimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .complexes import (
    ChainComplex,
    ChainMap,
    PolyMatrix,
    cone,
    direct_sum,
    is_chain_map,
    is_minimal,
    pair_map,
    suspension,
    tensor,
    tensor_basis,
    truncate_geq,
)
from .homcheck import graded_piece, is_tor_independent
from .resolutions import is_regular_sequence_monomials, koszul, resolution_of
from .ring import (
    MonomialIdeal,
    Polynomial,
    RingSpec,
    ideal_contains,
    ideal_membership,
    ideal_product,
    mono_div,
    mono_divides,
)
from .star import star_basis, star_product


class LiftError(RuntimeError):
    """A degreewise lifting system had no (admissible) solution."""

    def __init__(self, degree: int, message: str):
        super().__init__(f"lift failed at homological degree {degree}: {message}")
        self.degree = degree


class HypothesisViolation(ValueError):
    """An input violates a precondition of the construction."""


@dataclass
class LiftReport:
    map: ChainMap
    constrained: bool
    max_degree_lifted: int


# ----------------------------------------------------------------- lifting

def _koszul_generators(X: ChainComplex) -> Optional[list]:
    """If X is literally the Koszul complex on monomial generators (as built
    by koszul()), return those monomials; otherwise None."""
    if X.rank(0) != 1 or X.max_degree() < 1:
        return None
    d1 = X.diff(1)
    fs = []
    for j in range(d1.ncols):
        p = d1.entry(0, j)
        if len(p.terms) != 1:
            return None
        ((m, c),) = p.terms.items()
        if c != X.ring.coeff_field.one:
            return None
        fs.append(m)
    if not is_regular_sequence_monomials(fs):
        return None
    probe = koszul(X.ring, [Polynomial.monomial(X.ring, m) for m in fs])
    return fs if probe == X else None


def _koszul_preimage(ring: RingSpec, fs: list, j: int, w: dict, degree: int) -> dict:
    """Solve d(v) = w inside the Koszul complex on monomials fs, degree j.

    Components are dicts: sorted index tuple -> polynomial.  Splitting off
    the last generator e and writing w = a + b ^ e, a preimage v = c + d ^ e
    needs d'(d) = b and d'(c) = a - (-1)^{j-1} f_last d; both right sides
    are cycles again, so recurse down to exact division at j = 1.
    """
    r = len(fs)
    zero = Polynomial.zero(ring)
    if j > r:
        if any(not p.is_zero() for p in w.values()):
            raise LiftError(degree, "cycle survives past the top of the Koszul complex")
        return {}
    if j == 1:
        target = w.get((), zero)
        out: dict = {}
        for mono, coeff in target.terms.items():
            for i, f in enumerate(fs):
                if mono_divides(f, mono):
                    q = Polynomial.monomial(ring, mono_div(mono, f), coeff)
                    out[(i,)] = out.get((i,), zero) + q
                    break
            else:
                raise LiftError(degree, "element lies outside the target ideal")
        return {k: v for k, v in out.items() if not v.is_zero()}
    last = r - 1
    a = {T: p for T, p in w.items() if last not in T}
    b = {T[:-1]: p for T, p in w.items() if T and T[-1] == last}
    d = _koszul_preimage(ring, fs[:-1], j - 1, b, degree)
    f_last = Polynomial.monomial(ring, fs[last])
    sign = 1 if (j - 1) % 2 == 0 else -1
    for T, p in d.items():
        adj = (f_last * p).scale(sign)
        a[T] = a.get(T, zero) - adj
    a = {T: p for T, p in a.items() if not p.is_zero()}
    c = _koszul_preimage(ring, fs[:-1], j, a, degree)
    out = dict(c)
    for T, p in d.items():
        out[T + (last,)] = p
    return out


def _subset_index(m: int, n: int) -> dict:
    from itertools import combinations

    return {T: pos for pos, T in enumerate(combinations(range(m), n))}


def _solve_linear(X: ChainComplex, j: int, degree_internal: int, w_col: list,
                  constrain_to: Optional[MonomialIdeal]) -> Optional[list]:
    """Generic lift step: solve the graded piece of d_j at one internal
    degree, optionally restricting to basis monomials inside an ideal."""
    F = X.ring.coeff_field
    piece = graded_piece(X, j, degree_internal)
    allowed = list(range(piece.ncols))
    if constrain_to is not None:
        allowed = [
            c
            for c, (gen, m) in enumerate(piece.col_labels)
            if constrain_to.contains_monomial(m)
        ]
    remap = {orig: new for new, orig in enumerate(allowed)}
    entries = {
        (i, remap[c]): v for (i, c), v in piece.entries.items() if c in remap
    }
    rhs = [F.zero] * piece.nrows
    row_index = {lab: i for i, lab in enumerate(piece.row_labels)}
    for i, p in enumerate(w_col):
        for m, c in p.terms.items():
            row = row_index[(i, m)]
            rhs[row] = F.add(rhs[row], c)
    sol = linalg.solve(F, piece.nrows, len(allowed), entries, rhs)
    if sol is None:
        return None
    out = [Polynomial.zero(X.ring) for _ in range(X.rank(j))]
    for new, orig in enumerate(allowed):
        if sol[new] == F.zero:
            continue
        gen, m = piece.col_labels[orig]
        out[gen] = out[gen] + Polynomial.monomial(X.ring, m, sol[new])
    return out


def lift_chain_map(S: ChainComplex, X: ChainComplex,
                   constrain_to: Optional[MonomialIdeal] = None) -> LiftReport:
    """Lift the identity of R to a chain map S -> X, degree by degree.

    Both complexes must start with a single twist-0 generator.  With
    constrain_to given, every positive-degree matrix entry is required to
    lie in that ideal (feasible whenever H_0(S)'s defining ideal sits in
    the square of X's); violations raise LiftError.
    """
    if S.rank(0) != 1 or X.rank(0) != 1:
        raise ValueError("both complexes need rank-one degree-0 pieces")
    ring = X.ring
    mats = {0: PolyMatrix.identity(ring, 1)}
    fs = _koszul_generators(X)
    subset_idx = {n: _subset_index(len(fs), n) for n in range(len(fs) + 1)} if fs else None
    top = 0
    for j in range(1, S.max_degree() + 1):
        if S.rank(j) == 0:
            continue
        top = j
        W = mats.get(j - 1)
        if W is None:
            W = PolyMatrix.zero(ring, X.rank(j - 1), S.rank(j - 1))
        W = W.mul(S.diff(j))
        cols = []
        for g in range(S.rank(j)):
            w_col = [W.entry(i, g) for i in range(W.nrows)]
            if fs is not None:
                w_dict = {}
                inv_idx = {pos: T for T, pos in subset_idx[j - 1].items()}
                for i, p in enumerate(w_col):
                    if not p.is_zero():
                        w_dict[inv_idx[i]] = p
                v_dict = _koszul_preimage(ring, fs, j, w_dict, j)
                v = [Polynomial.zero(ring)] * X.rank(j)
                for T, p in v_dict.items():
                    v[subset_idx[j][T]] = p
                if constrain_to is not None:
                    for p in v:
                        if not ideal_membership(p, constrain_to):
                            raise LiftError(j, f"lifted entry {p} escapes {constrain_to}")
            else:
                u = S.twists(j)[g]
                v = _solve_linear(X, j, u, w_col, constrain_to)
                if v is None:
                    unconstrained = (
                        constrain_to is not None
                        and _solve_linear(X, j, u, w_col, None) is not None
                    )
                    reason = (
                        "no solution with entries restricted to the ideal"
                        if unconstrained
                        else "no solution"
                    )
                    raise LiftError(j, reason)
            cols.append(v)
        entries = {
            (i, g): cols[g][i]
            for g in range(S.rank(j))
            for i in range(X.rank(j))
            if not cols[g][i].is_zero()
        }
        mats[j] = PolyMatrix.from_entries(ring, X.rank(j), S.rank(j), entries)
    out = ChainMap(source=S, target=X, mats=mats)
    assert is_chain_map(out), "lift produced a non-chain-map"
    return LiftReport(map=out, constrained=constrain_to is not None, max_degree_lifted=top)


# ----------------------------------------------------- the comparison maps

def _comparison(lift: LiftReport, source: ChainComplex, other: ChainComplex,
                star_XY: ChainComplex, side: int) -> ChainMap:
    """Chain map into X * Y induced by a lift source -> target, out of
    (source_{>=1} (x) other)[-1] on side 0 (Phi: source S, other Y) or
    (other (x) source_{>=1})[-1] on side 1 (Psi: source T, other X)."""
    trunc = truncate_geq(source, 1)
    factors = (trunc, other) if side == 0 else (other, trunc)
    stars = (lift.map.target, other) if side == 0 else (other, lift.map.target)
    dom = suspension(tensor(*factors), -1)

    def act(k, o):
        """The map on the truncated factor, at its degree k and the other's
        o; the sign is Phi's (-1)^{i+j} or Psi's (-1)^{i+j-1}."""
        if o:
            return lift.map.mat(k), k, (k + o + side) % 2 == 1
        if k == 1:  # only in degree 0: the augmentation d_1 into R
            return source.diff(1), 0, False
        return None

    def idle(i, j):
        return None

    left, right = (act, idle) if side == 0 else (idle, lambda i, j: act(j, i))
    mats = {}
    for n in dom.support():
        targets = star_basis(*stars, n) if n else [(0, 0, 0, 0)]
        mats[n] = pair_map(star_XY.ring, tensor_basis(*factors, n + 1), targets, left, right)
    return ChainMap(source=dom, target=star_XY, mats=mats)


def build_phi(phi: LiftReport, S: ChainComplex, Y: ChainComplex,
              star_XY: ChainComplex) -> ChainMap:
    """Chain map (S_{>=1} (x) Y)[-1] -> X * Y induced by the lift phi."""
    return _comparison(phi, S, Y, star_XY, side=0)


def build_psi(psi: LiftReport, X: ChainComplex, T: ChainComplex,
              star_XY: ChainComplex) -> ChainMap:
    """Chain map (X (x) T_{>=1})[-1] -> X * Y induced by the lift psi."""
    return _comparison(psi, T, X, star_XY, side=1)


def omega(Phi: ChainMap, Psi: ChainMap) -> ChainMap:
    """Concatenate the two comparison maps into one map out of the sum."""
    if Phi.target is not Psi.target and Phi.target != Psi.target:
        raise ValueError("comparison maps must share their target")
    src = direct_sum(Phi.source, Psi.source)
    mats = {}
    for n in src.support():
        mats[n] = Phi.mat(n).hstack(Psi.mat(n))
    return ChainMap(source=src, target=Phi.target, mats=mats)


# ------------------------------------------------------------- the package

@dataclass
class FiberInstance:
    """The input data: nested ideal pairs and minimal resolutions of the
    four quotients (S for R/I', X for R/I, T for R/J', Y for R/J)."""

    ring: RingSpec
    Ip: MonomialIdeal
    I: MonomialIdeal
    Jp: MonomialIdeal
    J: MonomialIdeal
    S: ChainComplex
    X: ChainComplex
    T: ChainComplex
    Y: ChainComplex

    def quotient_ideal(self) -> MonomialIdeal:
        from .ring import ideal_sum

        return ideal_sum(ideal_sum(self.Ip, self.Jp), ideal_product(self.I, self.J))

    def max_gen_degree(self) -> int:
        return max(
            self.Ip.max_gen_degree(),
            self.I.max_gen_degree(),
            self.Jp.max_gen_degree(),
            self.J.max_gen_degree(),
        )


def make_instance(ring: RingSpec, Ip: MonomialIdeal, I: MonomialIdeal,
                  Jp: MonomialIdeal, J: MonomialIdeal) -> FiberInstance:
    if not ideal_contains(I, Ip):
        raise HypothesisViolation(f"containment fails: {Ip} is not inside {I}")
    if not ideal_contains(J, Jp):
        raise HypothesisViolation(f"containment fails: {Jp} is not inside {J}")
    if I.is_zero() or J.is_zero():
        raise HypothesisViolation("I and J must be nonzero")
    return FiberInstance(
        ring=ring, Ip=Ip, I=I, Jp=Jp, J=J,
        S=resolution_of(Ip), X=resolution_of(I),
        T=resolution_of(Jp), Y=resolution_of(J),
    )


def block_instance(m: int, n: int, ip_texts, jp_texts, coeff_field=None) -> FiberInstance:
    """Two-block instance: I = <x_1..x_m>, J = <y_1..y_n>, with I' and J'
    parsed from monomial strings over the respective blocks."""
    from .fields import PrimeField
    from .ring import mono_parse

    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    ring = RingSpec(
        tuple(xs + ys),
        partition=(tuple(xs), tuple(ys)),
        coeff_field=coeff_field or PrimeField(),
    )
    unit = lambda name: mono_parse(name, ring)
    I = MonomialIdeal(ring, [unit(v) for v in xs])
    J = MonomialIdeal(ring, [unit(v) for v in ys])
    Ip = MonomialIdeal(ring, [mono_parse(t, ring) for t in ip_texts])
    Jp = MonomialIdeal(ring, [mono_parse(t, ring) for t in jp_texts])
    return make_instance(ring, Ip, I, Jp, J)


def default_degree_bound(instance: FiberInstance, resolution: ChainComplex) -> int:
    """Max generator degree across the four ideals, plus homological
    length, plus 2, raised to the top twist of the resolution if that is
    higher: every twist is covered, so certification is complete."""
    return max(instance.max_gen_degree() + resolution.max_degree() + 2, resolution.max_twist())


def certify_tor_hypotheses(instance: FiberInstance, d_max: Optional[int] = None) -> dict:
    """Tor-independence of the pairs (I, J), (I', J), (I, J'); raises a
    HypothesisViolation naming the first failing pair."""
    checks = {
        "(I,J)": is_tor_independent(instance.X, instance.J, d_max),
        "(I',J)": is_tor_independent(instance.S, instance.J, d_max),
        "(I,J')": is_tor_independent(instance.X, instance.Jp, d_max),
    }
    for pair, rep in checks.items():
        if not rep:
            raise HypothesisViolation(
                f"Tor-independence fails for {pair}: "
                f"nonzero Tor at (homological, internal) = {rep.witness}"
            )
    return checks


@dataclass
class FiberBuild:
    """Everything produced on the way to the resolution, kept for audits."""

    instance: FiberInstance
    resolution: ChainComplex
    star: ChainComplex
    phi_lift: LiftReport
    psi_lift: LiftReport
    Phi: ChainMap
    Psi: ChainMap
    tor_reports: dict
    constrained: bool


def _lift_with_fallback(S, X, ideal, constrained: bool):
    if constrained:
        try:
            return lift_chain_map(S, X, constrain_to=ideal)
        except LiftError:
            pass
    report = lift_chain_map(S, X, constrain_to=None)
    if constrained:
        report.constrained = False
    return report


def _lift_and_compare(instance: FiberInstance, side: int, constrained: bool,
                      star_XY: ChainComplex) -> tuple:
    """Lift one side (0: phi : S -> X inside I, 1: psi : T -> Y inside J)
    and build its comparison map into X * Y; returns (lift, map)."""
    if side == 0:
        phi = _lift_with_fallback(instance.S, instance.X, instance.I, constrained)
        return phi, build_phi(phi, instance.S, instance.Y, star_XY)
    psi = _lift_with_fallback(instance.T, instance.Y, instance.J, constrained)
    return psi, build_psi(psi, instance.X, instance.T, star_XY)


def build_fiber(instance: FiberInstance, constrained: bool = True,
                tor_bound: Optional[int] = None) -> FiberBuild:
    tor_reports = certify_tor_hypotheses(instance, tor_bound)
    star_XY = star_product(instance.X, instance.Y)
    phi, Phi = _lift_and_compare(instance, 0, constrained, star_XY)
    psi, Psi = _lift_and_compare(instance, 1, constrained, star_XY)
    resolution = cone(omega(Phi, Psi))
    return FiberBuild(
        instance=instance,
        resolution=resolution,
        star=star_XY,
        phi_lift=phi,
        psi_lift=psi,
        Phi=Phi,
        Psi=Psi,
        tor_reports=tor_reports,
        constrained=phi.constrained and psi.constrained,
    )


def fiber_resolution(instance: FiberInstance, constrained: bool = True) -> ChainComplex:
    return build_fiber(instance, constrained=constrained).resolution


def _single_cone(instance: FiberInstance, side: int, constrained: bool) -> ChainComplex:
    star_XY = star_product(instance.X, instance.Y)
    return cone(_lift_and_compare(instance, side, constrained, star_XY)[1])


def cone_phi(instance: FiberInstance, constrained: bool = True) -> ChainComplex:
    """Cone on Phi alone: resolves R/(I' + IJ)."""
    return _single_cone(instance, 0, constrained)


def cone_psi(instance: FiberInstance, constrained: bool = True) -> ChainComplex:
    """Cone on Psi alone: resolves R/(IJ + J')."""
    return _single_cone(instance, 1, constrained)


@dataclass
class MinimalityCertificate:
    regular_sequence_i: bool
    regular_sequence_j: bool
    ip_in_i_squared: bool
    jp_in_j_squared: bool
    inputs_minimal: bool
    constrained_lifts: bool
    resolution_minimal: bool

    @property
    def hypotheses_ok(self) -> bool:
        return (
            self.regular_sequence_i
            and self.regular_sequence_j
            and self.ip_in_i_squared
            and self.jp_in_j_squared
            and self.inputs_minimal
            and self.constrained_lifts
        )

    def __bool__(self) -> bool:
        return self.hypotheses_ok and self.resolution_minimal


def certify_minimal(instance: FiberInstance, build: FiberBuild) -> MinimalityCertificate:
    """Report the minimality hypotheses and the outcome separately, so a
    minimal cone obtained outside the guaranteed regime is still visible."""
    I2 = ideal_product(instance.I, instance.I)
    J2 = ideal_product(instance.J, instance.J)
    return MinimalityCertificate(
        regular_sequence_i=is_regular_sequence_monomials(instance.I.gens),
        regular_sequence_j=is_regular_sequence_monomials(instance.J.gens),
        ip_in_i_squared=ideal_contains(I2, instance.Ip),
        jp_in_j_squared=ideal_contains(J2, instance.Jp),
        inputs_minimal=all(
            is_minimal(c) for c in (instance.S, instance.X, instance.T, instance.Y)
        ),
        constrained_lifts=build.constrained,
        resolution_minimal=is_minimal(build.resolution),
    )
