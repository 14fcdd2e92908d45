"""Resolutions of R/(I' + IJ + J') by a mapping cone over the star product.

The pipeline, for nonzero ideals I and J, I' <= I and J' <= J with (I, J),
(I', J) and (I, J') Tor-independent, and minimal resolutions S, X, T, Y of
the four quotients.  make_instance decides all of it before step 1; by
ring.is_tor_independent, I and I' then share no variable with J, nor I
with J', so only I' and J' may share one.

  1. lift the identity on R to comparison maps phi : S -> X, psi : T -> Y;
  2. form the star product X * Y;
  3. package phi and psi into chain maps Phi, Psi out of the shifted
     tensor complexes (S_{>=1} (x) Y)[-1] and (X (x) T_{>=1})[-1];
  4. take the cone on (Phi  Psi).

Every complex resolution_of builds carries labels (multidegrees and scalar
columns, see complexes), and so does each map and complex built here: entry
(i, g) of phi_j is c x^(mdeg_g - mdeg_i), and each column g is one small
linear system in its multidegree b = mdeg_g, over the generators whose
multidegrees divide b.  No Polynomial is built.

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

from . import formulas, linalg
from .complexes import (
    BettiTable,
    ChainComplex,
    ChainMap,
    PowerSeries,
    cone,
    direct_sum,
    generating_function,
    graded_betti,
    is_chain_map,
    is_minimal,
    pair_map,
    suspension,
    tensor,
    tensor_basis,
    truncate_geq,
)
from .resolutions import is_regular_sequence_monomials, minimize, resolution_of
from .ring import (
    InvariantViolation,
    MonomialIdeal,
    RingSpec,
    ideal_contains,
    ideal_product,
    ideal_sum,
    is_tor_independent,
    mono_div,
    mono_divides,
)
from .star import _check_bottom, star_basis, star_product


class LiftError(RuntimeError):
    """A degreewise lifting system had no (admissible) solution."""

    def __init__(self, degree: int, message: str):
        super().__init__(f"lift failed at homological degree {degree}: {message}")


class HypothesisViolation(ValueError):
    """An input violates a precondition of the construction."""


@dataclass
class LiftReport:
    map: ChainMap
    constrained: bool


# ----------------------------------------------------------------- lifting

def lift_chain_map(S: ChainComplex, X: ChainComplex,
                   constrain_to: Optional[MonomialIdeal] = None) -> LiftReport:
    """Lift the identity of R to a chain map S -> X, degree by degree.

    Both complexes must start with a single twist-0 generator and be
    multigraded with single-term entries, as every complex resolution_of
    builds is; their mdegs refuse others with a ValueError.  phi_j is kept
    as scalar columns {i: c} on the labels of S and X, entry c x^(mdeg_g -
    mdeg_i): column g is one solve of d_j v = phi_{j-1} d_j e_g over the
    generators whose multidegrees divide mdeg_g.  With constrain_to
    given, every positive-degree entry must lie in that ideal (feasible
    whenever H_0(S)'s defining ideal sits in the square of X's), or
    LiftError is raised.  A result that is not a chain map raises
    InvariantViolation.
    """
    if S.ring != X.ring or constrain_to is not None and constrain_to.ring != X.ring:
        raise ValueError("S, X and constrain_to live in different rings")
    _check_bottom(S, "source")
    _check_bottom(X, "target")
    F, src, tgt = X.ring.coeff_field, S.mdegs, X.mdegs
    phi = {0: [{0: 1}]}
    for j in range(1, S.max_degree() + 1):
        phi[j], d, nrows = [], X.columns(j), X.rank(j - 1)
        for b, col in zip(src.get(j, ()), S.columns(j)):
            acc: dict = {}
            for k, c in col.items():
                for i, e in phi[j - 1][k].items():
                    acc[i] = acc.get(i, 0) + c * e
            if not any(map(F.of_int, acc.values())):  # v = 0, with no solve
                phi[j].append({})
                continue
            cols = [g for g, a in enumerate(tgt.get(j, ())) if mono_divides(a, b) and (
                constrain_to is None or constrain_to.contains_monomial(mono_div(b, a)))]
            entries = {(i, k): c for k, g in enumerate(cols) for i, c in d[g].items()}
            sol = linalg.solve(F, nrows, len(cols), entries, [acc.get(i, 0) for i in range(nrows)])
            if sol is None:
                inside = "" if constrain_to is None else f" with entries inside {constrain_to}"
                raise LiftError(j, "no solution" + inside)
            phi[j].append({g: c for g, c in zip(cols, sol) if c})
    out = ChainMap(S, X, cols=phi)
    if not is_chain_map(out):
        raise InvariantViolation("lift produced a non-chain-map")
    return LiftReport(map=out, constrained=constrain_to is not None)


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
            return lift.map.columns(k), k, (k + o + side) % 2 == 1
        if k == 1:  # only in degree 0: the augmentation d_1 into R
            return source.columns(1), 0, False
        return None

    left, right = (act, lambda i, j: None) if side == 0 else (lambda i, j: None, lambda i, j: act(j, i))
    return ChainMap(dom, star_XY, cols={
        n: pair_map(tensor_basis(*factors, n + 1), star_basis(*stars, n) if n else [(0, 0, 0, 0)],
                    left, right, star_XY.ring.coeff_field) for n in dom.support()})


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
    return ChainMap(src, Phi.target, cols={n: Phi.columns(n) + Psi.columns(n) for n in src.support()})


# ------------------------------------------------------------- the package

@dataclass
class FiberInstance:
    """The input data: nested ideal pairs that passed make_instance's gate,
    and minimal resolutions of the four quotients (S for R/I', X for R/I,
    T for R/J', Y for R/J)."""

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
        return ideal_sum(ideal_sum(self.Ip, self.Jp), ideal_product(self.I, self.J))

    def max_gen_degree(self) -> int:
        return max(
            self.Ip.max_gen_degree(),
            self.I.max_gen_degree(),
            self.Jp.max_gen_degree(),
            self.J.max_gen_degree(),
        )


TOR_PAIRS = ("(I,J)", "(I',J)", "(I,J')")  # make_instance gates them in this order


def make_instance(ring: RingSpec, Ip: MonomialIdeal, I: MonomialIdeal,
                  Jp: MonomialIdeal, J: MonomialIdeal) -> FiberInstance:
    """The instance, or a HypothesisViolation naming the first hypothesis that
    fails, before anything is resolved.  The star product's R/IJ is I' = J' = 0."""
    if not ideal_contains(I, Ip):
        raise HypothesisViolation(f"containment fails: {Ip} is not inside {I}")
    if not ideal_contains(J, Jp):
        raise HypothesisViolation(f"containment fails: {Jp} is not inside {J}")
    if I.is_zero() or J.is_zero():
        raise HypothesisViolation("I and J must be nonzero")
    for pair, (A, B) in zip(TOR_PAIRS, ((I, J), (Ip, J), (I, Jp))):
        if not (rep := is_tor_independent(A, B)):
            raise HypothesisViolation(f"Tor-independence fails for {pair}: "
                                      f"nonzero Tor at (homological, internal) = {rep.witness}")
    return FiberInstance(
        ring=ring, Ip=Ip, I=I, Jp=Jp, J=J,
        S=resolution_of(Ip), X=resolution_of(I),
        T=resolution_of(Jp), Y=resolution_of(J),
    )


def block_instance(m: int, n: int, ip_texts, jp_texts, coeff_field=None) -> FiberInstance:
    """Two-block instance: I = <x_1..x_m>, J = <y_1..y_n>, with I' and J'
    parsed from monomial strings over the respective blocks; m and n must
    be at least 1, or ValueError is raised."""
    from .fields import PrimeField

    if m < 1 or n < 1:
        raise ValueError(f"block sizes must be at least 1, got m = {m} and n = {n}")
    xs = [f"x{i+1}" for i in range(m)] if m > 1 else ["x"]
    ys = [f"y{j+1}" for j in range(n)] if n > 1 else ["y"]
    ring = RingSpec(
        tuple(xs + ys),
        partition=(tuple(xs), tuple(ys)),
        coeff_field=coeff_field or PrimeField(),
    )
    return make_instance(ring, *(MonomialIdeal.parse(texts, ring) for texts in (ip_texts, xs, jp_texts, ys)))


def default_degree_bound(instance: FiberInstance, resolution: ChainComplex) -> int:
    """Max generator degree across the four ideals, plus homological
    length, plus 2, raised to the top twist of the resolution if that is
    higher.  It only limits printing: certification covers every degree."""
    return max(instance.max_gen_degree() + resolution.max_degree() + 2, resolution.max_twist())


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
    constrained: bool


def _lift(instance: FiberInstance, side: int, constrained: bool) -> LiftReport:
    """phi : S -> X (side 0) or psi : T -> Y (side 1), with its entries
    inside I resp. J when constrained and such a lift exists, and
    unconstrained otherwise."""
    source, target, ideal = ((instance.S, instance.X, instance.I) if side == 0
                             else (instance.T, instance.Y, instance.J))
    if constrained:
        try:
            return lift_chain_map(source, target, constrain_to=ideal)
        except LiftError:
            pass
    return lift_chain_map(source, target, constrain_to=None)


def build_fiber(instance: FiberInstance, constrained: bool = True) -> FiberBuild:
    star_XY = star_product(instance.X, instance.Y)
    phi = _lift(instance, 0, constrained)
    Phi = build_phi(phi, instance.S, instance.Y, star_XY)
    psi = _lift(instance, 1, constrained)
    Psi = build_psi(psi, instance.X, instance.T, star_XY)
    resolution = cone(omega(Phi, Psi))
    return FiberBuild(
        instance=instance,
        resolution=resolution,
        star=star_XY,
        phi_lift=phi,
        psi_lift=psi,
        Phi=Phi,
        Psi=Psi,
        constrained=phi.constrained and psi.constrained,
    )


def cone_phi(instance: FiberInstance, constrained: bool = True) -> ChainComplex:
    """Cone on build_fiber's Phi alone: resolves R/(I' + IJ)."""
    return cone(build_fiber(instance, constrained).Phi)


def cone_psi(instance: FiberInstance, constrained: bool = True) -> ChainComplex:
    """Cone on build_fiber's Psi alone: resolves R/(IJ + J')."""
    return cone(build_fiber(instance, constrained).Psi)


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
        return all((self.regular_sequence_i, self.regular_sequence_j, self.ip_in_i_squared,
                    self.jp_in_j_squared, self.inputs_minimal, self.constrained_lifts))

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


# ------------------------------------------------------- the closed forms

def closed_form_table(instance: FiberInstance) -> BettiTable:
    """formulas.fiber_betti_table on the tables of S, X, T and Y alone."""
    bS, bX, bT, bY = (graded_betti(C) for C in (instance.S, instance.X, instance.T, instance.Y))
    return formulas.fiber_betti_table(formulas.betti_product_table(bX, bY), bS, bX, bT, bY)


@dataclass
class PoincareResiduals:
    """The series of the fiber quotient and both identity residuals."""

    series: PowerSeries
    identity_1: PowerSeries
    identity_2: PowerSeries
    truncation: int

    def __bool__(self) -> bool:
        return self.identity_1.is_zero() and self.identity_2.is_zero()


def poincare_residuals(instance: FiberInstance, build: FiberBuild,
                       truncation: Optional[int] = None) -> PoincareResiduals:
    """Both Poincare identities of formulas on minimize(build.resolution),
    with the series of R/(I'+J), R/(I+J'), R/(I+J) read off resolutions of
    the sums and that of IJ off the star product.  m and n are the sizes of
    the ring's two blocks (no blocks: ValueError).  By default the series
    are truncated 2 above the largest of m + n and the lengths of the
    minimized resolution, the star product and the first two sums."""
    if instance.ring.partition is None:
        raise ValueError("the Poincare identities need a ring with two variable blocks")
    m, n = (len(block) for block in instance.ring.partition)
    res = minimize(build.resolution)
    sums = [resolution_of(ideal_sum(a, b)) for a, b in
            ((instance.Ip, instance.J), (instance.I, instance.Jp), (instance.I, instance.J))]
    tr = truncation if truncation is not None else 2 + max(
        m + n, res.max_degree(), build.star.max_degree(), sums[0].max_degree(), sums[1].max_degree())
    PF = generating_function(res, tr)
    P_IJ = formulas.series_of_ideal(generating_function(build.star, tr + 1))
    residual1 = formulas.poincare_identity_1(PF, *(generating_function(C, tr) for C in sums), P_IJ)
    residual2 = formulas.poincare_identity_2(PF, generating_function(instance.S, tr),
                                             generating_function(instance.T, tr), m, n)
    return PoincareResiduals(series=PF, identity_1=residual1, identity_2=residual2, truncation=tr)
