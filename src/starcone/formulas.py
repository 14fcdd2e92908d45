"""Closed-form Betti numbers and Poincare series identities.

Write A * B for the convolution of two graded Betti tables,
(A * B)_{l,k} = sum A_{i,j} B_{l-i,k-j}, and A_+ for the part of A in
homological degrees >= 1.  With X, Y minimal resolutions of R/I, R/J, the
star product gives

  beta(R/IJ) = t^{-1} beta(R/I)_+ * beta(R/J)_+     in degrees >= 1,

the shift t^{-1} lowering the homological degree by one.  For the
two-block quotient F = R/(I' + IJ + J') the graded table is

  beta(F) = beta(R/IJ)_+ + beta(R/I')_+ * beta(R/J) + beta(R/I) * beta(R/J')_+
                                                    in degrees >= 1,

with beta_{0,0} = 1 in both.  With I = <x_1..x_m>, J = <y_1..y_n>,
I' <= I^2, J' <= J^2 the totals also have the closed form

  beta_l(F) = sum_{t=1}^{l} [ beta_t(R/I') C(n, l-t) + C(m, l-t) beta_t(R/J') ]
              + C(m+n, l+1) - C(m, l+1) - C(n, l+1),

which betti_fiber evaluates on its own, as an independent check of the
table.  Both Poincare identities below are packaged as residuals that a
correct construction drives to zero.  fiber.closed_form_table and
fiber.poincare_residuals are the one place that decides which tables and
series of a fiber instance feed these forms.
"""
from __future__ import annotations

from math import comb

from .complexes import BettiTable, PowerSeries


# ------------------------------------------------------------ convolution

def _positive(table: BettiTable) -> BettiTable:
    return BettiTable({(l, k): v for (l, k), v in table.entries.items() if l >= 1})


def _convolve(out: dict, A: BettiTable, B: BettiTable, shift: int = 0) -> dict:
    """Add every A[i,j] B[l,k] into out[(i + l + shift, j + k)]."""
    for (i, j), a in A.entries.items():
        for (l, k), b in B.entries.items():
            key = (i + l + shift, j + k)
            out[key] = out.get(key, 0) + a * b
    return out


# ---------------------------------------------------------------- products

def betti_product_table(bI: BettiTable, bJ: BettiTable) -> BettiTable:
    """beta(R/IJ): the positive parts convolved, one homological degree down."""
    entries = _convolve({}, _positive(bI), _positive(bJ), shift=-1)
    entries[0, 0] = 1
    return BettiTable(entries)


def series_of_ideal(P_quotient: PowerSeries) -> PowerSeries:
    """Pass from the series of R/L to the series of the module L:
    (P - 1)/t."""
    one = PowerSeries.of([1], P_quotient.truncation)
    return (P_quotient - one).shift_down(1)


# ------------------------------------------------------- two-block fibers

def betti_fiber(ell: int, m: int, n: int, bIp: BettiTable, bJp: BettiTable) -> int:
    """Total Betti number of R/(I' + IJ + J') in the two-block setting."""
    if ell < 0:
        raise ValueError("homological degree must be nonnegative")
    if ell == 0:
        return 1
    tIp = bIp.totals()
    tJp = bJp.totals()
    acc = comb(m + n, ell + 1) - comb(m, ell + 1) - comb(n, ell + 1)
    for t in range(1, ell + 1):
        acc += tIp.get(t, 0) * comb(n, ell - t) + comb(m, ell - t) * tJp.get(t, 0)
    return acc


def fiber_betti_table(bIJ: BettiTable, bIp: BettiTable, bI: BettiTable,
                      bJp: BettiTable, bJ: BettiTable) -> BettiTable:
    """beta(F): the star table plus the two primed-against-opposite
    convolutions."""
    entries = dict(_positive(bIJ).entries)
    _convolve(entries, _positive(bIp), bJ)
    _convolve(entries, bI, _positive(bJp))
    entries[0, 0] = 1
    return BettiTable(entries)


# ----------------------------------------------------- Poincare identities

def poincare_identity_1(PF: PowerSeries, P_IpJ: PowerSeries, P_IJp: PowerSeries,
                        P_IplusJ: PowerSeries, P_prod_ideal: PowerSeries) -> PowerSeries:
    """Residual of the inclusion-exclusion identity

      PF = P_{R/(I'+J)} + P_{R/(I+J')} - P_{R/(I+J)} + t(1+t) P_{IJ},

    where P_{IJ} is the series of the product ideal as a module.  Zero
    exactly when the identity holds up to the common truncation.
    """
    t_part = P_prod_ideal.shift_up(1) + P_prod_ideal.shift_up(2)
    return PF - P_IpJ - P_IJp + P_IplusJ - t_part


def poincare_identity_2(PF: PowerSeries, PIp: PowerSeries, PJp: PowerSeries,
                        m: int, n: int) -> PowerSeries:
    """Residual of the two-block closed form

      t [ PF - (1+t)^n PIp - (1+t)^m PJp + (1+t)^{m+n} ]
        = (t+1) ((1+t)^m - 1) ((1+t)^n - 1).
    """
    N = min(PF.truncation, PIp.truncation, PJp.truncation)
    kozm = PowerSeries.one_plus_t_power(m, N + 1)
    kozn = PowerSeries.one_plus_t_power(n, N + 1)
    kozmn = PowerSeries.one_plus_t_power(m + n, N + 1)
    one = PowerSeries.of([1], N + 1)
    lhs = (PF - kozn * PIp - kozm * PJp + kozmn).shift_up(1)
    t_plus_1 = PowerSeries.of([1, 1], N + 1)
    rhs = t_plus_1 * (kozm - one) * (kozn - one)
    return lhs - rhs
