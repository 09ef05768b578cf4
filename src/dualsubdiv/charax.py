"""Exact verification of the algebraic identities characterizing refinability
and dual interpolatory schemes.

All identities are compared coefficient-wise as formal Laurent polynomials;
"satisfied" is a symbolic zero test, never a numeric tolerance.  With
A(z) = sum_k a_k z^k and the sample polynomial V(z) = sum_i phi(i/T) z^i,
each sum of sub-symbols A_b(z^T) times residue-class sample polynomials
Phi_{T,g}(z) is one residue-class slice of the product A(z^T) V(z).  The
polynomials are the stored ``exactalg.LaurentPoly``s, integer numerators
over one denominator, so the product is one integer ``convolve``;
Fractions are formed only when the residual's nonzero terms are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MAX_POINTS, LaurentPoly, convolve
from .samples import SampleSet
from .scheme import Mask, shift_parameter


class ShiftLatticeMismatch(ValueError):
    """tau * T is not an integer, so the lattice identity is undefined."""


class ShiftMismatch(ValueError):
    """The mask shift is not 1/2, so the dual forms do not apply."""


class ArityTwoUnsupported(ValueError):
    """No convergent dual interpolatory scheme exists for arity 2."""


@dataclass(frozen=True)
class IdentityResidual:
    """Left-hand side minus right-hand side of the tested identity, exact."""

    residual: LaurentPoly

    @property
    def satisfied(self) -> bool:
        return self.residual.is_zero

    def nonzero_terms(self) -> list[tuple[int, Fraction]]:
        return self.residual.terms()


def _residual(mask: Mask, v: LaurentPoly, T: int, t: int) -> IdentityResidual:
    """(V(z^m) - z^{-t} [A(z^T) V(z)]_{== t (mod m)}) / T for the polynomial V.

    This is sum_g Phi_{T,g}(z^m) - m z^{-t} sum_b sum_{g + bT == t (mod m)}
    A_b(z^T) Phi_{T,g}(z), where Phi_{T,g} is the part of V/T on exponents
    == g (mod mT): a term a_k z^{kT} of A_b times a term z^n of Phi_{T,g}
    meets the condition exactly when kT + n == t (mod m).  Raises
    ValueError, before the product is built, when it would hold more than
    MAX_POINTS entries.
    """
    m, a = mask.arity, mask.poly
    size = T * (len(a.numerators) - 1) + len(v.numerators) if v.numerators else 0
    if size > MAX_POINTS:
        raise ValueError(
            f"the product A(z^{T}) V(z) would hold {size} entries, more than {MAX_POINTS}"
        )
    low = T * a.offset + v.offset  # the exponent of the product's first entry
    first = (t - low) % m
    rows = convolve(a.numerators, v.numerators, T)[first::m]
    # both sides sit on exponents == 0 (mod m); in units of m, a.den V(z^m)
    # starts at v.offset and the slice times z^{-t} at (low + first - t) / m
    lhs = LaurentPoly.from_numerators(v.offset, [a.denominator * x for x in v.numerators])
    rhs = LaurentPoly.from_numerators((low + first - t) // m, rows)
    residual = (lhs - rhs) * Fraction(1, T * a.denominator * v.denominator)
    return IdentityResidual(residual.scale_exponents(m))


def verify_refinability(mask: Mask, s: SampleSet, T: int | None = None) -> IdentityResidual:
    """Residual of the lattice refinability identity at density T.

    sum_{g=0}^{mT-1} Phi_{T,g}(z^m)
        = m z^{-tau T} sum_b sum_{g + bT == tau T (mod m)} A_b(z^T) Phi_{T,g}(z)
    """
    if T is None:
        T = s.T
    if T != s.T:
        raise ValueError(f"sample set lives on Z/{s.T}, not Z/{T}")
    tau_T = shift_parameter(mask) * T
    if tau_T.denominator != 1:
        raise ShiftLatticeMismatch(f"tau*T = {tau_T} is not an integer")
    return _residual(mask, s.poly, T, int(tau_T))


def _dual_residual(mask: Mask, s: SampleSet) -> IdentityResidual:
    """The dual forms as _residual with T = 2, tau T = 1 and V(z) = 1 + V_odd(z),
    the half-integer samples plus the constant 1: z^{-1}/2 times the slice of
    A(z^2) (1 + V_odd(z)) on exponents == 1 (mod m)."""
    if mask.arity == 2:
        raise ArityTwoUnsupported(
            "arity 2 admits no convergent dual interpolatory scheme: the"
            " identity forces boundary mask elements equal to 1, which rules"
            " out contractivity"
        )
    if s.T != 2:
        raise ValueError("dual interpolatory forms require samples on Z/2")
    tau = shift_parameter(mask)
    if tau != Fraction(1, 2):
        raise ShiftMismatch(f"dual forms require tau = 1/2, got {tau}")
    return _residual(mask, s.poly.residue_part(1, 2) + LaurentPoly.constant(1), 2, 1)


def verify_lemma_form(mask: Mask, s: SampleSet) -> IdentityResidual:
    """Residual of the intermediate dual-interpolatory identity.

    1/2 + sum_g Phi_{2,2g+1}(z^m)
        = m z^{-1} ( sum_{2b == 1 (m)} A_b(z^2)/2
                     + sum_{2(b+g) == 0 (m)} A_b(z^2) Phi_{2,2g+1}(z) )

    A term a_k z^{2k} of A_b times a term z^n of Phi_{2,2g+1} meets
    2(b+g) == 0 (mod m) exactly when 2k + n == 1 (mod m), and A_b(z^2)/2
    meets 2b == 1 (mod m) when 2k == 1 (mod m).
    """
    return _dual_residual(mask, s)


def verify_dual_interpolatory(mask: Mask, s: SampleSet) -> IdentityResidual:
    """Residual of the arity-specific dual interpolatory characterization.

    Odd m:  1/2 + sum_g Phi_{2,2g+1}(z^m)
              = m z^{-1} ( A_{(m+1)/2}(z^2)/2
                           + sum_g A_{m-g}(z^2) Phi_{2,2g+1}(z) )
    Even m: 1/2 + sum_g Phi_{2,2g+1}(z^m)
              = m z^{-1} sum_g ( A_{m/2-g}(z^2) + A_{m-g}(z^2) ) Phi_{2,2g+1}(z)

    sum_g A_{m-g}(z^2) Phi_{2,2g+1}(z) is the slice of A(z^2) V_odd(z) on
    exponents == 1 (mod 2m); the A_{m/2-g} terms of even m add those == m+1
    (mod 2m).  Both are the odd exponents == 1 (mod m), and A_{(m+1)/2}(z^2)
    the even ones, so this is the lemma form with its conditions solved.
    """
    return _dual_residual(mask, s)
