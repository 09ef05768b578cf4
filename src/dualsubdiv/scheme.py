"""Subdivision scheme data model.

A mask is the finite coefficient sequence a_k of the refinement rule
c'_n = sum_k a_{n-mk} c_k for an arity-m scheme.  Its symbol is the Laurent
polynomial A(z) = (1/m) sum_k a_k z^k, and the shift parameter tau = A'(1)
separates primal (tau = 0) from dual (tau = 1/2) symmetric schemes.  A mask
keeps its coefficients in the integer store of ``exactalg.LaurentPoly``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import LaurentPoly, RationalLike, convolve, json_field


class NotDivisible(Exception):
    """The requested smoothing-factor factorization does not exist."""


class Symmetry(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"
    NONE = "none"


@dataclass(frozen=True, init=False)
class Mask:
    """Arity m >= 2 plus the nonzero coefficient polynomial ``poly`` =
    sum_k a_k z^k; ``offset`` and ``coeffs`` are its window and Fraction view."""

    arity: int
    poly: LaurentPoly

    def __init__(self, arity: int, offset: int, coeffs: Iterable[RationalLike]):
        self._store(arity, LaurentPoly(offset, coeffs))

    @classmethod
    def from_poly(cls, arity: int, poly: LaurentPoly) -> "Mask":
        """The mask whose coefficient polynomial is ``poly``."""
        mask = object.__new__(cls)
        mask._store(arity, poly)
        return mask

    def _store(self, arity: int, poly: LaurentPoly) -> None:
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if poly.is_zero:
            raise ValueError("mask must have at least one nonzero coefficient")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "poly", poly)

    @property
    def offset(self) -> int:
        return self.poly.offset

    k_left = offset

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.poly.coeffs

    @property
    def k_right(self) -> int:
        return self.poly.degree_high

    def coefficient(self, k: int) -> Fraction:
        return self.poly.coefficient(k)

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "offset": self.poly.offset,
            "coeffs": self.poly.coeff_strings(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mask":
        arity, offset = json_field(data, "arity", int), json_field(data, "offset", int)
        return cls(arity, offset, json_field(data, "coeffs", list))


@dataclass(frozen=True)
class SchemeDescriptor:
    mask: Mask
    tau: Fraction
    symmetry: Symmetry
    smoothing_order: int


def symbol(mask: Mask) -> LaurentPoly:
    """A(z) = (1/m) sum_k a_k z^k, exactly."""
    return mask.poly * Fraction(1, mask.arity)


def shift_parameter(mask: Mask) -> Fraction:
    """tau = A'(1) = (1/m) sum_k k a_k, summed on the coefficients' numerators."""
    return mask.poly.derivative_at_one() / mask.arity


def divide_smoothing(poly: LaurentPoly, m: int, order: int) -> LaurentPoly:
    """Exact division of a Laurent polynomial by ((1 + z + ... + z^{m-1})/m)**order.

    Runs on the integer numerators c of poly over its denominator.  Each
    order divides c by 1 + z + ... + z^{m-1} with the recurrence
    q_k = c_k - c_{k-1} + q_{k-m} and multiplies q back with ``convolve``
    to check that no remainder is left; the quotient is then scaled by m per
    order.  Raises NotDivisible when a division is not exact.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0 or poly.is_zero:
        return poly
    c = list(poly.numerators)
    ones = [1] * m
    for _ in range(order):
        q: list[int] = []
        for k in range(len(c) - m + 1):
            v = c[k] - c[k - 1] if k else c[0]
            q.append(v + q[k - m] if k >= m else v)
        if convolve(ones, q) != c:
            raise NotDivisible(f"no factorization of order {order} for arity {m}")
        c = q
    scale = m**order
    return LaurentPoly.from_numerators(poly.offset, [x * scale for x in c], poly.denominator)


def factor_smoothing(mask: Mask, d: int) -> LaurentPoly:
    """B(z) with A(z) = ((1+...+z^{m-1})/m)^d B(z), or raise NotDivisible."""
    return divide_smoothing(symbol(mask), mask.arity, d)


def max_smoothing_order(mask: Mask) -> int:
    """Largest d for which factor_smoothing succeeds."""
    d = 0
    # each factor eats m-1 degrees of the coefficient window
    limit = (mask.k_right - mask.k_left) // (mask.arity - 1)
    while d < limit:
        try:
            factor_smoothing(mask, d + 1)
        except NotDivisible:
            break
        d += 1
    return d


def classify_symmetry(mask: Mask) -> SchemeDescriptor:
    """Exact shift and symmetry classification of a mask.

    Primal symmetric means tau = 0 with a palindromic window k_l = -k_r;
    dual symmetric means tau = 1/2 with a palindromic window k_l = 1 - k_r.
    """
    tau = shift_parameter(mask)
    nums = mask.poly.numerators
    palindromic = nums == nums[::-1]
    if palindromic and tau == 0 and mask.k_left == -mask.k_right:
        sym = Symmetry.PRIMAL
    elif palindromic and tau == Fraction(1, 2) and mask.k_left == 1 - mask.k_right:
        sym = Symmetry.DUAL
    else:
        sym = Symmetry.NONE
    return SchemeDescriptor(mask, tau, sym, max_smoothing_order(mask))


def support_interval(m: int, k_star: int) -> tuple[Fraction, Fraction]:
    """Basic limit function support for a mask on {1-k*, ..., k*}."""
    if m < 2:
        raise ValueError("arity must be at least 2")
    if k_star < 1:
        raise ValueError("k* must be at least 1")
    hi = Fraction(2 * k_star - 1, 2 * (m - 1))
    return -hi, hi


def limit_support(mask: Mask) -> tuple[Fraction, Fraction]:
    """Support of the limit function of an arbitrary mask: [(k_l - tau)/(m-1), (k_r - tau)/(m-1)]."""
    tau = shift_parameter(mask)
    m = mask.arity
    return (mask.k_left - tau) / (m - 1), (mask.k_right - tau) / (m - 1)
