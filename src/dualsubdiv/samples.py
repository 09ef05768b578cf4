"""Prescribed lattice values of a limit function.

A SampleSet stores phi on the lattice Z/T as ``exactalg.LaurentPoly``'s
integer store.  Seeds live on Z/2: integer values are the interpolation
deltas, half-integer values the free data, typically from a binary
interpolatory scheme such as Dubuc-Deslauriers.  ``analyze.refine_values``
refines a seed to SampleSets on Z/(2 m^L), seeds of the same kind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import LaurentPoly, RationalLike, integer, json_field, rat, refuse


@dataclass(frozen=True, init=False)
class SampleSet:
    """Values phi((offset + i)/T) for i = 0..len(values)-1; zero outside.

    ``poly`` stores V(z) = sum_i phi(i/T) z^i; ``offset`` and ``values`` are
    its window and its Fraction view."""

    T: int
    poly: LaurentPoly

    def __init__(self, T: int, offset: int, values: Iterable[RationalLike]):
        self._store(T, LaurentPoly(offset, values))

    @classmethod
    def from_poly(cls, T: int, poly: LaurentPoly) -> "SampleSet":
        """The sample set whose sample polynomial is ``poly``."""
        samples = object.__new__(cls)
        samples._store(T, poly)
        return samples

    def _store(self, T: int, poly: LaurentPoly) -> None:
        if T < 1:
            raise ValueError("lattice density T must be positive")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "poly", poly)

    @property
    def offset(self) -> int:
        return self.poly.offset

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self.poly.coeffs

    @property
    def is_exact(self) -> bool:
        """Always true; ``perfbench/tracing.py``, its only reader, reads it by name."""
        return not self.values or isinstance(self.values[0], Fraction)

    def value_at_index(self, i: int) -> Fraction:
        """phi(i/T)."""
        return self.poly.coefficient(i)

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        if self.poly.is_zero:
            return Fraction(0), Fraction(0)
        return Fraction(self.poly.offset, self.T), Fraction(self.poly.degree_high, self.T)

    def is_delta_at_integers(self) -> bool:
        """True when phi takes delta_{0,.} at the integers: phi(0) = 1, stored
        or not, and every other stored integer-lattice value is 0."""
        den, nums, offset = self.poly.denominator, self.poly.numerators, self.poly.offset
        return 0 <= -offset < len(nums) and all(
            v == (den if i == 0 else 0) for i, v in enumerate(nums, offset) if i % self.T == 0
        )

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "offset": self.poly.offset,
            "values": self.poly.coeff_strings(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleSet":
        T, offset = json_field(data, "T", int), json_field(data, "offset", int)
        return cls(T, offset, json_field(data, "values", list))


def phi_poly(s: SampleSet, m: int, n: int) -> LaurentPoly:
    """Phi_{T,n}(z) = (1/T) sum_k phi(mk + n/T) z^{mTk + n}.

    Periodic in n with period mT.  The support of the result sits on
    exponents congruent to n mod mT.  No package path calls it;
    ``perfbench/tracing.py`` wraps it by name.
    """
    if m < 2:
        raise ValueError("arity must be at least 2")
    return s.poly.residue_part(n, m * s.T) * Fraction(1, s.T)


@functools.cache
def dd_samples(n: int) -> SampleSet:
    """Lattice values of the binary 2n-point interpolatory limit function on Z/2.

    Cached: a SampleSet is immutable, so every caller may share one.

    Integers carry the delta data; the value at k + 1/2 is the degree-(2n-1)
    Lagrange interpolant of the deltas on the 2n nearest integers, evaluated
    at the midpoint: the basis at node -k, L_{-k}(1/2) = P / ((1/2 + k)
    (n - k - 1)! (n + k)! (-1)^(n+k)), with P = prod_{t=1-n..n} (1/2 - t).
    n=2 gives the classic 4-point values
    (1/16)*{-1, 0, 9, 16, 9, 0, -1} on {-3/2, ..., 3/2}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    half = Fraction(1, 2)
    P = math.prod(half - t for t in range(1 - n, n + 1))
    values = [Fraction(0)] * (4 * n - 1)
    values[2 * n - 1] = Fraction(1)
    for k in range(-n, n):
        den = (half + k) * math.factorial(n - k - 1) * math.factorial(n + k)
        values[2 * (n + k)] = P / den if (n + k) % 2 == 0 else -P / den
    return SampleSet(2, -(2 * n - 1), values)


def mix_samples(s1: SampleSet, s2: SampleSet, w: RationalLike) -> SampleSet:
    """Entrywise (1-w)*s1 + w*s2 over the union of supports; same T required."""
    if s1.T != s2.T:
        raise ValueError("sample sets live on different lattices")
    ww = rat(w)
    return SampleSet.from_poly(s1.T, s1.poly * (1 - ww) + s2.poly * ww)


def samples_from_shorthand(text: str) -> SampleSet | None:
    """Resolve CLI shorthands: dd4, dd6, dd:N (N-point), mix:W (DD4/DD6 blend).

    Returns None when the string is not a recognized shorthand, so callers can
    fall back to treating it as a file path.
    """
    t = text.strip().lower()
    if t == "dd4":
        return dd_samples(2)
    if t == "dd6":
        return dd_samples(3)
    if t.startswith("dd:"):
        points = integer(t[3:])
        if points < 2 or points % 2 != 0:
            raise ValueError("dd:N requires an even point count N >= 2")
        # 2N - 1 numerators of about 2N bits: N^2 measures the store and all work on it
        refuse(points * points, f"dd:{points}", "point pairs")
        return dd_samples(points // 2)
    if t.startswith("mix:"):
        w = rat(t[4:])
        return mix_samples(dd_samples(2), dd_samples(3), w)
    return None
