"""Prescribed lattice values of a limit function.

A SampleSet stores phi on the lattice Z/T over a finite window.  For the dual
constructions T is always 2: integer values are the interpolation deltas and
the half-integer values are the free data, typically borrowed from a binary
interpolatory scheme such as the Dubuc-Deslauriers family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import LaurentPoly, RationalLike, rat


@dataclass(frozen=True)
class SampleSet:
    """Values phi((offset + i)/T) for i = 0..len(values)-1; zero outside."""

    T: int
    offset: int
    values: tuple[Fraction, ...]

    def __init__(self, T: int, offset: int, values: Iterable[RationalLike]):
        if T < 1:
            raise ValueError("lattice density T must be positive")
        poly = LaurentPoly(offset, [rat(v) for v in values])
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "offset", poly.offset)
        object.__setattr__(self, "values", poly.coeffs)

    def value_at_index(self, i: int) -> Fraction:
        """phi(i/T)."""
        j = i - self.offset
        if 0 <= j < len(self.values):
            return self.values[j]
        return Fraction(0)

    def value(self, x: Fraction) -> Fraction:
        """phi(x) for x on the lattice; raises off-lattice."""
        scaled = rat(x) * self.T
        if scaled.denominator != 1:
            raise ValueError(f"{x} is not on the lattice Z/{self.T}")
        return self.value_at_index(int(scaled))

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        if not self.values:
            return Fraction(0), Fraction(0)
        return (
            Fraction(self.offset, self.T),
            Fraction(self.offset + len(self.values) - 1, self.T),
        )

    def is_delta_at_integers(self) -> bool:
        """True when every stored integer-lattice value equals delta_{0,.}."""
        for i, v in enumerate(self.values):
            idx = self.offset + i
            if idx % self.T == 0:
                expected = Fraction(1) if idx == 0 else Fraction(0)
                if v != expected:
                    return False
        return True

    def perturbed(self, index: int, delta: RationalLike) -> "SampleSet":
        """Copy with the value at lattice numerator ``index`` shifted by delta."""
        lo = min(self.offset, index)
        hi = max(self.offset + len(self.values) - 1, index)
        vals = [self.value_at_index(i) for i in range(lo, hi + 1)]
        vals[index - lo] += rat(delta)
        return SampleSet(self.T, lo, vals)

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "offset": self.offset,
            "values": [str(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleSet":
        return cls(int(data["T"]), int(data["offset"]), [rat(v) for v in data["values"]])


def phi_poly(s: SampleSet, m: int, n: int) -> LaurentPoly:
    """Phi_{T,n}(z) = (1/T) sum_k phi(mk + n/T) z^{mTk + n}.

    Periodic in n with period mT.  The support of the result sits on
    exponents congruent to n mod mT.
    """
    if m < 2:
        raise ValueError("arity must be at least 2")
    T = s.T
    terms = []
    if s.values:
        # phi(mk + n/T) = value at lattice numerator m*T*k + n
        lo_idx = s.offset
        hi_idx = s.offset + len(s.values) - 1
        k_lo = math.ceil(Fraction(lo_idx - n, m * T))
        k_hi = math.floor(Fraction(hi_idx - n, m * T))
        for k in range(k_lo, k_hi + 1):
            v = s.value_at_index(m * T * k + n)
            if v != 0:
                terms.append((m * T * k + n, v / T))
    return LaurentPoly.from_terms(terms)


def _lagrange_basis_at(nodes: list[int], j: int, x: Fraction) -> Fraction:
    out = Fraction(1)
    for t in nodes:
        if t != j:
            out *= Fraction(x - t, j - t)
    return out


@functools.cache
def dd_samples(n: int) -> SampleSet:
    """Lattice values of the binary 2n-point interpolatory limit function on Z/2.

    Cached: a SampleSet is immutable, so every caller may share one.

    Integers carry the delta data; the value at k + 1/2 is the degree-(2n-1)
    Lagrange interpolant of the deltas on the 2n nearest integers, evaluated
    at the midpoint.  n=2 gives the classic 4-point values
    (1/16)*{-1, 0, 9, 16, 9, 0, -1} on {-3/2, ..., 3/2}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    nodes = list(range(1 - n, n + 1))
    half = Fraction(1, 2)
    values = []
    for idx in range(-(2 * n - 1), 2 * n):
        if idx % 2 == 0:
            values.append(Fraction(1) if idx == 0 else Fraction(0))
        else:
            j = (idx - 1) // 2
            # phi(j + 1/2) weights the delta at 0, i.e. the basis at node -j
            values.append(_lagrange_basis_at(nodes, -j, half))
    return SampleSet(2, -(2 * n - 1), values)


def mix_samples(s1: SampleSet, s2: SampleSet, w: RationalLike) -> SampleSet:
    """Entrywise (1-w)*s1 + w*s2 over the union of supports; same T required."""
    if s1.T != s2.T:
        raise ValueError("sample sets live on different lattices")
    ww = rat(w)
    if not s1.values:
        lo = s2.offset
        hi = s2.offset + len(s2.values) - 1
    elif not s2.values:
        lo = s1.offset
        hi = s1.offset + len(s1.values) - 1
    else:
        lo = min(s1.offset, s2.offset)
        hi = max(s1.offset + len(s1.values) - 1, s2.offset + len(s2.values) - 1)
    values = [
        (1 - ww) * s1.value_at_index(i) + ww * s2.value_at_index(i)
        for i in range(lo, hi + 1)
    ]
    return SampleSet(s1.T, lo, values)


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
        points = int(t[3:])
        if points < 2 or points % 2 != 0:
            raise ValueError("dd:N requires an even point count N >= 2")
        return dd_samples(points // 2)
    if t.startswith("mix:"):
        w = rat(t[4:])
        return mix_samples(dd_samples(2), dd_samples(3), w)
    return None
