"""Prescribed lattice values of a limit function.

A SampleSet stores phi on the lattice Z/T over a finite window, as the
integer store of ``exactalg.LaurentPoly``.  For the dual constructions T is
always 2: integer values are the interpolation deltas and the half-integer
values are the free data, typically borrowed from a binary interpolatory
scheme such as the Dubuc-Deslauriers family.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import LaurentPoly, RationalLike, json_field, rat


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

    def value_at_index(self, i: int) -> Fraction:
        """phi(i/T)."""
        return self.poly.coefficient(i)

    def value(self, x: Fraction) -> Fraction:
        """phi(x) for x on the lattice; raises off-lattice."""
        scaled = rat(x) * self.T
        if scaled.denominator != 1:
            raise ValueError(f"{x} is not on the lattice Z/{self.T}")
        return self.value_at_index(int(scaled))

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        if self.poly.is_zero:
            return Fraction(0), Fraction(0)
        return Fraction(self.poly.offset, self.T), Fraction(self.poly.degree_high, self.T)

    def is_delta_at_integers(self) -> bool:
        """True when every stored integer-lattice value equals delta_{0,.}."""
        den = self.poly.denominator
        return all(
            v == (den if i == 0 else 0)
            for i, v in enumerate(self.poly.numerators, self.poly.offset)
            if i % self.T == 0
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
        points = int(t[3:])
        if points < 2 or points % 2 != 0:
            raise ValueError("dd:N requires an even point count N >= 2")
        return dd_samples(points // 2)
    if t.startswith("mix:"):
        w = rat(t[4:])
        return mix_samples(dd_samples(2), dd_samples(3), w)
    return None
