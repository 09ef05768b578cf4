"""Exact rational scalars, Laurent polynomials and dense rational linear algebra.

No floating point is ever introduced here.  ``Fraction`` is the boundary
type: the work runs on Python ints over one common denominator.  A
``LaurentPoly`` (a mask, a sample set, a symbol) and each ``RatMatrix`` row
are integer numerators over one denominator, and ``rref``/``rref_solve``
share one fraction-free elimination on the rows; a ``LinearSolution`` is
numerators over the last pivot.  Their Fractions are views, built when first
read.  The product kernel ``convolve`` keeps the coefficient type it is
given, so the callers run it on integer numerators, and on floats only where
they ask for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


class InfeasibleSystem(Exception):
    """The linear system has no solution (rank(M) < rank([M | rhs]))."""


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction or a string like ``"-3/4"`` to a Fraction.

    Floats are rejected: silently converting them would smuggle binary
    rounding artifacts into computations that must stay exact.  So are bools,
    which are ints to Python but no number in JSON.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing to coerce {type(value).__name__} {value!r} to an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def json_field(data: dict, key: str, kind: type):
    """data[key], which must have the JSON type ``kind`` itself, never converted."""
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def numerators(fractions: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d x for x in fractions]) with d the lcm of the denominators."""
    d = math.lcm(*(x.denominator for x in fractions))
    return d, [x.numerator * (d // x.denominator) for x in fractions]


# Most entries a product built for one command may hold: a lattice of
# analyze.refine_values, a polyline of analyze.subdivide_points or the
# identity product of charax.  Each grows with the command's depth, steps or
# lattice density, so a larger one is refused before it is built.
MAX_POINTS = 10**6


def convolve(a: Sequence, b: Sequence, stride: int = 1) -> list:
    """Coefficients of A(z^stride) B(z): entry stride*i + j sums a[i] * b[j].

    Type-generic: ints, Fractions and floats keep their type, and an entry no
    product reaches is the unsigned zero ``type(b[0])()``.  A row a[i] * b is
    stored where no earlier row reached and added only where one did.  Empty
    inputs give [].
    """
    if not a or not b:
        return []
    n = len(b)
    out = [type(b[0])()] * (stride * (len(a) - 1) + n)
    end = 0  # out[end:] holds no product yet
    for i, x in enumerate(a):
        if x == 0:
            continue
        lo = stride * i
        k = max(end - lo, 0)
        out[lo : lo + k] = [o + x * y for o, y in zip(out[lo : lo + k], b)]
        out[lo + k : lo + n] = [x * y for y in b[k:]]
        end = lo + n
    return out


@dataclass(frozen=True, init=False)
class LaurentPoly:
    """A finitely supported sequence c_k z^k with integer exponents k.

    ``offset`` is the lowest stored exponent; the coefficients are the
    integer ``numerators`` over the positive ``denominator`` in lowest
    terms, trimmed to nonzero ends (the zero polynomial is offset 0,
    denominator 1, no numerators), so equal polynomials have equal fields.
    ``coeffs``, the Fractions, is built on its first read.
    """

    offset: int
    denominator: int
    numerators: tuple[int, ...]

    def __init__(self, offset: int, coeffs: Iterable[RationalLike]):
        den, nums = numerators([rat(c) for c in coeffs])
        self._store(offset, nums, den)

    @classmethod
    def from_numerators(cls, offset: int, nums: Sequence[int], den: int = 1) -> "LaurentPoly":
        """The polynomial sum_i (nums[i] / den) z^(offset + i)."""
        poly = object.__new__(cls)
        poly._store(offset, nums, den)
        return poly

    def _store(self, offset: int, nums: Sequence[int], den: int) -> None:
        lo, hi = 0, len(nums)
        while lo < hi and not nums[lo]:
            lo += 1
        while hi > lo and not nums[hi - 1]:
            hi -= 1
        nums = nums[lo:hi]
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "offset", offset + lo if nums else 0)
        object.__setattr__(self, "denominator", den // g)
        object.__setattr__(self, "numerators", tuple(nums) if g == 1 else tuple(x // g for x in nums))

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    def coeff_strings(self) -> list[str]:
        """The coefficients as ``str(Fraction)`` writes them: "p/q", or "p" when q is 1."""
        den = self.denominator
        return [
            f"{x // g}/{den // g}" if (g := math.gcd(x, den)) != den else str(x // g)
            for x in self.numerators
        ]

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def constant(cls, c: RationalLike) -> "LaurentPoly":
        return cls(0, (c,))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, RationalLike]]) -> "LaurentPoly":
        acc: dict[int, Fraction] = {}
        for e, c in terms:
            acc[e] = acc.get(e, Fraction(0)) + rat(c)
        if not acc:
            return cls.zero()
        lo = min(acc)
        hi = max(acc)
        return cls(lo, tuple(acc.get(e, Fraction(0)) for e in range(lo, hi + 1)))

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree_low(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.offset

    @property
    def degree_high(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.offset + len(self.numerators) - 1

    def coefficient(self, exponent: int) -> Fraction:
        i = exponent - self.offset
        if 0 <= i < len(self.numerators):
            return self.coeffs[i]
        return Fraction(0)

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [
            (self.offset + i, c) for i, c in enumerate(self.coeffs) if c != 0
        ]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        den = math.lcm(self.denominator, other.denominator)
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.numerators), other.offset + len(other.numerators))
        out = [0] * (hi - lo)
        for p in (self, other):
            k, i = den // p.denominator, p.offset - lo
            out[i : i + len(p.numerators)] = [o + k * x for o, x in zip(out[i:], p.numerators)]
        return LaurentPoly.from_numerators(lo, out, den)

    def __neg__(self) -> "LaurentPoly":
        return self * -1

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(other)
        # convolve loops over its first argument: one row for a scalar
        nums = convolve(other.numerators, self.numerators)
        den = self.denominator * other.denominator
        return LaurentPoly.from_numerators(self.offset + other.offset, nums, den)

    __rmul__ = __mul__

    def residue_part(self, r: int, modulus: int) -> "LaurentPoly":
        """The terms whose exponents are == r (mod modulus)."""
        first = (r - self.offset) % modulus
        out = [0] * max(len(self.numerators) - first, 0)
        out[::modulus] = self.numerators[first::modulus]
        return LaurentPoly.from_numerators(self.offset + first, out, self.denominator)

    def scale_exponents(self, factor: int) -> "LaurentPoly":
        """Substitute z -> z^factor (factor >= 1)."""
        if factor < 1:
            raise ValueError("exponent scale factor must be >= 1")
        out = [0] * (factor * len(self.numerators) - factor + 1)
        out[::factor] = self.numerators
        return LaurentPoly.from_numerators(self.offset * factor, out, self.denominator)

    def derivative_at_one(self) -> Fraction:
        """The exact value of p'(1), i.e. sum_k k * p_k."""
        return Fraction(sum(k * x for k, x in enumerate(self.numerators, self.offset)), self.denominator)

    def divide(self, divisor: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Long division from the low end: returns (quotient, remainder).

        When the division is exact the remainder is the zero polynomial;
        otherwise the remainder collects whatever cannot be cancelled.  No
        package path calls it; ``perfbench/tracing.py`` wraps it by name.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero(), LaurentPoly.zero()
        rem = {e: c for e, c in self.terms()}
        quot: dict[int, Fraction] = {}
        d_lo = divisor.degree_low
        d0 = divisor.coefficient(d_lo)
        d_terms = divisor.terms()
        while rem:
            lo = min(rem)
            hi = max(rem)
            # once the residual window is narrower than the divisor nothing
            # more can cancel
            if hi - lo < divisor.degree_high - d_lo:
                break
            t = rem[lo] / d0
            q_exp = lo - d_lo
            quot[q_exp] = quot.get(q_exp, Fraction(0)) + t
            for e, c in d_terms:
                e2 = e + q_exp
                v = rem.get(e2, Fraction(0)) - t * c
                if v == 0:
                    rem.pop(e2, None)
                else:
                    rem[e2] = v
        return (
            LaurentPoly.from_terms(quot.items()),
            LaurentPoly.from_terms(rem.items()),
        )


@dataclass(frozen=True, init=False)
class RatMatrix:
    """Dense exact matrix, immutable.

    Row i is the integer numerators ``numerators[i]`` over the positive
    denominator ``denominators[i]``, in lowest terms (gcd(den, *row) == 1),
    so equal matrices have equal fields.  ``entries``, the Fractions, is
    built on its first read.
    """

    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        scaled = [numerators([rat(x) for x in row]) for row in rows]
        self._store([row for _, row in scaled], [den for den, _ in scaled])

    @classmethod
    def from_numerators(cls, rows: Iterable[Sequence[int]], den: int = 1) -> "RatMatrix":
        """The matrix whose rows are the integer rows over ``den``."""
        rows = list(rows)
        matrix = object.__new__(cls)
        matrix._store(rows, [den] * len(rows))
        return matrix

    def _store(self, rows: Sequence[Sequence[int]], dens: Sequence[int]) -> None:
        nums, lowest = [], []
        for row, den in zip(rows, dens):
            g = math.gcd(den, *row) if den > 0 else -math.gcd(den, *row)
            nums.append(tuple(row) if g == 1 else tuple(x // g for x in row))
            lowest.append(den // g)
        if nums and any(len(row) != len(nums[0]) for row in nums):
            raise ValueError("ragged rows")
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominators", tuple(lowest))

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(x, den) for x in row)
            for row, den in zip(self.numerators, self.denominators)
        )

    @property
    def rows(self) -> int:
        return len(self.numerators)

    @property
    def cols(self) -> int:
        return len(self.numerators[0]) if self.numerators else 0

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows and other.rows and self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        stacked = object.__new__(RatMatrix)
        stacked._store(self.numerators + other.numerators, self.denominators + other.denominators)
        return stacked


@dataclass(frozen=True)
class LinearSolution:
    """Canonical solution of M x = rhs, as integer numerators over one
    denominator, the last Bareiss pivot.

    ``particular`` has zeros in every free coordinate; ``nullbasis`` holds the
    reduced-row-echelon kernel basis, one vector per free column in ascending
    column order (the free column carries the 1).  Both are Fraction views of
    ``particular_numerators`` and ``nullbasis_numerators``, built on first read.
    """

    pivot_cols: tuple[int, ...]
    denominator: int
    particular_numerators: tuple[int, ...]
    nullbasis_numerators: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def particular(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.particular_numerators)

    @functools.cached_property
    def nullbasis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(x, self.denominator) for x in v) for v in self.nullbasis_numerators
        )

    @property
    def dimension(self) -> int:
        return len(self.nullbasis_numerators)


def _eliminate(matrix: RatMatrix, rhs: Sequence[RationalLike]):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on [matrix | rhs].

    Row i of [matrix | rhs] is scaled to integers by s_i, the lcm of the row's
    denominator and the rhs entry's.  A step on pivot p replaces every other
    row by (p row - f pivot_row) / p_prev, an exact division (the entries are
    integer minors), which leaves p on the diagonal of every pivot row.  The
    pivots are those of Gauss-Jordan on Fractions.  Returns the integer rows,
    the scales s_i (permuted with the rows), the pivot columns and the last
    pivot.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length does not match row count")
    m: list[list[int]] = []
    scales: list[int] = []
    for row, den, y in zip(matrix.numerators, matrix.denominators, rhs):
        y = y if isinstance(y, int) else rat(y)
        s = math.lcm(den, y.denominator)
        k = s // den
        m.append([x * k for x in row] + [y.numerator * (s // y.denominator)])
        scales.append(s)
    n_rows = len(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(matrix.cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        top = m[r]
        p = top[c]
        for i in range(n_rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    return m, scales, pivots, prev


def rref(matrix: RatMatrix, rhs: Sequence[RationalLike]) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Reduced row echelon form of [matrix | rhs]; returns (R, r, pivot_cols).

    The result is that of Gauss-Jordan on Fractions: the pivot rows of the
    integer elimination over the last pivot p, and a row below the rank,
    scaled by s on input, over s p.
    """
    m, scales, pivots, prev = _eliminate(matrix, rhs)
    n_cols = matrix.cols
    r = len(pivots)
    reduced = [[Fraction(x, prev) for x in row[:n_cols]] for row in m[:r]]
    column = [Fraction(row[n_cols], prev) for row in m[:r]]
    column += [Fraction(row[n_cols], prev * s) for row, s in zip(m[r:], scales[r:])]
    reduced += [[Fraction(0)] * n_cols for _ in m[r:]]
    return reduced, column, pivots


def rref_solve(matrix: RatMatrix, rhs: Sequence[RationalLike]) -> LinearSolution:
    """Solve M x = rhs exactly.

    Raises InfeasibleSystem when inconsistent.  Otherwise returns the
    canonical particular solution together with the RREF nullspace basis,
    both over the last pivot p: the particular solution is the rhs column of
    the pivot rows, and the basis vector of free column f carries p there and
    minus column f of the pivot rows in the pivot coordinates.
    """
    m, _, pivots, prev = _eliminate(matrix, rhs)
    n_cols = matrix.cols
    rank = len(pivots)
    if any(row[n_cols] for row in m[rank:]):
        raise InfeasibleSystem("inconsistent linear system")
    particular = [0] * n_cols
    for row, col in zip(m, pivots):
        particular[col] = row[n_cols]
    basis = []
    for f in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[f] = prev
        for row, col in zip(m, pivots):
            v[col] = -row[f]
        basis.append(tuple(v))
    return LinearSolution(tuple(pivots), prev, tuple(particular), tuple(basis))
