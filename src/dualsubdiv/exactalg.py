"""Exact rational scalars, Laurent polynomials and dense rational linear algebra.

Everything in this module computes over ``fractions.Fraction``; no floating
point is ever introduced here.  Floats only appear downstream in the analysis
code, after the exact objects have been built.  The product kernel ``convolve``
is type-generic: it keeps the coefficient type it is given and adds no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


class InfeasibleSystem(Exception):
    """The linear system has no solution (rank(M) < rank([M | rhs]))."""


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction or a string like ``"-3/4"`` to a Fraction.

    Floats are rejected: silently converting them would smuggle binary
    rounding artifacts into computations that must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


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


@dataclass(frozen=True)
class LaurentPoly:
    """A finitely supported sequence c_k z^k with integer exponents k.

    ``offset`` is the lowest stored exponent.  The stored window is trimmed so
    that the first and last coefficients are nonzero; the zero polynomial is
    stored as ``offset=0, coeffs=()``.
    """

    offset: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, offset: int, coeffs: Iterable[RationalLike]):
        cs = [rat(c) for c in coeffs]
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "offset", offset + lo)
            object.__setattr__(self, "coeffs", tuple(cs[lo:hi]))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def constant(cls, c: RationalLike) -> "LaurentPoly":
        return cls(0, (rat(c),))

    @classmethod
    def monomial(cls, exponent: int, c: RationalLike = 1) -> "LaurentPoly":
        return cls(exponent, (rat(c),))

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
        return not self.coeffs

    @property
    def degree_low(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.offset

    @property
    def degree_high(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> Fraction:
        i = exponent - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [
            (self.offset + i, c) for i, c in enumerate(self.coeffs) if c != 0
        ]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [Fraction(0)] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return LaurentPoly(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return LaurentPoly(self.offset + other.offset, convolve(self.coeffs, other.coeffs))
        c = rat(other)
        return LaurentPoly(self.offset, tuple(c * x for x in self.coeffs))

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        result = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, exponent: int) -> "LaurentPoly":
        """Multiply by z^exponent."""
        return LaurentPoly(self.offset + exponent, self.coeffs)

    def scale_exponents(self, factor: int) -> "LaurentPoly":
        """Substitute z -> z^factor (factor >= 1)."""
        if factor < 1:
            raise ValueError("exponent scale factor must be >= 1")
        out = [Fraction(0)] * (factor * len(self.coeffs) - factor + 1)
        out[::factor] = self.coeffs
        return LaurentPoly(self.offset * factor, out)

    def value_at_one(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def derivative_at_one(self) -> Fraction:
        """The exact value of p'(1), i.e. sum_k k * p_k."""
        return sum(
            ((self.offset + i) * c for i, c in enumerate(self.coeffs)),
            Fraction(0),
        )

    def divide(self, divisor: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Long division from the low end: returns (quotient, remainder).

        When the division is exact the remainder is the zero polynomial;
        otherwise the remainder collects whatever cannot be cancelled.
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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"({c})z")
            else:
                parts.append(f"({c})z^{e}")
        return " + ".join(parts)


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of Fractions.  Immutable; all products are exact."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(rat(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        object.__setattr__(self, "entries", data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.cols
        out = []
        for row in self.entries:
            out_row = [Fraction(0)] * cols
            for k, a in enumerate(row):
                if a == 0:
                    continue
                other_row = other.entries[k]
                for j in range(cols):
                    out_row[j] += a * other_row[j]
            out.append(out_row)
        return RatMatrix(out)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other)

    def matvec(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        vv = [rat(x) for x in v]
        if self.cols != len(vv):
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((a * x for a, x in zip(row, vv) if a != 0), Fraction(0))
            for row in self.entries
        )

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.entries and other.entries and self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return RatMatrix(list(self.entries) + list(other.entries))


@dataclass(frozen=True)
class LinearSolution:
    """Canonical solution of M x = rhs.

    ``particular`` has zeros in every free coordinate; ``nullbasis`` holds the
    reduced-row-echelon kernel basis, one vector per free column in ascending
    column order (the free column carries the 1).
    """

    particular: tuple[Fraction, ...]
    nullbasis: tuple[tuple[Fraction, ...], ...]
    pivot_cols: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.nullbasis)


def rref(matrix: RatMatrix, rhs: Sequence[RationalLike]) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Reduced row echelon form of [matrix | rhs]; returns (R, r, pivot_cols)."""
    m = [list(row) for row in matrix.entries]
    b = [rat(x) for x in rhs]
    if len(b) != matrix.rows:
        raise ValueError("rhs length does not match row count")
    n_rows = len(m)
    n_cols = matrix.cols
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        p = m[r][c]
        if p != 1:
            m[r] = [x / p for x in m[r]]
            b[r] = b[r] / p
        for i in range(n_rows):
            if i == r:
                continue
            f = m[i][c]
            if f == 0:
                continue
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            b[i] = b[i] - f * b[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, b, pivots


def rref_solve(matrix: RatMatrix, rhs: Sequence[RationalLike]) -> LinearSolution:
    """Solve M x = rhs exactly.

    Raises InfeasibleSystem when inconsistent.  Otherwise returns the
    canonical particular solution together with the RREF nullspace basis.
    """
    m, b, pivots = rref(matrix, rhs)
    rank = len(pivots)
    for i in range(rank, len(b)):
        if b[i] != 0:
            raise InfeasibleSystem("inconsistent linear system")
    n_cols = matrix.cols
    free_cols = [c for c in range(n_cols) if c not in set(pivots)]
    particular = [Fraction(0)] * n_cols
    for row_i, col in enumerate(pivots):
        particular[col] = b[row_i]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for row_i, col in enumerate(pivots):
            v[col] = -m[row_i][f]
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis), tuple(pivots))
