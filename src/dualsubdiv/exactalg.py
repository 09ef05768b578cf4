"""Exact rational scalars, Laurent polynomials and dense rational linear algebra.

No floating point is ever introduced here.  ``Fraction`` is the boundary
type: the work runs on Python ints over one common denominator.  A
``LaurentPoly`` (a mask, a sample set, a symbol) and each ``RatMatrix`` row
are integer numerators over one denominator.  ``rref_solve`` runs one
fraction-free forward pass on the rows, which updates a row only where it
has an entry in the pivot column and only right of that column, and keeps a
stamp of the pivot of each row's last update, then a fraction-free back
substitution on the pivot rows; its pivots and its last pivot are those of
dense Gauss-Jordan, so a ``LinearSolution`` is the same numerators over the
last pivot.  A matrix and a solution have no Fraction view.  A
polynomial's ``coeffs`` is built when first read; ``terms`` and
``coefficient`` build only the Fractions they return.
The product kernel ``convolve`` keeps the coefficient type it is given, so
the callers run it on integer numerators, and on floats only where they ask
for them.  The product of two palindromes (a symmetric mask, its difference
symbols, their iterates) is a palindrome, so ``convolve`` sums only its first
half and mirrors it; on floats that makes the product an exact palindrome.
Two integer kernels do less than a whole product: ``residue_convolve`` sums
one residue class of its entries, and ``box_sums`` multiplies by
1 + z + ... + z^{m-1} with running sums.  ``numerators`` reads plain "p" and
"p/q" strings straight to integers and hands every other input to ``rat``.

``refuse_digits`` refuses a numeral of more than MAX_DIGITS digits, whatever
digit limit the interpreter keeps.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Python 3.11's ``fractions._RATIONAL_FORMAT``, with its fractional part's
# literal ``d*`` corrected to ``\d*`` (so "1.d" is refused as a literal), so
# that 3.10 (which refuses "1_0") to 3.13 (which reads "1 / 2") read one grammar
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z
""", re.VERBOSE | re.IGNORECASE)

# the most digits a numeral may have, and the largest decimal exponent
MAX_DIGITS = 4300
# one numeral as int and Fraction read it: its digits, underscores and point
_NUMERAL = re.compile(r"[\d_.]+")


class InfeasibleSystem(Exception):
    """The linear system has no solution (rank(M) < rank([M | rhs]))."""


def refuse_digits(text: str) -> None:
    """Raise ValueError when a numeral in ``text`` has more than MAX_DIGITS
    digits, whatever digit limit the interpreter keeps.

    A numeral is a run of digits, underscores and decimal points: int reads
    one such run, and Fraction reads the digits of its mantissa, then of its
    exponent, each as one int.  No run of a text of at most MAX_DIGITS
    characters is too long, so only a longer text is searched.
    """
    if len(text) > MAX_DIGITS:
        for run in _NUMERAL.findall(text):
            digits = sum(map(str.isdecimal, run))
            if digits > MAX_DIGITS:
                raise ValueError(f"a numeral of {digits} digits exceeds {MAX_DIGITS}")


def integer(text: str) -> int:
    """int(text), after ``refuse_digits``."""
    refuse_digits(text)
    return int(text)


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction or a string like ``"-3/4"`` to a Fraction.

    Floats are rejected: silently converting them would smuggle binary
    rounding artifacts into computations that must stay exact.  So are bools,
    which are ints to Python but no number in JSON.  A string is read with
    Python 3.11's ``Fraction`` grammar and messages on every Python; it is
    refused by ``refuse_digits`` and for an exponent beyond MAX_DIGITS in
    magnitude.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing to coerce {type(value).__name__} {value!r} to an exact rational")
    if not isinstance(value, str):
        return Fraction(value)
    refuse_digits(value)
    match = _RATIONAL_FORMAT.match(value)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    if abs(e := int(match["exp"] or 0)) > MAX_DIGITS:
        raise ValueError(f"exponent {match['exp']} exceeds {MAX_DIGITS} in magnitude")
    decimal = (match["decimal"] or "").replace("_", "")
    scale = 10 ** len(decimal)
    p = (int(match["num"] or 0) * scale + int(decimal or 0)) * 10 ** max(e, 0)
    q = int(match["denom"] or 1) * scale * 10 ** max(-e, 0)
    try:
        return Fraction(-p if match["sign"] == "-" else p, q)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def json_field(data: dict, key: str, kind: type):
    """data[key], which must have the JSON type ``kind`` itself, never converted."""
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _pair(value: RationalLike) -> tuple[int, int]:
    """(p, q) with value == p/q and q > 0, not necessarily in lowest terms.

    A plain ASCII "p" or "p/q" string of at most MAX_DIGITS characters (an
    optional "-", digits, a nonzero q of digits) is read directly; every
    other value goes through ``rat``, which accepts or refuses it.
    """
    if type(value) is str and len(value) <= MAX_DIGITS and value.isascii():
        p, slash, q = value.partition("/")
        digits = p[1:] if p[:1] == "-" else p
        if digits.isdigit() and (not slash or q.isdigit() and q.strip("0")):
            return int(p), int(q) if slash else 1
    x = rat(value)
    return x.numerator, x.denominator


def numerators(values: Iterable[RationalLike]) -> tuple[int, list[int]]:
    """(d, [d x for x in values]) with d the lcm of the values' denominators
    as ``_pair`` reads them: a common denominator, not always the least."""
    pairs = [_pair(x) for x in values]
    d = math.lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]


# The work budget of one command: the most entries a product, a lattice or a
# sweep may hold, or elimination steps a solve may take.  A larger estimate is
# refused, by ``refuse`` alone, before the work starts.
MAX_POINTS = 10**6


def refuse(amount: int, what: str, unit: str) -> None:
    """Raise ValueError when ``what`` would need ``amount`` ``unit``, more than MAX_POINTS."""
    if amount > MAX_POINTS:
        raise ValueError(f"{what} would need {amount} {unit}, more than {MAX_POINTS}")


def refuse_growth(m: int, q: int, sizes: Iterable[int], what: str, unit: str) -> None:
    """Refuse a cascade before any level is built: level l = 1, 2, ... lives on
    Z/(q m^l) and holds the l-th of ``sizes``.  Raises ValueError at the first
    level that ``refuse`` refuses or that is finer than
    Z/((MAX_POINTS + 1)(m - 1)).  A support of positive length is at least
    1/(m - 1) long, so the density rule stops only a cascade that never fills
    (a one-point lattice, a one-coefficient iterate), and it stops every
    cascade within a few dozen levels, so ``sizes`` may be lazy and long."""
    finest = (MAX_POINTS + 1) * (m - 1)
    for level, size in enumerate(sizes, start=1):
        q *= m
        refuse(size, f"level {level} of {what}", unit)
        if q > finest:
            raise ValueError(f"{what} would be finer than Z/{finest}")


def convolve(a: Sequence, b: Sequence, stride: int = 1) -> list:
    """Coefficients of A(z^stride) B(z): entry stride*i + j sums a[i] * b[j].

    Type-generic: ints, Fractions and floats keep their type, and an entry no
    product reaches is the unsigned zero ``type(b[0])()``.  A row a[i] * b is
    stored where no earlier row reached and added only where one did.  When
    both operands are palindromes, so is the product: only its first
    ceil(N/2) entries are summed and the rest is their mirror.  An exact
    result equals the full sum; a float result is an exact palindrome whose
    first half is summed as above.  Empty inputs give [].
    """
    if not a or not b:
        return []
    n = len(b)
    size = stride * (len(a) - 1) + n
    half = (size + 1) // 2 if a == a[::-1] and b == b[::-1] else size
    out = [type(b[0])()] * size
    end = 0  # out[end:] holds no product yet
    for i, x in enumerate(a):
        lo = stride * i
        if lo >= half:
            break
        if x == 0:
            continue
        hi = min(lo + n, half)
        k = max(end - lo, 0)
        out[lo : lo + k] = [o + x * y for o, y in zip(out[lo : lo + k], b)]
        out[lo + k : hi] = [x * y for y in b[k : hi - lo]]
        end = hi
    out[half:] = out[: size - half][::-1]
    return out


def residue_convolve(
    a: Sequence[int], b: Sequence[int], stride: int, modulus: int, first: int
) -> list[int]:
    """convolve(a, b, stride)[first::modulus] for integers and 0 <= first < modulus,
    summing only the products that land there.

    Entry stride*i + j is == first (mod modulus) when i == i_j (mod
    modulus/g), g = gcd(stride, modulus), for the one i_j that solves it; that
    needs g | first - j.  So each nonzero b[j] adds a slice of a with step
    modulus/g into a slice of the result with step stride/g.
    """
    if not a or not b:
        return []
    out = [0] * len(range(first, stride * (len(a) - 1) + len(b), modulus))
    g = math.gcd(stride, modulus)
    step, jump = modulus // g, stride // g
    inverse = pow(jump, -1, step)
    for j, y in enumerate(b):
        if not y or (first - j) % g:
            continue
        i = (first - j) // g * inverse % step
        row = a[i::step]
        k = (stride * i + j - first) // modulus
        at = slice(k, k + jump * len(row), jump)
        out[at] = [o + y * x for o, x in zip(out[at], row)]
    return out


def box_sums(x: Sequence[int], m: int) -> list[int]:
    """convolve([1] * m, x) by running sums: entry k is x[k - m + 1] + ... + x[k].

    Empty x gives [].
    """
    if not x:
        return []
    sums = list(accumulate(x, initial=0))
    sums += [sums[-1]] * (m - 1)
    return [hi - lo for hi, lo in zip(sums[1:], [0] * (m - 1) + sums)]


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
        den, nums = numerators(coeffs)
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
        object.__setattr__(self, "numerators", tuple(nums) if g == 1 else tuple([x // g for x in nums]))

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
            return Fraction(self.numerators[i], self.denominator)
        return Fraction(0)

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        den = self.denominator
        return [(e, Fraction(x, den)) for e, x in enumerate(self.numerators, self.offset) if x]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        # the zero polynomial sits at offset 0: its window would widen the sum's
        if not other.numerators:
            return self
        if not self.numerators:
            return other
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
    so equal matrices have equal fields.
    """

    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

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
            nums.append(tuple(row) if g == 1 else tuple([x // g for x in row]))
            lowest.append(den // g)
        if nums and any(len(row) != len(nums[0]) for row in nums):
            raise ValueError("ragged rows")
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominators", tuple(lowest))

    @property
    def rows(self) -> int:
        return len(self.numerators)

    @property
    def cols(self) -> int:
        return len(self.numerators[0]) if self.numerators else 0

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        """The rows of self, then those of other; both are already in lowest terms."""
        if self.rows and other.rows and self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        stacked = object.__new__(RatMatrix)
        object.__setattr__(stacked, "numerators", self.numerators + other.numerators)
        object.__setattr__(stacked, "denominators", self.denominators + other.denominators)
        return stacked


@dataclass(frozen=True)
class LinearSolution:
    """Canonical solution of M x = rhs, as integer numerators over one
    denominator, the last Bareiss pivot.

    ``particular_numerators`` has zeros in every free coordinate;
    ``nullbasis_numerators`` holds the reduced-row-echelon kernel basis, one
    vector per free column in ascending column order, whose free coordinate
    is the denominator (the value 1).  The solution has no Fraction view.
    """

    pivot_cols: tuple[int, ...]
    denominator: int
    particular_numerators: tuple[int, ...]
    nullbasis_numerators: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.nullbasis_numerators)


def rref_solve(matrix: RatMatrix, rhs: Sequence[RationalLike]) -> LinearSolution:
    """Solve M x = rhs exactly by one fraction-free forward pass (Bareiss,
    Math. Comp. 22, 1968) on [matrix | rhs] and a fraction-free back
    substitution.

    Row i of [matrix | rhs] is scaled to integers by the lcm of the row's
    denominator and the rhs entry's.  The forward pass takes as pivot row the
    first row at or below the rank with a nonzero entry in the column, as
    Gauss-Jordan on Fractions does.  A step on pivot p replaces each row below
    by (p row - f pivot_row) / p_prev, an exact division (the entries are
    integer minors), on the columns right of the pivot only: the columns to
    the left are 0 there.  A row whose f is 0 would only be scaled by
    p / p_prev, so it is left as it is, with a stamp: the pivot s of its last
    update.  It is brought up to date when it is next used: as a pivot row,
    row * p_prev / s; under a nonzero f, (p row - f pivot_row) / s on the row
    and its f as stored.  Every division is exact.  The dense Gauss-Jordan
    step does the same to the rows below, and its updates of the rows above
    never reach them, so a stored row is its dense counterpart times the
    nonzero s / p_prev.  It has the same zeros: the pivot search picks the
    rows that dense Gauss-Jordan picks, and the pivots and the last one, P,
    are the same.

    Raises InfeasibleSystem when a row below the rank keeps a nonzero rhs.
    Otherwise the pivot rows U_k become the rows R_k = P * RREF_k, from the
    last up, on the free columns and the rhs only (R_k carries P in its own
    pivot column and 0 in the others):
    R_k = (P U_k - sum_{j > k} U_k[piv_j] R_j) / U_k[piv_k], again exactly.
    The result is the canonical particular solution together with the RREF
    nullspace basis, both over P: the particular solution is the rhs column
    of the R_k, and the basis vector of free column f carries P there and
    minus column f of the R_k in the pivot coordinates.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length does not match row count")
    m: list[list[int]] = []
    for row, den, y in zip(matrix.numerators, matrix.denominators, rhs):
        y = y if isinstance(y, int) else rat(y)
        s = math.lcm(den, y.denominator)
        k = s // den
        m.append([x * k for x in row] + [y.numerator * (s // y.denominator)])
    n_rows, n_cols = len(m), matrix.cols
    stamps = [1] * n_rows
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        stamps[r], stamps[pivot_row] = stamps[pivot_row], stamps[r]
        top = m[r]
        if stamps[r] != prev:
            top[c:] = [x * prev // stamps[r] for x in top[c:]]
        p, tail = top[c], top[c + 1 :]
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            if f:
                # row[c] is now 0; no later step reads it, so it keeps f
                s = stamps[i]
                row[c + 1 :] = [(p * x - f * y) // s for x, y in zip(row[c + 1 :], tail)]
                stamps[i] = p
        prev = p
        pivots.append(c)
        r += 1
    if any(row[n_cols] for row in m[r:]):
        raise InfeasibleSystem("inconsistent linear system")
    free = sorted(set(range(n_cols)) - set(pivots))
    reduced: list[list[int]] = [[]] * r
    for k in reversed(range(r)):
        row = m[k]
        acc = [prev * row[j] for j in free] + [prev * row[n_cols]]
        for j in range(k + 1, r):
            g = row[pivots[j]]
            if g:
                acc = [a - g * x for a, x in zip(acc, reduced[j])]
        d = row[pivots[k]]
        reduced[k] = [a // d for a in acc]
    particular = [0] * n_cols
    for row, col in zip(reduced, pivots):
        particular[col] = row[-1]
    basis = []
    for t, f in enumerate(free):
        v = [0] * n_cols
        v[f] = prev
        for row, col in zip(reduced, pivots):
            v[col] = -row[t]
        basis.append(tuple(v))
    return LinearSolution(tuple(pivots), prev, tuple(particular), tuple(basis))
