"""Assembly and exact solution of the dual interpolatory construction system.

Every condition of the construction is a linear functional of the mask a:
the refinement equation evaluated on the half-integer lattice (rows M), the
per-residue sum conditions (rows N) and the dual shift tau = 1/2.  The
smoothing-factor change of unknowns a = m^{1-d} (1+...+z^{m-1})^d b makes
each unknown, one b_beta or one mirror pair of them under symmetry, stand for
a column mask; the system entries are the functionals applied to the column
masks, and a solution x is the mask sum_i x_i column_i.  Solving it exactly
gives a mask, an affine family of masks, or a proof of infeasibility for the
requested (arity, smoothing order, support, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import (
    InfeasibleSystem,
    LaurentPoly,
    RatMatrix,
    RationalLike,
    rat,
    rref_solve,
)
from .samples import SampleSet
from .scheme import (
    Mask,
    NotDivisible,
    divide_smoothing,
    support_interval,
    symbol,
)


class InvalidWindow(ValueError):
    """The unknown window is empty: 2k* - d(m-1) < 1."""


class InfeasibleProblem(Exception):
    """No mask satisfies the assembled system for this problem."""


@dataclass(frozen=True)
class ConstructionProblem:
    """Arity, smoothing order, half-support and prescribed lattice values.

    The mask support is {1-k*, ..., k*}.  Samples live on Z/2, must carry
    delta values at the integers and must be supported inside the limit
    function support implied by k*.
    """

    m: int
    d: int
    k_star: int
    samples: SampleSet
    symmetric: bool = True

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("arity must be at least 2")
        if self.d < 0:
            raise ValueError("smoothing order must be nonnegative")
        if self.k_star < 1:
            raise ValueError("k* must be at least 1")
        if self.beta_window[1] < self.beta_window[0]:
            raise InvalidWindow(
                f"no unknowns: 2k* - d(m-1) = {2 * self.k_star - self.d * (self.m - 1)} < 1"
            )
        if self.samples.T != 2:
            raise ValueError("construction samples must live on Z/2")
        if not self.samples.is_delta_at_integers():
            raise ValueError("samples must take delta values at the integers")
        lo, hi = support_interval(self.m, self.k_star)
        s_lo, s_hi = self.samples.support
        if s_lo < lo or s_hi > hi:
            raise ValueError(
                f"sample support [{s_lo}, {s_hi}] exceeds the limit support [{lo}, {hi}]"
            )

    @property
    def alpha_window(self) -> tuple[int, int]:
        return alpha_window(self.m, self.k_star)

    @property
    def beta_window(self) -> tuple[int, int]:
        return 1 - self.k_star, self.k_star - self.d * (self.m - 1)

    def to_dict(self) -> dict:
        return {
            "arity": self.m,
            "smoothing": self.d,
            "kstar": self.k_star,
            "symmetric": self.symmetric,
            "samples": self.samples.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConstructionProblem":
        return cls(
            int(data["arity"]),
            int(data["smoothing"]),
            int(data["kstar"]),
            SampleSet.from_dict(data["samples"]),
            bool(data["symmetric"]),
        )


def alpha_window(m: int, k_star: int) -> tuple[int, int]:
    """Row window [ceil((1-2k*)/(m-1)), floor((2k*-1)/(m-1))] of the system."""
    den = m - 1
    return (
        math.ceil(Fraction(1 - 2 * k_star, den)),
        math.floor(Fraction(2 * k_star - 1, den)),
    )


def smoothing_coeffs(m: int, d: int) -> LaurentPoly:
    """(1 + z + ... + z^{m-1})^d with integer coefficients."""
    return LaurentPoly(0, [Fraction(1)] * m) ** d


def build_M(m: int, samples: SampleSet, k_star: int) -> RatMatrix:
    """Refinement-evaluation matrix M(a, b) = phi((m a + 1)/2 - b).

    Rows run over the nonzero window a in [alpha_lo, alpha_hi]; columns over
    the full mask support b in [1-k*, k*].
    """
    a_lo, a_hi = alpha_window(m, k_star)
    rows = []
    for alpha in range(a_lo, a_hi + 1):
        # on the Z/2 lattice, (m*alpha + 1)/2 - beta has numerator m*alpha + 1 - 2*beta
        rows.append(
            [
                samples.value_at_index(m * alpha + 1 - 2 * beta)
                for beta in range(1 - k_star, k_star + 1)
            ]
        )
    return RatMatrix(rows)


def build_rhs(samples: SampleSet, m: int, k_star: int) -> tuple[Fraction, ...]:
    """c(a) = phi(a/2) on the row window, followed by the m ones."""
    a_lo, a_hi = alpha_window(m, k_star)
    c = [samples.value_at_index(alpha) for alpha in range(a_lo, a_hi + 1)]
    return tuple(c + [Fraction(1)] * m)


def build_N(m: int, k_star: int) -> RatMatrix:
    """Per-residue sum conditions: N(g, b) = 1 iff b == g (mod m), g = 1..m."""
    return RatMatrix(
        [
            [
                Fraction(1) if (beta - gamma) % m == 0 else Fraction(0)
                for beta in range(1 - k_star, k_star + 1)
            ]
            for gamma in range(1, m + 1)
        ]
    )


def build_O(m: int, rows: tuple[int, int], cols: tuple[int, int]) -> RatMatrix:
    """Window of the banded all-ones matrix O(a, b) = 1 iff 0 <= a - b <= m-1."""
    return RatMatrix(
        [
            [
                Fraction(1) if 0 <= r - c <= m - 1 else Fraction(0)
                for c in range(cols[0], cols[1] + 1)
            ]
            for r in range(rows[0], rows[1] + 1)
        ]
    )


RowLabel = tuple[str, int]


@dataclass(frozen=True)
class AssembledSystem:
    """Finite exact system matrix * x = rhs plus bookkeeping.

    ``col_labels`` lists, per column, the b-indices the column stands for
    (two indices when symmetry folded a mirror pair onto one unknown), and
    ``columns`` the mask m^{1-d} (1+...+z^{m-1})^d sum_{beta in pair} z^beta
    that the unknown multiplies: a solution x is the mask sum_i x_i columns_i.
    ``dropped`` records pruned rows with the reason, for auditability.
    """

    problem: ConstructionProblem
    matrix: RatMatrix
    rhs: tuple[Fraction, ...]
    row_labels: tuple[RowLabel, ...]
    col_labels: tuple[tuple[int, ...], ...]
    columns: tuple[LaurentPoly, ...]
    dropped: tuple[tuple[RowLabel, str], ...]


def _column_pairs(problem: ConstructionProblem) -> tuple[tuple[int, ...], ...]:
    """The b-indices per unknown; under symmetry the mirror pairs, innermost first."""
    b_lo, b_hi = problem.beta_window
    if not problem.symmetric:
        return tuple((beta,) for beta in range(b_lo, b_hi + 1))
    return tuple(
        (b_lo + i,) if 2 * i == b_hi - b_lo else (b_lo + i, b_hi - i)
        for i in reversed(range((b_hi - b_lo) // 2 + 1))
    )


def _mask_functionals(
    problem: ConstructionProblem,
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...], tuple[RowLabel, ...]]:
    """Rows of [M; N] on the mask window [1-k*, k*], their rhs and labels."""
    m, k_star = problem.m, problem.k_star
    rows = build_M(m, problem.samples, k_star).vstack(build_N(m, k_star)).entries
    a_lo, a_hi = problem.alpha_window
    labels = [("M", alpha) for alpha in range(a_lo, a_hi + 1)]
    labels += [("N", gamma) for gamma in range(1, m + 1)]
    return rows, build_rhs(problem.samples, m, k_star), tuple(labels)


def _apply(row: Sequence[Fraction], mask: LaurentPoly, k_star: int) -> Fraction:
    """A row functional on the mask window applied to a mask inside that window."""
    start = mask.offset - (1 - k_star)
    window = row[start : start + len(mask.coeffs)]
    return sum((r * c for r, c in zip(window, mask.coeffs) if r), Fraction(0))


def _dual_shift(mask: LaurentPoly) -> Fraction:
    """sum_k 2k a_k, which equals m exactly when tau = (1/m) sum_k k a_k = 1/2.

    Symmetry and the residue sums imply tau = 1/2; the other rows of a
    non-symmetric problem may leave it free, so derive and contains impose it.
    """
    return 2 * mask.derivative_at_one()


def assemble(problem: ConstructionProblem) -> AssembledSystem:
    """Materialize the finite construction system for the problem.

    Without symmetry this is the plain windowed system (no pruning), of
    dimension (alpha_hi - alpha_lo + 1 + m) x (2k* - d(m-1)).  With symmetry,
    each mirror pair of b-indices is one column (innermost pair first) and
    zero or duplicate rows are pruned.
    """
    unit = smoothing_coeffs(problem.m, problem.d) * Fraction(problem.m) ** (1 - problem.d)
    pairs = _column_pairs(problem)
    columns = tuple(
        sum((unit.shift(beta) for beta in pair), LaurentPoly.zero()) for pair in pairs
    )
    rows, rhs, labels = _mask_functionals(problem)
    full = [[_apply(row, column, problem.k_star) for column in columns] for row in rows]

    if not problem.symmetric:
        return AssembledSystem(problem, RatMatrix(full), rhs, labels, pairs, columns, ())

    kept_rows: list[list[Fraction]] = []
    kept_rhs: list[Fraction] = []
    kept_labels: list[RowLabel] = []
    dropped: list[tuple[RowLabel, str]] = []
    seen: dict[tuple, RowLabel] = {}
    for row, rhs_v, label in zip(full, rhs, labels):
        if all(x == 0 for x in row) and rhs_v == 0:
            dropped.append((label, "zero"))
            continue
        key = (tuple(row), rhs_v)
        if key in seen:
            dropped.append((label, f"duplicate of {seen[key][0]}[{seen[key][1]}]"))
            continue
        seen[key] = label
        kept_rows.append(row)
        kept_rhs.append(rhs_v)
        kept_labels.append(label)

    return AssembledSystem(
        problem,
        RatMatrix(kept_rows),
        tuple(kept_rhs),
        tuple(kept_labels),
        pairs,
        columns,
        tuple(dropped),
    )


def _combination(columns: Sequence[LaurentPoly], x: Sequence[Fraction]) -> LaurentPoly:
    """The mask sum_i x_i columns_i."""
    return sum((column * c for column, c in zip(columns, x) if c), LaurentPoly.zero())


@dataclass(frozen=True)
class SolutionFamily:
    """Affine family of masks: particular + span of basis directions.

    ``basis`` holds exact coefficient polynomials in mask (a) space; every
    member particular + sum t_i basis_i solves the assembled system exactly.
    Dimension zero means the mask is unique.
    """

    problem: ConstructionProblem
    particular: Mask
    basis: tuple[LaurentPoly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def unique_mask(self) -> Mask:
        if self.basis:
            raise ValueError(f"family has dimension {self.dimension}, not unique")
        return self.particular

    def member(self, coefficients: Sequence[RationalLike]) -> Mask:
        if len(coefficients) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates")
        poly = self.particular.coeff_poly()
        for t, direction in zip(coefficients, self.basis):
            poly = poly + direction * rat(t)
        return Mask(self.problem.m, poly.offset, poly.coeffs)

    def contains(self, mask: Mask) -> bool:
        """Exact membership: the mask lies in the span of the system's columns,
        satisfies every row of [M; N] and has tau = 1/2."""
        problem = self.problem
        if mask.arity != problem.m:
            return False
        if mask.k_left < 1 - problem.k_star or mask.k_right > problem.k_star:
            return False
        try:
            b_poly = divide_smoothing(symbol(mask), problem.m, problem.d)
        except NotDivisible:
            return False
        b_lo, b_hi = problem.beta_window
        if not b_poly.is_zero and (b_poly.degree_low < b_lo or b_poly.degree_high > b_hi):
            return False
        for pair in _column_pairs(problem):
            if len({b_poly.coefficient(beta) for beta in pair}) > 1:
                return False
        a = mask.coeff_poly()
        rows, rhs, _ = _mask_functionals(problem)
        if any(_apply(row, a, problem.k_star) != c for row, c in zip(rows, rhs)):
            return False
        return _dual_shift(a) == problem.m

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "particular": self.particular.to_dict(),
            "basis": [
                {
                    "arity": self.problem.m,
                    "offset": p.offset,
                    "coeffs": [str(c) for c in p.coeffs],
                }
                for p in self.basis
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolutionFamily":
        problem = ConstructionProblem.from_dict(data["problem"])
        particular = Mask.from_dict(data["particular"])
        basis = tuple(
            LaurentPoly(int(p["offset"]), [rat(c) for c in p["coeffs"]])
            for p in data["basis"]
        )
        return cls(problem, particular, basis)


def derive(problem: ConstructionProblem) -> SolutionFamily:
    """Solve the assembled system, with tau = 1/2 imposed, exactly.

    Returns the full affine solution set as a SolutionFamily (dimension 0
    means a unique mask) or raises InfeasibleProblem when no mask with the
    requested constraints exists.
    """
    system = assemble(problem)
    shift_row = RatMatrix([[_dual_shift(column) for column in system.columns]])
    try:
        solution = rref_solve(
            system.matrix.vstack(shift_row), system.rhs + (Fraction(problem.m),)
        )
    except InfeasibleSystem:
        raise InfeasibleProblem(
            f"no dual interpolatory mask with arity {problem.m}, smoothing order"
            f" {problem.d}, k* = {problem.k_star}"
            f"{' and symmetry' if problem.symmetric else ''} for these samples"
        ) from None
    particular = _combination(system.columns, solution.particular)
    basis = tuple(_combination(system.columns, v) for v in solution.nullbasis)
    mask = Mask(problem.m, particular.offset, particular.coeffs)
    return SolutionFamily(problem, mask, basis)
