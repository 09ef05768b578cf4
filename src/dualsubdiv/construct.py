"""Assembly and exact solution of the dual interpolatory construction system.

Every condition of the construction is a linear functional of the mask a:
the refinement equation evaluated on the half-integer lattice (rows M), the
per-residue sum conditions (rows N) and the dual shift tau = 1/2.  The
smoothing-factor change of unknowns a = m^{1-d} (1+...+z^{m-1})^d b makes
each unknown, one b_beta or one mirror pair of them under symmetry, stand for
a column mask; the system entries are the functionals applied to the column
masks, and a solution x is the mask sum_i x_i column_i.  Solving it exactly
gives a mask or an affine family of masks for the requested (arity, smoothing
order, support, samples), or raises InfeasibleProblem when the system has no
solution; no certificate of that comes with it, and the CLI prints one
``infeasible:`` line with exit code 1.

The work runs on Python ints over one common denominator: each row M is
read off one integer product (``exactalg.convolve``) of the smoothing
coefficients with the sample numerators as a slice of step 2, each row N is
a cycle of the smoothing factor's residue-class sums, and under symmetry each
row is folded onto the mirror pairs.  Zero and repeated rows are dropped: for
d >= 1 every residue class of the smoothing factor sums to m^{d-1}, so the m
rows N are one.  The rows go to ``RatMatrix`` as
integers over the shared scale m^{1-d}/D, ``exactalg.rref_solve`` eliminates
on them (the rows M are banded, so most of them have no entry in a given
pivot column, and the solve leaves those rows as they are), and a solution
mask is the solution's numerators times 1 + z + ... + z^{m-1}, d times, each
a pass of running sums (``exactalg.box_sums``), kept as integers.
``Fraction`` appears only at the boundary: the assembled rhs, and a mask's
coefficients where they are read.
The matrix and the solution are integers only.  Membership of a given mask
checks the rows M with ``charax.verify_refinability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charax import verify_refinability
from .exactalg import (
    InfeasibleSystem,
    LaurentPoly,
    RatMatrix,
    RationalLike,
    box_sums,
    convolve,
    json_field,
    rat,
    refuse,
    rref_solve,
)
from .samples import SampleSet
from .scheme import Mask, NotDivisible, factor_smoothing, support_interval


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
            json_field(data, "arity", int),
            json_field(data, "smoothing", int),
            json_field(data, "kstar", int),
            SampleSet.from_dict(data["samples"]),
            json_field(data, "symmetric", bool),
        )


def alpha_window(m: int, k_star: int) -> tuple[int, int]:
    """Row window [ceil((1-2k*)/(m-1)), floor((2k*-1)/(m-1))] of the system."""
    den = m - 1
    return (
        math.ceil(Fraction(1 - 2 * k_star, den)),
        math.floor(Fraction(2 * k_star - 1, den)),
    )


def smoothing_coeffs(m: int, d: int) -> list[int]:
    """The integer coefficients of (1 + z + ... + z^{m-1})^d."""
    s = [1]
    for _ in range(d):
        s = box_sums(s, m)
    return s


RowLabel = tuple[str, int]


@dataclass(frozen=True)
class AssembledSystem:
    """Finite exact system matrix * x = rhs plus bookkeeping.

    ``col_labels`` lists, per column, the b-indices the column stands for
    (two indices when symmetry folded a mirror pair onto one unknown); the
    unknown multiplies the mask m^{1-d} (1+...+z^{m-1})^d sum_{beta in pair}
    z^beta, so a solution x is the mask ``_mask(problem, x, 1)``.
    ``dropped`` records pruned rows with the reason, for auditability; its
    labels and ``row_labels`` together are the rows of [M; N].
    """

    problem: ConstructionProblem
    matrix: RatMatrix
    rhs: tuple[Fraction, ...]
    row_labels: tuple[RowLabel, ...]
    col_labels: tuple[tuple[int, ...], ...]
    dropped: tuple[tuple[RowLabel, str], ...]


def _unknowns(problem: ConstructionProblem) -> int:
    """``len(_column_pairs(problem))`` without building the pairs, so that a
    budget refusal costs nothing for any k*."""
    b_lo, b_hi = problem.beta_window
    return (b_hi - b_lo) // (1 + problem.symmetric) + 1


def _column_pairs(problem: ConstructionProblem) -> tuple[tuple[int, ...], ...]:
    """The b-indices per unknown; under symmetry the mirror pairs, innermost first."""
    b_lo, b_hi = problem.beta_window
    if not problem.symmetric:
        return tuple((b_lo + i,) for i in range(_unknowns(problem)))
    return tuple(
        (b_lo + i,) if 2 * i == b_hi - b_lo else (b_lo + i, b_hi - i)
        for i in reversed(range(_unknowns(problem)))
    )


def _column_scale(m: int, d: int) -> tuple[int, int]:
    """The factor m^{1-d} of every column mask, as (numerator, denominator)."""
    return (m, 1) if d == 0 else (1, m ** (d - 1))


def _fold(row: list[int]) -> list[int]:
    """A row over the b-window as one entry per mirror pair of b-indices,
    innermost first: the order of ``_column_pairs`` under symmetry."""
    width = len(row)
    half = (width - 1) // 2
    folded = [x + y for x, y in zip(row[half::-1], row[width // 2 :])]
    if width % 2:
        # the middle b-index is a pair of its own
        folded[0] = row[half]
    return folded


def _mask(problem: ConstructionProblem, x: Sequence[int], den: int) -> LaurentPoly:
    """The mask m^{1-d} (1+...+z^{m-1})^d b(z), b carrying x_i / den at the
    b-indices of the i-th unknown (``_column_pairs``): d passes of running
    sums over b.  Under symmetry b is x mirrored about the window's middle,
    the inverse of ``_fold``."""
    b_lo, b_hi = problem.beta_window
    s_num, s_den = _column_scale(problem.m, problem.d)
    if problem.symmetric:
        # x[0] is the innermost pair, the middle index alone in an odd window
        x = x[::-1] + x[(b_hi - b_lo + 1) % 2 :]
    b = [s_num * v for v in x]
    for _ in range(problem.d):
        b = box_sums(b, problem.m)
    return LaurentPoly.from_numerators(b_lo, b, s_den * den)


def assemble(problem: ConstructionProblem) -> AssembledSystem:
    """Materialize the finite construction system for the problem.

    The windowed system [M; N] has alpha_hi - alpha_lo + 1 + m rows and one
    column per b-index, 2k* - d(m-1) of them; with symmetry each mirror pair
    of b-indices is one column (innermost pair first).  For every problem a
    zero row with a zero rhs, and a row whose (row, rhs) repeats an earlier
    kept row, is dropped.  The column of b-index beta is the mask
    m^{1-d} z^beta s(z) with s = smoothing_coeffs(m, d), so every entry is
    m^{1-d}/D times an integer read off the one product s(z^2) P(z); the
    rows are built one at a time from it.
    """
    m = problem.m
    smoothing = smoothing_coeffs(m, problem.d)
    a_lo, a_hi = problem.alpha_window
    b_lo, b_hi = problem.beta_window
    width = b_hi - b_lo + 1
    samples = problem.samples.poly
    D, P, o = samples.denominator, samples.numerators, samples.offset
    # with P the sample numerators over D, the M row alpha at s(z) z^beta is
    # entry m alpha + 1 - 2 beta of s(z^2) P(z), and the N row gamma the
    # residue-class sum of s at gamma - beta (mod m); all over D.  So an M row
    # is a slice of step 2 of the product, read backwards; the product is
    # padded with zeros to every entry that a row reads
    product = convolve(smoothing, P, 2)
    left = max(0, 2 * b_hi + o - m * a_lo - 1)
    right = max(0, m * a_hi + 2 - 2 * b_lo - o - len(product))
    product = [0] * left + product + [0] * right
    residues = [D * sum(smoothing[r::m]) for r in range(m)]
    rows = []
    for alpha in range(a_lo, a_hi + 1):
        last = left + m * alpha + 1 - 2 * b_lo - o
        rows.append(product[last - 2 * (width - 1) : last + 1 : 2][::-1])
    for gamma in range(1, m + 1):
        rows.append([residues[(gamma - beta) % m] for beta in range(b_lo, b_hi + 1)])
    if problem.symmetric:
        rows = [_fold(row) for row in rows]

    rhs = [P[a - o] if 0 <= a - o < len(P) else 0 for a in range(a_lo, a_hi + 1)] + [D] * m
    pairs = _column_pairs(problem)
    labels = [("M", alpha) for alpha in range(a_lo, a_hi + 1)]
    labels += [("N", gamma) for gamma in range(1, m + 1)]

    # all entries share the scale m^{1-d}/D and all rhs entries 1/D, so the
    # integer rows compare as the Fraction rows do
    kept: list[tuple[tuple[int, ...], int, RowLabel]] = []
    dropped: list[tuple[RowLabel, str]] = []
    seen: dict[tuple, RowLabel] = {}
    for row, rhs_v, label in zip(map(tuple, rows), rhs, labels):
        if not any(row) and rhs_v == 0:
            dropped.append((label, "zero"))
            continue
        first = seen.setdefault((row, rhs_v), label)
        if first != label:
            dropped.append((label, f"duplicate of {first[0]}[{first[1]}]"))
            continue
        kept.append((row, rhs_v, label))

    s_num, s_den = _column_scale(m, problem.d)
    return AssembledSystem(
        problem,
        RatMatrix.from_numerators(([s_num * x for x in row] for row, _, _ in kept), s_den * D),
        tuple(Fraction(v, D) for _, v, _ in kept),
        tuple(label for _, _, label in kept),
        pairs,
        tuple(dropped),
    )


@dataclass(frozen=True)
class SolutionFamily:
    """Affine family of masks: particular + span of basis directions.

    The particular member and every direction are masks of the problem's
    arity, which construction checks; every member particular + sum t_i
    basis_i solves the assembled system exactly.  Dimension zero means the
    mask is unique.
    """

    problem: ConstructionProblem
    particular: Mask
    basis: tuple[Mask, ...]

    def __post_init__(self):
        for mask in (self.particular, *self.basis):
            if mask.arity != self.problem.m:
                raise ValueError(f"a mask of arity {mask.arity} in a family of arity {self.problem.m}")

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
        poly = self.particular.poly
        for t, direction in zip(coefficients, self.basis):
            poly = poly + direction.poly * rat(t)
        return Mask.from_poly(self.problem.m, poly)

    def contains(self, mask: Mask) -> bool:
        """Exact membership: the mask lies in the span of the system's columns,
        has tau = 1/2, each residue class of it sums to 1 (the rows N) and it
        satisfies ``charax.verify_refinability`` on the samples (the rows M)."""
        problem = self.problem
        if mask.arity != problem.m:
            return False
        if mask.k_left < 1 - problem.k_star or mask.k_right > problem.k_star:
            return False
        try:
            b_poly = factor_smoothing(mask, problem.d)
        except NotDivisible:
            return False
        b_lo, b_hi = problem.beta_window
        if not b_poly.is_zero and (b_poly.degree_low < b_lo or b_poly.degree_high > b_hi):
            return False
        b = dict(enumerate(b_poly.numerators, b_poly.offset))
        for pair in _column_pairs(problem):
            if len({b.get(beta, 0) for beta in pair}) > 1:
                return False
        a = mask.poly
        if 2 * a.derivative_at_one() != problem.m:
            return False
        if any(sum(a.numerators[r :: problem.m]) != a.denominator for r in range(problem.m)):
            return False
        return verify_refinability(mask, problem.samples).satisfied

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "particular": self.particular.to_dict(),
            "basis": [b.to_dict() for b in self.basis],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolutionFamily":
        problem = ConstructionProblem.from_dict(data["problem"])
        particular = Mask.from_dict(data["particular"])
        return cls(problem, particular, tuple(map(Mask.from_dict, json_field(data, "basis", list))))


# the entry length that one elimination step counts: the fraction-free
# products grow with the entries' digits, so a step on entries of b bits
# counts ceil(b / 256) steps
_WORD_BITS = 256


def derive(problem: ConstructionProblem) -> SolutionFamily:
    """Solve the assembled system, with tau = 1/2 imposed, exactly.

    Returns the full affine solution set as a SolutionFamily (dimension 0
    means a unique mask) or raises InfeasibleProblem when no mask with the
    requested constraints exists.  Symmetry and the residue sums imply
    tau = 1/2, but the other rows of a non-symmetric problem may leave it
    free, so the row sum_k 2k a_k = m joins the system: on the column of
    b-index beta it is m (2 beta + d(m-1)).  Before any assembly, the dense
    elimination's rows x unknowns^2 of [M; N; tau], times the entries' bit
    length in words of ``_WORD_BITS``, goes to ``exactalg.refuse``.  The
    solve skips the banded rows' zeros, so the estimate overstates its work.
    """
    m, d = problem.m, problem.d
    a_lo, a_hi = problem.alpha_window
    rows = a_hi - a_lo + 1 + m + 1
    unknowns = _unknowns(problem)
    # an entry sums products of a smoothing coefficient, at most m^d, and a
    # sample numerator or the samples' denominator
    samples = problem.samples.poly
    bits = d * (m - 1).bit_length() + 1 + max(samples.denominator, *map(abs, samples.numerators)).bit_length()
    words = -(-bits // _WORD_BITS)
    what = f"a system of {rows} rows and {unknowns} unknowns" + (f" of {bits}-bit entries" if words > 1 else "")
    refuse(rows * unknowns**2 * words, what, "elimination steps")
    system = assemble(problem)
    shift_row = [sum(m * (2 * beta + d * (m - 1)) for beta in pair) for pair in system.col_labels]
    try:
        solution = rref_solve(
            system.matrix.vstack(RatMatrix.from_numerators([shift_row])), system.rhs + (m,)
        )
    except InfeasibleSystem:
        raise InfeasibleProblem(
            f"no dual interpolatory mask with arity {problem.m}, smoothing order"
            f" {problem.d}, k* = {problem.k_star}"
            f"{' and symmetry' if problem.symmetric else ''} for these samples"
        ) from None
    particular, *basis = (
        Mask.from_poly(m, _mask(problem, x, solution.denominator))
        for x in (solution.particular_numerators, *solution.nullbasis_numerators)
    )
    return SolutionFamily(problem, particular, tuple(basis))
