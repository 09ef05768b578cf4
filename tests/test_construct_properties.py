"""Property tests of derive and SolutionFamily.contains on random small problems."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import oracle
from oracle import build_M, build_N, build_rhs

from dualsubdiv.charax import verify_dual_interpolatory
from dualsubdiv import construct
from dualsubdiv.construct import ConstructionProblem, InfeasibleProblem, assemble, derive
from dualsubdiv.exactalg import LaurentPoly, rref_solve
from dualsubdiv.samples import SampleSet, dd_samples, mix_samples
from dualsubdiv.scheme import Mask, shift_parameter

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def asymmetric_samples(draw):
    """Samples on Z/2: 1 at 0, 0 at the other integers, and 2 or 4 values at
    the half-integers -(2w - 1)/2, ..., (2w - 1)/2 that are not their own
    mirror image, so phi(x) = phi(-x) fails somewhere."""
    w = draw(st.sampled_from([1, 2]))
    halves = draw(st.lists(rationals, min_size=2 * w, max_size=2 * w))
    hypothesis.assume(halves != halves[::-1])
    values = [int(i == w - 1) for i in range(2 * w - 1)]
    # entry 2i is the half-integer (2(i - w) + 1)/2, entry 2i + 1 the integer i - w + 1
    return SampleSet(2, 1 - 2 * w, [x for pair in zip(halves, values) for x in pair] + halves[-1:])


@st.composite
def sample_sets(draw, symmetric=False):
    kinds = ["dd4", "dd6", "mix"] + ([] if symmetric else ["asymmetric"])
    kind = draw(st.sampled_from(kinds))
    if kind == "dd4":
        return dd_samples(2)
    if kind == "dd6":
        return dd_samples(3)
    if kind == "asymmetric":
        return draw(asymmetric_samples())
    return mix_samples(dd_samples(2), dd_samples(3), draw(rationals))


def smallest_k_star(m, d, samples):
    k_star = 1
    while True:
        try:
            ConstructionProblem(m, d, k_star, samples, True)
            return k_star
        except ValueError:
            k_star += 1


@st.composite
def problems(draw, min_d=1, symmetric_samples=False):
    m = draw(st.integers(3, 7))
    d = draw(st.integers(min_d, 3))
    samples = draw(sample_sets(symmetric_samples))
    k_star = smallest_k_star(m, d, samples) + draw(st.integers(0, 3))
    return ConstructionProblem(m, d, k_star, samples, draw(st.booleans()))


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_members_are_dual_interpolatory_and_perturbations_are_not(problem, data):
    try:
        family = derive(problem)
    except InfeasibleProblem:
        return
    t = data.draw(st.lists(rationals, min_size=family.dimension, max_size=family.dimension))
    mask = family.member(t)
    assert family.contains(mask)
    assert verify_dual_interpolatory(mask, problem.samples).satisfied
    assert shift_parameter(mask) == F(1, 2)

    i = data.draw(st.integers(0, len(mask.coeffs) - 1))
    delta = data.draw(rationals.filter(lambda x: x != 0))
    coeffs = list(mask.coeffs)
    coeffs[i] += delta
    assert not family.contains(Mask(problem.m, mask.offset, coeffs))


@settings(max_examples=20, deadline=None)
@given(problems(), st.data())
def test_contains_checks_mirror_symmetry_and_every_row(problem, data):
    symmetric = replace(problem, symmetric=True)
    try:
        family = derive(symmetric)
        plain = derive(replace(problem, symmetric=False))
    except InfeasibleProblem:
        return
    # folded and unfolded solution sets agree on the palindromes about 1/2
    t = data.draw(st.lists(rationals, min_size=plain.dimension, max_size=plain.dimension))
    mask = plain.member(t)
    palindrome = all(
        mask.coefficient(k) == mask.coefficient(1 - k) for k in range(1, problem.k_star + 1)
    )
    assert family.contains(mask) == palindrome
    member = family.member(
        data.draw(st.lists(rationals, min_size=family.dimension, max_size=family.dimension))
    )
    assert plain.contains(member)

    # moving along a difference of two mirror-pair columns keeps the span and
    # tau = 1/2; the result stays a member iff the assembled rows allow it
    system = assemble(symmetric)
    pairs = [i for i, label in enumerate(system.col_labels) if len(label) == 2]
    if len(pairs) < 2:
        return
    i, j = data.draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2, unique=True))
    solves = all(row[i] == row[j] for row in oracle.entries(system.matrix))
    columns = oracle.columns(system)
    step = (columns[i] - columns[j]) * data.draw(rationals.filter(bool))
    moved = member.poly + step
    assert family.contains(Mask(problem.m, moved.offset, moved.coeffs)) == solves


@settings(max_examples=40, deadline=None)
@given(problems(min_d=0, symmetric_samples=True))
def test_symmetric_problems_are_feasible_iff_their_twins_are(problem):
    """On symmetric samples the system is mirror-invariant about 1/2, so the
    mirror image a_{1-k} of a solution of the non-symmetric twin solves it
    too: the twin is feasible iff the symmetric problem is, and the mirror
    average of the twin's particular mask lies in the symmetric family."""
    samples = problem.samples
    assert samples.offset == 1 - samples.offset - len(samples.values)
    assert samples.values == samples.values[::-1]
    symmetric = replace(problem, symmetric=True)
    try:
        twin = derive(replace(problem, symmetric=False))
    except InfeasibleProblem:
        with pytest.raises(InfeasibleProblem):
            derive(symmetric)
        return
    family = derive(symmetric)
    a = twin.particular
    mirrored = Mask(a.arity, 1 - a.k_right, a.coeffs[::-1])
    assert twin.contains(mirrored)
    average = (a.poly + mirrored.poly) * F(1, 2)
    assert family.contains(Mask(a.arity, average.offset, average.coeffs))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(0, 3), sample_sets(), st.integers(16, 48))
def test_unfolded_system_shape_beyond_the_criterion_10_grid(m, d, samples, k_star):
    """The non-symmetric system's kept and pruned rows together are
    (a_hi - a_lo + 1 + m) x (2k* - d(m-1)), one label each, here for k* from
    16 on (criterion 10 stops at 15)."""
    k_star = max(k_star, smallest_k_star(m, d, samples))
    problem = ConstructionProblem(m, d, k_star, samples, False)
    system = assemble(problem)
    a_lo, a_hi = problem.alpha_window
    assert system.matrix.rows == len(system.row_labels)
    assert system.matrix.cols == len(system.col_labels) == 2 * k_star - d * (m - 1)
    labels = system.row_labels + tuple(label for label, _ in system.dropped)
    windowed = [("M", alpha) for alpha in range(a_lo, a_hi + 1)] + [("N", gamma) for gamma in range(1, m + 1)]
    assert sorted(labels) == windowed


@st.composite
def shift_free_problems(draw):
    """Non-symmetric d = 1 problems, whose other rows mostly leave tau free."""
    m = draw(st.integers(5, 7))
    samples = draw(st.sampled_from([dd_samples(2), dd_samples(3)]))
    k_star = smallest_k_star(m, 1, samples) + draw(st.integers(0, 3))
    return ConstructionProblem(m, 1, k_star, samples, False)


@settings(max_examples=40, deadline=None)
@given(st.one_of(problems(), shift_free_problems()), st.data())
def test_contains_matches_the_fraction_row_functionals(problem, data):
    try:
        family = derive(problem)
    except InfeasibleProblem:
        return
    member = family.member(
        data.draw(st.lists(rationals, min_size=family.dimension, max_size=family.dimension))
    )
    coeffs = list(member.coeffs)
    i = data.draw(st.integers(0, len(coeffs) - 1))
    coeffs[i] += data.draw(rationals.filter(bool))
    perturbed = Mask(problem.m, member.offset, coeffs)
    shifted = Mask(problem.m, member.offset + data.draw(st.sampled_from([-1, 1])), member.coeffs)
    # a step along one column keeps the span but may break rows, symmetry or tau
    system = assemble(problem)
    columns = oracle.columns(system)
    column = columns[data.draw(st.integers(0, len(columns) - 1))]
    moved = member.poly + column * data.draw(rationals.filter(bool))
    stepped = Mask(problem.m, moved.offset, moved.coeffs)
    # a solution of the assembled rows alone: where they leave tau free, it
    # misses tau = 1/2 and nothing else
    bare = rref_solve(system.matrix, system.rhs)
    x = list(oracle.particular(bare))
    for v in oracle.nullbasis(bare):
        t = data.draw(rationals)
        x = [a + t * b for a, b in zip(x, v)]
    free = sum((column * c for column, c in zip(columns, x)), LaurentPoly.zero())
    masks = [member, perturbed, shifted, stepped]
    if not free.is_zero:
        masks.append(Mask(problem.m, free.offset, free.coeffs))
    for mask in masks:
        assert family.contains(mask) == oracle.contains(problem, mask)


@settings(max_examples=60, deadline=None)
@given(problems(min_d=0))
# asymmetric samples: the rows M[-1] and M[0] are equal and their rhs are not
@example(ConstructionProblem(4, 1, 2, SampleSet(2, -1, [F(-3, 2), 1]), False))
def test_derive_matches_fraction_gauss_jordan(problem):
    """derive equals Gauss-Jordan on Fractions: every windowed row of [M; N],
    kept or dropped by assemble, and tau = 1/2 (sum_k 2k a_k = m), applied to
    the column masks m^{1-d} (1+...+z^{m-1})^d sum_{beta in pair} z^beta,
    with the masks formed as sum_i x_i columns_i; infeasible exactly when
    that elimination leaves a nonzero rhs below the rank.  Each dropped row
    is zero with a zero rhs, or equals the kept row that its reason names."""
    m, d, k_star = problem.m, problem.d, problem.k_star
    system = assemble(problem)
    smoothing = oracle.power(LaurentPoly(0, [1] * m), d) * F(m) ** (1 - d)
    columns = [
        sum((oracle.shift(smoothing, beta) for beta in pair), LaurentPoly.zero())
        for pair in system.col_labels
    ]
    n = len(system.col_labels)
    units = ([int(i == j) for j in range(n)] for i in range(n))
    assert [construct._mask(problem, x, 1) for x in units] == columns
    assert list(oracle.columns(system)) == columns
    a_lo, a_hi = problem.alpha_window
    labels = [("M", alpha) for alpha in range(a_lo, a_hi + 1)] + [("N", gamma) for gamma in range(1, m + 1)]
    functionals = build_M(m, problem.samples, k_star) + build_N(m, k_star)
    rows = [[oracle.apply_row(row, column, k_star) for column in columns] for row in functionals]
    rhs = list(build_rhs(problem.samples, m, k_star))
    equation = {label: (row, c) for label, row, c in zip(labels, rows, rhs)}
    assert [list(row) for row in oracle.entries(system.matrix)] == [equation[label][0] for label in system.row_labels]
    assert list(system.rhs) == [equation[label][1] for label in system.row_labels]
    assert sorted(system.row_labels + tuple(label for label, _ in system.dropped)) == labels
    named = {f"duplicate of {kind}[{i}]": (kind, i) for kind, i in system.row_labels}
    for label, reason in system.dropped:
        if reason == "zero":
            assert equation[label] == ([0] * len(columns), 0)
        else:
            assert equation[label] == equation[named[reason]]

    tau_row = [2 * column.derivative_at_one() for column in columns]
    solution = oracle.canonical_solution(*oracle.rref(rows + [tau_row], rhs + [m]))
    try:
        family = derive(problem)
    except InfeasibleProblem:
        assert solution is None
        return
    assert solution is not None

    def combination(x):
        return sum((column * c for column, c in zip(columns, x)), LaurentPoly.zero())

    particular, basis = solution
    assert family.particular.poly == combination(particular)
    assert tuple(b.poly for b in family.basis) == tuple(map(combination, basis))
