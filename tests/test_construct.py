import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog, construct, exactalg
from dualsubdiv.construct import (
    ConstructionProblem,
    InfeasibleProblem,
    InvalidWindow,
    SolutionFamily,
    alpha_window,
    assemble,
    derive,
    smoothing_coeffs,
)
from dualsubdiv.charax import verify_dual_interpolatory, verify_refinability
from dualsubdiv.exactalg import LaurentPoly, rref_solve
from dualsubdiv.samples import SampleSet, dd_samples, samples_from_shorthand
from dualsubdiv.scheme import Mask, shift_parameter
import oracle
from oracle import (
    build_M,
    build_N,
    build_O,
    build_rhs,
    columns,
    entries,
    identity,
    matmul,
    matvec,
    nullbasis,
    particular,
    perturbed,
    power,
    smoothing_factor,
    sub_symbols,
    value_at_one,
)

DD4 = dd_samples(2)


def test_alpha_window_values():
    assert alpha_window(3, 7) == (-6, 6)
    assert alpha_window(5, 10) == (-4, 4)
    assert alpha_window(3, 2) == (-1, 1)
    # the rows are the points of Z/2 in the limit support
    for m in range(2, 8):
        for k_star in range(1, 20):
            assert alpha_window(m, k_star) == oracle.row_window(m, k_star)


def test_problem_validation():
    with pytest.raises(InvalidWindow):
        ConstructionProblem(3, 4, 4, DD4, True)
    with pytest.raises(ValueError):
        # DD4 support [-3/2, 3/2] exceeds the k*=2 limit support [-3/4, 3/4]
        ConstructionProblem(3, 0, 2, DD4, True)
    with pytest.raises(ValueError):
        ConstructionProblem(3, 1, 7, perturbed(DD4, 2, F(1, 10)), True)
    with pytest.raises(ValueError):
        ConstructionProblem(1, 1, 7, DD4, True)
    for offset, values in [(0, []), (1, ["1/2"])]:
        # phi(0) = 1 must hold even when 0 lies outside the stored window
        with pytest.raises(ValueError, match="^samples must take delta values at the integers$"):
            ConstructionProblem(3, 1, 2, SampleSet(2, offset, values), True)


def test_build_M_entries():
    cantor = catalog.cantor_samples()
    m = build_M(3, cantor, 2)
    # rows alpha in [-1, 1], columns beta in [-1, 2]
    a_lo, _ = alpha_window(3, 2)
    entry = lambda alpha, beta: m[alpha - a_lo][beta - (-1)]
    assert entry(1, 2) == 1  # phi((3+1)/2 - 2) = phi(0)
    assert entry(0, 0) == F(1, 2)  # phi(1/2)
    assert entry(0, 1) == F(1, 2)  # phi(-1/2)
    assert entry(-1, -1) == 1  # phi(0) again, mirrored row
    assert entry(1, -1) == 0  # phi(3), outside the support


def test_build_M_zero_row_segment():
    m = build_M(3, DD4, 7)
    # alpha = -6 reads phi at points far outside the sample support
    assert all(x == 0 for x in m[0])


def test_build_rhs_values():
    rhs = build_rhs(DD4, 3, 7)
    c_part = rhs[:13]
    assert c_part == (0, 0, 0, F(-1, 16), 0, F(9, 16), 1, F(9, 16), 0, F(-1, 16), 0, 0, 0)
    assert rhs[13:] == (1, 1, 1)
    assert rhs[6] == 1  # alpha = 0: integer interpolation


def test_build_rhs_window_for_quinary():
    rhs = build_rhs(DD4, 5, 10)
    assert len(rhs) == (4 - (-4) + 1) + 5


def test_build_N_residue_sums():
    n = build_N(3, 7)
    mask = catalog.ternary_cubic_mask()
    a_vec = [mask.coefficient(k) for k in range(-6, 8)]
    assert matvec(n, a_vec) == (1, 1, 1)
    # a window of exactly one full residue cycle sums to one everywhere
    ones = matvec(build_N(4, 2), [1] * 4)
    assert ones == (1, 1, 1, 1)


def test_build_N_alternating_for_binary():
    n = build_N(2, 2)
    # columns beta = -1..2; row gamma=1 marks odd beta, row gamma=2 even
    assert n[0] == (1, 0, 1, 0)
    assert n[1] == (0, 1, 0, 1)


def test_build_O_band():
    o = build_O(2, (0, 2), (0, 2))
    assert o == ((1, 0, 0), (1, 1, 0), (0, 1, 1))


def test_smoothing_coeffs_values():
    assert smoothing_coeffs(3, 2) == [1, 2, 3, 2, 1]
    assert smoothing_coeffs(4, 0) == [1]
    for m in range(2, 6):
        for d in range(5):
            expected = power(smoothing_factor(m), d) * m**d
            assert LaurentPoly(0, smoothing_coeffs(m, d)) == expected


def _oracle_system(problem):
    """m^{1-d} [build_M; build_N] @ (build_O band)^d on the b-window, dense."""
    m, d, k_star = problem.m, problem.d, problem.k_star
    window = (1 - k_star, k_star)
    band = build_O(m, window, window)
    power = identity(2 * k_star)
    for _ in range(d):
        power = matmul(power, band)
    b_lo, b_hi = problem.beta_window
    n_cols = b_hi - b_lo + 1
    o_d = tuple(row[:n_cols] for row in power)
    scale = F(m) ** (1 - d)
    product = matmul(build_M(m, problem.samples, k_star) + build_N(m, k_star), o_d)
    matrix = [[x * scale for x in row] for row in product]
    dense_columns = [[row[j] * scale for row in o_d] for j in range(n_cols)]
    return matrix, dense_columns


def _pruned(rows, rhs, labels):
    """(kept rows, kept rhs, kept labels, dropped) of a dense system: a zero
    row with a zero rhs goes as "zero", and a (row, rhs) seen before as a
    duplicate of the first row that had it."""
    kept, dropped, first = [], [], {}
    for row, rhs_v, label in zip(rows, rhs, labels):
        key = (tuple(row), rhs_v)
        if all(x == 0 for x in row) and rhs_v == 0:
            dropped.append((label, "zero"))
        elif key in first:
            dropped.append((label, "duplicate of {}[{}]".format(*first[key])))
        else:
            first[key] = label
            kept.append((list(row), rhs_v, label))
    rows, rhs, labels = (list(part) for part in zip(*kept))
    return rows, rhs, tuple(labels), tuple(dropped)


@pytest.mark.parametrize(
    "m,d,k_star,samples",
    [
        (2, 0, 2, "dd:2"),
        (2, 1, 3, "dd4"),
        (3, 0, 4, "dd4"),
        (3, 2, 5, "dd4"),
        (3, 4, 7, "dd4"),
        (4, 1, 8, "mix:1/3"),
        (5, 3, 10, "dd4"),
        (6, 2, 13, "mix:3/5"),
    ],
)
def test_assemble_matches_dense_band_power_oracle(m, d, k_star, samples):
    sample_set = samples_from_shorthand(samples)
    plain = assemble(ConstructionProblem(m, d, k_star, sample_set, False))
    matrix, dense_columns = _oracle_system(plain.problem)
    rhs = build_rhs(sample_set, m, k_star)
    a_lo, a_hi = alpha_window(m, k_star)
    labels = [("M", alpha) for alpha in range(a_lo, a_hi + 1)] + [("N", gamma) for gamma in range(1, m + 1)]
    assert _pruned(matrix, rhs, labels) == (
        [list(row) for row in entries(plain.matrix)], list(plain.rhs), plain.row_labels, plain.dropped
    )
    b_lo, b_hi = plain.problem.beta_window
    assert plain.col_labels == tuple((beta,) for beta in range(b_lo, b_hi + 1))
    # each column is the mask m^{1-d} (1+...+z^{m-1})^d z^beta
    for column, oracle in zip(columns(plain), dense_columns):
        assert column == LaurentPoly(1 - k_star, oracle)
        assert column * F(m) ** (d - 1) == LaurentPoly(column.offset, smoothing_coeffs(m, d))

    folded = assemble(ConstructionProblem(m, d, k_star, sample_set, True))
    pairs = sorted({tuple(sorted({beta, b_lo + b_hi - beta})) for beta in range(b_lo, b_hi + 1)})
    pairs.sort(key=lambda pair: pair[-1] - pair[0])
    assert folded.col_labels == tuple(pairs)
    for pair, column in zip(pairs, columns(folded)):
        assert column == sum((columns(plain)[beta - b_lo] for beta in pair), LaurentPoly.zero())
    folded_matrix = [[sum(row[beta - b_lo] for beta in pair) for pair in pairs] for row in matrix]
    assert _pruned(folded_matrix, rhs, labels) == (
        [list(row) for row in entries(folded.matrix)], list(folded.rhs), folded.row_labels, folded.dropped
    )


PRINTED_MATRIX = (
    (F(-1, 432), F(5, 432), F(35, 432)),
    (F(1, 27), F(4, 27), F(10, 27)),
    (F(1, 3), F(1, 2), F(2, 3)),
    (F(26, 27), F(23, 27), F(17, 27)),
    (F(289, 216), F(211, 216), F(109, 216)),
    (F(2), F(2), F(2)),
)
PRINTED_RHS = (F(0), F(-1, 16), F(0), F(9, 16), F(1), F(1))


def test_assemble_symmetric_ternary_matches_reference_system():
    system = assemble(ConstructionProblem(3, 4, 7, DD4, True))
    assert entries(system.matrix) == PRINTED_MATRIX
    assert system.rhs == PRINTED_RHS
    assert system.row_labels == (("M", -4), ("M", -3), ("M", -2), ("M", -1), ("M", 0), ("N", 1))
    assert system.col_labels == ((-4, -3), (-5, -2), (-6, -1))
    dropped = dict(system.dropped)
    assert dropped[("M", -6)] == "zero"
    assert any(label == ("M", 1) for label, _ in system.dropped)


def test_assemble_full_ternary_shape():
    # the 16 x 6 windowed system less its four zero rows M and the rows N[2],
    # N[3], which repeat N[1]: each residue class of (1 + z + z^2)^4 sums to 27
    system = assemble(ConstructionProblem(3, 4, 7, DD4, False))
    assert (system.matrix.rows, system.matrix.cols) == (10, 6)
    assert system.row_labels == tuple(("M", alpha) for alpha in range(-4, 5)) + (("N", 1),)
    assert system.dropped == (
        (("M", -6), "zero"),
        (("M", -5), "zero"),
        (("M", 5), "zero"),
        (("M", 6), "zero"),
        (("N", 2), "duplicate of N[1]"),
        (("N", 3), "duplicate of N[1]"),
    )


@pytest.mark.parametrize(
    "m,d,k_star",
    [(3, 4, 7), (3, 1, 5), (4, 3, 11), (5, 3, 10), (6, 2, 9)],
)
def test_full_dimensions_match_closed_form(m, d, k_star):
    # the closed form counts the windowed rows: those kept and those pruned
    problem = ConstructionProblem(m, d, k_star, DD4, False)
    system = assemble(problem)
    a_lo, a_hi = alpha_window(m, k_star)
    assert len(system.row_labels) + len(system.dropped) == a_hi - a_lo + 1 + m
    assert system.matrix.cols == 2 * k_star - d * (m - 1)


def test_derive_ternary_unique():
    family = derive(ConstructionProblem(3, 4, 7, DD4, True))
    assert family.dimension == 0
    assert family.unique_mask == catalog.ternary_cubic_mask()


def test_derive_cantor():
    family = derive(ConstructionProblem(3, 1, 2, catalog.cantor_samples(), True))
    assert family.dimension == 0
    assert family.unique_mask == catalog.cantor_mask()


@pytest.mark.parametrize("k_star", [5, 6])
@pytest.mark.parametrize("symmetric", [True, False])
def test_derive_short_supports_infeasible(k_star, symmetric):
    with pytest.raises(InfeasibleProblem):
        derive(ConstructionProblem(3, 4, k_star, DD4, symmetric))


# the sha256 of derive's answers over the design shapes, recorded with the dense
# Gauss-Jordan elimination before the forward pass and back substitution
DESIGN_SHAPES_DIGEST = "ab1f8c99eb8d09a50908397837a1780b21183cfef23c666507abe05b08ba8534"


def test_derive_answers_across_the_design_shapes():
    # m 3-10 x d 1-4 x four sample kinds, with and without symmetry, at the
    # smallest k* whose window is nonempty and whose limit support holds the
    # samples (the design grid's k_min) and two above it: 512 problems, each
    # answer the family's to_dict JSON or the infeasible message, in turn
    digest = hashlib.sha256()
    for m in range(3, 11):
        for d in range(1, 5):
            for spec, points in {"dd4": 4, "dd6": 6, "dd:8": 8, "mix:1/5": 6}.items():
                samples = samples_from_shorthand(spec)
                k_min = max(math.ceil((d * (m - 1) + 1) / 2), math.ceil(((points - 1) * (m - 1) + 1) / 2))
                for symmetric in (True, False):
                    for k_star in (k_min, k_min + 2):
                        problem = ConstructionProblem(m, d, k_star, samples, symmetric)
                        try:
                            answer = json.dumps(derive(problem).to_dict())
                        except InfeasibleProblem as exc:
                            answer = str(exc)
                        digest.update(answer.encode() + b"\n")
    assert digest.hexdigest() == DESIGN_SHAPES_DIGEST


def test_derive_refuses_an_elimination_over_the_budget(monkeypatch):
    # m = 3, d = 1, dd:2 without symmetry: k* = 50 is 103 rows x 98^2 unknowns
    # = 989,212 steps and k* = 51 is 105 x 100^2 = 1,050,000; the refusal
    # comes before the system is assembled, in closed form for any k*
    samples = samples_from_shorthand("dd:2")
    assert derive(ConstructionProblem(3, 1, 50, samples, False)).dimension == 32

    def assemble(problem):
        raise AssertionError("the system was assembled before the refusal")

    monkeypatch.setattr(construct, "assemble", assemble)
    for k_star, rows, unknowns in [(51, 105, 100), (300, 603, 598), (10**9, 2 * 10**9 + 3, 2 * 10**9 - 2)]:
        with pytest.raises(ValueError, match=(
            f"a system of {rows} rows and {unknowns} unknowns would need {rows * unknowns**2}"
            " elimination steps, more than 1000000$"
        )):
            derive(ConstructionProblem(3, 1, k_star, samples, False))


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("m,d,k_star", [(3, 4, 7), (3, 1, 5), (4, 3, 11), (5, 3, 10), (6, 2, 9), (4, 0, 3)])
def test_elimination_estimate_counts_the_assembled_system(m, d, k_star, symmetric, monkeypatch):
    # the estimate's rows are [M; N] before pruning plus the shift row, and
    # its unknowns the assembled columns: mirror pairs under symmetry
    problem = ConstructionProblem(m, d, k_star, DD4 if d else samples_from_shorthand("dd:2"), symmetric)
    system = assemble(problem)
    rows = len(system.row_labels) + len(system.dropped) + 1
    unknowns = len(system.col_labels)
    monkeypatch.setattr(exactalg, "MAX_POINTS", rows * unknowns**2 - 1)
    with pytest.raises(ValueError, match=f"a system of {rows} rows and {unknowns} unknowns"):
        derive(problem)


def test_derive_quinary_family():
    family = derive(catalog.quinary_problem())
    assert family.dimension == 1
    for w in (F(0), F(-7, 5), F(10)):
        assert family.contains(catalog.quinary_family_mask(w))
    assert not family.contains(catalog.ternary_cubic_mask())


def test_derive_quaternary_families():
    for w in (F(0), F(1, 2), F(1)):
        family = derive(catalog.quaternary_problem(w))
        assert family.dimension == 2
        if w == 1:
            assert family.contains(catalog.quaternary_quartic_mask())
        else:
            v, u = catalog.quaternary_cubic_params(w)
            assert family.contains(catalog.quaternary_family_mask(w, v, u))


def test_derive_imposes_dual_shift_when_other_rows_leave_it_free():
    problem = ConstructionProblem(6, 1, 16, dd_samples(3), False)
    family = derive(problem)
    assert family.dimension == 14
    samples = problem.samples
    members = [family.particular] + [
        family.member([int(i == j) for j in range(family.dimension)])
        for i in range(family.dimension)
    ]
    for mask in members:
        assert shift_parameter(mask) == F(1, 2)
        assert verify_dual_interpolatory(mask, samples).satisfied
    # the assembled system alone admits masks with tau != 1/2; contains rejects them
    system = assemble(problem)
    b = LaurentPoly(problem.beta_window[0], particular(rref_solve(system.matrix, system.rhs)))
    free = b * LaurentPoly(0, smoothing_coeffs(6, 1))
    free_mask = Mask(6, free.offset, free.coeffs)
    assert shift_parameter(free_mask) != F(1, 2)
    assert not family.contains(free_mask)


def test_contains_checks_the_residue_sums():
    # for d = 0 without symmetry the rows M and tau = 1/2 leave one more
    # direction than the full system: masks there fail only the rows N
    problem = ConstructionProblem(4, 0, 3, samples_from_shorthand("dd:2"), False)
    family = derive(problem)
    system = assemble(problem)
    m_rows = [i for i, (kind, _) in enumerate(system.row_labels) if kind == "M"]
    tau_row = [2 * column.derivative_at_one() for column in columns(system)]
    matrix = oracle.rat_matrix([entries(system.matrix)[i] for i in m_rows] + [tau_row])
    solution = rref_solve(matrix, [system.rhs[i] for i in m_rows] + [4])
    assert solution.dimension == family.dimension + 1
    x0 = particular(solution)
    masks = []
    for x in [x0] + [[a + b for a, b in zip(x0, v)] for v in nullbasis(solution)]:
        poly = sum((column * c for column, c in zip(columns(system), x)), LaurentPoly.zero())
        masks.append(Mask(4, poly.offset, poly.coeffs))
    off = [mask for mask in masks if any(sum(mask.coeffs[r::4]) != 1 for r in range(4))]
    assert off
    for mask in off:
        assert shift_parameter(mask) == F(1, 2)
        assert verify_refinability(mask, problem.samples).satisfied
        assert not family.contains(mask)
        assert not oracle.contains(problem, mask)


def test_family_membership_is_affine():
    family = derive(catalog.quinary_problem())
    a = catalog.quinary_family_mask(F(-7, 5))
    b = catalog.quinary_family_mask(F(10))
    mixed_poly = a.poly * F(2, 3) + b.poly * F(1, 3)
    mixed = catalog.quinary_family_mask(F(2, 3) * F(-7, 5) + F(1, 3) * F(10))
    assert mixed_poly == mixed.poly
    assert family.contains(mixed)


def test_family_member_coordinates():
    family = derive(catalog.quinary_problem())
    member = family.member([F(3, 7)])
    assert family.contains(member)
    with pytest.raises(ValueError):
        family.member([1, 2])
    with pytest.raises(ValueError):
        family.unique_mask


def test_family_rejects_near_miss():
    family = derive(catalog.quinary_problem())
    good = catalog.quinary_family_mask(0)
    tweaked = list(good.coeffs)
    tweaked[0] += F(1, 1000)
    from dualsubdiv.scheme import Mask

    assert not family.contains(Mask(5, good.offset, tweaked))


def test_derived_masks_are_dual_symmetric_with_unit_residue_sums():
    cases = [
        derive(ConstructionProblem(3, 4, 7, DD4, True)).unique_mask,
        derive(catalog.quinary_problem()).member([F(1, 3)]),
        derive(catalog.quaternary_problem(F(1, 2))).member([0, F(2, 5)]),
    ]
    for mask in cases:
        nums = mask.poly.numerators
        assert shift_parameter(mask) == F(1, 2)
        assert nums == nums[::-1] and mask.k_left == 1 - mask.k_right
        for s in sub_symbols(mask):
            assert value_at_one(s) == F(1, mask.arity)


def test_derived_masks_satisfy_refinement_rows():
    problem = ConstructionProblem(3, 4, 7, DD4, True)
    mask = derive(problem).unique_mask
    m_matrix = build_M(3, DD4, 7)
    rhs = build_rhs(DD4, 3, 7)
    a_vec = [mask.coefficient(k) for k in range(-6, 8)]
    assert matvec(m_matrix, a_vec) == rhs[:13]


def test_symmetric_masks_are_palindromic_on_the_window():
    problem = catalog.quinary_problem()
    mask = derive(problem).member([F(9, 4)])
    k_star = problem.k_star
    for i in range(2 * k_star):
        assert mask.coefficient(1 - k_star + i) == mask.coefficient(k_star - i)


def test_binary_box_scheme_solves_but_cannot_contract():
    # arity 2 admits algebraic solutions (the box scheme) yet none converge
    family = derive(ConstructionProblem(2, 1, 2, dd_samples(1), True))
    assert family.dimension == 0
    box = family.unique_mask
    assert (box.offset, box.coeffs) == (0, (F(1), F(1)))
    from dualsubdiv.analyze import contractivity_bound

    assert not contractivity_bound(box, 0, 4).contractive


def test_family_round_trips_through_dict():
    family = derive(catalog.quinary_problem())
    clone = SolutionFamily.from_dict(family.to_dict())
    assert clone.problem == family.problem
    assert clone.particular == family.particular
    assert clone.basis == family.basis
    assert all(isinstance(b, Mask) and b.arity == 5 for b in clone.basis)
    assert clone.contains(catalog.quinary_family_mask(10))
