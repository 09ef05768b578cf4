from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
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
from dualsubdiv.charax import verify_dual_interpolatory
from dualsubdiv.exactalg import LaurentPoly, RatMatrix, rref_solve
from dualsubdiv.samples import dd_samples, samples_from_shorthand
from dualsubdiv.scheme import (
    Mask,
    Symmetry,
    classify_symmetry,
    shift_parameter,
)
from oracle import (
    build_M,
    build_N,
    build_O,
    build_rhs,
    identity,
    matmul,
    matvec,
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


def test_build_M_entries():
    cantor = catalog.cantor_samples()
    m = build_M(3, cantor, 2)
    # rows alpha in [-1, 1], columns beta in [-1, 2]
    a_lo, _ = alpha_window(3, 2)
    entry = lambda alpha, beta: m.entries[alpha - a_lo][beta - (-1)]
    assert entry(1, 2) == 1  # phi((3+1)/2 - 2) = phi(0)
    assert entry(0, 0) == F(1, 2)  # phi(1/2)
    assert entry(0, 1) == F(1, 2)  # phi(-1/2)
    assert entry(-1, -1) == 1  # phi(0) again, mirrored row
    assert entry(1, -1) == 0  # phi(3), outside the support


def test_build_M_zero_row_segment():
    m = build_M(3, DD4, 7)
    # alpha = -6 reads phi at points far outside the sample support
    assert all(x == 0 for x in m.entries[0])


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
    assert n.entries[0] == (1, 0, 1, 0)
    assert n.entries[1] == (0, 1, 0, 1)


def test_build_O_band():
    o = build_O(2, (0, 2), (0, 2))
    assert o.entries == ((1, 0, 0), (1, 1, 0), (0, 1, 1))


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
    o_d = RatMatrix([row[:n_cols] for row in power.entries])
    scale = F(m) ** (1 - d)
    product = matmul(build_M(m, problem.samples, k_star).vstack(build_N(m, k_star)), o_d)
    matrix = [[x * scale for x in row] for row in product.entries]
    columns = [[row[j] * scale for row in o_d.entries] for j in range(n_cols)]
    return matrix, columns


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
    matrix, columns = _oracle_system(plain.problem)
    assert [list(row) for row in plain.matrix.entries] == matrix
    assert plain.rhs == build_rhs(sample_set, m, k_star)
    b_lo, b_hi = plain.problem.beta_window
    assert plain.col_labels == tuple((beta,) for beta in range(b_lo, b_hi + 1))
    # each column is the mask m^{1-d} (1+...+z^{m-1})^d z^beta
    for column, oracle in zip(plain.columns, columns):
        assert column == LaurentPoly(1 - k_star, oracle)
        assert column * F(m) ** (d - 1) == LaurentPoly(column.offset, smoothing_coeffs(m, d))

    folded = assemble(ConstructionProblem(m, d, k_star, sample_set, True))
    pairs = sorted({tuple(sorted({beta, b_lo + b_hi - beta})) for beta in range(b_lo, b_hi + 1)})
    pairs.sort(key=lambda pair: pair[-1] - pair[0])
    assert folded.col_labels == tuple(pairs)
    for pair, column in zip(pairs, folded.columns):
        assert column == sum((plain.columns[beta - b_lo] for beta in pair), LaurentPoly.zero())
    kept, kept_rhs, seen = [], [], set()
    for row, rhs_v in zip(matrix, plain.rhs):
        row = [sum(row[beta - b_lo] for beta in pair) for pair in pairs]
        if (all(x == 0 for x in row) and rhs_v == 0) or (tuple(row), rhs_v) in seen:
            continue
        seen.add((tuple(row), rhs_v))
        kept.append(row)
        kept_rhs.append(rhs_v)
    assert [list(row) for row in folded.matrix.entries] == kept
    assert list(folded.rhs) == kept_rhs
    assert len(folded.row_labels) + len(folded.dropped) == len(plain.row_labels)
    assert set(folded.row_labels) | {label for label, _ in folded.dropped} == set(plain.row_labels)


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
    assert system.matrix.entries == PRINTED_MATRIX
    assert system.rhs == PRINTED_RHS
    assert system.row_labels == (("M", -4), ("M", -3), ("M", -2), ("M", -1), ("M", 0), ("N", 1))
    assert system.col_labels == ((-4, -3), (-5, -2), (-6, -1))
    dropped = dict(system.dropped)
    assert dropped[("M", -6)] == "zero"
    assert any(label == ("M", 1) for label, _ in system.dropped)


def test_assemble_full_ternary_shape():
    system = assemble(ConstructionProblem(3, 4, 7, DD4, False))
    assert (system.matrix.rows, system.matrix.cols) == (16, 6)
    assert system.dropped == ()


@pytest.mark.parametrize(
    "m,d,k_star",
    [(3, 4, 7), (3, 1, 5), (4, 3, 11), (5, 3, 10), (6, 2, 9)],
)
def test_full_dimensions_match_closed_form(m, d, k_star):
    problem = ConstructionProblem(m, d, k_star, DD4, False)
    system = assemble(problem)
    a_lo, a_hi = alpha_window(m, k_star)
    assert system.matrix.rows == a_hi - a_lo + 1 + m
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
    b = LaurentPoly(problem.beta_window[0], rref_solve(system.matrix, system.rhs).particular)
    free = b * LaurentPoly(0, smoothing_coeffs(6, 1))
    free_mask = Mask(6, free.offset, free.coeffs)
    assert shift_parameter(free_mask) != F(1, 2)
    assert not family.contains(free_mask)


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
        descriptor = classify_symmetry(mask)
        assert descriptor.symmetry is Symmetry.DUAL
        assert descriptor.tau == F(1, 2)
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
    assert clone.contains(catalog.quinary_family_mask(10))
