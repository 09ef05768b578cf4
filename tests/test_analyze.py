import math
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.analyze import (
    NoContractivePoint,
    SeedInconsistent,
    contractivity_bound,
    contractivity_profile,
    contractivity_range,
    difference_scheme,
    refine_values,
    reproduction_degree,
    subdivide_curve,
    subdivide_points,
)
from dualsubdiv.samples import SampleSet, dd_samples
from dualsubdiv.scheme import Mask, NotDivisible, smoothing_factor, symbol


CANTOR = catalog.cantor_mask()
CANTOR_SAMPLES = catalog.cantor_samples()
TERNARY = catalog.ternary_cubic_mask()
DD4 = dd_samples(2)


def test_refine_depth_zero_returns_seed():
    lattice = refine_values(CANTOR, CANTOR_SAMPLES, 0)
    assert lattice.denominator == 2
    assert lattice.value_at_index(0) == 1
    assert lattice.value_at_index(1) == F(1, 2)


def test_refine_cantor_one_step():
    lattice = refine_values(CANTOR, CANTOR_SAMPLES, 1)
    assert lattice.denominator == 6
    # constant 1 plateau on [-1/4, 1/4]
    assert lattice.value_at_index(1) == 1
    assert lattice.value_at_index(-1) == 1
    assert lattice.value_at_index(3) == F(1, 2)
    # ascending Cantor-function values on [-3/4, -1/4]
    assert lattice.value_at_index(-3) == F(1, 2)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_interpolation_preserved_at_every_depth(depth):
    lattice = refine_values(TERNARY, DD4, depth)
    q = lattice.denominator
    for n in range(-4, 5):
        expected = 1 if n == 0 else 0
        assert lattice.value_at_index(n * q) == expected


def test_ternary_peak_and_support():
    lattice = refine_values(TERNARY, DD4, 3)
    assert max(lattice.values) == 1
    assert lattice.value_at_index(0) == 1
    lo = F(lattice.offset, lattice.denominator)
    hi = F(lattice.offset + len(lattice.values) - 1, lattice.denominator)
    assert -F(13, 4) <= lo and hi <= F(13, 4)


@pytest.mark.parametrize("mask,seed", [(CANTOR, CANTOR_SAMPLES), (TERNARY, DD4)])
def test_lattice_nesting(mask, seed):
    coarse = refine_values(mask, seed, 2)
    fine = refine_values(mask, seed, 3)
    m = mask.arity
    for i, v in enumerate(coarse.values):
        assert fine.value_at_index((coarse.offset + i) * m) == v


@pytest.mark.parametrize("depth", [0, 1])
def test_inconsistent_seed_rejected(depth):
    with pytest.raises(SeedInconsistent):
        refine_values(CANTOR, CANTOR_SAMPLES.perturbed(1, F(1, 100)), depth)
    oversized = SampleSet(2, -3, [F(1, 7), 0, F(1, 2), 1, F(1, 2), 0, F(1, 7)])
    with pytest.raises(SeedInconsistent):
        refine_values(CANTOR, oversized, depth)


def test_fractional_shift_lattice_rejected():
    with pytest.raises(ValueError):
        refine_values(CANTOR, SampleSet(1, 0, [1]), 1)


def test_difference_scheme_cantor():
    d1 = difference_scheme(CANTOR, 1)
    assert d1 == Mask(3, -1, [F(3, 2), F(3, 2)])
    assert difference_scheme(CANTOR, 0) == CANTOR


def test_difference_scheme_requires_divisibility():
    with pytest.raises(NotDivisible):
        difference_scheme(Mask(2, 0, [2]), 1)
    difference_scheme(TERNARY, 4)
    with pytest.raises(NotDivisible):
        difference_scheme(TERNARY, 5)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_difference_scheme_symbol_relation(order):
    diff = difference_scheme(TERNARY, order)
    assert symbol(diff) * (smoothing_factor(3) ** order) == symbol(TERNARY)


def test_contractivity_cantor():
    report = contractivity_bound(CANTOR, 0, 3)
    assert report.contractive
    assert report.bounds == (0.5, 0.5, 0.5)
    assert math.isclose(report.holder_lower_bound, math.log(2) / math.log(3), rel_tol=1e-12)


def test_contractivity_quinary_examples():
    inside = contractivity_bound(catalog.quinary_family_mask(0), 0, 3)
    assert inside.contractive
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(inside.bounds, inside.bounds[1:]))

    c2 = contractivity_bound(catalog.quinary_family_mask(F(-7, 5)), 2, 3)
    assert c2.contractive
    assert c2.holder_lower_bound > 2

    outside = contractivity_bound(catalog.quinary_family_mask(12), 1, 3)
    assert not outside.contractive
    assert outside.holder_lower_bound is None


def test_contractivity_range_regression():
    family = catalog.quinary_reference_family()
    # frozen values from this implementation's canonical norms
    expected = {
        0: ((-20.0, 16.0), (-14.64368, 11.97521)),
        1: ((-8.0, 4.0), (-4.24992, 1.47549)),
        2: ((-2.5, 0.0), (-1.61768, -1.00000)),
    }
    for order, (interval, (lo, hi)) in expected.items():
        got_lo, got_hi = contractivity_range(family, order, 3, interval)
        assert math.isclose(got_lo, lo, abs_tol=2e-3)
        assert math.isclose(got_hi, hi, abs_tol=2e-3)


def test_contractivity_range_requires_contractive_samples():
    family = catalog.quinary_reference_family()
    with pytest.raises(NoContractivePoint):
        contractivity_range(family, 2, 3, (5.0, 10.0))


def test_contractivity_profile_matches_bound():
    family = catalog.quinary_reference_family()
    ((_, bound),) = contractivity_profile(family, 0, 3, [0.0])
    report = contractivity_bound(catalog.quinary_family_mask(0), 0, 3)
    assert math.isclose(bound, min(report.bounds), rel_tol=1e-9)


def test_profile_needs_one_dimensional_family():
    family = catalog.quinary_reference_family()
    two_dim = family.__class__(family.problem, family.particular, family.basis * 2)
    with pytest.raises(ValueError):
        contractivity_profile(two_dim, 0, 3, [0.0])


def test_contractivity_entries_reject_zero_levels():
    family = catalog.quinary_reference_family()
    calls = [
        lambda: contractivity_bound(catalog.quinary_family_mask(0), 0, 0),
        lambda: contractivity_profile(family, 0, 0, [0.0]),
        lambda: contractivity_range(family, 0, 0, (-1.0, 1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need at least one level, got 0"):
            call()


def test_reproduction_degrees():
    assert reproduction_degree(TERNARY, DD4, 5, 3, 1e-8) == 3
    assert reproduction_degree(CANTOR, CANTOR_SAMPLES, 3, 3, 1e-8) == 0
    assert reproduction_degree(catalog.quinary_family_mask(F(-7, 5)), DD4, 4, 2, 1e-8) == 2


def test_partition_of_unity_is_exact_for_ternary():
    lattice = refine_values(TERNARY, DD4, 2)
    q = lattice.denominator
    lo = lattice.offset
    hi = lattice.offset + len(lattice.values) - 1
    for i in range(len(lattice.values)):
        p = lo + i
        k_lo = math.ceil(F(p - hi, q))
        k_hi = math.floor(F(p - lo, q))
        total = sum((lattice.value_at_index(p - k * q) for k in range(k_lo, k_hi + 1)), F(0))
        assert total == 1


def test_one_subdivision_step_of_delta_reproduces_mask():
    data = [(0.0,), (1.0,), (0.0,)]
    params, pts = subdivide_points(CANTOR, data, 1)
    by_param = dict(zip(params, (p[0] for p in pts)))
    tau = F(1, 2)
    for k in range(CANTOR.k_left, CANTOR.k_right + 1):
        # index n = 3*1 + k carries a_k; its parameter is (n - tau)/3
        t = float((3 + k - tau) / 3)
        assert math.isclose(by_param[t], float(CANTOR.coefficient(k)), abs_tol=1e-12)


def test_parameter_gaps_shrink_geometrically():
    params, _ = subdivide_points(TERNARY, [(0.0,), (1.0,), (2.0,)], 3)
    gaps = {round(b - a, 12) for a, b in zip(params, params[1:])}
    assert gaps == {round(3.0 ** -3, 12)}


def test_square_interpolation_at_integer_parameters():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    line = subdivide_curve(TERNARY, square, 4, closed=True)
    # at level 4 the parameter (n - 20)/81 hits each integer i at n = 81 i + 20
    for i, corner in enumerate(square):
        n = 81 * i + 20
        x, y = line.points[n]
        assert math.isclose(line.parameters[n], float(i), abs_tol=1e-12)
        assert abs(x - corner[0]) < 1e-3
        assert abs(y - corner[1]) < 1e-3


def test_two_point_data_approaches_endpoint_values():
    params, pts = subdivide_points(TERNARY, [(0.0,), (1.0,)], 6)
    nearest = lambda t: min(range(len(params)), key=lambda i: abs(params[i] - t))
    assert abs(pts[nearest(1.0)][0] - 1.0) < 1e-3
    assert abs(pts[nearest(0.0)][0] - 0.0) < 1e-3


def test_curve_requires_two_points():
    with pytest.raises(ValueError):
        subdivide_curve(CANTOR, [(0.0, 0.0)], 1)
