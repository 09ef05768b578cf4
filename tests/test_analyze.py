import functools
import math
from fractions import Fraction as F

import pytest

from dualsubdiv import analyze, catalog
from dualsubdiv.analyze import (
    LatticeFunction,
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
from dualsubdiv.exactalg import numerators
from dualsubdiv.samples import SampleSet, dd_samples
from dualsubdiv.scheme import (
    Mask,
    NotDivisible,
    factor_smoothing,
    limit_support,
    shift_parameter,
    symbol,
)
from oracle import perturbed, power, smoothing_factor


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


CATALOG_PAIRS = {
    "cantor": (CANTOR, CANTOR_SAMPLES),
    "ternary": (TERNARY, DD4),
    "quinary": (catalog.quinary_family_mask(F(-7, 5)), DD4),
    "quartic": (catalog.quaternary_quartic_mask(), catalog.blended_samples(1)),
}


def cascade(mask, seed, depth):
    """Lattice values read point by point off the refinement equation:
    phi(q/(mQ)) = sum_k a_k phi((q - kQ + tau Q)/Q) on the limit support."""
    lo, hi = limit_support(mask)
    shift = shift_parameter(mask) * seed.T
    Q = seed.T
    values = {i: seed.value_at_index(i) for i in range(math.ceil(lo * Q), math.floor(hi * Q) + 1)}
    for _ in range(depth):
        tQ = int(shift * Q / seed.T)
        Q2 = Q * mask.arity
        values = {
            q: sum(
                (a * values.get(q - k * Q + tQ, 0) for k, a in enumerate(mask.coeffs, mask.offset)),
                F(0),
            )
            for q in range(math.ceil(lo * Q2), math.floor(hi * Q2) + 1)
        }
        Q = Q2
    return Q, values


LATTICE_CASES = {
    **CATALOG_PAIRS,
    # no point of Z/2 lies in the support [1/8, 3/8]; Z/10 has two
    "empty-seed-window": (Mask(5, 1, [F(1, 2), 1]), SampleSet(2, 0, [])),
}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_refine_values_matches_pointwise_cascade(name, depth):
    mask, seed = LATTICE_CASES[name]
    lattice = refine_values(mask, seed, depth)
    Q, values = cascade(mask, seed, depth)
    assert lattice.denominator == Q
    assert lattice.offset == min(values)
    assert lattice.values == tuple(values[q] for q in sorted(values))
    assert_canonical(lattice)
    # reading values builds reduced Fractions, once
    assert lattice.is_exact
    assert all(type(v) is F and math.gcd(v.numerator, v.denominator) == 1 for v in lattice.values)
    assert lattice.values is lattice.values
    # equal values are equal lattices: the oracle's values over their lcm
    scale, nums = numerators([values[q] for q in sorted(values)])
    expected = LatticeFunction(Q, lattice.offset, scale, tuple(nums))
    assert lattice == expected and hash(lattice) == hash(expected)


def assert_canonical(lattice):
    """The numerators and scale are the values over their lcm, in lowest terms."""
    assert (lattice.scale, list(lattice.numerators)) == numerators(lattice.values)
    assert math.gcd(lattice.scale, *lattice.numerators) == 1
    assert all(type(v) is int for v in lattice.numerators)


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
        refine_values(CANTOR, perturbed(CANTOR_SAMPLES, 1, F(1, 100)), depth)
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
    assert symbol(diff) * power(smoothing_factor(3), order) == symbol(TERNARY)


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
        lambda: contractivity_profile(family, 0, 0, []),
        lambda: contractivity_range(family, 0, 0, (-1.0, 1.0)),
        # the levels are checked before the empty interval and the sampling
        lambda: contractivity_range(family, 0, 0, (1.0, 1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need at least one level, got 0"):
            call()


def test_negative_orders_degrees_and_steps_rejected():
    family = catalog.quinary_reference_family()
    calls = {
        "order": [
            lambda: contractivity_bound(CANTOR, -1, 3),
            lambda: contractivity_profile(family, -1, 3, [0.0]),
            lambda: contractivity_range(family, -1, 3, (-1.0, 1.0)),
        ],
        "max degree": [lambda: reproduction_degree(CANTOR, CANTOR_SAMPLES, -1, 2, 1e-8)],
        "steps": [lambda: subdivide_points(CANTOR, [(0.0,), (1.0,)], -1)],
    }
    for what, entries in calls.items():
        for call in entries:
            with pytest.raises(ValueError, match=f"{what} must be nonnegative, got -1"):
                call()


def fraction_norms(coeffs, m, levels):
    """Infinity norms of p(z) p(z^m) ... p(z^{m^{L-1}}), one Fraction product
    at a time, as max over residue classes r mod m^L of sum |q_{r + j m^L}|."""
    norms, q = [], {0: F(1)}
    for level in range(1, levels + 1):
        step = m ** (level - 1)
        new = {}
        for i, a in enumerate(coeffs):
            for e, c in q.items():
                new[step * i + e] = new.get(step * i + e, F(0)) + a * c
        q = new
        sums = {}
        for e, c in q.items():
            sums[e % m**level] = sums.get(e % m**level, F(0)) + abs(c)
        norms.append(max(sums.values()))
    return norms


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CATALOG_PAIRS))
def test_contractivity_bound_matches_fraction_norms(name, order):
    mask = CATALOG_PAIRS[name][0]
    levels = 4
    try:
        p = factor_smoothing(mask, order + 1)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            contractivity_bound(mask, order, levels)
        return
    norms = fraction_norms(p.coeffs, mask.arity, levels)
    report = contractivity_bound(mask, order, levels)
    assert report.bounds == tuple(float(n) ** (1.0 / L) for L, n in enumerate(norms, 1))
    assert report.contractive == any(n < 1 for n in norms)


# a skewed cubic-type ternary mask (1 + z + z^2)^2 (1 + 2z) / 9, with phi on
# Z/3 solved from the refinement equation: its support [-4/3, 7/6] is not
# centred, and the comb sum at each point runs over negative shifts k
SKEWED = (
    Mask(3, 0, [F(c, 9) for c in (1, 4, 7, 8, 5, 2)]),
    SampleSet(3, -3, [F(2, 27), F(1, 3), F(2, 3), F(23, 27), F(2, 3), F(1, 3), F(2, 27)]),
)
REPRODUCTION_PAIRS = {**CATALOG_PAIRS, "skewed": SKEWED}


@functools.cache
def fraction_residuals(name, depth, max_degree=5):
    """Largest |sum_k k^e phi(p/Q - k) - (p/Q)^e| over the lattice for
    e = 0..max_degree, summed in Fractions over the pointwise cascade."""
    Q, values = cascade(*REPRODUCTION_PAIRS[name], depth)
    lo, hi = min(values), max(values)
    residuals = []
    for e in range(max_degree + 1):
        worst = F(0)
        for p in values:
            ks = range(-((hi - p) // Q), (p - lo) // Q + 1)
            acc = sum((F(k) ** e * values[p - k * Q] for k in ks), F(0))
            worst = max(worst, abs(acc - F(p, Q) ** e))
        residuals.append(worst)
    return tuple(residuals)


def fraction_reproduction_degree(residuals, tol):
    """Largest D with every residual up to degree D within tol."""
    return next((e - 1 for e, r in enumerate(residuals) if r > tol), len(residuals) - 1)


def boundary_tolerances(residuals):
    """The floats around the largest residual r of the first inexact degree:
    below r the answer is one lower than at or above it."""
    e = next(e for e, r in enumerate(residuals) if r)
    r = float(residuals[e])
    return e, {
        "below-r": math.nextafter(r, -math.inf),
        "r": r,
        "above-r": math.nextafter(r, math.inf),
    }


@pytest.mark.parametrize("tol", [0, 1e-8, 5e-324, "below-r", "r", "above-r"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REPRODUCTION_PAIRS))
def test_reproduction_degree_matches_fraction_comb_sum(name, depth, tol):
    mask, seed = REPRODUCTION_PAIRS[name]
    residuals = fraction_residuals(name, depth)
    if isinstance(tol, str):
        tol = boundary_tolerances(residuals)[1][tol]
    expected = fraction_reproduction_degree(residuals, tol)
    assert reproduction_degree(mask, seed, 5, depth, tol) == expected


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REPRODUCTION_PAIRS))
def test_reproduction_degree_flips_at_the_largest_residual(name, depth):
    mask, seed = REPRODUCTION_PAIRS[name]
    e, tols = boundary_tolerances(fraction_residuals(name, depth))
    assert reproduction_degree(mask, seed, 5, depth, tols["below-r"]) == e - 1
    assert reproduction_degree(mask, seed, 5, depth, tols["above-r"]) >= e


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_reproduction_rejects_tolerance_that_certifies_nothing(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        reproduction_degree(TERNARY, DD4, 5, 1, tol)


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


def exact_subdivision(mask, control, steps, closed):
    """c'_n = sum_k a_{n-mk} c_k in Fractions; closed indices wrap mod m n."""
    pts = {i: tuple(F(x) for x in p) for i, p in enumerate(control)}
    n = len(control)
    for _ in range(steps):
        new = {}
        for k, c in pts.items():
            for j, a in enumerate(mask.coeffs, mask.offset):
                idx = mask.arity * k + j
                if closed:
                    idx %= mask.arity * n
                old = new.get(idx, (F(0),) * len(c))
                new[idx] = tuple(s + a * x for s, x in zip(old, c))
        pts = new
        n *= mask.arity
    first = min(pts)
    return first, [pts[i] for i in range(first, first + len(pts))]


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("name", sorted(CATALOG_PAIRS))
def test_subdivide_points_matches_exact_oracle(name, closed):
    mask = CATALOG_PAIRS[name][0]
    control = [(0.25, -1.5), (1.0, 0.125), (2.75, 3.0), (-0.5, 2.0), (1.5, -0.75)]
    steps = 3
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    first, exact = exact_subdivision(mask, control, steps, closed)
    assert len(pts) == len(exact)
    # error relative to the largest exact coordinate (points near 0 carry no scale)
    scale = max(abs(x) for p in exact for x in p)
    for got, want in zip(pts, exact):
        for x, e in zip(got, want):
            assert abs(x - e) <= 1e-12 * scale
    m = mask.arity
    drift = shift_parameter(mask) * (m**steps - 1) / (m - 1)
    assert params == [float((n - drift) / m**steps) for n in range(first, first + len(exact))]


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_flat_coordinate_stays_unsigned_zero(closed):
    # the leading coefficient -7/2000 is negative; y = 0 must not print as -0.0
    mask = catalog.quinary_family_mask(F(-7, 5))
    _, pts = subdivide_points(mask, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 2, closed=closed)
    assert all(math.copysign(1.0, y) == 1.0 for _, y in pts)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_zero_weight_product_stays_unsigned_zero(closed):
    # a zero weight times the negative point is -0.0; the entry must print as 0.0
    _, pts = subdivide_points(Mask(2, 0, [1, 0, 1]), [(0.0, 0.0), (-1.0, -1.0)], 1, closed=closed)
    assert all(math.copysign(1.0, x) == 1.0 for p in pts for x in p if x == 0)


def test_output_cap_is_checked_before_any_level(monkeypatch):
    # a cap of exactly the depth-2 lattice, or of the 2-step polylines, lets
    # them through; one point less refuses them
    size = len(refine_values(TERNARY, DD4, 2).numerators)
    monkeypatch.setattr(analyze, "MAX_POINTS", size)
    assert len(refine_values(TERNARY, DD4, 2).numerators) == size
    monkeypatch.setattr(analyze, "MAX_POINTS", size - 1)
    with pytest.raises(ValueError, match=f"depth 2 would hold more than {size - 1} points"):
        refine_values(TERNARY, DD4, 2)
    with pytest.raises(ValueError, match=f"more than {size - 1} points"):
        reproduction_degree(TERNARY, DD4, 5, 2, 1e-8)
    control = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    for closed in (False, True):
        size = len(subdivide_points(TERNARY, control, 2, closed=closed)[1])
        monkeypatch.setattr(analyze, "MAX_POINTS", size)
        assert len(subdivide_points(TERNARY, control, 2, closed=closed)[1]) == size
        monkeypatch.setattr(analyze, "MAX_POINTS", size - 1)
        with pytest.raises(ValueError, match=f"2 steps would hold more than {size - 1} points"):
            subdivide_points(TERNARY, control, 2, closed=closed)
    # a one-coefficient mask has a one-point lattice at every depth; its
    # Q = 2^3 passes the bound (MAX_POINTS + 1)(m - 1) = 8 and not 7
    point, seed = Mask(2, 0, [1]), SampleSet(1, 0, [1])
    monkeypatch.setattr(analyze, "MAX_POINTS", 7)
    assert refine_values(point, seed, 3).numerators == (1,)
    monkeypatch.setattr(analyze, "MAX_POINTS", 6)
    with pytest.raises(ValueError, match="depth 3 would be finer than Z/7"):
        refine_values(point, seed, 3)
