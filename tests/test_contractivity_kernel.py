"""The family-line contractivity kernel against its per-class reference.

``oracle.iterated_norms`` sums each residue class on its own and
``oracle.line_best_bound`` converts the Fraction difference symbols to float
for every parameter.  The kernel builds the float line once, adds whole
blocks of classes and stops a bisection probe at the first contractive
level; every float it returns must equal the reference's bit for bit.  The
reference forms each iterate with ``oracle.strided_product``, which sums
``exactalg.convolve``'s products in its order, so the float iterate of a
symmetric member, whose second half is the mirror of its first, is part of
the reference; ``tests/test_convolve_properties.py`` checks ``convolve``
against it and against a double sum.
"""

import functools
from fractions import Fraction as F

import pytest

import oracle
from dualsubdiv import catalog
from dualsubdiv.analyze import (
    NoContractivePoint,
    ParameterGrid,
    contractivity_bound,
    contractivity_profile,
    contractivity_range,
)
from dualsubdiv.construct import ConstructionProblem, SolutionFamily, derive
from dualsubdiv.exactalg import convolve
from dualsubdiv.samples import samples_from_shorthand
from dualsubdiv.scheme import Mask, NotDivisible

# the quinary search ranges and the derived line shapes (m, d, k*) that the
# family-scan benchmark sweeps
QUINARY_SEARCH = {0: (-20, 16), 1: (-8, 4), 2: (-2.5, 0)}
LINE_SHAPES = ((5, 4, 14, "mix:1/5"), (6, 4, 15, "mix:3/5"))


@functools.cache
def derived_line(m, d, k_star, spec):
    family = derive(ConstructionProblem(m, d, k_star, samples_from_shorthand(spec)))
    assert family.dimension == 1
    return family


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_quinary_profile_matches_reference(order, levels):
    family = catalog.quinary_reference_family()
    ts = grid(*QUINARY_SEARCH[order], 33) + [-7.3, 0.1, 1 / 3]
    got = contractivity_profile(family, order, levels, ts)
    assert got == oracle.contractivity_profile(family, order, levels, ts)


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", LINE_SHAPES, ids=lambda s: f"m{s[0]}")
def test_derived_line_profile_matches_reference(shape, order, levels):
    family = derived_line(*shape)
    ts = grid(-3, 1, 17) + grid(-1, 3, 17)
    got = contractivity_profile(family, order, levels, ts)
    assert got == oracle.contractivity_profile(family, order, levels, ts)


def _range_or_none(family, order, levels, interval, grid_size):
    try:
        return contractivity_range(family, order, levels, ParameterGrid(*interval, grid_size))
    except (NoContractivePoint, ValueError):
        return None


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_quinary_range_matches_reference_bisection(order, levels):
    family = catalog.quinary_reference_family()
    interval = QUINARY_SEARCH[order]
    got = contractivity_range(family, order, levels, ParameterGrid(*interval, 33))
    assert got == oracle.contractivity_range(family, order, levels, interval, grid=33)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", LINE_SHAPES, ids=lambda s: f"m{s[0]}")
def test_derived_line_range_matches_reference_bisection(shape, order):
    family = derived_line(*shape)
    for interval in [(-3, 1), (-1, 3)]:
        got = _range_or_none(family, order, 3, interval, 17)
        assert got == oracle.contractivity_range(family, order, 3, interval, grid=17)


def test_range_probe_at_a_bound_of_exactly_one_is_not_contractive():
    # every member has the difference symbol ((1 + t)/2)(1 + z), whose rooted
    # norm is |1 + t|/2 at each level: exactly 1.0 at t = -3 and t = 1, both
    # on the sampling grid, and below 1 strictly between them
    half = [F(c, 2) for c in convolve([1] * 5, [1, 1])]
    family = SolutionFamily(
        catalog.quinary_problem(), Mask(5, 0, half), (Mask(5, 0, half),)
    )
    assert contractivity_profile(family, 0, 3, [-3.0, 1.0]) == [(-3.0, 1.0), (1.0, 1.0)]
    left, right = contractivity_range(family, 0, 3, ParameterGrid(-4.0, 2.0, 7))
    assert (left, right) == oracle.contractivity_range(family, 0, 3, (-4.0, 2.0), grid=7)
    assert -3 < left < -3 + 1e-6 and 1 - 1e-6 < right < 1


CATALOG_MASKS = {
    "cantor": catalog.cantor_mask(),
    "ternary": catalog.ternary_cubic_mask(),
    "quinary_w-7_5": catalog.quinary_family_mask(F(-7, 5)),
    "quinary_w10": catalog.quinary_family_mask(10),
    "quartic": catalog.quaternary_quartic_mask(),
    "quaternary_cubic": catalog.quaternary_family_mask(
        F(2, 5), *catalog.quaternary_cubic_params(F(2, 5))
    ),
}


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(CATALOG_MASKS))
def test_contractivity_bound_matches_reference(name, order):
    mask = CATALOG_MASKS[name]
    levels = {3: 6, 4: 4, 5: 4}.get(mask.arity, 3)
    try:
        expected = oracle.contractivity_bounds(mask, order, levels)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            contractivity_bound(mask, order, levels)
        return
    assert list(contractivity_bound(mask, order, levels).bounds) == expected
