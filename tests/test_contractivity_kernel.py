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
against it and against a double sum.  A range search rejects a level whose
witness class sums to at least 1 and builds no last level that it rejects
so; two tests count the levels that its probes build.  A sweep sums level 1
and the last level at every point, and a level in between only when its
witness class roots to more than the last level's bound (1 + 2^-36); two
tests count the levels whose norm it sums.
"""

import functools
from fractions import Fraction as F

import pytest

import oracle
from dualsubdiv import analyze, catalog
from dualsubdiv.analyze import (
    NoContractivePoint,
    ParameterGrid,
    _iterated_norms,
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


def count_levels(monkeypatch):
    """(probes, built): the symbol of each probe of a range search, in turn,
    and how many of its levels ``analyze._iterates`` built."""
    iterates, probes, built = analyze._iterates, [], []

    def counted(coeffs, m, levels):
        probes.append(coeffs)
        built.append(0)
        for q in iterates(coeffs, m, levels):
            built[-1] += 1
            yield q

    monkeypatch.setattr(analyze, "_iterates", counted)
    return probes, built


def test_range_builds_fewer_last_levels_than_its_probes_reach(monkeypatch):
    # a probe reaches level 4 when none of levels 1-3 is contractive; the
    # witness class, summed from level 3, rejects some of those without
    # building level 4 (of 75 probes, 51 reach it and 27 build it)
    family = catalog.quinary_reference_family()
    probes, built = count_levels(monkeypatch)
    got = contractivity_range(family, 0, 4, ParameterGrid(*QUINARY_SEARCH[0], 33))
    monkeypatch.undo()
    assert got == oracle.contractivity_range(family, 0, 4, QUINARY_SEARCH[0], grid=33)
    reached = [
        not any(n ** (1.0 / L) < 1.0 for L, n in enumerate(_iterated_norms(p, 5, 3), start=1))
        for p in probes
    ]
    assert built.count(4) < reached.count(True)


def test_range_witness_sum_of_exactly_one_rejects_the_last_level(monkeypatch):
    # the family of the probe test above: every class with an entry sums to
    # |1 + t|^L / 2^L at level L, exactly 1.0 at t = -3 and t = 1, so once
    # t = -4 has set the witnesses those probes, and t = 2, build levels 1
    # and 2 only; t = -2, -1 and 0 are contractive at level 1
    half = [F(c, 2) for c in convolve([1] * 5, [1, 1])]
    family = SolutionFamily(
        catalog.quinary_problem(), Mask(5, 0, half), (Mask(5, 0, half),)
    )
    probes, built = count_levels(monkeypatch)
    contractivity_range(family, 0, 3, ParameterGrid(-4.0, 2.0, 7))
    assert built[:7] == [3, 2, 1, 1, 1, 2, 2]


def count_norms(monkeypatch):
    """The lengths of the levels whose norm ``analyze._level_norm`` sums."""
    level_norm, lengths = analyze._level_norm, []

    def counted(q, n, palindrome):
        lengths.append(len(q))
        return level_norm(q, n, palindrome)

    monkeypatch.setattr(analyze, "_level_norm", counted)
    return lengths


def test_profile_sums_fewer_lower_levels_than_it_builds(monkeypatch):
    # the last level sets the best bound at most points, so a lower level's
    # witness class often roots to more and its norm is not summed (levels 2
    # and 3 are summed 5 times in 66); level 1 is summed at every point
    family = catalog.quinary_reference_family()
    ts = ParameterGrid(*QUINARY_SEARCH[0], 33)
    lengths = count_norms(monkeypatch)
    got = contractivity_profile(family, 0, 4, ts)
    monkeypatch.undo()
    assert got == oracle.contractivity_profile(family, 0, 4, list(ts))
    # the quinary order-0 symbol has 16 coefficients: 16, 91, 466, 2341 entries
    assert [lengths.count(n) for n in (16, 2341)] == [33, 33]
    assert lengths.count(91) + lengths.count(466) < 2 * 33
    assert len(lengths) - 33 < 33 * 3


def test_profile_sums_every_level_whose_rooted_norm_ties_the_last(monkeypatch):
    # every member's rooted norm is |1 + t|/2 at each level, so the levels'
    # floats agree to within a few ulps; on this grid four lower levels root
    # to more than the last level, inside the margin, and are still summed
    half = [F(c, 2) for c in convolve([1] * 5, [1, 1])]
    family = SolutionFamily(
        catalog.quinary_problem(), Mask(5, 0, half), (Mask(5, 0, half),)
    )
    ts = ParameterGrid(-4.0, 2.0, 33)
    lengths = count_norms(monkeypatch)
    contractivity_profile(family, 0, 4, ts)
    assert len(lengths) == 33 * 4


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
