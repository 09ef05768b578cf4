"""Property tests of the integer identity checks against the Fraction forms in
tests/oracle.py, on derived family members and on one-term perturbations."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

import oracle
from dualsubdiv.charax import verify_dual_interpolatory, verify_lemma_form, verify_refinability
from dualsubdiv.construct import InfeasibleProblem, derive
from dualsubdiv.samples import SampleSet
from dualsubdiv.scheme import Mask
from test_construct_properties import problems, rationals

FORMS = (
    (verify_dual_interpolatory, oracle.verify_dual_interpolatory),
    (verify_lemma_form, oracle.verify_lemma_form),
    (verify_refinability, lambda mask, s: oracle.verify_refinability(mask, s, 2)),
)


@st.composite
def members(draw):
    problem = draw(problems())
    try:
        family = derive(problem)
    except InfeasibleProblem:
        reject()
    t = draw(st.lists(rationals, min_size=family.dimension, max_size=family.dimension))
    return family.member(t), problem.samples


def residuals(mask, samples):
    return [
        (form(mask, samples).nonzero_terms(), reference(mask, samples).terms())
        for form, reference in FORMS
    ]


@settings(max_examples=40, deadline=None)
@given(members())
def test_residuals_of_members_match_the_fraction_forms(member):
    mask, samples = member
    for got, expected in residuals(mask, samples):
        assert got == expected == []


@settings(max_examples=60, deadline=None)
@given(members(), st.data())
def test_residuals_of_perturbations_match_the_fraction_forms(member, data):
    mask, samples = member
    delta = data.draw(rationals.filter(bool))
    if data.draw(st.booleans()):
        # a change of a_0 keeps tau = sum_k k a_k / m = 1/2
        poly = mask.poly + oracle.monomial(0, delta)
        mask = Mask(mask.arity, poly.offset, poly.coeffs)
    else:
        lo, hi = samples.offset, samples.offset + len(samples.values) - 1
        odd = [i for i in range(lo, hi + 1) if i % 2]
        samples = oracle.perturbed(samples, data.draw(st.sampled_from(odd)), delta)
    for got, expected in residuals(mask, samples):
        assert got == expected
        assert got
        assert all(isinstance(c, F) for _, c in got)


@st.composite
def lattice_cases(draw):
    """An arbitrary rational mask with tau T integral and arbitrary samples on Z/T."""
    m = draw(st.integers(2, 5))
    T = draw(st.integers(1, 3))
    tau = F(draw(st.integers(-2, 2)), T)
    offset = draw(st.integers(-4, 0))
    coeffs = draw(st.lists(rationals, min_size=3, max_size=8))
    # solve sum_k k a_k = m tau for the coefficient at exponent 1
    i = 1 - offset
    coeffs += [F(0)] * (i + 1 - len(coeffs))
    coeffs[i] = 0
    coeffs[i] = m * tau - sum(k * c for k, c in enumerate(coeffs, offset))
    values = draw(st.lists(rationals, min_size=1, max_size=7))
    samples = SampleSet(T, draw(st.integers(-6, 2)), values)
    try:
        return Mask(m, offset, coeffs), samples
    except ValueError:
        reject()


@settings(max_examples=80, deadline=None)
@given(lattice_cases())
def test_refinability_matches_the_fraction_form_on_any_lattice(case):
    mask, samples = case
    assert verify_refinability(mask, samples).nonzero_terms() == oracle.verify_refinability(
        mask, samples, samples.T
    ).terms()


@st.composite
def far_seeds(draw):
    """A derived member and a seed on Z/2 placed up to 3000 steps from the
    mask's window, often one sample, often with an odd window that misses 0."""
    mask, _ = draw(members())
    size = draw(st.integers(1, 5))
    values = draw(st.lists(rationals, min_size=size, max_size=size))
    offset = draw(st.integers(-3000, 3000))
    return mask, SampleSet(2, offset, values)


@settings(max_examples=40, deadline=None)
@given(far_seeds())
def test_residuals_of_far_seeds_match_the_fraction_forms(case):
    mask, samples = case
    for got, expected in residuals(mask, samples):
        assert got == expected
