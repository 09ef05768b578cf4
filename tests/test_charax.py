from fractions import Fraction as F

import pytest

from dualsubdiv import catalog, charax
from dualsubdiv.charax import (
    ArityTwoUnsupported,
    ShiftLatticeMismatch,
    ShiftMismatch,
    verify_dual_interpolatory,
    verify_lemma_form,
    verify_refinability,
)
from dualsubdiv.samples import SampleSet, dd_samples
from dualsubdiv.scheme import Mask
from oracle import perturbed


CASES = [
    ("cantor", catalog.cantor_mask(), catalog.cantor_samples()),
    ("ternary", catalog.ternary_cubic_mask(), dd_samples(2)),
    ("quinary-w0", catalog.quinary_family_mask(0), dd_samples(2)),
    ("quinary-w-7/5", catalog.quinary_family_mask(F(-7, 5)), dd_samples(2)),
    ("quaternary-quartic", catalog.quaternary_quartic_mask(), catalog.blended_samples(1)),
    (
        "quaternary-cubic-w1/2",
        catalog.quaternary_family_mask(F(1, 2), *catalog.quaternary_cubic_params(F(1, 2))),
        catalog.blended_samples(F(1, 2)),
    ),
]


@pytest.mark.parametrize("name,mask,samples", CASES, ids=[c[0] for c in CASES])
def test_dual_identity_holds(name, mask, samples):
    assert verify_dual_interpolatory(mask, samples).satisfied


@pytest.mark.parametrize("name,mask,samples", CASES, ids=[c[0] for c in CASES])
def test_lemma_form_agrees(name, mask, samples):
    assert verify_lemma_form(mask, samples).satisfied


@pytest.mark.parametrize("name,mask,samples", CASES, ids=[c[0] for c in CASES])
def test_refinability_follows(name, mask, samples):
    assert verify_refinability(mask, samples, 2).satisfied


def _odd_indices(samples):
    lo = samples.offset
    hi = samples.offset + len(samples.values) - 1
    return [i for i in range(lo, hi + 1) if i % 2 != 0]


@pytest.mark.parametrize("name,mask,samples", CASES, ids=[c[0] for c in CASES])
def test_any_half_integer_perturbation_breaks_identity(name, mask, samples):
    for idx in _odd_indices(samples):
        broken = perturbed(samples, idx, F(1, 100))
        residual = verify_dual_interpolatory(mask, broken)
        assert not residual.satisfied
        assert residual.nonzero_terms()
        # the intermediate form must flag the same failure
        assert not verify_lemma_form(mask, broken).satisfied


def test_integer_perturbation_breaks_refinability():
    samples = perturbed(dd_samples(2), 2, F(1, 100))
    assert not verify_refinability(catalog.ternary_cubic_mask(), samples, 2).satisfied


def test_identity_product_cap_is_checked_before_the_product(monkeypatch):
    # a cap of exactly the product A(z^2) V(z) lets it through; one less refuses it
    mask, samples = catalog.ternary_cubic_mask(), dd_samples(2)
    size = 2 * (len(mask.coeffs) - 1) + len(samples.values)
    monkeypatch.setattr(charax, "MAX_POINTS", size)
    assert verify_refinability(mask, samples).satisfied
    monkeypatch.setattr(charax, "MAX_POINTS", size - 1)
    with pytest.raises(ValueError, match=f"would hold {size} entries, more than {size - 1}"):
        verify_refinability(mask, samples)
    with pytest.raises(ValueError, match=f"more than {size - 1}"):
        verify_dual_interpolatory(mask, samples)


def test_zero_half_values_fail_lemma():
    # with no half-integer data the right side keeps the lone sub-symbol term
    delta_only = SampleSet(2, 0, [1])
    residual = verify_lemma_form(catalog.cantor_mask(), delta_only)
    assert not residual.satisfied


def test_arity_two_rejected():
    mask = Mask(2, 0, [1, 1])  # tau = 1/2 box scheme
    with pytest.raises(ArityTwoUnsupported):
        verify_dual_interpolatory(mask, dd_samples(2))
    with pytest.raises(ArityTwoUnsupported):
        verify_lemma_form(mask, dd_samples(2))


def test_shift_mismatch_rejected():
    primal = Mask(3, -1, [1, 1, 1])  # tau = 0
    with pytest.raises(ShiftMismatch):
        verify_dual_interpolatory(primal, dd_samples(2))


def test_wrong_lattice_rejected():
    with pytest.raises(ValueError):
        verify_dual_interpolatory(catalog.cantor_mask(), SampleSet(4, 0, [1]))


def test_refinability_needs_integral_tau_lattice():
    coarse = SampleSet(1, 0, [1])
    with pytest.raises(ShiftLatticeMismatch):
        verify_refinability(catalog.cantor_mask(), coarse, 1)


def test_refinability_on_integer_lattice_for_primal_mask():
    # tau = 0 schemes admit T = 1; the hat-function values satisfy refinability
    hat = Mask(2, -1, [F(1, 2), 1, F(1, 2)])
    values = SampleSet(1, 0, [1])
    assert verify_refinability(hat, values, 1).satisfied


def test_residual_is_exact():
    broken = perturbed(dd_samples(2), 3, F(1, 100))
    residual = verify_dual_interpolatory(catalog.ternary_cubic_mask(), broken)
    coeffs = dict(residual.nonzero_terms())
    assert all(isinstance(c, F) for c in coeffs.values())
    assert any(c != 0 for c in coeffs.values())
