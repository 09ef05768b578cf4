from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.exactalg import LaurentPoly
from dualsubdiv.samples import (
    SampleSet,
    dd_samples,
    mix_samples,
    phi_poly,
    samples_from_shorthand,
)
from oracle import perturbed

DD4 = [F(-1, 16), F(0), F(9, 16), F(1), F(9, 16), F(0), F(-1, 16)]


def test_dd4_values():
    s = dd_samples(2)
    assert s.T == 2 and s.offset == -3
    assert list(s.values) == DD4


def _lagrange_midpoint_weights(n):
    # independent oracle: interpolate delta data on the 2n nearest integers
    nodes = list(range(1 - n, n + 1))
    weights = []
    for j in nodes:
        acc = F(1)
        for t in nodes:
            if t != j:
                acc *= F(F(1, 2) - t, j - t)
        weights.append(acc)
    return weights


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dd_half_integer_values_match_lagrange_oracle(n):
    s = dd_samples(n)
    weights = _lagrange_midpoint_weights(n)
    # phi(j + 1/2) equals the weight of the node -j
    for j in range(-n, n):
        assert s.value_at_index(2 * j + 1) == weights[-j - (1 - n)]


def test_dd6_half_values():
    s = dd_samples(3)
    halves = [s.value_at_index(2 * j + 1) for j in range(-3, 3)]
    assert halves == [
        F(3, 256), F(-25, 256), F(75, 128), F(75, 128), F(-25, 256), F(3, 256)
    ]


def test_dd2_is_linear_interpolation():
    s = dd_samples(1)
    assert list(s.values) == [F(1, 2), F(1), F(1, 2)]
    assert s == catalog.cantor_samples()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dd_symmetry_and_half_sum(n):
    s = dd_samples(n)
    assert list(s.values) == list(reversed(s.values))
    half_sum = sum(
        (s.value_at_index(2 * j + 1) for j in range(-n, n)), F(0)
    )
    assert half_sum == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dd_polynomial_exactness_at_midpoint(n):
    # sum_k pi(k) phi(1/2 - k) = pi(1/2) for degrees up to 2n-1
    s = dd_samples(n)
    for e in range(2 * n):
        total = sum(
            (F(k) ** e * s.value_at_index(1 - 2 * k) for k in range(-n - 1, n + 2)),
            F(0),
        )
        assert total == F(1, 2) ** e


def test_mix_endpoint_weights():
    dd4, dd6 = dd_samples(2), dd_samples(3)
    assert mix_samples(dd4, dd6, 0) == dd4
    assert mix_samples(dd4, dd6, 1) == dd6


def test_mix_half_weight_values():
    s = mix_samples(dd_samples(2), dd_samples(3), F(1, 2))
    assert s.value_at_index(5) == F(3, 512)
    assert s.value_at_index(3) == F(-41, 512)
    assert s.value_at_index(1) == F(147, 256)


@pytest.mark.parametrize("w", [F(0), F(1, 3), F(1, 2), F(1)])
def test_blended_closed_form_matches_mix(w):
    assert catalog.blended_samples(w) == mix_samples(dd_samples(2), dd_samples(3), w)


def test_mix_requires_matching_lattice():
    with pytest.raises(ValueError):
        mix_samples(dd_samples(2), SampleSet(4, 0, [1]), F(1, 2))


def test_phi_poly_delta_even_residues():
    delta = SampleSet(2, 0, [1])
    for m in (3, 4, 5):
        assert phi_poly(delta, m, 0) == LaurentPoly.constant(F(1, 2))
        for g in range(1, m):
            assert phi_poly(delta, m, 2 * g).is_zero


def test_phi_poly_dd4_odd_slice():
    p = phi_poly(dd_samples(2), 3, 1)
    assert p == LaurentPoly(1, [F(9, 32)])


def test_phi_poly_periodicity():
    s = dd_samples(2)
    for m in (3, 4):
        for n in range(-2, 2 * m * 2):
            assert phi_poly(s, m, n) == phi_poly(s, m, n + 2 * m)


@pytest.mark.parametrize("m", [3, 5])
def test_phi_polys_partition_the_sample_sequence(m):
    s = dd_samples(2)
    total = LaurentPoly.zero()
    for n in range(m * s.T):
        total = total + phi_poly(s, m, n)
    direct = LaurentPoly.from_terms(
        (s.offset + i, v / s.T) for i, v in enumerate(s.values) if v != 0
    )
    assert total == direct


def test_sample_set_lookup_and_perturb():
    s = dd_samples(2)
    assert s.value(F(3, 2)) == F(-1, 16)
    assert s.value(F(7, 2)) == 0
    with pytest.raises(ValueError):
        s.value(F(1, 3))
    bumped = perturbed(s, 1, F(1, 100))
    assert bumped.value_at_index(1) == F(9, 16) + F(1, 100)
    assert bumped.value_at_index(-1) == F(9, 16)


def test_sample_set_delta_check_and_round_trip():
    s = dd_samples(3)
    assert s.is_delta_at_integers()
    assert not perturbed(s, 2, F(1, 100)).is_delta_at_integers()
    assert SampleSet.from_dict(s.to_dict()) == s


def test_shorthands():
    assert samples_from_shorthand("dd4") == dd_samples(2)
    assert samples_from_shorthand("dd6") == dd_samples(3)
    assert samples_from_shorthand("dd:8") == dd_samples(4)
    assert samples_from_shorthand("mix:1/2") == mix_samples(
        dd_samples(2), dd_samples(3), F(1, 2)
    )
    assert samples_from_shorthand("somewhere/file.json") is None
    with pytest.raises(ValueError):
        samples_from_shorthand("dd:5")
