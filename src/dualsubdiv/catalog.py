"""Reference dual interpolatory schemes for regression testing.

These are closed-form masks and families the construction pipeline must
re-derive exactly: the ternary Cantor-function scheme, the ternary scheme
built from 4-point data with cubic reproduction, the one-parameter quinary
family, and the quaternary family with its cubic and quartic reproduction
specializations.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import ConstructionProblem, SolutionFamily
from .exactalg import RationalLike, rat
from .samples import SampleSet, dd_samples
from .scheme import Mask

F = Fraction


def cantor_mask() -> Mask:
    """Ternary mask {1/2, 1, 1, 1/2}; its limit function is glued from the
    ascending Cantor function, a constant-1 plateau and the descending one."""
    return Mask(3, -1, [F(1, 2), 1, 1, F(1, 2)])


def cantor_samples() -> SampleSet:
    """Z/2 values of the Cantor-scheme limit function: deltas plus 1/2 at +-1/2.

    Identical to dd_samples(1), the two-point (piecewise linear) data.
    """
    return SampleSet(2, -1, [F(1, 2), 1, F(1, 2)])


def ternary_cubic_mask() -> Mask:
    """The unique symmetric ternary dual interpolatory mask on {-6, ..., 7}
    built from 4-point lattice values; reproduces cubic polynomials."""
    half = [
        F(13, 1296),
        F(-11, 648),
        F(-1, 16),
        F(-107, 1296),
        F(179, 1296),
        F(9, 16),
        F(137, 144),
    ]
    return Mask(3, -6, half + list(reversed(half)))


def ternary_cubic_problem() -> ConstructionProblem:
    return ConstructionProblem(3, 4, 7, dd_samples(2), True)


def quinary_family_mask(w: RationalLike) -> Mask:
    """Member of the one-parameter quinary dual interpolatory family on
    {-9, ..., 10} built from 4-point lattice values; reproduces quadratics."""
    w = rat(w)
    half = [
        w / 400,
        9 * w / 400,
        F(-1, 16),
        -9 * w / 400 - F(21, 200),
        -w / 400 - F(9, 200),
        F(11, 200) - 3 * w / 400,
        F(39, 200) - 27 * w / 400,
        F(9, 16),
        27 * w / 400 + F(91, 100),
        3 * w / 400 + F(99, 100),
    ]
    return Mask(5, -9, half + list(reversed(half)))


def quinary_problem() -> ConstructionProblem:
    return ConstructionProblem(5, 3, 10, dd_samples(2), True)


def quinary_reference_family() -> SolutionFamily:
    """The quinary family parametrized directly by the coordinate w."""
    p0 = quinary_family_mask(0)
    p1 = quinary_family_mask(1)
    direction = p1.poly - p0.poly
    return SolutionFamily(quinary_problem(), p0, (direction,))


def blended_samples(w: RationalLike) -> SampleSet:
    """Closed form of the 4-point/6-point blended lattice values on Z/2."""
    w = rat(w)
    return SampleSet(
        2,
        -5,
        [
            3 * w / 256,
            0,
            -9 * w / 256 - F(1, 16),
            0,
            3 * w / 128 + F(9, 16),
            1,
            3 * w / 128 + F(9, 16),
            0,
            -9 * w / 256 - F(1, 16),
            0,
            3 * w / 256,
        ],
    )


def quaternary_family_mask(w: RationalLike, v: RationalLike, u: RationalLike) -> Mask:
    """Member of the quaternary dual interpolatory family on {-10, ..., 11}
    built from blended_samples(w); (v, u) are the two free directions."""
    w, v, u = rat(w), rat(v), rat(u)
    den = (w + 24) * (3 * w + 4)
    if den == 0:
        raise ValueError("family is undefined at w = -24 and w = -4/3")
    half = [
        -w * (12 * (5 * w + 8) * v + 4 * (9 * w + 16) * u - 3 * (155 * w + 48))
        / (1024 * den),
        -(9 * w + 16)
        * (12 * (5 * w + 8) * v + 4 * (9 * w + 16) * u - 3 * (155 * w + 48))
        / (3072 * den),
        -(6 * v + 4 * u - 9) / 128,
        v / 64,
        (
            12 * (63 * w**2 - 376 * w - 6784) * v
            + 4 * (99 * w**2 - 1344 * w - 20480) * u
            - 3 * (2307 * w**2 + 176 * w - 61440)
        )
        / (3072 * den),
        (
            12 * (117 * w**2 + 904 * w + 7168) * v
            + 4 * (225 * w**2 + 2352 * w + 21248) * u
            - 3 * (3633 * w**2 + 18112 * w + 75264)
        )
        / (3072 * den),
        (8 * v + 6 * u - 17) / 64,
        u / 32,
        -(
            3 * (27 * w**2 - 712 * w - 10240) * v
            + (27 * w**2 - 2304 * w - 30848) * u
            - 3 * (441 * w**2 + 2102 * w - 19968)
        )
        / (384 * den),
        -(
            3 * (11 * w**2 + 296 * w + 3456) * v
            + (27 * w**2 + 880 * w + 10368) * u
            - (453 * w**2 + 9530 * w + 33888)
        )
        / (128 * den),
        -3 * (4 * v + 4 * u - 51) / 128,
    ]
    return Mask(4, -10, half + list(reversed(half)))


def quaternary_problem(w: RationalLike) -> ConstructionProblem:
    return ConstructionProblem(4, 3, 11, blended_samples(w), True)


def quaternary_cubic_params(w: RationalLike) -> tuple[Fraction, Fraction]:
    """(v, u) giving cubic polynomial reproduction for any blend weight w."""
    w = rat(w)
    v = 3 * (381 * w**2 + 246 * w - 5744) / (512 * (3 * w + 40))
    u = 9 * (-127 * w**2 + 54 * w + 3728) / (256 * (3 * w + 40))
    return v, u


QUARTIC_POINT: tuple[Fraction, Fraction, Fraction] = (F(1), F(-357, 512), F(765, 256))

# half mask of the unique member reproducing degree-4 polynomials, a frozen
# regression anchor for quaternary_family_mask(*QUARTIC_POINT)
QUARTIC_HALF_NUMERATORS = (
    2145,
    17875,
    8820,
    -9996,
    -39985,
    -127595,
    -66640,
    85680,
    325754,
    739310,
    899640,
)
QUARTIC_DENOMINATOR = 917504


def quaternary_quartic_mask() -> Mask:
    """The unique quaternary family member reproducing degree-4 polynomials."""
    return quaternary_family_mask(*QUARTIC_POINT)
