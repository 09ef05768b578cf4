"""Numerical analysis of subdivision schemes.

Limit-function evaluation by exact iteration of the refinement equation,
difference-scheme contractivity bounds with the derived Holder lower bound,
polynomial reproduction degree, and curve subdivision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .construct import SolutionFamily
from .exactalg import LaurentPoly, convolve
from .samples import SampleSet
from .scheme import (
    Mask,
    divide_smoothing,
    factor_smoothing,
    limit_support,
    shift_parameter,
)


class SeedInconsistent(Exception):
    """The seed values do not satisfy the refinement equation on their lattice."""


class NoContractivePoint(Exception):
    """No sampled parameter in the search interval was contractive."""


@dataclass(frozen=True)
class LatticeFunction:
    """Values phi((offset + i)/denominator); zero outside the stored window."""

    denominator: int
    offset: int
    values: tuple

    def value_at_index(self, i: int):
        j = i - self.offset
        if 0 <= j < len(self.values):
            return self.values[j]
        return Fraction(0)

    @property
    def is_exact(self) -> bool:
        return not self.values or isinstance(self.values[0], Fraction)


@dataclass(frozen=True)
class RegularityReport:
    """Per-level contraction bounds of the order-(k+1) difference scheme.

    ``bounds[L-1]`` is the L-th root of the infinity norm of the L-times
    iterated difference scheme; contractivity at any level certifies C^k
    membership and yields the Holder lower bound k - log_m(best bound).
    """

    order: int
    levels: int
    bounds: tuple[float, ...]
    contractive: bool
    holder_lower_bound: float | None


@dataclass(frozen=True)
class Polyline:
    parameters: tuple[float, ...]
    points: tuple[tuple[float, float], ...]


def refine_values(mask: Mask, seed: SampleSet, depth: int) -> LatticeFunction:
    """Values of the limit function on Z/(T m^depth) via the refinement equation.

    On the lattice Z/Q the refinement equation phi(x) = sum_k a_k
    phi(m x - k + tau) reads V'(z) = z^{-tau Q} A(z^Q) V(z), where
    V(z) = sum_q phi(q/Q) z^q, V' the same on Z/(mQ), A(z) = sum_k a_k z^k;
    each level is that one product.  Depth 0 returns the seed as a
    LatticeFunction.  Raises SeedInconsistent when the seed leaves the limit
    support or when the first level does not reproduce the seed at the seed's
    own lattice points; depth 0 runs that level for the check alone.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    m = mask.arity
    tau = shift_parameter(mask)
    tau_T = tau * seed.T
    if tau_T.denominator != 1:
        raise ValueError(f"tau*T = {tau_T} is not an integer")

    lo, hi = limit_support(mask)
    s_lo, s_hi = seed.support
    if seed.values and (s_lo < lo or s_hi > hi):
        raise SeedInconsistent(
            f"seed support [{s_lo}, {s_hi}] exceeds the limit support [{lo}, {hi}]"
        )
    Q = seed.T
    n_lo = math.ceil(lo * Q)
    values = [seed.value_at_index(i) for i in range(n_lo, math.floor(hi * Q) + 1)]

    for level in range(max(depth, 1)):
        Q2 = Q * m
        n_lo2 = math.ceil(lo * Q2)
        # it starts at k_l Q + n_lo - tau Q = n_lo2; pad an empty window's end
        new = convolve(mask.coeffs, values, Q)
        new += [Fraction(0)] * (math.floor(hi * Q2) + 1 - n_lo2 - len(new))
        if level == 0:
            # the seed point alpha/Q is entry m alpha - n_lo2 of the new level
            for alpha, (v, w) in enumerate(zip(values, new[m * n_lo - n_lo2 :: m]), n_lo):
                if w != v:
                    raise SeedInconsistent(f"refinement equation fails at {alpha}/{Q}: {v} != {w}")
            if depth == 0:
                break
        values, Q, n_lo = new, Q2, n_lo2
    return LatticeFunction(Q, n_lo, tuple(values))


def difference_scheme(mask: Mask, order: int) -> Mask:
    """Mask of the order-k difference scheme.

    Its symbol is m^k (1-z)^k (1-z^m)^{-k} A(z), which is exactly the
    quotient of A by the k-th power of the smoothing factor; raises
    NotDivisible when the factorization does not exist.
    """
    if order == 0:
        return mask
    b = factor_smoothing(mask, order)
    scaled = b * mask.arity
    return Mask(mask.arity, scaled.offset, scaled.coeffs)


def _iterated_norms(coeffs: Sequence, m: int, levels: int) -> list:
    """Infinity norms of the L-times iterated scheme, L = 1..levels.

    The iterate's symbol is the product p(z) p(z^m) ... p(z^{m^{L-1}}); the
    norm is the largest absolute coefficient sum over residue classes mod m^L.
    A shift of p only permutes those classes, so its offset does not matter.
    Works for exact (Fraction) and float coefficients alike.
    """
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    norms, q = [], [1]
    for level in range(1, levels + 1):
        q = convolve(coeffs, q, m ** (level - 1))
        modulus = m**level
        # a class sum starts from its first entry, so no zero is added
        classes = range(min(modulus, len(q)))
        norms.append(max(sum(map(abs, q[r + modulus :: modulus]), abs(q[r])) for r in classes))
    return norms


def contractivity_bound(mask: Mask, order: int, levels: int) -> RegularityReport:
    """Contraction analysis of the order-(order+1) difference scheme.

    Exact arithmetic throughout; only the reported L-th roots are floats.
    Contractivity of any level certifies C^order membership with Holder lower
    bound order - log_m(best bound).
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    p = factor_smoothing(mask, order + 1)
    norms = _iterated_norms(p.coeffs, mask.arity, levels)
    bounds = tuple(float(n) ** (1.0 / L) for L, n in enumerate(norms, start=1))
    contractive = any(n < 1 for n in norms)
    holder = None
    if contractive:
        holder = order - math.log(min(bounds)) / math.log(mask.arity)
    return RegularityReport(order, levels, bounds, contractive, holder)


def _family_difference_parts(
    family: SolutionFamily, order: int
) -> tuple[LaurentPoly, LaurentPoly]:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if family.dimension != 1:
        raise ValueError("parameter sweeps need a one-dimensional family")
    m = family.problem.m
    dp = factor_smoothing(family.particular, order + 1)
    dv = divide_smoothing(family.basis[0] * Fraction(1, m), m, order + 1)
    return dp, dv


def _line_best_bound(
    dp: LaurentPoly, dv: LaurentPoly, m: int, levels: int, t: float
) -> float:
    """Best (smallest) rooted norm over levels for the member at parameter t."""
    lo = min(dp.offset, dv.offset)
    hi = max(dp.offset + len(dp.coeffs), dv.offset + len(dv.coeffs))
    coeffs = [
        float(dp.coefficient(e)) + t * float(dv.coefficient(e)) for e in range(lo, hi)
    ]
    norms = _iterated_norms(coeffs, m, levels)
    return min(n ** (1.0 / L) for L, n in enumerate(norms, start=1))


def contractivity_profile(
    family: SolutionFamily,
    order: int,
    levels: int,
    parameters: Sequence[float],
) -> list[tuple[float, float]]:
    """(parameter, best rooted norm bound) along a one-parameter family."""
    dp, dv = _family_difference_parts(family, order)
    m = family.problem.m
    return [(t, _line_best_bound(dp, dv, m, levels, t)) for t in parameters]


def contractivity_range(
    family: SolutionFamily,
    order: int,
    levels: int,
    search_interval: tuple[float, float],
    *,
    grid: int = 129,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Endpoints of the contractive parameter interval of a 1-parameter family.

    Samples the search interval, requires the contractive set to be one
    contiguous block (raises NoContractivePoint when empty, ValueError when
    split), then bisects each crossing of the best level bound through 1 down
    to the requested parameter tolerance.  Endpoints clamp to the search
    interval when the contractive region touches it.
    """
    dp, dv = _family_difference_parts(family, order)
    m = family.problem.m

    def contractive(t: float) -> bool:
        return _line_best_bound(dp, dv, m, levels, t) < 1.0

    a, b = search_interval
    if not a < b:
        raise ValueError("empty search interval")
    ts = [a + (b - a) * i / (grid - 1) for i in range(grid)]
    flags = [contractive(t) for t in ts]
    if not any(flags):
        raise NoContractivePoint(
            f"no contractive parameter among {grid} samples in [{a}, {b}]"
        )
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    if not all(flags[first : last + 1]):
        raise ValueError("contractive set is not an interval on the sample grid")

    def bisect(lo: float, hi: float, lo_state: bool) -> float:
        # invariant: contractivity flips somewhere between lo and hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if contractive(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    left = ts[first] if first == 0 else bisect(ts[first - 1], ts[first], False)
    right = ts[last] if last == len(ts) - 1 else bisect(ts[last], ts[last + 1], True)
    return left, right


def reproduction_degree(
    mask: Mask,
    seed: SampleSet,
    max_degree: int,
    depth: int,
    tol: float,
) -> int:
    """Largest D <= max_degree with sum_k k^e phi(x-k) = x^e within tol for
    all e <= D at every lattice point of refine_values(depth).

    Returns -1 when even constants are not reproduced within tolerance.
    """
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")
    lf = refine_values(mask, seed, depth)
    Q = lf.denominator
    lo_i = lf.offset
    hi_i = lf.offset + len(lf.values) - 1
    for e in range(max_degree + 1):
        for i, _ in enumerate(lf.values):
            p = lo_i + i
            # k with p - k*Q inside the stored window
            k_lo = math.ceil(Fraction(p - hi_i, Q))
            k_hi = math.floor(Fraction(p - lo_i, Q))
            acc = Fraction(0)
            for k in range(k_lo, k_hi + 1):
                acc += (k**e) * lf.value_at_index(p - k * Q)
            if abs(acc - Fraction(p, Q) ** e) > tol:
                return e - 1
    return max_degree


def _subdivide_once(
    mask: Mask, pts: list[tuple[float, ...]], first: int, closed: bool
) -> tuple[list[tuple[float, ...]], int]:
    """One step c'(z) = A(z) c(z^m) per coordinate, A(z) = sum_k a_k z^k.

    Open polygons index c' from m*first + k_l.  A closed polygon of n points
    is periodic: c' is the product mod z^{mn} - 1, indexed from 0.
    """
    m = mask.arity
    weights = [float(c) for c in mask.coeffs]
    columns = [convolve(coords, weights, m) for coords in zip(*pts)]
    if not closed:
        return list(zip(*columns)), m * first + mask.k_left
    n = m * len(pts)
    # column entry i is the coefficient of z^(i + k_l)
    padded = [[0.0] * (mask.k_left % n) + c for c in columns]
    return [tuple(sum(c[r::n], 0.0) for c in padded) for r in range(n)], 0


def subdivide_points(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> tuple[list[float], list[tuple[float, ...]]]:
    """Apply the subdivision operator ``steps`` times to control points.

    Returns (parameters, points).  The level-j index n is attached to the
    parameter (n - tau (m^j - 1)/(m - 1)) / m^j, the fixed point of the
    refinement parameter map; consecutive parameters differ by m^{-j}.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if len(control) < 2:
        raise ValueError("need at least two control points")
    pts = [tuple(float(x) for x in p) for p in control]
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("control points must share one dimension")
    m = mask.arity
    tau = shift_parameter(mask)
    first = 0
    for _ in range(steps):
        pts, first = _subdivide_once(mask, pts, first, closed)
    drift = tau * (m**steps - 1) / (m - 1)
    scale = Fraction(m) ** steps
    params = [float((n - drift) / scale) for n in range(first, first + len(pts))]
    return params, pts


def subdivide_curve(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> Polyline:
    """Subdivide 2D control points ``steps`` times; see subdivide_points."""
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    if pts and len(pts[0]) != 2:
        raise ValueError("curve subdivision expects 2D points")
    return Polyline(tuple(params), tuple(pts))
