"""Numerical analysis of subdivision schemes.

Limit-function evaluation by exact iteration of the refinement equation,
difference-scheme contractivity bounds with the derived Holder lower bound,
polynomial reproduction degree, and curve subdivision.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .construct import SolutionFamily
from .exactalg import MAX_POINTS, convolve
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
    """Values phi((offset + i)/denominator) = numerators[i]/scale; zero outside
    the stored window.

    The lattice is integer numerators over one scale with
    gcd(scale, *numerators) == 1, so the pair equals
    ``exactalg.numerators(values)`` and equality of lattices is equality of
    values.  ``values`` builds the reduced Fractions on its first read.
    """

    denominator: int
    offset: int
    scale: int
    numerators: tuple[int, ...]

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.numerators)

    def value_at_index(self, i: int):
        j = i - self.offset
        if 0 <= j < len(self.values):
            return self.values[j]
        return Fraction(0)

    @property
    def is_exact(self) -> bool:
        """Always true; ``perfbench/tracing.py`` reads it by name."""
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
    each level is that one product.  It runs on the stored integer
    numerators: with D the mask's denominator and S the seed's, level L
    holds ints over S D^L, and the product of the integer mask D a_k with
    level L is level L+1.  The returned lattice keeps
    the last level's numerators, divided with their scale by their gcd; no
    Fraction is built until a caller reads ``values``.  Depth 0 returns the
    seed as a LatticeFunction.
    Raises SeedInconsistent when the seed leaves the limit support or when the
    first level does not reproduce the seed at the seed's own lattice points;
    depth 0 runs that level for the check alone.  Raises ValueError, before
    any level runs, when the lattice would hold more than MAX_POINTS points
    or, for a one-point support, whose lattice never fills, be finer than
    Z/((MAX_POINTS + 1)(m - 1)).
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
    if not seed.poly.is_zero and (s_lo < lo or s_hi > hi):
        raise SeedInconsistent(
            f"seed support [{s_lo}, {s_hi}] exceeds the limit support [{lo}, {hi}]"
        )
    # a support of positive length is at least 1/(m-1) long, so its lattice
    # meets the point cap no later than Q passes this bound
    finest = (MAX_POINTS + 1) * (m - 1)
    q = seed.T
    for _ in range(depth):
        q *= m
        if math.floor(hi * q) - math.ceil(lo * q) >= MAX_POINTS:
            raise ValueError(f"a lattice of depth {depth} would hold more than {MAX_POINTS} points")
        if q > finest:
            raise ValueError(f"a lattice of depth {depth} would be finer than Z/{finest}")
    D, coeffs = mask.poly.denominator, mask.poly.numerators
    Q = seed.T
    n_lo = math.ceil(lo * Q)
    scale, start = seed.poly.denominator, seed.offset - n_lo
    values = [0] * (math.floor(hi * Q) + 1 - n_lo)
    values[start : start + len(seed.poly.numerators)] = seed.poly.numerators

    for level in range(max(depth, 1)):
        Q2 = Q * m
        n_lo2 = math.ceil(lo * Q2)
        # it starts at k_l Q + n_lo - tau Q = n_lo2; pad an empty window's end
        new = convolve(coeffs, values, Q)
        new += [0] * (math.floor(hi * Q2) + 1 - n_lo2 - len(new))
        if level == 0:
            # the seed point alpha/Q is entry m alpha - n_lo2 of the new level
            for alpha, (v, w) in enumerate(zip(values, new[m * n_lo - n_lo2 :: m]), n_lo):
                if w != v * D:
                    raise SeedInconsistent(
                        f"refinement equation fails at {alpha}/{Q}: "
                        f"{Fraction(v, scale)} != {Fraction(w, scale * D)}"
                    )
            if depth == 0:
                break
        values, Q, n_lo, scale = new, Q2, n_lo2, scale * D
    g = math.gcd(scale, *values)
    return LatticeFunction(Q, n_lo, scale // g, tuple(v // g for v in values))


def difference_scheme(mask: Mask, order: int) -> Mask:
    """Mask of the order-k difference scheme.

    Its symbol is m^k (1-z)^k (1-z^m)^{-k} A(z), which is exactly the
    quotient of A by the k-th power of the smoothing factor; raises
    NotDivisible when the factorization does not exist.
    """
    if order == 0:
        return mask
    return Mask.from_poly(mask.arity, factor_smoothing(mask, order) * mask.arity)


def _iterated_norms(coeffs: Sequence, m: int, levels: int) -> Iterator:
    """Infinity norms of the L-times iterated scheme, yielded for L = 1..levels.

    The iterate's symbol is the product p(z) p(z^m) ... p(z^{m^{L-1}}); the
    norm is the largest absolute coefficient sum over residue classes mod m^L.
    A shift of p only permutes those classes, so its offset does not matter.
    Each level takes ``abs`` once and adds the m^L-long blocks of the
    iterate in order, so class r sums |q_r| + |q_{r+m^L}| + ... from left to
    right, starting from its first entry.  Lazy, so a caller may stop after
    any level; the callers check ``levels`` first.
    Type-generic: integer numerators over a common denominator D give the
    norms as ints over D^L, and float coefficients give float norms.
    """
    q = [1]
    for level in range(1, levels + 1):
        q = convolve(coeffs, q, m ** (level - 1))
        modulus = m**level
        a = list(map(abs, q))
        sums = a[:modulus]
        for start in range(modulus, len(a), modulus):
            block = a[start : start + modulus]
            sums[: len(block)] = map(operator.add, sums, block)
        yield max(sums)


def _check_order_levels(order: int, levels: int) -> None:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")


def contractivity_bound(mask: Mask, order: int, levels: int) -> RegularityReport:
    """Contraction analysis of the order-(order+1) difference scheme.

    Exact arithmetic throughout; only the reported L-th roots are floats.
    The iterated norms run on the integer numerators D p_k of the difference
    symbol over its denominator D, so the level-L norm is an int n over D^L,
    and contractivity is n < D^L, decided exactly.  Contractivity of any
    level certifies C^order membership with Holder lower bound
    order - log_m(best bound).  Raises OverflowError when a norm n / D^L is
    beyond the float range.
    """
    _check_order_levels(order, levels)
    p = factor_smoothing(mask, order + 1)
    norms = list(enumerate(_iterated_norms(p.numerators, mask.arity, levels), start=1))
    contractive = any(n < p.denominator**L for L, n in norms)
    bounds = tuple((n / p.denominator**L) ** (1.0 / L) for L, n in norms)
    holder = None
    if contractive:
        holder = order - math.log(min(bounds)) / math.log(mask.arity)
    return RegularityReport(order, levels, bounds, contractive, holder)


def _family_difference_parts(
    family: SolutionFamily, order: int
) -> tuple[list[float], list[float]]:
    """Float coefficients of the particular and direction difference symbols
    on their common window; the member at t has coefficients a + t b."""
    if family.dimension != 1:
        raise ValueError("parameter sweeps need a one-dimensional family")
    m = family.problem.m
    dp = factor_smoothing(family.particular, order + 1)
    dv = divide_smoothing(family.basis[0] * Fraction(1, m), m, order + 1)
    lo = min(dp.offset, dv.offset)
    hi = max(dp.offset + len(dp.numerators), dv.offset + len(dv.numerators))
    return tuple(
        [0.0] * (p.offset - lo)
        + [x / p.denominator for x in p.numerators]
        + [0.0] * (hi - p.offset - len(p.numerators))
        for p in (dp, dv)
    )


def _line_norms(
    dp: list[float], dv: list[float], m: int, levels: int, t: float
) -> Iterator[float]:
    """Rooted norms, level by level, of the member at parameter t."""
    norms = _iterated_norms([a + t * b for a, b in zip(dp, dv)], m, levels)
    return (n ** (1.0 / L) for L, n in enumerate(norms, start=1))


def contractivity_profile(
    family: SolutionFamily,
    order: int,
    levels: int,
    parameters: Sequence[float],
) -> list[tuple[float, float]]:
    """(parameter, best rooted norm bound) along a one-parameter family."""
    _check_order_levels(order, levels)
    dp, dv = _family_difference_parts(family, order)
    m = family.problem.m
    return [(t, min(_line_norms(dp, dv, m, levels, t))) for t in parameters]


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
    to the requested parameter tolerance.  A parameter is contractive once
    one level's rooted norm is below 1; the later levels are not computed.
    Endpoints clamp to the search interval when the contractive region
    touches it.
    """
    _check_order_levels(order, levels)
    dp, dv = _family_difference_parts(family, order)
    m = family.problem.m

    def contractive(t: float) -> bool:
        return any(b < 1.0 for b in _line_norms(dp, dv, m, levels, t))

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

    The comb sums run on the lattice's integer numerators N over their scale
    S: for each degree e and each shift |k| <= K, K the largest shift inside
    the window, k^e N is added into the part of the n-entry window that N
    shifted by k Q reaches.  Each point's sum is compared with x^e exactly,
    as |acc Q^e - p^e S| t_den > t_num S Q^e for tol = t_num/t_den.
    Returns -1 when even constants are not reproduced within tolerance.  tol
    must be finite and nonnegative; 0 asks for exact reproduction.
    """
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    lf = refine_values(mask, seed, depth)
    Q, scale, nums = lf.denominator, lf.scale, lf.numerators
    n = len(nums)
    K = (n - 1) // Q
    t_num, t_den = tol.as_integer_ratio()
    points = range(lf.offset, lf.offset + n)
    for e in range(max_degree + 1):
        # entry i sums k^e nums[i - k Q], i.e. k^e phi(p/Q - k)
        combs = [0] * n
        for k in range(-K, K + 1):
            c = k**e
            if c == 0:
                continue
            if k >= 0:
                combs[k * Q :] = [acc + c * v for acc, v in zip(combs[k * Q :], nums)]
            else:
                combs[: n + k * Q] = [acc + c * v for acc, v in zip(combs, nums[-k * Q :])]
        Qe = Q**e
        bound = t_num * scale * Qe
        for p, acc in zip(points, combs):
            if abs(acc * Qe - p**e * scale) * t_den > bound:
                return e - 1
    return max_degree


def _subdivide_once(
    mask: Mask, pts: list[tuple[float, ...]], first: int, closed: bool
) -> tuple[list[tuple[float, ...]], int]:
    """One step c'(z) = A(z) c(z^m) per coordinate, A(z) = sum_k a_k z^k.

    The step is m polyphase rules c'_{mj+l} = sum_i a_{l+mi} c_{j-i}: each
    weight a_l adds its multiple of the coordinates into every m-th entry
    from l.  Taking l downwards adds the products of an entry in ascending
    order of the point index j, starting from 0.0, so a zero is never
    signed.  Open polygons index c' from m*first + k_l.  A closed polygon of
    n points is periodic: c' is the product mod z^{mn} - 1, indexed from 0,
    and its mn-long blocks are added in order, each entry as a left fold
    from 0.0, so the floats do not depend on the interpreter's ``sum``.
    """
    m, n = mask.arity, len(pts)
    weights = [x / mask.poly.denominator for x in mask.poly.numerators]
    span = m * n
    columns = []
    for coords in zip(*pts):
        full = [0.0] * (m * (n - 1) + len(weights))
        for l in reversed(range(len(weights))):
            w = weights[l]
            full[l : l + span : m] = [o + y * w for o, y in zip(full[l : l + span : m], coords)]
        columns.append(full)
    if not closed:
        return list(zip(*columns)), m * first + mask.k_left
    wrapped = []
    for full in columns:
        # entry i is the coefficient of z^(i + k_l)
        padded = [0.0] * (mask.k_left % span) + full
        sums = [0.0] * span
        for start in range(0, len(padded), span):
            block = padded[start : start + span]
            sums[: len(block)] = map(operator.add, sums, block)
        wrapped.append(sums)
    return list(zip(*wrapped)), 0


def subdivide_points(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> tuple[list[float], list[tuple[float, ...]]]:
    """Apply the subdivision operator ``steps`` times to control points.

    Returns (parameters, points).  The level-j index n is attached to the
    parameter (n - tau (m^j - 1)/(m - 1)) / m^j, the fixed point of the
    refinement parameter map; consecutive parameters differ by m^{-j}.
    Raises ValueError, before any step runs, when the result would hold more
    than MAX_POINTS points.
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
    size = len(pts)
    for _ in range(steps):
        size = m * size if closed else m * (size - 1) + len(mask.poly.numerators)
        if size > MAX_POINTS:
            raise ValueError(f"a polyline of {steps} steps would hold more than {MAX_POINTS} points")
    tau = shift_parameter(mask)
    first = 0
    for _ in range(steps):
        pts, first = _subdivide_once(mask, pts, first, closed)
    drift = tau * (m**steps - 1) / (m - 1)
    # (n - drift) / m^steps as one correctly rounded int division
    den = drift.denominator * m**steps
    params = [
        (n * drift.denominator - drift.numerator) / den
        for n in range(first, first + len(pts))
    ]
    return params, pts


def subdivide_curve(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> Polyline:
    """Subdivide 2D control points ``steps`` times; see subdivide_points."""
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    if pts and len(pts[0]) != 2:
        raise ValueError("curve subdivision expects 2D points")
    return Polyline(tuple(params), tuple(pts))
