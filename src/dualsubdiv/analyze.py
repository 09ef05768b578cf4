"""Numerical analysis of subdivision schemes.

Limit-function evaluation by exact iteration of the refinement equation,
difference-scheme contractivity bounds with the derived Holder lower bound,
polynomial reproduction degree, and curve subdivision.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Sequence

from .charax import verify_refinability
from .construct import SolutionFamily
from .exactalg import LaurentPoly, convolve, refuse_growth
from .samples import SampleSet
from .scheme import Mask, factor_smoothing, limit_support, shift_parameter


class SeedInconsistent(ValueError):
    """The seed values do not satisfy the refinement equation on their lattice."""


class NoContractivePoint(ValueError):
    """No sampled parameter in the search interval was contractive."""


class GridOverflow(ValueError):
    """A parameter grid point lies beyond the float range."""


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


def lattice_window(support: tuple[Fraction, Fraction], Q: int) -> tuple[int, int]:
    """(first, n): the points first/Q, ..., (first + n - 1)/Q of Z/Q in
    [lo, hi] = ``support``, first = ceil(lo Q); on a mask's ``limit_support``
    they are a lattice's points, the zeros that a ``SampleSet`` trims included."""
    lo, hi = support
    first = math.ceil(lo * Q)
    return first, math.floor(hi * Q) + 1 - first


def refine_values(mask: Mask, seed: SampleSet, depth: int) -> SampleSet:
    """Values of the limit function on Z/(T m^depth) via the refinement equation.

    On the lattice Z/Q the refinement equation phi(x) = sum_k a_k
    phi(m x - k + tau) reads V'(z) = z^{-tau Q} A(z^Q) V(z), where
    V(z) = sum_q phi(q/Q) z^q, V' the same on Z/(mQ), A(z) = sum_k a_k z^k;
    each level is that one product, which starts k_l Q - tau Q after V.  It
    runs on the stored integer numerators: with D the mask's denominator and
    S the seed's, level L holds ints over S D^L, and the product of the
    integer mask D a_k with level L is level L+1.  The last level is a
    ``SampleSet`` on Z/(T m^depth), a seed of the same kind, whose store
    trims zero ends and divides out the common factor; no Fraction is built
    until a caller reads ``values``.  Depth 0 returns the seed's values.
    Raises SeedInconsistent when the seed leaves the limit support or when it
    fails ``charax.verify_refinability``, naming the first lattice point where
    one level does not reproduce it.  Raises ValueError, before any level
    runs, when ``exactalg.refuse_growth`` refuses the ``lattice_window`` of
    a Z/(T m^L) and when ``exactalg.refuse`` refuses the identity's product.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    m = mask.arity
    tau = shift_parameter(mask)
    tau_T = tau * seed.T
    if tau_T.denominator != 1:
        raise ValueError(f"tau*T = {tau_T} is not an integer")

    lo, hi = support = limit_support(mask)
    s_lo, s_hi = seed.support
    if not seed.poly.is_zero and (s_lo < lo or s_hi > hi):
        raise SeedInconsistent(
            f"seed support [{s_lo}, {s_hi}] exceeds the limit support [{lo}, {hi}]"
        )
    sizes = (lattice_window(support, seed.T * m**level)[1] for level in range(1, depth + 1))
    refuse_growth(m, seed.T, sizes, f"a lattice of depth {depth}", "points")
    residual = verify_refinability(mask, seed).nonzero_terms()
    if residual:
        # the first term, (m alpha, (v - w)/T), is at the first failing point
        e, c = residual[0]
        v = seed.value_at_index(e // m)
        raise SeedInconsistent(
            f"refinement equation fails at {e // m}/{seed.T}: {v} != {v - seed.T * c}"
        )
    D, coeffs = mask.poly.denominator, mask.poly.numerators
    Q, offset, values = seed.T, seed.offset, seed.poly.numerators
    for _ in range(depth):
        offset += mask.k_left * Q - tau_T.numerator * (Q // seed.T)
        values = convolve(coeffs, values, Q)
        Q *= m
    poly = LaurentPoly.from_numerators(offset, values, seed.poly.denominator * D**depth)
    return SampleSet.from_poly(Q, poly)


def _iterated_norms(coeffs: Sequence, m: int, levels: int) -> Iterator:
    """Infinity norms of the L-times iterated scheme, yielded for L = 1..levels.

    The iterate's symbol is q_L(z) = p(z) p(z^m) ... p(z^{m^{L-1}}); the
    norm is the largest absolute coefficient sum over residue classes mod
    m^L, whatever the offset of p.  Each level is one step
    q_L = q_{L-1}(z) p(z^s), s = m^{L-1}, from q_0 = [1], each entry the
    left-to-right sum of ``exactalg.convolve``.  A symbol with a zero, an
    infinite or a nan coefficient takes ``convolve(p, q, s)``.  Any other
    runs in s-long blocks, the last block of q_{L-1} padded with zeros:
    output block w sums p_k times block w - k in ascending k, the blocks
    that take every block of q_{L-1} in one ``_combine`` call and each edge
    block in one call over the blocks that meet it.  A padded term, a
    finite nonzero p_k times a zero, is a zero: it can change only the sign
    of a zero entry, which the norm's ``abs`` drops.  A palindromic p has
    palindromic iterates, whose first ceil(N/2) entries are built and then
    mirrored.  ``_norm`` sums each class from left to right and compares
    the classes in order.  Lazy, so a caller may stop after any level; the
    callers check ``levels`` and the iterate's size first
    (``_difference_symbols``).  Integer numerators over a common
    denominator D give the norms as ints over D^L, floats give floats.
    """
    n = len(coeffs)
    blocked = all(c and c * 0 == 0 for c in coeffs)
    palindrome = coeffs == coeffs[::-1]
    q = [1]
    for level in range(1, levels + 1):
        s = m ** (level - 1)
        if blocked:
            size = s * (n - 1) + len(q)
            half = (size + 1) // 2 if palindrome else size
            # blocks[last - i] is block i of q_{L-1}, so block w - k is
            # blocks[last - w + k] and ascending k reads the list forwards
            blocks = [q[i : i + s] for i in range(0, len(q), s)][::-1]
            last = len(blocks) - 1
            blocks[0] = blocks[0] + [type(q[0])()] * (s - len(blocks[0]))
            count = -(-half // s)
            # output blocks last..n-1 take every block: q_{L-1} has at most n
            start, stop = min(last, count), min(n, count)
            rows = zip(*(coeffs[i : i + stop - start] for i in range(last + 1)))
            out = []
            for w in range(start):
                out += _combine([coeffs[: w + 1]], blocks[last - w :])
            out += _combine(list(rows), blocks)
            for w in range(stop, count):
                out += _combine([coeffs[w - last :]], blocks[: n + last - w])
            del out[half:]
            out += out[: size - half][::-1]
            q = out
        else:
            q = convolve(coeffs, q, s)
        yield _norm(q, min(m**level, len(q)))


def _combine(rows: list, blocks: list) -> list:
    """For each coefficient row (c_1, c_2, ...) of ``rows`` in turn, the
    entrywise sum c_1 x_1 + c_2 x_2 + ... over ``blocks`` (x_1, x_2, ...; at
    least one), cut to the shortest x; the rows' sums follow one another.
    Each entry is added from left to right and starts from its first
    product, not from a zero: one pass of up to six products, then passes of
    up to three more.  The coefficients are the pass's own locals, so one
    call over many rows costs one pass per entry and little per row."""
    n = len(blocks)
    if n == 1:
        (x,) = blocks
        return [a * u for (a,) in rows for u in x]
    if n == 2:
        x, y = blocks
        return [a * u + b * v for a, b in rows for u, v in zip(x, y)]
    if n == 3:
        x, y, z = blocks
        return [a * u + b * v + c * w for a, b, c in rows for u, v, w in zip(x, y, z)]
    if n == 4:
        x, y, z, t = blocks
        return [
            a * u + b * v + c * w + d * o for a, b, c, d in rows for u, v, w, o in zip(x, y, z, t)
        ]
    if n == 5:
        x, y, z, t, g = blocks
        return [
            a * u + b * v + c * w + d * o + e * h
            for a, b, c, d, e in rows
            for u, v, w, o, h in zip(x, y, z, t, g)
        ]
    if n == 6:
        x, y, z, t, g, j = blocks
        return [
            a * u + b * v + c * w + d * o + e * h + f * i
            for a, b, c, d, e, f in rows
            for u, v, w, o, h, i in zip(x, y, z, t, g, j)
        ]
    out = []
    for row in rows:
        acc = _combine([row[:6]], blocks[:6])
        for k in range(6, n, 3):
            coefs, more = row[k : k + 3], blocks[k : k + 3]
            if len(more) == 1:
                (a,), (x,) = coefs, more
                acc = [p + a * u for p, u in zip(acc, x)]
            elif len(more) == 2:
                (a, b), (x, y) = coefs, more
                acc = [p + a * u + b * v for p, u, v in zip(acc, x, y)]
            else:
                (a, b, c), (x, y, z) = coefs, more
                acc = [p + a * u + b * v + c * w for p, u, v, w in zip(acc, x, y, z)]
        out += acc
    return out


def _fold(values: list, n: int) -> list:
    """The n sums values[r] + values[r + n] + ..., each added from left to right
    and the unsigned zero of the entries' type where no entry reaches.  The
    full n-long blocks are added up to four per pass; a shorter last block
    is added, unpadded, into the first sums only."""
    sums = values[:n] if n <= len(values) else values + [type(values[0])()] * (n - len(values))
    blocks = [values[i : i + n] for i in range(n, len(values), n)]
    part = blocks.pop() if blocks and len(blocks[-1]) < n else []
    for k in range(0, len(blocks), 4):
        acc = sums
        for block in blocks[k : k + 4]:
            acc = map(operator.add, acc, block)
        sums = list(acc)
    sums[: len(part)] = map(operator.add, sums, part)
    return sums


def _norm(q: list, n: int):
    """The largest of the n sums |q_r| + |q_{r+n}| + ..., n <= len(q), each
    added from left to right and compared in class order.  The classes that
    the short last n-long slice of q reaches, then the others, are each one
    pass over the zipped n-long slices, the ``abs`` taken in it."""
    full, short = divmod(len(q), n)
    sums = _abs_sums([q[i * n : i * n + short] for i in range(full + 1)])
    sums += _abs_sums([q[i * n + short : i * n + n] for i in range(full)])
    return max(sums)


def _abs_sums(blocks: list) -> list:
    """The entrywise sum |x_1| + |x_2| + ... over equal-length blocks x_i (at
    least one), added from left to right: one pass of up to four terms, then
    one pass for each further block."""
    if len(blocks) == 1:
        return list(map(abs, blocks[0]))
    if len(blocks) == 2:
        x, y = blocks
        return [abs(u) + abs(v) for u, v in zip(x, y)]
    if len(blocks) == 3:
        x, y, z = blocks
        return [abs(u) + abs(v) + abs(w) for u, v, w in zip(x, y, z)]
    x, y, z, t = blocks[:4]
    sums = [abs(u) + abs(v) + abs(w) + abs(o) for u, v, w, o in zip(x, y, z, t)]
    for x in blocks[4:]:
        sums = [a + abs(u) for a, u in zip(sums, x)]
    return sums


def _refuse_iterates(length: int, m: int, levels: int, points: int = 1) -> None:
    """``exactalg.refuse_growth`` on ``points`` iterates of a ``length``-long
    symbol; each holds (length - 1)(m^L - 1)/(m - 1) + 1 entries at level L."""
    sizes = (points * ((length - 1) * (m**L - 1) // (m - 1) + 1) for L in range(1, levels + 1))
    what = f"a sweep of {points} points at" if points > 1 else "an iterate of"
    refuse_growth(m, 1, sizes, f"{what} {levels} levels", "entries")


def _difference_symbols(masks: Sequence[Mask], order: int, levels: int) -> list[LaurentPoly]:
    """The order-(order+1) difference symbols (``factor_smoothing``) of masks of
    one arity.  A negative order, no level and, before any level runs, the
    iterate of a symbol spanning all their windows are refused."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    symbols = [factor_smoothing(mask, order + 1) for mask in masks]
    span = max(p.degree_high for p in symbols) + 1 - min(p.offset for p in symbols)
    _refuse_iterates(span, masks[0].arity, levels)
    return symbols


def contractivity_bound(mask: Mask, order: int, levels: int) -> RegularityReport:
    """Contraction analysis of the order-(order+1) difference scheme.

    Exact arithmetic throughout; only the reported L-th roots are floats.
    The iterated norms run on the integer numerators D p_k of the difference
    symbol over its denominator D, so the level-L norm is an int n over D^L,
    and contractivity is n < D^L, decided exactly.  Contractivity of any
    level certifies C^order membership with Holder lower bound
    order - log_m(best bound); where a rooted bound underflows to 0.0 it
    is order - min_L log_m(n / D^L) / L, from the logs of the exact ints.
    Raises OverflowError when a norm n / D^L is beyond the float range.
    """
    (p,) = _difference_symbols([mask], order, levels)
    norms = list(enumerate(_iterated_norms(p.numerators, mask.arity, levels), start=1))
    contractive = any(n < p.denominator**L for L, n in norms)
    bounds = tuple((n / p.denominator**L) ** (1.0 / L) for L, n in norms)
    holder = None
    if contractive and min(bounds):
        holder = order - math.log(min(bounds)) / math.log(mask.arity)
    elif contractive:
        # a rooted bound underflowed to 0.0: take the logs of the exact norms
        log_m, log_D = math.log(mask.arity), math.log(p.denominator)
        holder = order - min((math.log(n) - L * log_D) / (L * log_m) for L, n in norms)
    return RegularityReport(order, levels, bounds, contractive, holder)


def _family_line(
    family: SolutionFamily, order: int, levels: int, parameters: Sequence[float]
) -> Callable[[float], Iterator[float]]:
    """t -> rooted norms, level by level, of the member at t of a one-parameter
    family, whose float difference symbol is a + t b on the common window of
    the particular member's a and the direction's b.  Refuses a family of another
    dimension than 1, then as ``_difference_symbols`` does, then the sweep."""
    if family.dimension != 1:
        raise ValueError("parameter sweeps need a one-dimensional family")
    symbols = _difference_symbols((family.particular, *family.basis), order, levels)
    lo, hi = min(p.offset for p in symbols), max(p.degree_high for p in symbols)
    m = family.problem.m
    # __len__, not len: a grid may count more points than an index holds
    _refuse_iterates(hi + 1 - lo, m, levels, parameters.__len__())
    dp, dv = (
        [0.0] * (p.offset - lo)
        + [x / p.denominator for x in p.numerators]
        + [0.0] * (hi - p.degree_high)
        for p in symbols
    )

    def norms(t: float) -> Iterator[float]:
        iterated = _iterated_norms([a + t * b for a, b in zip(dp, dv)], m, levels)
        return (n ** (1.0 / L) for L, n in enumerate(iterated, start=1))

    return norms


class ParameterGrid(Sequence[float]):
    """``points`` evenly spaced parameters from a to b, both included, each
    computed when read.  Raises ValueError for fewer than 2 points and
    GridOverflow for a point that is not finite."""

    def __init__(self, a: float, b: float, points: int):
        if points < 2:
            raise ValueError(f"a grid needs at least 2 points, got {points}")
        self.a, self.b, self.points = a, b, points
        # with b - a finite the points run monotonically from a, and with it
        # infinite or nan the last point is not finite: so all points are
        # finite exactly when the last one is.  A count beyond the float range
        # has points that no float division reaches; the sweep total refuses
        # it before any point is read
        if points - 1 <= sys.float_info.max and not math.isfinite(self[-1]):
            raise GridOverflow("a grid point overflows")

    def __len__(self) -> int:
        return self.points

    def __getitem__(self, i: int) -> float:
        if not -self.points <= i < self.points:
            raise IndexError("grid index out of range")
        return self.a + (self.b - self.a) * (i % self.points) / (self.points - 1)


def contractivity_profile(
    family: SolutionFamily, order: int, levels: int, parameters: Sequence[float]
) -> list[tuple[float, float]]:
    """(parameter, best rooted norm bound) along a one-parameter family; the
    sweep is refused before any parameter is read."""
    norms = _family_line(family, order, levels, parameters)
    return [(t, min(norms(t))) for t in parameters]


_BISECT_TOL = 1e-6


def contractivity_range(
    family: SolutionFamily, order: int, levels: int, grid: ParameterGrid
) -> tuple[float, float]:
    """Endpoints of the contractive parameter interval of a 1-parameter family.

    Samples the grid from grid.a to grid.b, requires the contractive set to
    be one contiguous block (raises NoContractivePoint when empty, ValueError
    when split), then bisects each crossing of the best level bound through 1
    down to a parameter tolerance of 1e-6, or to adjacent floats where one
    float step is wider than it.  A parameter is contractive once one level's
    rooted norm is below 1; the later levels are not computed.  Endpoints
    clamp to the grid's ends when the contractive region touches them.  The
    family and the sweep are refused as in ``contractivity_profile``, and
    then a grid with grid.a < grid.b false.
    """
    norms = _family_line(family, order, levels, grid)
    if not grid.a < grid.b:
        raise ValueError("empty search interval")

    def contractive(t: float) -> bool:
        return any(x < 1.0 for x in norms(t))

    flags = [contractive(t) for t in grid]
    if not any(flags):
        raise NoContractivePoint(
            f"no contractive parameter among {len(grid)} samples in [{grid.a}, {grid.b}]"
        )
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    if not all(flags[first : last + 1]):
        raise ValueError("contractive set is not an interval on the sample grid")

    def bisect(lo: float, hi: float, lo_state: bool) -> float:
        # invariant: contractivity flips somewhere between lo and hi; a
        # midpoint equal to an end means lo and hi are adjacent floats
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if contractive(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    left = grid[first] if first == 0 else bisect(grid[first - 1], grid[first], False)
    right = grid[last] if last == len(grid) - 1 else bisect(grid[last], grid[last + 1], True)
    return left, right


def reproduction_degree(mask: Mask, seed: SampleSet, max_degree: int, depth: int) -> int:
    """Largest D <= max_degree with sum_k k^e phi(x-k) = x^e exactly for all
    e <= D at the n points of the ``lattice_window`` on Z/Q, Q = T m^depth.

    The comb C_e(x) = sum_k k^e phi(x-k) satisfies
    C_e(x + 1) = sum_{i <= e} binom(e, i) C_i(x).  So where C_i(x) = x^i
    for every i <= e, C_e(x + 1) = (x + 1)^e.  The point x + 1 lies Q
    entries after x, and every point of the n-point window is reached from
    one of its first P = min(n, Q) points by such steps, each inside the
    window; a trimmed window would leave a residue class of a short support
    unchecked.  By induction along x -> x + 1, the degrees <= e hold at all n
    points exactly when they hold at those P points, so the combs are
    summed there only.  The shifts that reach them are k = 0, -1, ..., -K,
    K the largest shift inside the window: on the lattice's integer
    numerators N over their scale S, padded with zeros to the window, entry
    i sums (-j)^e N[i + j Q] in one pass (``_combine``) and is compared with
    x^e as acc Q^e == p^e S.  At most K + 1 shifts reach one point x, so
    the measure sum_k phi(x-k) delta_k - delta_x has at most K + 2 nodes;
    once its moments 0..K + 1 vanish, the Vandermonde matrix on those nodes
    forces it to zero and every higher degree holds too.  The loop therefore
    stops by degree K + 1.  Returns -1 when even constants are not reproduced.
    """
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")
    lattice = refine_values(mask, seed, depth)
    Q, poly = lattice.T, lattice.poly
    first, n = lattice_window(limit_support(mask), Q)
    K = (n - 1) // Q
    P = min(n, Q)
    # row j is N[j Q : j Q + P] on the window, the last one padded with zeros
    window = [0] * (K * Q + P)
    start = poly.offset - first
    window[start : start + len(poly.numerators)] = poly.numerators
    rows = [window[j * Q : j * Q + P] for j in range(K + 1)]
    scale, points = poly.denominator, range(first, first + P)
    for e in range(min(max_degree, K + 1) + 1):
        # the shifts whose weight (-j)^e is not zero: all but j = 0 < e
        js = [j for j in range(K + 1) if j or not e]
        combs = _combine([[(-j) ** e for j in js]], [rows[j] for j in js]) if js else [0] * P
        Qe = Q**e
        for p, acc in zip(points, combs):
            if acc * Qe != p**e * scale:
                return e - 1
    return max_degree


def _subdivide_once(
    mask: Mask, pts: list[tuple[float, ...]], first: int, closed: bool
) -> tuple[list[tuple[float, ...]], int]:
    """One step c'(z) = A(z) c(z^m) per coordinate, A(z) = sum_k a_k z^k.

    The step is m polyphase rules c'_{mt+r} = sum_i a_{r+mi} c_{t-i}: each
    residue class r is one multi-term pass (``_combine``) over the weights
    a_{r+mi}, i descending, each on the coordinates shifted by i and padded
    with zeros.  Its first term is 1.0 times zeros, so each entry adds its
    products to 0.0 in ascending order of the point index t - i, and a zero
    is never signed.  A padded entry adds a finite weight times 0.0, a zero,
    which leaves such a sum as it is, nan and inf included.  A class that no
    weight reaches stays 0.0.  Open polygons index c' from m*first + k_l.
    A closed polygon of n points is periodic: c' is the product mod
    z^{mn} - 1, indexed from 0, and its mn-long blocks are added in order
    (``_fold``).
    """
    m, n = mask.arity, len(pts)
    weights = [x / mask.poly.denominator for x in mask.poly.numerators]
    span, shift = m * n, (len(weights) - 1) // m
    zeros = [0.0] * (n + shift)
    columns = []
    for coords in zip(*pts):
        padded = zeros[:shift] + list(coords) + zeros[:shift]
        full = [0.0] * (m * (n - 1) + len(weights))
        for r in range(min(m, len(weights))):
            # class r holds n + top entries, top the largest i of a weight a_{r+mi}
            top = (len(weights) - 1 - r) // m
            row = [1.0, *weights[r::m][::-1]]
            blocks = [zeros] + [padded[shift - i : shift - i + n + top] for i in range(top, -1, -1)]
            full[r::m] = _combine([row], blocks)
        columns.append(full)
    if not closed:
        return list(zip(*columns)), m * first + mask.k_left
    # entry i is the coefficient of z^(i + k_l)
    wrapped = [_fold([0.0] * (mask.k_left % span) + full, span) for full in columns]
    return list(zip(*wrapped)), 0


def subdivide_points(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> tuple[list[float], list[tuple[float, ...]]]:
    """Apply the subdivision operator ``steps`` times to control points.

    Returns (parameters, points).  The level-j index n is attached to the
    parameter (n - tau (m^j - 1)/(m - 1)) / m^j, the fixed point of the
    refinement parameter map; consecutive parameters differ by m^{-j}.
    Raises ValueError, before any step runs, when ``exactalg.refuse_growth``
    refuses the polylines on Z/m^j.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if len(control) < 2:
        raise ValueError("need at least two control points")
    pts = [tuple(float(x) for x in p) for p in control]
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("control points must share one dimension")
    m, n, k = mask.arity, len(pts), len(mask.poly.numerators)
    # the step s -> m s or m (s - 1) + k, in closed form
    sizes = (m**j * n if closed else m**j * (n - 1) + (k - 1) * (m**j - 1) // (m - 1) + 1
             for j in range(1, steps + 1))
    refuse_growth(m, 1, sizes, f"a polyline of {steps} steps", "points")
    tau = shift_parameter(mask)
    first = 0
    for _ in range(steps):
        pts, first = _subdivide_once(mask, pts, first, closed)
    drift = tau * (m**steps - 1) / (m - 1)
    # (n - drift) / m^steps as one correctly rounded int division per n: with
    # drift = p/q, the numerators n q - p step by q
    p, q = drift.numerator, drift.denominator
    numerators = range(first * q - p, (first + len(pts)) * q - p, q)
    params = list(map(operator.truediv, numerators, repeat(q * m**steps)))
    return params, pts


def subdivide_curve(
    mask: Mask, control: Sequence[Sequence[float]], steps: int, *, closed: bool = False
) -> Polyline:
    """Subdivide 2D control points ``steps`` times; see subdivide_points."""
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    if pts and len(pts[0]) != 2:
        raise ValueError("curve subdivision expects 2D points")
    return Polyline(tuple(params), tuple(pts))
