"""Fraction reference implementations that the integer paths are tested against.

These are the straightforward forms: coefficient windows as trimmed Fraction
tuples, dense matrix products, the dense
construction matrices M, N and the band O, the identities of ``charax`` as sums of sub-symbol times
residue-class sample polynomials, Gauss-Jordan elimination on Fractions,
membership in a derived family as row functionals applied to the mask, and
smoothing-factor division as ``LaurentPoly.divide``'s long division.  Every
product and sum there is a ``Fraction`` operation.  The float contractivity
references below keep the per-class norm sums and the per-parameter
``Fraction`` conversions that the family-line kernel replaced.  The limit
evaluation references are the curve step as a whole product per coordinate
wrapped by per-class folds, and the reproduction comb sums read from the
full comb product.  The Laurent-polynomial helpers at the top (powers,
shifts, monomials, sub-symbols, the smoothing factor) have no package
caller; the tests and the references below build their polynomials with them.
"""

import functools
import math
import operator
from fractions import Fraction as F

from dualsubdiv.construct import _column_pairs, alpha_window
from dualsubdiv.exactalg import LaurentPoly, RatMatrix, convolve
from dualsubdiv.samples import SampleSet, phi_poly
from dualsubdiv.scheme import NotDivisible, symbol


def power(p, n):
    """p**n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers are not defined for Laurent polynomials")
    result, base = LaurentPoly.constant(1), p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def shift(p, exponent):
    """z^exponent p(z)."""
    return LaurentPoly.from_numerators(p.offset + exponent, p.numerators, p.denominator)


def monomial(exponent, c=1):
    """c z^exponent."""
    return LaurentPoly(exponent, (c,))


def perturbed(s, index, delta):
    """The sample set s with the value at lattice numerator ``index`` moved by delta."""
    return SampleSet.from_poly(s.T, s.poly + monomial(index, delta))


def sub_symbol(mask, n):
    """The residue-class slice A_n(z) of the symbol; A_{n+m} = A_n."""
    return symbol(mask).residue_part(n, mask.arity)


def sub_symbols(mask):
    """A_0, ..., A_{m-1}; their sum is the symbol."""
    return [sub_symbol(mask, n) for n in range(mask.arity)]


def smoothing_factor(m):
    """(1 + z + ... + z^{m-1}) / m."""
    return LaurentPoly.from_numerators(0, [1] * m, m)


def fraction_window(offset, coeffs):
    """(offset, coefficient tuple) of a coefficient list as Fractions, with the
    zero ends trimmed and the zero sequence as (0, ()): the Fraction-tuple
    store that ``LaurentPoly``, ``Mask`` and ``SampleSet`` keep as integers."""
    cs = [F(c) for c in coeffs]
    lo, hi = 0, len(cs)
    while lo < hi and cs[lo] == 0:
        lo += 1
    while hi > lo and cs[hi - 1] == 0:
        hi -= 1
    return (offset + lo, tuple(cs[lo:hi])) if lo < hi else (0, ())


def identity(n):
    """The n x n identity ``RatMatrix``."""
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """The product of two ``RatMatrix``es, entry by entry on Fractions."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return RatMatrix(
        [sum((x * row[j] for x, row in zip(a_row, b.entries)), F(0)) for j in range(b.cols)]
        for a_row in a.entries
    )


def matvec(matrix, v):
    """The product of a ``RatMatrix`` with a vector of rationals, as Fractions."""
    vv = [F(x) for x in v]
    if matrix.cols != len(vv):
        raise ValueError("vector length does not match column count")
    return tuple(sum((a * x for a, x in zip(row, vv)), F(0)) for row in matrix.entries)


def value_at_one(poly):
    """p(1), the sum of the coefficients of a ``LaurentPoly``."""
    return sum(poly.coeffs, F(0))


def build_M(m, samples, k_star):
    """Refinement-evaluation matrix M(a, b) = phi((m a + 1)/2 - b): rows a in
    the alpha window, columns b over the mask support [1-k*, k*]."""
    a_lo, a_hi = alpha_window(m, k_star)
    # on the Z/2 lattice, (m*alpha + 1)/2 - beta has numerator m*alpha + 1 - 2*beta
    return RatMatrix(
        [samples.value_at_index(m * alpha + 1 - 2 * beta) for beta in range(1 - k_star, k_star + 1)]
        for alpha in range(a_lo, a_hi + 1)
    )


def build_rhs(samples, m, k_star):
    """c(a) = phi(a/2) on the row window, followed by the m ones."""
    a_lo, a_hi = alpha_window(m, k_star)
    return tuple([samples.value_at_index(alpha) for alpha in range(a_lo, a_hi + 1)] + [F(1)] * m)


def build_N(m, k_star):
    """Per-residue sum conditions: N(g, b) = 1 iff b == g (mod m), g = 1..m."""
    return RatMatrix(
        [int((beta - gamma) % m == 0) for beta in range(1 - k_star, k_star + 1)]
        for gamma in range(1, m + 1)
    )


def build_O(m, rows, cols):
    """Window of the banded all-ones matrix O(a, b) = 1 iff 0 <= a - b <= m-1."""
    return RatMatrix(
        [int(0 <= r - c <= m - 1) for c in range(cols[0], cols[1] + 1)]
        for r in range(rows[0], rows[1] + 1)
    )


def verify_refinability(mask, s, T):
    """sum_g Phi_{T,g}(z^m) - m z^{-tau T} sum_b sum_{g + bT == tau T (m)} A_b(z^T) Phi_{T,g}(z)."""
    m = mask.arity
    t = int(symbol(mask).derivative_at_one() * T)
    phis = [phi_poly(s, m, g) for g in range(m * T)]
    lhs = LaurentPoly.zero()
    for g in range(m * T):
        lhs = lhs + phis[g].scale_exponents(m)
    rhs = LaurentPoly.zero()
    for b in range(m):
        a_b = sub_symbol(mask, b).scale_exponents(T)
        if a_b.is_zero:
            continue
        acc = LaurentPoly.zero()
        for g in range(m * T):
            if (g + b * T - t) % m == 0:
                acc = acc + phis[g]
        rhs = rhs + a_b * acc
    return lhs - shift(rhs * m, -t)


def _odd_phi_half_sum(mask, s):
    phis = [phi_poly(s, mask.arity, 2 * g + 1) for g in range(mask.arity)]
    lhs = LaurentPoly.constant(F(1, 2))
    for p in phis:
        lhs = lhs + p.scale_exponents(mask.arity)
    return phis, lhs


def verify_lemma_form(mask, s):
    """1/2 + sum_g Phi_{2,2g+1}(z^m) - m z^{-1} (sum_{2b == 1 (m)} A_b(z^2)/2
    + sum_{2(b+g) == 0 (m)} A_b(z^2) Phi_{2,2g+1}(z))."""
    m = mask.arity
    phis, lhs = _odd_phi_half_sum(mask, s)
    subs = [sub_symbol(mask, b).scale_exponents(2) for b in range(m)]
    rhs = LaurentPoly.zero()
    for b in range(m):
        if (2 * b - 1) % m == 0:
            rhs = rhs + subs[b] * F(1, 2)
    for b in range(m):
        for g in range(m):
            if (2 * (b + g)) % m == 0:
                rhs = rhs + subs[b] * phis[g]
    return lhs - shift(rhs * m, -1)


def verify_dual_interpolatory(mask, s):
    """The arity-specific form: A_{(m+1)/2}(z^2)/2 + sum_g A_{m-g}(z^2) Phi_{2,2g+1}(z)
    for odd m, sum_g (A_{m/2-g}(z^2) + A_{m-g}(z^2)) Phi_{2,2g+1}(z) for even m."""
    m = mask.arity
    phis, lhs = _odd_phi_half_sum(mask, s)
    rhs = LaurentPoly.zero()
    if m % 2 == 1:
        rhs = rhs + sub_symbol(mask, (m + 1) // 2).scale_exponents(2) * F(1, 2)
        for g in range(m):
            rhs = rhs + sub_symbol(mask, m - g).scale_exponents(2) * phis[g]
    else:
        for g in range(m):
            weight = (sub_symbol(mask, m // 2 - g) + sub_symbol(mask, m - g)).scale_exponents(2)
            rhs = rhs + weight * phis[g]
    return lhs - shift(rhs * m, -1)


def rref(rows, rhs):
    """Gauss-Jordan on Fractions: (reduced rows, rhs column, pivot columns)."""
    m = [[F(x) for x in row] for row in rows]
    b = [F(x) for x in rhs]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        b[r] = b[r] / p
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                b[i] = b[i] - f * b[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, b, pivots


def apply_row(row, mask, k_star):
    """A row functional on the mask window [1-k*, k*] applied to a mask inside it."""
    start = mask.offset - (1 - k_star)
    window = row[start : start + len(mask.coeffs)]
    return sum((r * c for r, c in zip(window, mask.coeffs)), F(0))


def contains(problem, mask):
    """Membership as the span, symmetry, row and tau = 1/2 conditions on Fractions."""
    m, k_star = problem.m, problem.k_star
    if mask.arity != m or mask.k_left < 1 - k_star or mask.k_right > k_star:
        return False
    try:
        b_poly = divide_smoothing(symbol(mask), m, problem.d)
    except NotDivisible:
        return False
    b_lo, b_hi = problem.beta_window
    if not b_poly.is_zero and (b_poly.degree_low < b_lo or b_poly.degree_high > b_hi):
        return False
    if any(len({b_poly.coefficient(beta) for beta in pair}) > 1 for pair in _column_pairs(problem)):
        return False
    rows = build_M(m, problem.samples, k_star).vstack(build_N(m, k_star)).entries
    a = mask.poly
    if any(apply_row(row, a, k_star) != c for row, c in zip(rows, build_rhs(problem.samples, m, k_star))):
        return False
    return 2 * a.derivative_at_one() == m


def divide_smoothing(poly, m, order):
    """poly / smoothing_factor(m)**order by Fraction long division."""
    if order == 0:
        return poly
    quotient, remainder = poly.divide(power(smoothing_factor(m), order))
    if not remainder.is_zero:
        raise NotDivisible(f"no factorization of order {order} for arity {m}")
    return quotient


def iterated_norms(coeffs, m, levels):
    """Norms of p(z) p(z^m) ... p(z^{m^{L-1}}), L = 1..levels, one residue
    class at a time: class r adds |q_r|, |q_{r+m^L}|, ... from left to right.

    The left-to-right fold is ``sum(..., abs(q[r]))`` on Python 3.10 and
    3.11; from 3.12 ``sum`` compensates float rounding, so it is spelled out.
    """
    norms, q = [], [1]
    for level in range(1, levels + 1):
        q = convolve(coeffs, q, m ** (level - 1))
        modulus = m**level
        norms.append(max(
            functools.reduce(operator.add, map(abs, q[r + modulus :: modulus]), abs(q[r]))
            for r in range(min(modulus, len(q)))
        ))
    return norms


def rooted_bounds(norms):
    return [float(n) ** (1.0 / L) for L, n in enumerate(norms, start=1)]


def contractivity_bounds(mask, order, levels):
    """Rooted norms of the order-(order+1) difference scheme, as floats of
    the exact norms over the lcm of the difference symbol's denominators."""
    p = divide_smoothing(symbol(mask), mask.arity, order + 1)
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    norms = [F(n, den**L) for L, n in enumerate(iterated_norms(ints, mask.arity, levels), 1)]
    return rooted_bounds(norms)


def family_difference_parts(family, order):
    """(particular, direction) difference symbols of a one-parameter family."""
    m = family.problem.m
    return (
        divide_smoothing(symbol(family.particular), m, order + 1),
        divide_smoothing(family.basis[0] * F(1, m), m, order + 1),
    )


def line_best_bound(dp, dv, m, levels, t):
    """Best rooted norm of the member at t, converting each coefficient of
    both difference symbols to float for this t."""
    lo = min(dp.offset, dv.offset)
    hi = max(dp.offset + len(dp.coeffs), dv.offset + len(dv.coeffs))
    coeffs = [float(dp.coefficient(e)) + t * float(dv.coefficient(e)) for e in range(lo, hi)]
    return min(rooted_bounds(iterated_norms(coeffs, m, levels)))


def contractivity_profile(family, order, levels, parameters):
    dp, dv = family_difference_parts(family, order)
    return [(t, line_best_bound(dp, dv, family.problem.m, levels, t)) for t in parameters]


def contractivity_range(family, order, levels, search_interval, grid=129, tol=1e-6):
    """Sample, then bisect each crossing on ``line_best_bound(t) < 1``; the
    endpoints, or None when the sampled contractive set is empty or split."""
    dp, dv = family_difference_parts(family, order)

    def contractive(t):
        return line_best_bound(dp, dv, family.problem.m, levels, t) < 1.0

    a, b = search_interval
    ts = [a + (b - a) * i / (grid - 1) for i in range(grid)]
    inside = [i for i, t in enumerate(ts) if contractive(t)]
    if not inside or inside != list(range(inside[0], inside[-1] + 1)):
        return None

    def bisect(lo, hi, lo_state):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if contractive(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    first, last = inside[0], inside[-1]
    left = ts[first] if first == 0 else bisect(ts[first - 1], ts[first], False)
    right = ts[last] if last == grid - 1 else bisect(ts[last], ts[last + 1], True)
    return left, right


def subdivide_once(mask, pts, first, closed):
    """One curve step as ``convolve(coords, weights, m)`` per coordinate; a
    closed polygon of n points then folds each class r mod m n from 0.0,
    c[r] + c[r + m n] + ... from left to right."""
    m = mask.arity
    weights = [x / mask.poly.denominator for x in mask.poly.numerators]
    columns = [convolve(coords, weights, m) for coords in zip(*pts)]
    if not closed:
        return list(zip(*columns)), m * first + mask.k_left
    n = m * len(pts)
    # column entry i is the coefficient of z^(i + k_l)
    padded = [[0.0] * (mask.k_left % n) + c for c in columns]
    return [
        tuple(functools.reduce(operator.add, c[r::n], 0.0) for c in padded) for r in range(n)
    ], 0


def subdivide_points(mask, control, steps, closed):
    """(first index, points) after ``steps`` steps of ``subdivide_once``."""
    pts, first = [tuple(float(x) for x in p) for p in control], 0
    for _ in range(steps):
        pts, first = subdivide_once(mask, pts, first, closed)
    return first, pts


def reproduction_degree(lattice, max_degree, tol):
    """The reproduction degree of a ``LatticeFunction`` with the comb sums of
    degree e read off the whole product of (k^e), |k| <= K, with the
    numerators at stride Q: entry K Q + i sums k^e nums[i - k Q]."""
    Q, scale, nums = lattice.denominator, lattice.scale, lattice.numerators
    n = len(nums)
    K = (n - 1) // Q
    t_num, t_den = tol.as_integer_ratio()
    for e in range(max_degree + 1):
        combs = convolve([k**e for k in range(-K, K + 1)], nums, Q)[K * Q : K * Q + n]
        for p, acc in zip(range(lattice.offset, lattice.offset + n), combs):
            if abs(acc * Q**e - p**e * scale) * t_den > t_num * scale * Q**e:
                return e - 1
    return max_degree
