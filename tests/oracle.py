"""Fraction reference implementations that the integer paths are tested against.

These are the straightforward forms: coefficient windows as trimmed Fraction
tuples, dense matrix products, the dense
construction matrices M, N and the band O, the identities of ``charax`` as sums of sub-symbol times
residue-class sample polynomials, Gauss-Jordan elimination on Fractions,
membership in a derived family as row functionals applied to the mask, and
smoothing-factor division as ``LaurentPoly.divide``'s long division.  Every
product and sum there is a ``Fraction`` operation.  The float contractivity
references below keep the per-class norm sums and the per-parameter
``Fraction`` conversions that the family-line kernel replaced, and form
each iterate with ``strided_product``, ``exactalg.convolve`` written one
product at a time from its docstring.  The limit
evaluation references are the curve step as a whole product per coordinate
wrapped by per-class folds, and the reproduction comb sums read from the
full comb product, also a ``strided_product``.  The rows of M and the mirror
pairs of a symmetric problem come from their definitions, not from
``construct``.  The CSV references format ``eval`` and ``curve`` rows
one f-string per row, with a division per lattice point.  The
Laurent-polynomial helpers at the top (powers, shifts, monomials, exponent
scaling, sub-symbols, the smoothing factor) have no package caller; the
tests and the references below build their polynomials with them.
``sample_value``, a sample set's value at a point of its lattice, has no
package caller either.
The package keeps matrices and solutions as integers only;
``rat_matrix``, ``entries``, ``particular`` and ``nullbasis`` build and read
them as Fractions, and ``columns`` forms the column masks of an assembled
system from their formula.  The dense matrices here (``identity``,
``matmul``, ``build_M``, ``build_N``, ``build_O``) are plain tuples of
Fraction rows.  ``bareiss_gauss_jordan`` is
the dense fraction-free Gauss-Jordan that ``rref_solve``'s forward pass and
back substitution replaced; it returns the same integer ``LinearSolution``.
"""

import functools
import math
import operator
from fractions import Fraction as F

from dualsubdiv.exactalg import InfeasibleSystem, LaurentPoly, LinearSolution, RatMatrix, rat
from dualsubdiv.samples import SampleSet, phi_poly
from dualsubdiv.scheme import NotDivisible, support_interval, symbol


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


def scale_exponents(p, k):
    """p(z^k) for k >= 1."""
    out = [0] * (k * len(p.numerators) - k + 1)
    out[::k] = p.numerators
    return LaurentPoly.from_numerators(p.offset * k, out, p.denominator)


def sample_value(samples, x):
    """phi(x) of a ``SampleSet`` for x on its lattice Z/T; raises ValueError
    off the lattice."""
    scaled = rat(x) * samples.T
    if scaled.denominator != 1:
        raise ValueError(f"{x} is not on the lattice Z/{samples.T}")
    return samples.value_at_index(int(scaled))


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


def rat_matrix(rows):
    """The ``RatMatrix`` of rows of rationals, put over one common denominator,
    which ``RatMatrix`` reduces row by row to lowest terms."""
    rows = [[rat(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return RatMatrix.from_numerators(
        [[x.numerator * (den // x.denominator) for x in row] for row in rows], den
    )


def entries(matrix):
    """The entries of a ``RatMatrix`` as Fraction rows."""
    return tuple(
        tuple(F(x, den) for x in row) for row, den in zip(matrix.numerators, matrix.denominators)
    )


def particular(solution):
    """The particular solution of a ``LinearSolution`` as Fractions."""
    return tuple(F(x, solution.denominator) for x in solution.particular_numerators)


def nullbasis(solution):
    """The null basis of a ``LinearSolution`` as Fraction vectors."""
    return tuple(tuple(F(x, solution.denominator) for x in v) for v in solution.nullbasis_numerators)


def columns(system):
    """The column masks m^{1-d} (1+...+z^{m-1})^d sum_{beta in pair} z^beta of
    an ``AssembledSystem``, one per pair of b-indices in ``col_labels``."""
    m, d = system.problem.m, system.problem.d
    factor = power(smoothing_factor(m), d) * m
    return tuple(
        factor * sum((monomial(beta) for beta in pair), LaurentPoly.zero())
        for pair in system.col_labels
    )


def identity(n):
    """The n x n identity as Fraction rows."""
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a, b):
    """The product of two matrices of Fraction rows, entry by entry."""
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    return tuple(
        tuple(sum((x * row[j] for x, row in zip(a_row, b)), F(0)) for j in range(len(b[0])))
        for a_row in a
    )


def matvec(rows, v):
    """The product of a matrix of rational rows with a vector of rationals, as Fractions."""
    vv = [F(x) for x in v]
    if any(len(row) != len(vv) for row in rows):
        raise ValueError("vector length does not match column count")
    return tuple(sum((a * x for a, x in zip(row, vv)), F(0)) for row in rows)


def value_at_one(poly):
    """p(1), the sum of the coefficients of a ``LaurentPoly``."""
    return sum(poly.coeffs, F(0))


def row_window(m, k_star):
    """(first, last) numerator alpha of the points alpha/2 of Z/2 in the limit
    support ``support_interval(m, k_star)``: the rows of M and of its rhs."""
    lo, hi = support_interval(m, k_star)
    return math.ceil(2 * lo), math.floor(2 * hi)


def build_M(m, samples, k_star):
    """Refinement-evaluation matrix M(a, b) = phi((m a + 1)/2 - b): rows a in
    ``row_window``, columns b over the mask support [1-k*, k*]."""
    a_lo, a_hi = row_window(m, k_star)
    # on the Z/2 lattice, (m*alpha + 1)/2 - beta has numerator m*alpha + 1 - 2*beta
    return tuple(
        tuple(samples.value_at_index(m * alpha + 1 - 2 * beta) for beta in range(1 - k_star, k_star + 1))
        for alpha in range(a_lo, a_hi + 1)
    )


def build_rhs(samples, m, k_star):
    """c(a) = phi(a/2) on ``row_window``, followed by the m ones."""
    a_lo, a_hi = row_window(m, k_star)
    return tuple([samples.value_at_index(alpha) for alpha in range(a_lo, a_hi + 1)] + [F(1)] * m)


def build_N(m, k_star):
    """Per-residue sum conditions: N(g, b) = 1 iff b == g (mod m), g = 1..m."""
    return tuple(
        tuple(F(int((beta - gamma) % m == 0)) for beta in range(1 - k_star, k_star + 1))
        for gamma in range(1, m + 1)
    )


def build_O(m, rows, cols):
    """Window of the banded all-ones matrix O(a, b) = 1 iff 0 <= a - b <= m-1."""
    return tuple(
        tuple(F(int(0 <= r - c <= m - 1)) for c in range(cols[0], cols[1] + 1))
        for r in range(rows[0], rows[1] + 1)
    )


def verify_refinability(mask, s, T):
    """sum_g Phi_{T,g}(z^m) - m z^{-tau T} sum_b sum_{g + bT == tau T (m)} A_b(z^T) Phi_{T,g}(z)."""
    m = mask.arity
    t = int(symbol(mask).derivative_at_one() * T)
    phis = [phi_poly(s, m, g) for g in range(m * T)]
    lhs = LaurentPoly.zero()
    for g in range(m * T):
        lhs = lhs + scale_exponents(phis[g], m)
    rhs = LaurentPoly.zero()
    for b in range(m):
        a_b = scale_exponents(sub_symbol(mask, b), T)
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
        lhs = lhs + scale_exponents(p, mask.arity)
    return phis, lhs


def verify_lemma_form(mask, s):
    """1/2 + sum_g Phi_{2,2g+1}(z^m) - m z^{-1} (sum_{2b == 1 (m)} A_b(z^2)/2
    + sum_{2(b+g) == 0 (m)} A_b(z^2) Phi_{2,2g+1}(z))."""
    m = mask.arity
    phis, lhs = _odd_phi_half_sum(mask, s)
    subs = [scale_exponents(sub_symbol(mask, b), 2) for b in range(m)]
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
        rhs = rhs + scale_exponents(sub_symbol(mask, (m + 1) // 2), 2) * F(1, 2)
        for g in range(m):
            rhs = rhs + scale_exponents(sub_symbol(mask, m - g), 2) * phis[g]
    else:
        for g in range(m):
            weight = scale_exponents(sub_symbol(mask, m // 2 - g) + sub_symbol(mask, m - g), 2)
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


def canonical_solution(reduced, column, pivots):
    """(particular, null basis) read off the reduced row echelon form of
    [M | rhs], in the canonical form of ``rref_solve``: zeros in the free
    coordinates of the particular solution, one basis vector per free column
    carrying 1 there; None when a row below the rank keeps a nonzero rhs."""
    if any(column[len(pivots):]):
        return None
    cols = len(reduced[0])
    particular = [F(0)] * cols
    for i, c in enumerate(pivots):
        particular[c] = column[i]
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [F(0)] * cols
        v[f] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return tuple(particular), tuple(basis)


def bareiss_gauss_jordan(matrix, rhs):
    """``rref_solve`` as dense fraction-free Gauss-Jordan (Bareiss, Math. Comp.
    22, 1968) on [matrix | rhs]: a step on pivot p replaces every other row,
    above and below, by (p row - f pivot_row) / p_prev over its full width.
    Returns the same ``LinearSolution`` or raises ``InfeasibleSystem``."""
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length does not match row count")
    m = []
    for row, den, y in zip(matrix.numerators, matrix.denominators, rhs):
        y = rat(y)
        s = math.lcm(den, y.denominator)
        m.append([x * (s // den) for x in row] + [y.numerator * (s // y.denominator)])
    n_rows, n_cols = len(m), matrix.cols
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(n_rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    if any(row[n_cols] for row in m[r:]):
        raise InfeasibleSystem("inconsistent linear system")
    particular = [0] * n_cols
    for row, col in zip(m, pivots):
        particular[col] = row[n_cols]
    basis = []
    for f in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[f] = prev
        for row, col in zip(m, pivots):
            v[col] = -row[f]
        basis.append(tuple(v))
    return LinearSolution(tuple(pivots), prev, tuple(particular), tuple(basis))


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
    # under symmetry b is its own mirror: b_beta = b_{b_lo + b_hi - beta}
    if problem.symmetric and any(
        b_poly.coefficient(beta) != b_poly.coefficient(b_lo + b_hi - beta) for beta in range(b_lo, b_hi + 1)
    ):
        return False
    rows = build_M(m, problem.samples, k_star) + build_N(m, k_star)
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


def strided_product(a, b, stride):
    """Coefficients of A(z^stride) B(z), as ``exactalg.convolve``'s docstring
    defines them, one product at a time: entry stride*i + j adds a[i] b[j]
    over ascending i, a zero a[i] skipped, starting from its first product;
    an entry that no product reaches is ``type(b[0])()``.  When both
    operands are palindromes only the first ceil(N/2) entries are summed and
    the rest is their mirror."""
    if not a or not b:
        return []
    size = stride * (len(a) - 1) + len(b)
    half = (size + 1) // 2 if a == a[::-1] and b == b[::-1] else size
    sums = {}
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            e = stride * i + j
            if e < half:
                sums[e] = sums[e] + x * y if e in sums else x * y
    out = [sums.get(e, type(b[0])()) for e in range(half)]
    return out + out[: size - half][::-1]


def iterated_norms(coeffs, m, levels):
    """Norms of p(z) p(z^m) ... p(z^{m^{L-1}}), L = 1..levels, one residue
    class at a time: class r adds |q_r|, |q_{r+m^L}|, ... from left to right.
    Each iterate is q_L = ``strided_product``(p, q_{L-1}, m^{L-1}), q_0 = [1].

    The left-to-right fold is ``sum(..., abs(q[r]))`` on Python 3.10 and
    3.11; from 3.12 ``sum`` compensates float rounding, so it is spelled out.
    """
    norms, q = [], [1]
    for level in range(1, levels + 1):
        q = strided_product(coeffs, q, m ** (level - 1))
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
        divide_smoothing(symbol(family.basis[0]), m, order + 1),
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
    """One curve step c'(z) = A(z) c(z^m) per coordinate, each entry j summed
    from 0.0 over its products a_{j - m p} c_p in ascending p; a closed
    polygon of n points then folds each class r mod m n from 0.0,
    c[r] + c[r + m n] + ... from left to right."""
    m = mask.arity
    weights = [x / mask.poly.denominator for x in mask.poly.numerators]
    size = m * (len(pts) - 1) + len(weights)
    columns = []
    for coords in zip(*pts):
        column = []
        for j in range(size):
            acc = 0.0
            for p, c in enumerate(coords):
                if 0 <= j - m * p < len(weights):
                    acc += weights[j - m * p] * c
            column.append(acc)
        columns.append(column)
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


def reproduction_degree(lattice, window, max_degree):
    """The exact reproduction degree of a lattice, a ``SampleSet`` on Z/Q,
    checked at every degree up to max_degree on every point of its
    ``window`` (first, n), with the comb sums of degree e read off the whole
    Fraction product ``strided_product`` of (k^e), |k| <= K, with the
    window's values at stride Q: entry K Q + i sums k^e phi((first + i - k Q)/Q)."""
    Q, (first, n) = lattice.T, window
    values = [lattice.value_at_index(p) for p in range(first, first + n)]
    K = (n - 1) // Q
    for e in range(max_degree + 1):
        combs = strided_product([k**e for k in range(-K, K + 1)], values, Q)[K * Q : K * Q + n]
        for p, acc in zip(range(first, first + n), combs):
            if acc * Q**e != p**e:
                return e - 1
    return max_degree


def eval_csv(lattice, window):
    """``eval``'s CSV text of a ``SampleSet`` lattice: one row per point of
    its ``window`` (first, n), each with its own divisions and float reprs."""
    rows = ["numerator,denominator,x,value"]
    first, n = window
    for p in range(first, first + n):
        v = lattice.value_at_index(p)
        rows.append(f"{p},{lattice.T},{p / lattice.T},{v.numerator / v.denominator}")
    return "\n".join(rows)


def curve_csv(line):
    """``curve``'s CSV text of a ``Polyline``, one f-string per point."""
    rows = ["t,x,y"]
    for t, (x, y) in zip(line.parameters, line.points):
        rows.append(f"{t},{x},{y}")
    return "\n".join(rows)
