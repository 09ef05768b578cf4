"""Exact reference checks for the benchmark's operations.

Everything here is written from the definitions, not from the package's
code paths, so that a wrong answer from the package cannot also satisfy its
own check.  Masks are (arity, offset, coefficient list) triples and sample
sets are dicts from a Z/2 lattice numerator to a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction


class OracleMismatch(Exception):
    """An operation's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def mask_from_json(data: dict) -> tuple[int, int, list[Fraction]]:
    return int(data["arity"]), int(data["offset"]), [F(c) for c in data["coeffs"]]


def _trim(offset: int, coeffs: list[Fraction]) -> tuple[int, list[Fraction]]:
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    return offset + lo, coeffs[lo:hi]


def combine(p: tuple[int, list], q: tuple[int, list], t) -> tuple[int, list]:
    """p + t * q for coefficient windows (offset, coeffs)."""
    lo = min(p[0], q[0])
    hi = max(p[0] + len(p[1]), q[0] + len(q[1]))
    out = [F(0)] * (hi - lo) if isinstance(t, F) else [0.0] * (hi - lo)
    for i, c in enumerate(p[1]):
        out[p[0] + i - lo] += c
    for i, c in enumerate(q[1]):
        out[q[0] + i - lo] += t * c
    return lo, out


def divide_geometric(coeffs: list, m: int) -> list:
    """Exact quotient of sum c_k z^k by 1 + z + ... + z^{m-1}, from the low end.

    The quotient keeps the dividend's offset.  Raises OracleMismatch when the
    division leaves a remainder.
    """
    n = len(coeffs) - (m - 1)
    expect(n >= 1, f"window of {len(coeffs)} is shorter than the arity-{m} factor")
    rest = list(coeffs)
    quotient = []
    for i in range(n):
        t = rest[i]
        quotient.append(t)
        for j in range(i, i + m):
            rest[j] -= t
    expect(not any(rest[n:]), f"not divisible by the arity-{m} smoothing factor")
    return quotient


def _integral(values) -> tuple[int, list[int]]:
    """(D, D * values) with D the least common denominator, so that the
    checks below run on integers."""
    den = math.lcm(*(F(v).denominator for v in values))
    return den, [int(v * den) for v in values]


def check_solves(
    mask: tuple[int, int, list[Fraction]],
    m: int,
    d: int,
    k_star: int,
    samples: dict[int, Fraction],
    symmetric: bool,
    homogeneous: bool = False,
) -> None:
    """The mask satisfies every constraint of the construction problem.

    Support inside {1-k*, ..., k*}; the dual shift tau = (1/m) sum k a_k is
    1/2; palindromic when symmetric; each residue class mod m sums to 1;
    (1 + ... + z^{m-1})^d divides the generating function; and the
    refinement equation phi(a/2) = sum_k a_k phi((m a + 1 - 2k)/2) holds at
    every a of Z/2.  With ``homogeneous`` the mask is a direction of the
    solution set instead: the same constraints with right-hand sides 0.
    """
    arity, offset, coeffs = mask
    expect(arity == m, f"arity {arity} != {m}")
    offset, coeffs = _trim(offset, coeffs)
    expect(bool(coeffs), "mask is zero")
    k_lo, k_hi = offset, offset + len(coeffs) - 1
    expect(k_lo >= 1 - k_star and k_hi <= k_star, f"support [{k_lo}, {k_hi}] exceeds k*={k_star}")
    if symmetric:
        expect(coeffs == coeffs[::-1] and k_lo + k_hi == 1, "mask is not dual symmetric")
    # every right-hand side is scaled by the common denominator of the mask
    scale, coeffs = _integral(coeffs)
    one = 0 if homogeneous else scale
    moment = sum((offset + i) * c for i, c in enumerate(coeffs))
    expect(2 * moment == one * m, f"shift tau = {F(moment, scale * m)}, a dual mask has tau = 1/2")
    sums = [0] * m
    for i, c in enumerate(coeffs):
        sums[(offset + i) % m] += c
    expect(all(s == one for s in sums), f"residue sums {[str(F(s, scale)) for s in sums]} are not all 1")
    quotient = coeffs
    for _ in range(d):
        quotient = divide_geometric(quotient, m)
    keys = sorted(samples)
    _, values = _integral([samples[k] for k in keys])
    phi = dict(zip(keys, values))
    a_lo = min(keys[0], (keys[0] - 1 + 2 * k_lo) // m)
    a_hi = max(keys[-1], -((-(keys[-1] - 1 + 2 * k_hi)) // m))
    for a in range(a_lo, a_hi + 1):
        rhs = 0
        for i, c in enumerate(coeffs):
            rhs += c * phi.get(m * a + 1 - 2 * (offset + i), 0)
        expect(rhs == one * phi.get(a, 0), f"refinement equation fails at {a}/2")


def smoothing_power(m: int, d: int) -> list[int]:
    """Coefficients of (1 + z + ... + z^{m-1})^d."""
    s = [1]
    for _ in range(d):
        nxt = [0] * (len(s) + m - 1)
        for i, c in enumerate(s):
            for j in range(m):
                nxt[i + j] += c
        s = nxt
    return s


def rank(rows: list[list]) -> tuple[int, bool]:
    """(rank of the coefficient part, whether the system is consistent) of
    augmented rows [coefficients..., right-hand side], by fraction-free
    forward elimination on the rows scaled to integers."""
    rows = [_integral(row)[1] for row in rows]
    r = 0
    for col in range(len(rows[0]) - 1 if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f != 0:
                row = [x * p[col] - f * y for x, y in zip(rows[i], p)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r, all(row[-1] == 0 for row in rows[r:])


def solution_dimension(
    m: int, d: int, k_star: int, samples: dict[int, Fraction], symmetric: bool,
    dual_shift: bool = True,
) -> int | None:
    """Dimension of the affine space of masks that solve the construction
    problem, or None when no mask does.  With ``dual_shift`` false the
    constraint tau = 1/2 is left out.

    The masks on {1-k*, ..., k*} divisible by (1 + ... + z^{m-1})^d are
    exactly a = (1 + ... + z^{m-1})^d b for b on {1-k*, ..., k*-d(m-1)}, so
    the unknowns are b.  On a the constraints are: tau = (1/m) sum k a_k =
    1/2; each residue class mod m sums to 1; a_k = a_{1-k} when symmetric;
    and the refinement equation phi(a/2) = sum_k a_k phi((m a + 1 - 2k)/2)
    at every a of Z/2 where either side can be nonzero.
    """
    s = smoothing_power(m, d)
    ks = range(1 - k_star, k_star + 1)
    b_lo = 1 - k_star
    n = 2 * k_star - d * (m - 1)

    def row(weights: dict[int, Fraction], rhs) -> list:
        """A linear form sum_k weights[k] a_k = rhs, written on b."""
        out = [F(0)] * n + [F(rhs)]
        for k, w in weights.items():
            for j in range(max(0, k - b_lo - len(s) + 1), min(n, k - b_lo + 1)):
                out[j] += w * s[k - b_lo - j]
        return out

    rows = [row({k: F(k) for k in ks}, F(m, 2))] if dual_shift else []
    rows += [row({k: F(1) for k in ks if k % m == r}, 1) for r in range(m)]
    if symmetric:
        rows += [row({k: F(1), 1 - k: F(-1)}, 0) for k in range(1, k_star + 1)]
    s_lo, s_hi = min(samples), max(samples)
    a_lo = min(s_lo, -((-(s_lo + 1 - 2 * k_star)) // m))
    a_hi = max(s_hi, (s_hi - 1 + 2 * k_star) // m)
    for a in range(a_lo, a_hi + 1):
        weights = {k: samples[m * a + 1 - 2 * k] for k in ks if m * a + 1 - 2 * k in samples}
        rows.append(row(weights, samples.get(a, F(0))))
    r, consistent = rank(rows)
    return n - r if consistent else None


def shift_is_free(
    m: int, d: int, k_star: int, samples: dict[int, Fraction], symmetric: bool
) -> bool:
    """The problem's other constraints leave the shift tau free: leaving
    tau = 1/2 out changes the solution set."""
    return solution_dimension(m, d, k_star, samples, symmetric, dual_shift=False) != (
        solution_dimension(m, d, k_star, samples, symmetric)
    )


def _dense(masks: list[tuple[int, int, list[Fraction]]]) -> list[list[Fraction]]:
    """The masks' coefficients on one common index window."""
    lo = min(w[1] for w in masks)
    hi = max(w[1] + len(w[2]) for w in masks)
    vectors = []
    for _, offset, coeffs in masks:
        dense = [F(0)] * (hi - lo)
        dense[offset - lo: offset - lo + len(coeffs)] = coeffs
        vectors.append(dense)
    return vectors


def independent(vectors: list[tuple[int, int, list[Fraction]]]) -> bool:
    """The masks' coefficient vectors are linearly independent."""
    # a trailing 0: the right-hand side of a homogeneous system
    return rank([v + [0] for v in _dense(vectors)])[0] == len(vectors)


def in_family(mask: tuple[int, int, list[Fraction]], family: dict) -> bool:
    """The mask is particular + a combination of the family's basis."""
    base, *directions, point = _dense(
        [mask_from_json(family["particular"])]
        + [mask_from_json(b) for b in family["basis"]]
        + [mask]
    )
    # sum_i t_i directions_i = point - base, one row per coefficient
    rows = [[d[i] for d in directions] + [point[i] - base[i]] for i in range(len(point))]
    return rank(rows)[1]


def difference_part(offset: int, coeffs: list[Fraction], m: int, order: int) -> tuple[int, list[Fraction]]:
    """Symbol (1/m) sum c_k z^k divided by ((1 + ... + z^{m-1})/m)^order."""
    q = list(coeffs)
    for _ in range(order):
        q = divide_geometric(q, m)
    scale = F(m) ** (order - 1)
    return offset, [c * scale for c in q]


def iterated_norms(offset: int, coeffs: list, m: int, levels: int) -> list:
    """Infinity norms of the L-times iterated scheme with symbol coefficients
    ``coeffs``, L = 1..levels: the largest sum of |coefficients| of
    p(z) p(z^m) ... p(z^{m^{L-1}}) over a residue class mod m^L."""
    base = list(coeffs)
    q = list(coeffs)
    q_offset = offset
    norms = []
    for level in range(1, levels + 1):
        if level > 1:
            stride = m ** (level - 1)
            nxt = [0] * (len(q) + stride * (len(base) - 1))
            for j, b in enumerate(base):
                if b == 0:
                    continue
                shift = stride * j
                for i, c in enumerate(q):
                    nxt[i + shift] += c * b
            q = nxt
            q_offset = q_offset + stride * offset
        modulus = m**level
        sums = [0] * modulus
        for i, c in enumerate(q):
            sums[(q_offset + i) % modulus] += abs(c)
        norms.append(max(sums))
    return norms


def rooted(norms: list) -> list[float]:
    return [float(n) ** (1.0 / level) for level, n in enumerate(norms, start=1)]


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def subdivide_closed(mask: tuple[int, int, list[Fraction]], points: list, steps: int) -> list:
    """Closed-polygon subdivision c'_{mk+j} += a_j c_k, with wrap-around."""
    m, offset, coeffs = mask
    weights = [float(c) for c in coeffs]
    pts = [tuple(p) for p in points]
    for _ in range(steps):
        n_out = m * len(pts)
        out = [[0.0, 0.0] for _ in range(n_out)]
        for k, (x, y) in enumerate(pts):
            for j, w in enumerate(weights):
                target = out[(m * k + offset + j) % n_out]
                target[0] += w * x
                target[1] += w * y
        pts = [tuple(p) for p in out]
    return pts
