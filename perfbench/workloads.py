"""Seeded workload generators and the operations they feed to the CLI.

A workload is a list of operations plus the input files they read.  One
operation (op) is one CLI command as a user would run it; for ``derive`` it
also includes ``verify`` on every mask the derive produced.  Ops are plain
JSON-able dicts, so the same seed always yields the same argv and files.

Each workload has a fixed shape: the same problem sizes, depths, grids and
levels for every seed.  The seed picks the values inside that shape (mix
weights, family members, reference-family parameters, control points, op
order), so every seed sends different inputs and one seed still costs what
another does.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from dualsubdiv import catalog
from dualsubdiv.construct import ConstructionProblem, derive
from dualsubdiv.samples import samples_from_shorthand

import oracle
from oracle import OracleMismatch, expect

F = Fraction

# sample shorthand -> number of interpolation points (its support width)
SAMPLE_POINTS = {"dd4": 4, "dd6": 6, "dd:8": 8, "mix": 6}
# values of one size, so that the seed changes inputs but not their cost
MIX_WEIGHTS = ("1/5", "2/5", "3/5", "4/5")
MEMBER_TS = ("1", "-1", "2", "-2")

# criterion 7's search intervals for the quinary reference family, per order
QUINARY_SEARCH = {0: (-20, 16), 1: (-8, 4), 2: (-2.5, 0)}

REPRODUCTION = {
    # mask name -> (samples, max degree, depth, expected degree)
    "ternary": ("dd4", 5, 4, 3),
    "cantor": ("dd:2", 3, 4, 0),
    "quinary_w-7_5": ("dd4", 4, 3, 2),
    "quartic": ("dd6", 5, 3, 4),
}

DESIGN_ARITIES = range(3, 11)
DESIGN_SMOOTHING = (1, 2, 3, 4)
DESIGN_KINDS = tuple(SAMPLE_POINTS)


def k_min(m: int, d: int, points: int) -> int:
    """Smallest k* with a nonempty unknown window whose limit support holds
    the samples' support."""
    return max(math.ceil((d * (m - 1) + 1) / 2), math.ceil(((points - 1) * (m - 1) + 1) / 2))


def _mask_json(mask) -> str:
    return json.dumps(mask.to_dict(), indent=2) + "\n"


def _derive_argv(m, d, k, spec, symmetric):
    argv = ["derive", "--arity", str(m), "--smoothing", str(d), "--kstar", str(k), "--samples", spec]
    if symmetric:
        argv.append("--symmetric")
    return argv + ["--out", "out/derive.json"]


def _derive_op(m, d, k, spec, symmetric, rng, expect_outcome=None, **extra):
    """A derive op.  Its outcome (infeasible, or the dimension of the
    solution set) is checked against ``oracle.solution_dimension``; the
    catalog problems also pin it in ``expect``."""
    op = {
        "kind": "derive",
        "argv": _derive_argv(m, d, k, spec, symmetric),
        "problem": {"m": m, "d": d, "k_star": k, "samples": spec, "symmetric": symmetric},
        "member_t": rng.choice(MEMBER_TS),
    }
    if expect_outcome is not None:
        op["expect"] = expect_outcome
    op.update(extra)
    return op


def design_grid(rng: random.Random) -> tuple[list, dict]:
    """The catalog problems, one m=11 problem, and for every arity 3..10 each
    (smoothing order, sample kind) pair once."""
    ops = [
        _derive_op(3, 1, 2, "dd:2", True, rng, "unique", reference=catalog.cantor_mask().to_dict()),
        _derive_op(3, 4, 7, "dd4", True, rng, "unique", reference=catalog.ternary_cubic_mask().to_dict()),
        _derive_op(3, 4, 5, "dd4", True, rng, "infeasible"),
        _derive_op(3, 4, 6, "dd4", True, rng, "infeasible"),
        _derive_op(
            5, 3, 10, "dd4", True, rng, "family", dimension=1,
            members=[catalog.quinary_family_mask(w).to_dict() for w in (F(0), F(-7, 5), F(10))],
        ),
    ]
    w = rng.choice(MIX_WEIGHTS)
    member = catalog.quaternary_family_mask(F(w), *catalog.quaternary_cubic_params(F(w)))
    ops.append(
        _derive_op(4, 3, 11, f"mix:{w}", True, rng, "family", dimension=2, members=[member.to_dict()])
    )
    ops.append(_derive_op(11, 6, 45, "dd:8", True, rng))
    # The grid's shape is fixed, so that one seed costs what another does: per
    # arity, the k* offset above the smallest k* runs through 0..3 along every
    # smoothing order and every sample kind, and half of the problems are
    # symmetric.  The seed picks the mix weights, the family members checked
    # and the order of the ops.
    for m in DESIGN_ARITIES:
        for i, d in enumerate(DESIGN_SMOOTHING):
            for j, kind in enumerate(DESIGN_KINDS):
                spec = f"mix:{rng.choice(MIX_WEIGHTS)}" if kind == "mix" else kind
                k = k_min(m, d, SAMPLE_POINTS[kind]) + (i + j + m) % 4
                symmetric = (i + j) % 2 == 0
                ops.append(_derive_op(m, d, k, spec, symmetric, rng))
    rng.shuffle(ops)
    return ops, {}


def known_defect(op: dict) -> str | None:
    """Why ``derive`` is known to answer the op's problem wrongly, or None.

    ``derive`` does not impose the dual shift tau = (1/m) sum k a_k = 1/2.
    Symmetry implies it, and so do the other constraints of most problems.
    Where they leave tau free, ``derive`` returns a family one dimension too
    large whose masks have tau != 1/2, and ``verify`` rejects them.  Such
    ops are held out of the timed run and listed with every result;
    ``check.py`` runs them and fails until ``derive`` imposes tau = 1/2.
    """
    if op["kind"] != "derive" or op["problem"]["symmetric"]:
        return None
    p = op["problem"]
    if oracle.shift_is_free(p["m"], p["d"], p["k_star"], _samples(p["samples"]), False):
        return "derive does not impose tau = 1/2, which this problem's other constraints leave free"
    return None


# shapes whose solution is unique, resp. a line, for every weight in MIX_WEIGHTS:
# (m, d, k*) with samples mix:W and symmetry
UNIQUE_SHAPES = ((3, 4, 9), (6, 4, 14))
LINE_SHAPES = ((5, 4, 14), (6, 4, 15))


def _problem(m, d, k, spec, symmetric=True):
    return ConstructionProblem(m, d, k, samples_from_shorthand(spec), symmetric)


def _catalog_masks(rng: random.Random) -> dict:
    """name -> (mask, samples shorthand) for the reference masks."""
    w = rng.choice(MIX_WEIGHTS)
    return {
        "ternary": (catalog.ternary_cubic_mask(), "dd4"),
        "cantor": (catalog.cantor_mask(), "dd:2"),
        "quinary_w-7_5": (catalog.quinary_family_mask(F(-7, 5)), "dd4"),
        "quinary_w": (catalog.quinary_family_mask(F(rng.choice((-10, -5, 5, 10)))), "dd4"),
        "quartic": (catalog.quaternary_quartic_mask(), "dd6"),
        "quaternary_cubic": (
            catalog.quaternary_family_mask(F(w), *catalog.quaternary_cubic_params(F(w))),
            f"mix:{w}",
        ),
    }


def _polygon(rng: random.Random, n: int = 6) -> str:
    rows = ["x,y"]
    for i in range(n):
        angle = 2 * math.pi * i / n
        radius = rng.randint(50, 150) / 100
        rows.append(f"{radius * math.cos(angle)!r},{radius * math.sin(angle)!r}")
    return "\n".join(rows) + "\n"


def limit_eval(rng: random.Random) -> tuple[list, dict]:
    """eval, curve and reproduce on the catalog masks and on two derived ones."""
    masks = _catalog_masks(rng)
    for m, d, k in UNIQUE_SHAPES:
        spec = f"mix:{rng.choice(MIX_WEIGHTS)}"
        masks[f"derived_m{m}"] = (derive(_problem(m, d, k, spec)).unique_mask, spec)
    files = {f"masks/{name}.json": _mask_json(mask) for name, (mask, _) in masks.items()}
    # depths and steps per arity keep each lattice and polyline at a few
    # thousand points
    depths = {3: (4, 5), 4: (3, 4), 5: (3, 4), 6: (3,)}
    steps = {3: 5, 4: 4, 5: 3, 6: 3}
    ops = []
    for name, (mask, spec) in masks.items():
        path = f"masks/{name}.json"
        for depth in depths[mask.arity]:
            ops.append({
                "kind": "eval",
                "argv": ["eval", "--mask", path, "--samples", spec, "--depth", str(depth), "--out", "out/values.csv"],
                "mask": path, "samples": spec, "depth": depth,
            })
        points = f"points/{name}.csv"
        files[points] = _polygon(rng)
        ops.append({
            "kind": "curve",
            "argv": ["curve", "--mask", path, "--points", points, "--steps", str(steps[mask.arity]),
                     "--closed", "--out", "out/curve.csv"],
            "mask": path, "points": points, "steps": steps[mask.arity],
        })
    for name, (spec, maxdeg, depth, degree) in REPRODUCTION.items():
        ops.append({
            "kind": "reproduce",
            "argv": ["reproduce", "--mask", f"masks/{name}.json", "--samples", spec,
                     "--maxdeg", str(maxdeg), "--depth", str(depth), "--out", "out/degree.json"],
            "degree": degree,
        })
    rng.shuffle(ops)
    return ops, files


def _family_json(family) -> str:
    return json.dumps(family.to_dict(), indent=2) + "\n"


def family_scan(rng: random.Random) -> tuple[list, dict]:
    """sweep and sweep --bisect on three one-parameter families, regularity on
    the catalog masks."""
    files = {"families/quinary.json": _family_json(catalog.quinary_reference_family())}
    derived = []
    for m, d, k in LINE_SHAPES:
        path = f"families/derived_m{m}.json"
        spec = f"mix:{rng.choice(MIX_WEIGHTS)}"
        files[path] = _family_json(derive(_problem(m, d, k, spec)))
        derived.append(path)
    masks = _catalog_masks(rng)
    for name, (mask, _) in masks.items():
        files[f"masks/{name}.json"] = _mask_json(mask)
    ops = []

    def sweep(path, order, levels, lo, hi, grid, bisect):
        argv = ["sweep", "--family", path, "--order", str(order), "--levels", str(levels),
                f"--range={lo}:{hi}", "--grid", str(grid), "--out", "out/sweep.json"]
        if bisect:
            argv.insert(-2, "--bisect")
        ops.append({
            "kind": "bisect" if bisect else "sweep", "argv": argv, "family": path,
            "order": order, "levels": levels, "lo": lo, "hi": hi, "grid": grid,
        })

    for order, (lo, hi) in QUINARY_SEARCH.items():
        for levels in (3, 4):
            sweep("families/quinary.json", order, levels, lo, hi, 33, True)
            sweep("families/quinary.json", order, levels, lo, hi, 33, False)
    for path in derived:
        for order in (0, 1, 2):
            for levels in (3, 4):
                lo = rng.choice((-3, -2, -1))
                sweep(path, order, levels, lo, lo + 4, 17, False)
    # levels per arity keep the exact iterated symbols at a few thousand terms
    levels = {3: 6, 4: 4, 5: 4}
    for name, (mask, _) in masks.items():
        for order in (0,) if name == "cantor" else (0, 1, 2):
            ops.append({
                "kind": "regularity",
                "argv": ["regularity", "--mask", f"masks/{name}.json", "--order", str(order),
                         "--levels", str(levels[mask.arity]), "--out", "out/regularity.json"],
                "mask": f"masks/{name}.json", "order": order,
            })
    rng.shuffle(ops)
    return ops, files


GENERATORS = {"design-grid": design_grid, "limit-eval": limit_eval, "family-scan": family_scan}


def generate(workload: str, seed: int) -> tuple[list, dict]:
    """(ops, files) for a workload; files map relative paths to their text."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------- execution


class OpFailed(Exception):
    """The CLI returned an unexpected exit code for an op."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _expect_code(code, wanted, argv) -> None:
    if code != wanted:
        raise OpFailed(f"exit code {code}, expected {wanted}: {' '.join(argv)}")


def execute(op: dict, call) -> list:
    """Run one op through ``call(argv) -> exit code``; return its outputs.

    Only the CLI calls are timed by ``call``; the file handling between them
    is the benchmark's own work.
    """
    argv = op["argv"]
    code = call(argv)
    if op["kind"] != "derive":
        _expect_code(code, 0, argv)
        out = argv[argv.index("--out") + 1]
        return [_read(out)]
    if code == 1:
        return ["infeasible"]
    _expect_code(code, 0, argv)
    derived = json.loads(_read("out/derive.json"))
    outputs = [derived]
    if "problem" in derived:
        part = oracle.mask_from_json(derived["particular"])
        direction = oracle.mask_from_json(derived["basis"][0])
        offset, coeffs = oracle.combine(part[1:], direction[1:], F(op["member_t"]))
        member = {"arity": part[0], "offset": offset, "coeffs": [str(c) for c in coeffs]}
        masks = [derived["particular"], member]
    else:
        masks = [derived]
    for mask in masks:
        _write("out/verify_mask.json", json.dumps(mask))
        verify_argv = ["verify", "--mask", "out/verify_mask.json", "--samples",
                       op["problem"]["samples"], "--out", "out/verify.json"]
        _expect_code(call(verify_argv), 0, verify_argv)
        outputs.append((mask, json.loads(_read("out/verify.json"))))
    return outputs


_SAMPLES: dict[str, dict[int, Fraction]] = {}


def _samples(spec: str) -> dict[int, Fraction]:
    if spec not in _SAMPLES:
        s = samples_from_shorthand(spec)
        _SAMPLES[spec] = {s.offset + i: v for i, v in enumerate(s.values)}
    return _SAMPLES[spec]


def _load_mask(path: str):
    return oracle.mask_from_json(json.loads(_read(path)))


def check(op: dict, outputs: list) -> None:
    """Raise OracleMismatch unless the outputs are exactly right."""
    CHECKS[op["kind"]](op, outputs)


def _check_derive(op, outputs):
    p = op["problem"]
    samples = _samples(p["samples"])
    dimension = oracle.solution_dimension(p["m"], p["d"], p["k_star"], samples, p["symmetric"])
    if outputs == ["infeasible"]:
        expect(dimension is None, f"derive reported infeasible, the solutions have dimension {dimension}")
        expect(op.get("expect", "infeasible") == "infeasible", f"expected {op.get('expect')}, got infeasible")
        return
    expect(dimension is not None, "infeasible problem produced a mask")
    derived = outputs[0]
    basis = [oracle.mask_from_json(b) for b in derived["basis"]] if "problem" in derived else []
    expect(len(basis) == dimension, f"derive gave dimension {len(basis)}, the solutions have {dimension}")
    if op.get("expect") == "unique":
        expect(derived == op["reference"], "mask differs from the catalog mask")
    if op.get("expect") == "family":
        expect(len(basis) == op["dimension"], f"expected a family of dimension {op['dimension']}")
        for member in op["members"]:
            expect(oracle.in_family(oracle.mask_from_json(member), derived),
                   "catalog member is not in the derived family")
    expect(op.get("expect") != "infeasible", "infeasible problem produced a mask")
    for mask, verdict in outputs[1:]:
        expect(verdict == {"satisfied": True, "residual": []}, f"verify reported {verdict}")
        oracle.check_solves(
            oracle.mask_from_json(mask), p["m"], p["d"], p["k_star"], samples, p["symmetric"]
        )
    if basis:
        # every direction solves the homogeneous problem and the directions are
        # independent: with the dimension above, the family is the whole
        # solution set
        for direction in basis:
            oracle.check_solves(direction, p["m"], p["d"], p["k_star"], samples, p["symmetric"], homogeneous=True)
        expect(oracle.independent(basis), "the family's basis is linearly dependent")


def _check_eval(op, outputs):
    """Rows are the lattice Z/(2 m^depth) over the limit support.  The values
    equal the samples on Z/2 (delta at the integers, exactly) and satisfy the
    refinement equation phi(x) = sum_k a_k phi(m x - k + 1/2) at every row,
    read from the output's own coarser rows, within 1e-9.  Together these fix
    every value."""
    m, offset, coeffs = _load_mask(op["mask"])
    coarse = m ** op["depth"]
    q = 2 * coarse
    # limit support [(k_l - 1/2)/(m-1), (k_r - 1/2)/(m-1)] on Z/q
    lo = math.ceil(F(2 * offset - 1, 2 * (m - 1)) * q)
    hi = math.floor(F(2 * (offset + len(coeffs) - 1) - 1, 2 * (m - 1)) * q)
    rows = outputs[0].strip().split("\n")[1:]
    expect(len(rows) == hi - lo + 1, f"{len(rows)} lattice rows, expected {hi - lo + 1}")
    values = {}
    for i, row in enumerate(rows):
        num, den, _, value = row.split(",")
        expect(int(num) == lo + i and int(den) == q, f"row {i} is not lattice point {lo + i}/{q}")
        values[lo + i] = float(value)
    samples = _samples(op["samples"])
    weights = [(float(a), (1 - 2 * (offset + j)) * coarse) for j, a in enumerate(coeffs)]
    for n, value in values.items():
        if n % q == 0:
            wanted = 1.0 if n == 0 else 0.0
            expect(value == wanted, f"value {value} at integer {n // q}")
        if n % coarse == 0:
            wanted = float(samples.get(n // coarse, F(0)))
            expect(value == wanted, f"value {value} at {n // coarse}/2, sample {wanted}")
        # m x - k + 1/2 on Z/q is the lattice point m n + (1 - 2k) m^depth
        refined = math.fsum(a * values.get(m * n + shift, 0.0) for a, shift in weights)
        expect(oracle.close(value, refined), f"value {value} at {n}/{q}, refinement equation gives {refined}")


def _check_reproduce(op, outputs):
    degree = json.loads(outputs[0])["degree"]
    expect(degree == op["degree"], f"degree {degree}, expected {op['degree']}")


def _check_curve(op, outputs):
    mask = _load_mask(op["mask"])
    control = [tuple(float(v) for v in row.split(",")) for row in _read(op["points"]).split("\n")[1:] if row]
    expected = oracle.subdivide_closed(mask, control, op["steps"])
    rows = outputs[0].strip().split("\n")[1:]
    expect(len(rows) == len(expected), f"{len(rows)} curve points, expected {len(expected)}")
    step = F(1, mask[0] ** op["steps"])
    t0 = None
    for i, (row, (x, y)) in enumerate(zip(rows, expected)):
        t, px, py = (float(v) for v in row.split(","))
        t0 = t if t0 is None else t0
        expect(oracle.close(t, t0 + i * float(step)), f"parameter {t} at point {i}")
        expect(oracle.close(px, x) and oracle.close(py, y), f"point {i} is ({px}, {py}), expected ({x}, {y})")


def _check_regularity(op, outputs):
    report = json.loads(outputs[0])
    m, offset, coeffs = _load_mask(op["mask"])
    order = op["order"]
    levels = int(op["argv"][op["argv"].index("--levels") + 1])
    part = oracle.difference_part(offset, coeffs, m, order + 1)
    norms = oracle.iterated_norms(*part, m, levels)
    bounds = oracle.rooted(norms)
    expect(report["levels"] == levels and len(report["bounds"]) == levels, "wrong number of levels")
    for got, want in zip(report["bounds"], bounds):
        expect(oracle.close(got, want), f"bound {got}, expected {want}")
    contractive = any(n < 1 for n in norms)
    expect(report["contractive"] == contractive, f"contractive flag {report['contractive']}")
    if contractive:
        holder = order - math.log(min(bounds)) / math.log(m)
        expect(oracle.close(report["holder_lower_bound"], holder), "Holder bound differs")
    else:
        expect(report["holder_lower_bound"] is None, "Holder bound without contractivity")


_LINES: dict = {}


def _line(path: str, order: int):
    """Exact difference parts (particular, direction) of a family file."""
    text = _read(path)
    key = (text, order)
    if key not in _LINES:
        data = json.loads(text)
        m = data["problem"]["arity"]
        part = oracle.mask_from_json(data["particular"])
        direction = oracle.mask_from_json(data["basis"][0])
        _LINES[key] = (
            m,
            oracle.difference_part(part[1], part[2], m, order + 1),
            oracle.difference_part(direction[1], direction[2], m, order + 1),
        )
    return _LINES[key]


def _best_bound(op, t: float) -> float:
    m, dp, dv = _line(op["family"], op["order"])
    offset, coeffs = oracle.combine(dp, dv, t)
    return min(oracle.rooted(oracle.iterated_norms(offset, coeffs, m, op["levels"])))


def _check_sweep(op, outputs):
    rows = json.loads(outputs[0])
    lo, hi, grid = float(op["lo"]), float(op["hi"]), op["grid"]
    expect(len(rows) == grid, f"{len(rows)} grid points, expected {grid}")
    for i, row in enumerate(rows):
        t = lo + (hi - lo) * i / (grid - 1)
        expect(row["t"] == t, f"grid point {i} at {row['t']}, expected {t}")
        bound = _best_bound(op, t)
        expect(oracle.close(row["bound"], bound), f"bound {row['bound']} at t={t}, expected {bound}")
        expect(row["contractive"] == (row["bound"] < 1.0), f"contractive flag at t={t}")


def _check_bisect(op, outputs):
    """Criterion 7's sign pattern around the returned endpoints."""
    result = json.loads(outputs[0])
    low, high = result["low"], result["high"]
    expect(op["lo"] <= low < high <= op["hi"], f"endpoints ({low}, {high}) outside the search interval")

    def contractive(t):
        return _best_bound(op, t) < 1.0

    expect(contractive(low + 0.1) and contractive(high - 0.1), f"({low}, {high}) not contractive inside")
    if low > op["lo"]:
        expect(not contractive(low - 0.05) and not contractive(low - 0.1), f"contractive below {low}")
    if high < op["hi"]:
        expect(not contractive(high + 0.05) and not contractive(high + 0.1), f"contractive above {high}")


CHECKS = {
    "derive": _check_derive,
    "eval": _check_eval,
    "reproduce": _check_reproduce,
    "curve": _check_curve,
    "regularity": _check_regularity,
    "sweep": _check_sweep,
    "bisect": _check_bisect,
}
