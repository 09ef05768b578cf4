"""Command line front end.

Exact objects (masks, sample sets, families) travel as JSON with rational
entries serialized as "p/q" strings; point clouds and polylines travel as CSV.

Exit codes: 0 success, 1 infeasible construction, 2 input/format errors,
3 identity violation reported by ``verify``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import catalog
from .analyze import (
    NoContractivePoint,
    SeedInconsistent,
    contractivity_bound,
    contractivity_profile,
    contractivity_range,
    refine_values,
    reproduction_degree,
    subdivide_curve,
)
from .charax import (
    ArityTwoUnsupported,
    ShiftLatticeMismatch,
    ShiftMismatch,
    verify_dual_interpolatory,
    verify_lemma_form,
    verify_refinability,
)
from .construct import (
    ConstructionProblem,
    InfeasibleProblem,
    InvalidWindow,
    SolutionFamily,
    derive,
)
from .samples import SampleSet, samples_from_shorthand
from .scheme import Mask, NotDivisible

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3


class CliError(Exception):
    """Input or format problem; maps to exit code 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc


def _load_mask(path: str) -> Mask:
    data = _load_json(path)
    try:
        return Mask.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad mask file {path}: {exc}") from exc


def _resolve_samples(text: str) -> SampleSet:
    try:
        shorthand = samples_from_shorthand(text)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad sample shorthand {text!r}: {exc}") from exc
    if shorthand is not None:
        return shorthand
    data = _load_json(text)
    try:
        return SampleSet.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad sample file {text}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cmd_derive(args) -> int:
    samples = _resolve_samples(args.samples)
    try:
        problem = ConstructionProblem(
            args.arity, args.smoothing, args.kstar, samples, args.symmetric
        )
    except (InvalidWindow, ValueError) as exc:
        raise CliError(str(exc)) from exc
    try:
        family = derive(problem)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if family.dimension == 0:
        payload = family.particular.to_dict()
    else:
        payload = family.to_dict()
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    mask = _load_mask(args.mask)
    samples = _resolve_samples(args.samples)
    try:
        if args.form == "refinability":
            result = verify_refinability(mask, samples, args.lattice or samples.T)
        elif args.form == "lemma":
            result = verify_lemma_form(mask, samples)
        else:
            result = verify_dual_interpolatory(mask, samples)
    except (ArityTwoUnsupported, ShiftMismatch, ShiftLatticeMismatch, ValueError) as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "satisfied": result.satisfied,
        "residual": [[e, str(c)] for e, c in result.nonzero_terms()],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK if result.satisfied else EXIT_VIOLATION


def cmd_eval(args) -> int:
    mask = _load_mask(args.mask)
    samples = _resolve_samples(args.samples)
    try:
        lattice = refine_values(mask, samples, args.depth)
    except (SeedInconsistent, ValueError) as exc:
        raise CliError(str(exc)) from exc
    rows = ["numerator,denominator,x,value"]
    for i, v in enumerate(lattice.values):
        p = lattice.offset + i
        x = p / lattice.denominator
        rows.append(f"{p},{lattice.denominator},{x},{float(v)}")
    _emit("\n".join(rows), args.out)
    return EXIT_OK


def cmd_regularity(args) -> int:
    mask = _load_mask(args.mask)
    try:
        report = contractivity_bound(mask, args.order, args.levels)
    except (NotDivisible, ValueError) as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "order": report.order,
        "levels": report.levels,
        "bounds": list(report.bounds),
        "contractive": report.contractive,
        "holder_lower_bound": report.holder_lower_bound,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise CliError(f"bad range {text!r}, expected a:b") from exc
    if not lo < hi:
        raise CliError(f"bad range {text!r}: lower bound must be below upper")
    return lo, hi


def cmd_sweep(args) -> int:
    data = _load_json(args.family)
    try:
        family = SolutionFamily.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad family file {args.family}: {exc}") from exc
    lo, hi = _parse_range(args.range)
    if args.grid < 2:
        raise CliError(f"--grid must be at least 2, got {args.grid}")
    try:
        if args.bisect:
            left, right = contractivity_range(
                family, args.order, args.levels, (lo, hi), grid=args.grid
            )
            payload = {"order": args.order, "levels": args.levels, "low": left, "high": right}
        else:
            ts = [lo + (hi - lo) * i / (args.grid - 1) for i in range(args.grid)]
            payload = [
                {"t": t, "bound": bound, "contractive": bound < 1.0}
                for t, bound in contractivity_profile(family, args.order, args.levels, ts)
            ]
    except (NoContractivePoint, NotDivisible, ValueError) as exc:
        raise CliError(str(exc)) from exc
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    mask = _load_mask(args.mask)
    samples = _resolve_samples(args.samples)
    try:
        degree = reproduction_degree(mask, samples, args.maxdeg, args.depth, args.tol)
    except (SeedInconsistent, ValueError) as exc:
        raise CliError(str(exc)) from exc
    _emit(json.dumps({"degree": degree}), args.out)
    return EXIT_OK


def _read_points(path: str) -> list[tuple[float, float]]:
    points = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    x, y = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if not points:
                        continue  # tolerate a header line
                    raise CliError(f"bad point row {row!r} in {path}")
                points.append((x, y))
    except OSError as exc:
        raise CliError(f"cannot read points from {path}: {exc}") from exc
    if len(points) < 2:
        raise CliError(f"{path} holds fewer than two points")
    return points


def cmd_curve(args) -> int:
    mask = _load_mask(args.mask)
    control = _read_points(args.points)
    try:
        line = subdivide_curve(mask, control, args.steps, closed=args.closed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rows = ["t,x,y"]
    for t, (x, y) in zip(line.parameters, line.points):
        rows.append(f"{t},{x},{y}")
    _emit("\n".join(rows), args.out)
    return EXIT_OK


def _corpus_checks():
    F = Fraction

    def cantor_derive():
        family = derive(ConstructionProblem(3, 1, 2, catalog.cantor_samples(), True))
        ok = family.dimension == 0 and family.unique_mask == catalog.cantor_mask()
        return ok, "unique mask {1/2, 1, 1, 1/2}"

    def cantor_identity():
        res = verify_dual_interpolatory(catalog.cantor_mask(), catalog.cantor_samples())
        return res.satisfied, "dual interpolatory identity"

    def ternary_derive():
        family = derive(catalog.ternary_cubic_problem())
        ok = family.dimension == 0 and family.unique_mask == catalog.ternary_cubic_mask()
        return ok, "unique 14-entry mask"

    def ternary_infeasible():
        for k_star in (5, 6):
            try:
                derive(ConstructionProblem(3, 4, k_star, catalog.ternary_cubic_problem().samples, True))
            except InfeasibleProblem:
                continue
            return False, f"k*={k_star} unexpectedly solvable"
        return True, "k* in {5, 6} infeasible"

    def ternary_identity():
        res = verify_dual_interpolatory(
            catalog.ternary_cubic_mask(), catalog.ternary_cubic_problem().samples
        )
        return res.satisfied, "dual interpolatory identity"

    def quinary_family():
        family = derive(catalog.quinary_problem())
        if family.dimension != 1:
            return False, f"dimension {family.dimension} != 1"
        for w in (F(0), F(-7, 5), F(10)):
            if not family.contains(catalog.quinary_family_mask(w)):
                return False, f"w={w} not a member"
        return True, "dimension 1; members at w in {0, -7/5, 10}"

    def quinary_identity():
        res = verify_dual_interpolatory(
            catalog.quinary_family_mask(0), catalog.quinary_problem().samples
        )
        return res.satisfied, "dual interpolatory identity at w=0"

    def quaternary_families():
        for w in (F(0), F(1, 2), F(1)):
            family = derive(catalog.quaternary_problem(w))
            if family.dimension != 2:
                return False, f"w={w}: dimension {family.dimension} != 2"
            if w == 1:
                member = catalog.quaternary_quartic_mask()
            else:
                v, u = catalog.quaternary_cubic_params(w)
                member = catalog.quaternary_family_mask(w, v, u)
            if not family.contains(member):
                return False, f"w={w}: reference mask not a member"
        return True, "dimension 2 at w in {0, 1/2, 1}; reference members"

    def quaternary_quartic_half():
        mask = catalog.quaternary_quartic_mask()
        expected = [
            F(n, catalog.QUARTIC_DENOMINATOR) for n in catalog.QUARTIC_HALF_NUMERATORS
        ]
        ok = list(mask.coeffs[:11]) == expected
        return ok, "frozen first-half coefficients"

    def quaternary_identity():
        res = verify_dual_interpolatory(
            catalog.quaternary_quartic_mask(), catalog.blended_samples(1)
        )
        return res.satisfied, "dual interpolatory identity"

    return [
        ("cantor-derive", cantor_derive),
        ("cantor-identity", cantor_identity),
        ("ternary-derive", ternary_derive),
        ("ternary-infeasible", ternary_infeasible),
        ("ternary-identity", ternary_identity),
        ("quinary-family", quinary_family),
        ("quinary-identity", quinary_identity),
        ("quaternary-families", quaternary_families),
        ("quaternary-quartic-half", quaternary_quartic_half),
        ("quaternary-identity", quaternary_identity),
    ]


def cmd_corpus(args) -> int:
    all_ok = True
    for name, fn in _corpus_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a CLI crash
            ok, detail = False, f"error: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsubdiv",
        description="Construct, verify and analyze dual interpolatory subdivision schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    samples_help = (
        "sample values on Z/2: dd4, dd6, dd:N (N-point), mix:W (4/6-point blend"
        " with rational weight W), or a JSON file"
    )

    p = sub.add_parser("derive", help="solve the construction system for a mask or family")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--smoothing", type=int, required=True, help="smoothing factor order d")
    p.add_argument("--kstar", type=int, required=True, help="mask support is {1-k*, ..., k*}")
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="check a characterization identity exactly")
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--form", choices=["dual", "lemma", "refinability"], default="dual")
    p.add_argument("--lattice", type=int, help="lattice density T for refinability")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="evaluate the limit function on a refined lattice")
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("regularity", help="difference-scheme contraction bounds")
    p.add_argument("--mask", required=True)
    p.add_argument("--order", type=int, default=0, help="certify C^order")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_regularity)

    p = sub.add_parser("sweep", help="contraction bounds along a one-parameter family")
    p.add_argument("--family", required=True, help="family JSON from derive")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--range", required=True, help="parameter interval a:b")
    p.add_argument("--bisect", action="store_true", help="bisect the contractive interval")
    p.add_argument("--grid", type=int, default=129)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("reproduce", help="polynomial reproduction degree")
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--maxdeg", type=int, default=6)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("curve", help="subdivide a control polygon")
    p.add_argument("--mask", required=True)
    p.add_argument("--points", required=True, help="CSV of x,y control points")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--closed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("corpus", help="re-derive the reference schemes and report")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
