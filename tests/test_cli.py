import json
import math
import os
import stat
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.analyze import contractivity_profile, refine_values
from dualsubdiv.cli import main
from dualsubdiv.construct import SolutionFamily, derive
from dualsubdiv.samples import samples_from_shorthand
from dualsubdiv.scheme import Mask, shift_parameter
from oracle import perturbed


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def cantor_mask_file(tmp_path):
    return write_json(tmp_path / "cantor.json", catalog.cantor_mask().to_dict())


@pytest.fixture
def cantor_samples_file(tmp_path):
    return write_json(tmp_path / "cantor_samples.json", catalog.cantor_samples().to_dict())


def test_derive_ternary_round_trip(tmp_path, capsys):
    out = tmp_path / "mask.json"
    code = main([
        "derive", "--arity", "3", "--smoothing", "4", "--kstar", "7",
        "--samples", "dd4", "--symmetric", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert Mask.from_dict(data) == catalog.ternary_cubic_mask()
    # string-exact rational serialization
    assert data["coeffs"][0] == "13/1296"
    assert data["coeffs"][6] == "137/144"


def test_derive_infeasible_exit_code(capsys):
    code = main([
        "derive", "--arity", "3", "--smoothing", "4", "--kstar", "5",
        "--samples", "dd4", "--symmetric",
    ])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def test_derive_family_json(tmp_path):
    out = tmp_path / "family.json"
    code = main([
        "derive", "--arity", "5", "--smoothing", "3", "--kstar", "10",
        "--samples", "dd4", "--symmetric", "--out", str(out),
    ])
    assert code == 0
    family = SolutionFamily.from_dict(json.loads(out.read_text()))
    assert family.dimension == 1
    assert family.contains(catalog.quinary_family_mask(10))


def test_verify_satisfied(cantor_mask_file, cantor_samples_file, capsys):
    code = main(["verify", "--mask", cantor_mask_file, "--samples", cantor_samples_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"satisfied": True, "residual": []}


def test_verify_violation(tmp_path, cantor_mask_file, capsys):
    bad = perturbed(catalog.cantor_samples(), 1, F(1, 100))
    samples_file = write_json(tmp_path / "bad.json", bad.to_dict())
    code = main(["verify", "--mask", cantor_mask_file, "--samples", samples_file])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is False
    assert payload["residual"]


def test_verify_refinability_form(cantor_mask_file, cantor_samples_file, capsys):
    code = main([
        "verify", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--form", "refinability",
    ])
    assert code == 0


def test_verify_arity_two_is_input_error(tmp_path, capsys):
    mask_file = write_json(tmp_path / "m2.json", Mask(2, 0, [1, 1]).to_dict())
    code = main(["verify", "--mask", mask_file, "--samples", "dd4"])
    assert code == 2
    assert "arity 2" in capsys.readouterr().err


def test_eval_csv(tmp_path, cantor_mask_file, cantor_samples_file):
    out = tmp_path / "values.csv"
    code = main([
        "eval", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--depth", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "numerator,denominator,x,value"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert float(rows[0][3]) == 1.0
    assert all(int(r[1]) == 18 for r in rows.values())
    assert len(rows) == 2 * 13 + 1  # numerators -13..13 on [-3/4, 3/4]


@pytest.mark.parametrize(
    "mask,spec,depth",
    [
        (catalog.cantor_mask(), "dd:2", 3),
        (catalog.quinary_family_mask(F(-7, 5)), "dd4", 2),
        (catalog.quaternary_quartic_mask(), "dd6", 2),
    ],
    ids=["cantor", "quinary", "quartic"],
)
def test_eval_values_are_the_lattice_fractions_rounded(tmp_path, mask, spec, depth):
    mask_file = write_json(tmp_path / "mask.json", mask.to_dict())
    out = tmp_path / "values.csv"
    code = main([
        "eval", "--mask", mask_file, "--samples", spec, "--depth", str(depth), "--out", str(out),
    ])
    assert code == 0
    column = [row.split(",")[3] for row in out.read_text().splitlines()[1:]]
    lattice = refine_values(mask, samples_from_shorthand(spec), depth)
    assert column == [repr(float(v)) for v in lattice.values]


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize(
    "mask", [catalog.cantor_mask(), catalog.quinary_family_mask(F(-7, 5))], ids=["cantor", "quinary"]
)
def test_curve_parameters_are_the_exact_parameters_rounded(tmp_path, mask, closed):
    points = tmp_path / "pentagon.csv"
    points.write_text("0,0\n2,0\n3,1.5\n1,2.5\n-1,1.5\n")
    out = tmp_path / "curve.csv"
    m, steps = mask.arity, 3
    code = main([
        "curve", "--mask", write_json(tmp_path / "mask.json", mask.to_dict()),
        "--points", str(points), "--steps", str(steps), "--out", str(out),
        *(["--closed"] if closed else []),
    ])
    assert code == 0
    column = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    # level j indices of an open polygon start at m * (its level j-1 start) + k_l
    first = 0
    for _ in range(steps if not closed else 0):
        first = m * first + mask.k_left
    drift = shift_parameter(mask) * (m**steps - 1) / (m - 1)
    assert drift.denominator == 2
    expected = [float((n - drift) / F(m) ** steps) for n in range(first, first + len(column))]
    assert column == [repr(t) for t in expected]


def test_regularity_json(cantor_mask_file, capsys):
    code = main(["regularity", "--mask", cantor_mask_file, "--order", "0", "--levels", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contractive"] is True
    assert math.isclose(payload["holder_lower_bound"], math.log(2) / math.log(3), rel_tol=1e-9)
    assert payload["bounds"] == [0.5, 0.5, 0.5]


def test_sweep_bisect(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "2", "--levels", "3",
        "--range=-2.5:0", "--bisect",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isclose(payload["low"], -1.6177, abs_tol=2e-3)
    assert math.isclose(payload["high"], -1.0, abs_tol=2e-3)


def test_sweep_grid(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "0", "--levels", "2",
        "--range=-1:1", "--grid", "5",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["t"] for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(r["contractive"] for r in rows)


def test_sweep_grid_matches_pointwise_profile(tmp_path, capsys):
    family = catalog.quinary_reference_family()
    family_file = write_json(tmp_path / "family.json", family.to_dict())
    code = main([
        "sweep", "--family", family_file, "--order", "1", "--levels", "3",
        "--range=-8:4", "--grid", "9",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    expected = [contractivity_profile(family, 1, 3, [r["t"]])[0] for r in rows]
    assert [(r["t"], r["bound"]) for r in rows] == expected
    assert [r["contractive"] for r in rows] == [bound < 1.0 for _, bound in expected]


def test_reproduce(cantor_mask_file, cantor_samples_file, capsys):
    code = main([
        "reproduce", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--maxdeg", "3", "--depth", "3", "--tol", "1e-8",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"degree": 0}


def test_curve(tmp_path, cantor_mask_file):
    points = tmp_path / "square.csv"
    points.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    out = tmp_path / "curve.csv"
    code = main([
        "curve", "--mask", cantor_mask_file, "--points", str(points),
        "--steps", "2", "--closed", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 1 + 4 * 9  # four control points, two ternary steps


def test_corpus_all_pass(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10
    assert all(line.startswith("PASS") for line in out)


def test_missing_file_is_input_error(capsys):
    code = main(["verify", "--mask", "no/such/file.json", "--samples", "dd4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_shorthand_is_input_error(capsys):
    code = main([
        "derive", "--arity", "3", "--smoothing", "1", "--kstar", "4",
        "--samples", "dd:5",
    ])
    assert code == 2


def test_bad_range_is_input_error(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "0", "--levels", "2",
        "--range", "oops",
    ])
    assert code == 2


# a JSON field of the wrong type is rejected, never converted
WRONG_TYPE_MESSAGES = {
    "string_coeffs_mask": "bad mask file {}: 'coeffs' must be of type list, got '1221'",
    "float_offset_mask": "bad mask file {}: 'offset' must be of type int, got -1.9",
    "float_arity_mask": "bad mask file {}: 'arity' must be of type int, got 3.0",
    "float_T_samples": "bad sample file {}: 'T' must be of type int, got 2.0",
    "string_values_samples": "bad sample file {}: 'values' must be of type list, got '121'",
    "string_symmetric_family": "bad family file {}: 'symmetric' must be of type bool, got 'false'",
    "float_kstar_family": "bad family file {}: 'kstar' must be of type int, got 10.0",
    "float_smoothing_family": "bad family file {}: 'smoothing' must be of type int, got 3.5",
    "bool_coeff_family": "bad family file {}: refusing to coerce bool True to an exact rational",
}


@pytest.fixture
def bad_input_files(tmp_path, cantor_mask_file):
    bad_seed = perturbed(catalog.cantor_samples(), 1, F(1, 100))
    zero_den_mask = catalog.cantor_mask().to_dict()
    zero_den_mask["coeffs"][1] = "1/0"
    zero_den_family = catalog.quinary_reference_family().to_dict()
    zero_den_family["basis"][0]["coeffs"][0] = "3/0"
    points = tmp_path / "points.csv"
    points.write_text("0,0\n1,0\n1,1\n")
    no_offset_mask = catalog.cantor_mask().to_dict()
    del no_offset_mask["offset"]
    no_smoothing_family = catalog.quinary_reference_family().to_dict()
    del no_smoothing_family["problem"]["smoothing"]
    no_T_samples = catalog.cantor_samples().to_dict()
    del no_T_samples["T"]
    family = catalog.quinary_reference_family().to_dict()
    wrong_types = {
        "string_coeffs_mask": dict(catalog.cantor_mask().to_dict(), coeffs="1221"),
        "float_offset_mask": dict(catalog.cantor_mask().to_dict(), offset=-1.9),
        "float_arity_mask": dict(catalog.cantor_mask().to_dict(), arity=3.0),
        "float_T_samples": dict(catalog.cantor_samples().to_dict(), T=2.0),
        "string_values_samples": dict(catalog.cantor_samples().to_dict(), values="121"),
        "string_symmetric_family": dict(family, problem=dict(family["problem"], symmetric="false")),
        "float_kstar_family": dict(family, problem=dict(family["problem"], kstar=10.0)),
        "float_smoothing_family": dict(family, problem=dict(family["problem"], smoothing=3.5)),
        "bool_coeff_family": dict(family, basis=[dict(family["basis"][0], coeffs=[True])]),
    }
    return {
        **{key: write_json(tmp_path / f"{key}.json", data) for key, data in wrong_types.items()},
        "huge_mask": write_json(
            tmp_path / "huge_mask.json", catalog.quinary_family_mask(10**200).to_dict()
        ),
        "huger_mask": write_json(
            tmp_path / "huger_mask.json", catalog.quinary_family_mask(10**400).to_dict()
        ),
        "point_mask": write_json(
            tmp_path / "point_mask.json", {"arity": 2, "offset": 0, "coeffs": ["1"]}
        ),
        "point_samples": write_json(
            tmp_path / "point_samples.json", {"T": 1, "offset": 0, "values": ["1"]}
        ),
        "ternary_mask": write_json(
            tmp_path / "ternary_mask.json", catalog.ternary_cubic_mask().to_dict()
        ),
        "dense_samples": write_json(
            tmp_path / "dense_samples.json", {"T": 200000, "offset": 0, "values": ["1"]}
        ),
        "points": str(points),
        "no_offset_mask": write_json(tmp_path / "no_offset_mask.json", no_offset_mask),
        "no_smoothing_family": write_json(
            tmp_path / "no_smoothing_family.json", no_smoothing_family
        ),
        "no_T_samples": write_json(tmp_path / "no_T_samples.json", no_T_samples),
        "zero_den_mask": write_json(tmp_path / "zero_den_mask.json", zero_den_mask),
        "zero_den_family": write_json(tmp_path / "zero_den_family.json", zero_den_family),
        "mask": cantor_mask_file,
        "bad_seed": write_json(tmp_path / "bad_seed.json", bad_seed.to_dict()),
        "line": write_json(
            tmp_path / "line.json", catalog.quinary_reference_family().to_dict()
        ),
        "plane": write_json(
            tmp_path / "plane.json", derive(catalog.quaternary_problem(0)).to_dict()
        ),
        "missing_dir": str(tmp_path / "no_such_dir"),
        "out_dir": str(tmp_path),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "-1"],
        ["eval", "--mask", "{mask}", "--samples", "{bad_seed}", "--depth", "2"],
        ["regularity", "--mask", "{mask}", "--order", "9"],
        ["regularity", "--mask", "{mask}", "--levels", "0"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1", "--bisect"],
        ["sweep", "--family", "{plane}", "--range=-1:1", "--grid", "5"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels", "0"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels", "0", "--bisect"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--depth", "-2"],
        ["eval", "--mask", "{mask}", "--samples", "mix:1/0"],
        ["eval", "--mask", "{zero_den_mask}", "--samples", "dd:2"],
        ["sweep", "--family", "{zero_den_family}", "--range=-1:1"],
        ["regularity", "--mask", "{mask}", "--order", "-1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--order", "-1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--order", "-1", "--bisect"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "-1"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--maxdeg", "-1"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--tol", "nan"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--tol", "inf"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--tol", "-1"],
        ["sweep", "--family", "{line}", "--range=0:inf", "--grid", "2"],
        ["sweep", "--family", "{line}", "--range=nan:1", "--grid", "2"],
        ["sweep", "--family", "{line}", "--range=-1e308:1e308", "--grid", "3"],
        ["sweep", "--family", "{line}", "--range=-1e308:1e308", "--grid", "3", "--bisect"],
        ["derive", "--arity", "1", "--smoothing", "1", "--kstar", "2", "--samples", "dd4"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "0", "--samples", "dd4"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:0"],
        ["verify", "--mask", "{no_offset_mask}", "--samples", "dd:2"],
        ["regularity", "--mask", "{no_offset_mask}"],
        ["sweep", "--family", "{no_smoothing_family}", "--range=-1:1"],
        ["eval", "--mask", "{mask}", "--samples", "{no_T_samples}"],
        ["sweep", "--family", "{line}", "--range=-1.7e308:0", "--grid", "3"],
        ["sweep", "--family", "{line}", "--range=1e307:1.7e308", "--grid", "2", "--order", "2"],
        ["regularity", "--mask", "{mask}", "--out", "{missing_dir}/x.json"],
        ["regularity", "--mask", "{mask}", "--out", "{out_dir}"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2",
         "--symmetric", "--out", "{missing_dir}/x.json"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2",
         "--symmetric", "--out", "{out_dir}"],
        ["verify", "--mask", "{string_coeffs_mask}", "--samples", "dd:2"],
        ["regularity", "--mask", "{float_offset_mask}"],
        ["regularity", "--mask", "{float_arity_mask}"],
        ["eval", "--mask", "{mask}", "--samples", "{float_T_samples}"],
        ["verify", "--mask", "{mask}", "--samples", "{string_values_samples}"],
        ["sweep", "--family", "{string_symmetric_family}", "--range=-1:1"],
        ["sweep", "--family", "{float_kstar_family}", "--range=-1:1"],
        ["sweep", "--family", "{float_smoothing_family}", "--range=-1:1"],
        ["sweep", "--family", "{bool_coeff_family}", "--range=-1:1"],
        ["regularity", "--mask", "{huge_mask}", "--levels=2"],
        ["eval", "--mask", "{huge_mask}", "--samples", "dd4", "--depth", "2"],
        ["curve", "--mask", "{huger_mask}", "--points", "{points}", "--steps", "1"],
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "40"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--depth", "40"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "40"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "40", "--closed"],
        ["eval", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "15000"],
        ["eval", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "1000000"],
        ["reproduce", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "1000000"],
        ["verify", "--mask", "{ternary_mask}", "--samples", "{dense_samples}", "--form", "refinability"],
    ],
    ids=[
        "eval-negative-depth",
        "eval-inconsistent-seed",
        "regularity-order-too-high",
        "regularity-zero-levels",
        "sweep-grid-1",
        "bisect-grid-1",
        "sweep-plane-family",
        "sweep-zero-levels",
        "bisect-zero-levels",
        "reproduce-negative-depth",
        "eval-zero-denominator-samples",
        "eval-zero-denominator-mask",
        "sweep-zero-denominator-family",
        "regularity-negative-order",
        "sweep-negative-order",
        "bisect-negative-order",
        "curve-negative-steps",
        "reproduce-negative-maxdeg",
        "reproduce-nan-tol",
        "reproduce-infinite-tol",
        "reproduce-negative-tol",
        "sweep-infinite-range",
        "sweep-nan-range",
        "sweep-overflowing-range",
        "bisect-overflowing-range",
        "derive-arity-1",
        "derive-kstar-0",
        "derive-zero-point-samples",
        "verify-mask-without-offset",
        "regularity-mask-without-offset",
        "sweep-family-without-smoothing",
        "eval-samples-without-T",
        "sweep-overflowing-grid",
        "sweep-overflowing-bound",
        "regularity-out-missing-dir",
        "regularity-out-directory",
        "derive-out-missing-dir",
        "derive-out-directory",
        "verify-mask-string-coeffs",
        "regularity-mask-float-offset",
        "regularity-mask-float-arity",
        "eval-samples-float-T",
        "verify-samples-string-values",
        "sweep-family-string-symmetric",
        "sweep-family-float-kstar",
        "sweep-family-float-smoothing",
        "sweep-family-bool-coefficient",
        "regularity-norm-overflow",
        "eval-value-overflow",
        "curve-weight-overflow",
        "eval-runaway-depth",
        "reproduce-runaway-depth",
        "curve-runaway-steps",
        "curve-closed-runaway-steps",
        "eval-one-point-support-depth-15000",
        "eval-one-point-support-depth-1000000",
        "reproduce-one-point-support-depth-1000000",
        "verify-refinability-dense-lattice",
    ],
)
def test_bad_input_exits_2_without_traceback(argv, bad_input_files, capsys):
    code = main([a.format(**bad_input_files) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "--levels" in argv:
        assert "at least one level, got 0" in err
    if "/0" in " ".join(argv) or "zero_den" in " ".join(argv):
        assert "zero denominator" in err
    if "--tol" in argv:
        assert "tolerance must be finite and nonnegative" in err
    if any(a.startswith("--range=") and ("inf" in a or "nan" in a) for a in argv):
        assert "bounds must be finite" in err
    if "--range=-1e308:1e308" in argv:
        assert "bad range" in err and "width must be finite" in err
    if "{no_offset_mask}" in argv:
        assert "bad mask file" in err and "missing key 'offset'" in err
    if "{no_smoothing_family}" in argv:
        assert "bad family file" in err and "missing key 'smoothing'" in err
    if "{no_T_samples}" in argv:
        assert "bad sample file" in err and "missing key 'T'" in err
    if "--range=-1.7e308:0" in argv:
        assert "bad range" in err and "a grid point overflows" in err
    if "--range=1e307:1.7e308" in argv:
        assert "is not finite" in err
    if "40" in argv:
        assert "would hold more than 1000000 points" in err
    if "{point_mask}" in argv:
        assert f"a lattice of depth {argv[-1]} would be finer than Z/1000001" in err
    if "{dense_samples}" in argv:
        assert "A(z^200000) V(z) would hold 2600001 entries, more than 1000000" in err
    if "--out" in argv:
        out = argv[argv.index("--out") + 1].format(**bad_input_files)
        assert err.startswith(f"error: cannot write {out}: ")
    for key, message in WRONG_TYPE_MESSAGES.items():
        if "{%s}" % key in argv:
            assert err == f"error: {message.format(bad_input_files[key])}\n"
    if "{huge_mask}" in argv or "{huger_mask}" in argv:
        assert "beyond the float range" in err



@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "7", "--samples", "dd4", "--symmetric"],
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "2"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "2", "--closed"],
    ],
    ids=["derive", "eval", "curve"],
)
def test_out_is_overwritten_in_place(argv, tmp_path, cantor_mask_file, capsys):
    points = tmp_path / "square.csv"
    points.write_text("0,0\n1,0\n1,1\n0,1\n")
    argv = [a.format(mask=cantor_mask_file, points=points) for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()

    # an existing longer file ends up holding exactly the printed bytes, and
    # keeps its mode
    out = tmp_path / "out.txt"
    out.write_bytes(b"x" * (len(printed) + 4096))
    out.chmod(0o600)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed
    assert stat.S_IMODE(out.stat().st_mode) == 0o600

    # a symlink is followed: its target is rewritten and the link kept
    target = tmp_path / "target.txt"
    target.write_bytes(b"y" * (len(printed) + 1))
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == printed

    # a device is written, not cut
    assert main([*argv, "--out", os.devnull]) == 0

    # a fresh path is created with mode 0o666 & ~umask
    fresh = tmp_path / "fresh.txt"
    umask = os.umask(0o027)
    try:
        assert main([*argv, "--out", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~0o027
    assert fresh.read_bytes() == printed
    assert capsys.readouterr() == ("", "")


def _fresh_process(argv, cwd):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    import os
    import subprocess
    import sys

    import dualsubdiv

    src = os.path.dirname(os.path.dirname(os.path.abspath(dualsubdiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualsubdiv.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_answers_as_a_fresh_process(tmp_path, cantor_mask_file, capsys, monkeypatch):
    from dualsubdiv.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    assert build_parser() is build_parser()
    calls = [
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2", "--symmetric"],
        ["derive", "--arity", "three", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2"],
        ["verify", "--mask", cantor_mask_file, "--samples", "dd:2", "--form", "lemma"],
        ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "5", "--samples", "dd4", "--symmetric"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv, tmp_path)
