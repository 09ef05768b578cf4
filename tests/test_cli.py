import json
import math
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.analyze import contractivity_profile
from dualsubdiv.cli import main
from dualsubdiv.construct import SolutionFamily, derive
from dualsubdiv.scheme import Mask


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
    bad = catalog.cantor_samples().perturbed(1, F(1, 100))
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


@pytest.fixture
def bad_input_files(tmp_path, cantor_mask_file):
    bad_seed = catalog.cantor_samples().perturbed(1, F(1, 100))
    zero_den_mask = catalog.cantor_mask().to_dict()
    zero_den_mask["coeffs"][1] = "1/0"
    zero_den_family = catalog.quinary_reference_family().to_dict()
    zero_den_family["basis"][0]["coeffs"][0] = "3/0"
    points = tmp_path / "points.csv"
    points.write_text("0,0\n1,0\n1,1\n")
    return {
        "points": str(points),
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
