"""Command-line interface: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import numpy as np

import finhankel
from finhankel.cli import main
from finhankel.profiles import profile_from_json
from finhankel.quadrature import QuadratureConfig, _finite_hankel_grid
from finhankel.specfun import bessel_j


SONINE = json.dumps(
    {
        "dimension": 2,
        "vanishes_near_one": False,
        "terms": [{"coeff": [1.0, 0.0], "lambda": [1.0, 0.0], "rho": [2.0, 0.0]}],
    }
)

ORIGIN_DOMINANT = json.dumps(
    {
        "dimension": 2,
        "terms": [{"coeff": [1.0, 0.0], "lambda": [0.5, 0.0], "rho": [6.0, 0.0]}],
    }
)


@pytest.fixture
def sonine_path(tmp_path):
    p = tmp_path / "sonine.json"
    p.write_text(SONINE)
    return str(p)


@pytest.fixture
def origin_path(tmp_path):
    p = tmp_path / "origin.json"
    p.write_text(ORIGIN_DOMINANT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_rows_match_closed_form(self, capsys, sonine_path):
        code, out, _ = run(
            capsys, "transform", "--profile", sonine_path,
            "--r-min", "5", "--r-max", "20", "--count", "3", "--spacing", "linear",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        for row in rows:
            r = float(row["r"])
            expect = 2.0 * r ** -2.0 * bessel_j(2.0, r)
            assert float(row["re"]) == pytest.approx(expect, rel=1e-9)
            assert float(row["im"]) == 0.0

    def test_single_point(self, capsys, sonine_path):
        code, out, _ = run(capsys, "transform", "--profile", sonine_path, "--count", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + one row

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, out, err = run(capsys, "transform", "--profile", str(bad))
        assert code == 2
        assert "error" in err

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2, "terms": [{"coeff": [1,0], "lambda": [1,0], "rho": [1,0]}], "x": 0}')
        assert run(capsys, "transform", "--profile", str(bad))[0] == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(capsys, "transform", "--profile", "/nonexistent.json")[0] == 2

    def test_unreachable_tolerance_exits_3(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(
            '{"dimension": 2, "terms": [{"coeff": [1,0], "lambda": [-0.9,0], "rho": [0.1,0]}]}'
        )
        code, out, _ = run(
            capsys, "transform", "--profile", str(path),
            "--r-min", "20", "--r-max", "20", "--count", "1", "--tol", "1e-15",
        )
        assert code == 3
        assert len(out.strip().splitlines()) == 2  # rows still emitted

    def test_deterministic_output(self, capsys, sonine_path):
        args = ("transform", "--profile", sonine_path, "--count", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_csv_json_value_equality(self, capsys, sonine_path):
        args = ("transform", "--profile", sonine_path, "--count", "3")
        _, out_csv, _ = run(capsys, *args, "--format", "csv")
        _, out_json, _ = run(capsys, *args, "--format", "json")
        rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
        rows_json = json.loads(out_json)["rows"]
        for rc, rj in zip(rows_csv, rows_json):
            for key in ("r", "re", "im", "error_estimate"):
                assert float(rc[key]) == rj[key]

    def test_grid_rows_are_the_grid_form(self, capsys, tmp_path):
        """The rows on a grid straddling the contour path's first radius
        (60) are the grid evaluator's values, from one call."""
        text = json.dumps({"dimension": 3, "terms": [
            {"coeff": [1.0, 0.0], "lambda": [0.5, 0.0], "rho": [2.5, 0.0]},
            {"coeff": [1.0, 0.0], "lambda": [1.3, 0.2], "rho": [0.6, 0.0]},
        ]})
        path = tmp_path / "two.json"
        path.write_text(text)
        code, out, _ = run(
            capsys, "transform", "--profile", str(path),
            "--r-min", "5", "--r-max", "2000", "--count", "200", "--format", "json",
        )
        assert code == 0
        grid = np.geomspace(5.0, 2000.0, 200)
        values, estimates, _ = _finite_hankel_grid(profile_from_json(text), grid, QuadratureConfig())
        rows = [(row["r"], complex(row["re"], row["im"]), row["error_estimate"]) for row in json.loads(out)["rows"]]
        assert rows == list(zip(grid.tolist(), values.tolist(), estimates.tolist()))


class TestExpand:
    def test_document_shape(self, capsys, origin_path):
        code, out, _ = run(capsys, "expand", "--profile", origin_path, "--max-k", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["origin"]["mu"] == [0.5, 0.0]
        assert doc["origin"]["K"] == [0, 2, 4]
        assert doc["origin"]["k0"] == 0
        assert doc["boundary"]["lambda_k"][0] == [5.0, 0.0]
        assert doc["terms"]
        # power family: base exponent lam, edge exponent rho - 1
        prof = profile_from_json(open(origin_path).read())
        assert doc["origin"]["mu"][0] == prof.terms[0].lam.real

    def test_vanishing_profile_has_null_boundary(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            '{"dimension": 2, "vanishes_near_one": true,'
            ' "terms": [{"coeff": [1,0], "lambda": [0,0], "rho": [1,0]}]}'
        )
        code, out, _ = run(capsys, "expand", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["boundary"] is None

    def test_incompatible_ladder_exits_4(self, capsys, tmp_path):
        path = tmp_path / "l.json"
        path.write_text(
            '{"dimension": 2, "terms": ['
            ' {"coeff": [1,0], "lambda": [0,0], "rho": [1,0]},'
            ' {"coeff": [1,0], "lambda": [0.5,0], "rho": [1,0]}]}'
        )
        code, _, err = run(capsys, "expand", "--profile", str(path))
        assert code == 4
        assert "error" in err


class TestVerify:
    def test_origin_dominant_slope(self, capsys, origin_path):
        code, out, _ = run(
            capsys, "verify", "--profile", origin_path,
            "--r-min", "40", "--r-max", "160", "--count", "8", "--n-terms", "1",
        )
        assert code == 0
        slope_line = [l for l in out.splitlines() if l.startswith("#")][0]
        slope = float(slope_line.split("=")[1])
        # remainder decays at least one index faster than the retained term
        assert slope <= -(0.5 + 0 + 1) + 0.3

    def test_json_document(self, capsys, origin_path):
        code, out, _ = run(
            capsys, "verify", "--profile", origin_path,
            "--r-min", "40", "--r-max", "160", "--count", "6", "--format", "json",
        )
        doc = json.loads(out)
        assert "remainder_slope" in doc
        assert len(doc["rows"]) == 6
        assert {"r", "quadrature_re", "prediction_re", "abs_err", "rel_err"} <= set(doc["rows"][0])

    def test_edge_dominated_snaps_to_extrema(self, capsys, sonine_path):
        code, out, _ = run(
            capsys, "verify", "--profile", sonine_path,
            "--r-min", "150", "--r-max", "2500", "--count", "9", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        # remainder measured on the envelope decays one power beyond the
        # term's own first correction
        assert doc["remainder_slope"] <= -(1.0 + 2.5) + 0.3
        for row in doc["rows"]:
            assert abs(math.cos(row["r"] - 5.0 * math.pi / 4.0)) > 0.999

    def test_balanced_profile_snaps_to_cosine_zeros(self, capsys, tmp_path):
        path = tmp_path / "bal.json"
        path.write_text(
            '{"dimension": 2, "terms": [{"coeff": [1,0], "lambda": [0.5,0], "rho": [1,0]}]}'
        )
        code, out, _ = run(
            capsys, "verify", "--profile", str(path),
            "--r-min", "100", "--r-max", "400", "--count", "6", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        # phase offset for nu=0, edge exponent 0: cos(r - 3 pi/4)
        for row in doc["rows"]:
            assert abs(math.cos(row["r"] - 3.0 * math.pi / 4.0)) < 1e-6


class TestClassify:
    def test_verdict_document(self, capsys, origin_path):
        code, out, _ = run(capsys, "classify", "--profile", origin_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Invertible"
        assert doc["rule"] == "Thm-smooth"
        assert isinstance(doc["trace"], list) and doc["trace"]

    def test_not_invertible_pattern(self, capsys, tmp_path):
        path = tmp_path / "nv.json"
        path.write_text(
            '{"dimension": 2, "vanishes_near_one": true,'
            ' "terms": [{"coeff": [1,0], "lambda": [1,0], "rho": [3.5,0]}]}'
        )
        code, out, _ = run(capsys, "classify", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["status"] == "NotInvertible"

    def test_verify_flag_attaches_report(self, capsys, sonine_path):
        code, out, _ = run(
            capsys, "classify", "--profile", sonine_path, "--verify",
            "--r-min", "50", "--r-max", "150",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["slow_decrease"]["passed"] is True


class TestSlowDecrease:
    def test_csv_summary(self, capsys, sonine_path):
        """The CSV row is the JSON report's fields, numbers at 17 significant
        digits and flags as 0 or 1."""
        argv = ("slowdecrease", "--profile", sonine_path, "--r-min", "50", "--r-max", "150")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header, row = out.split("\n")[:2]
        assert out == f"{header}\n{row}\n"
        fields = ["passed", "worst_margin", "windows", "failures", "insufficient_resolution"]
        assert header.split(",") == fields
        doc = json.loads(run(capsys, *argv, "--format", "json")[1])
        assert row.split(",") == [f"{float(doc[key]):.17g}" for key in fields]
        assert row.split(",")[0] == "1"

    def test_json_report(self, capsys, sonine_path):
        code, out, _ = run(
            capsys, "slowdecrease", "--profile", sonine_path,
            "--r-min", "50", "--r-max", "150", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["params"]["B"] == pytest.approx(2 * math.pi)

    def test_range_with_no_window_exits_2(self, capsys, origin_path):
        """No grid point (step pi/16) lies in [50, 50.01]: this used to print
        passed with 0 windows and an infinite worst margin."""
        code, out, err = run(
            capsys, "slowdecrease", "--profile", origin_path,
            "--r-min", "50", "--r-max", "50.01", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "error" in err


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2


def test_bad_flag_value_exits_2(capsys, tmp_path):
    p = tmp_path / "s.json"
    p.write_text(SONINE)
    assert main(["transform", "--profile", str(p), "--count", "0"]) == 2
    assert main(["transform", "--profile", str(p), "--r-min", "-5"]) == 2
    # values the library itself rejects with DomainError
    assert main(["transform", "--profile", str(p), "--tol", "2"]) == 2
    assert main(["classify", "--profile", str(p), "--verify", "--r-min", "1", "--r-max", "100"]) == 2
    assert main(["expand", "--profile", str(p), "--max-k", "-1"]) == 2
    assert main(["slowdecrease", "--profile", str(p), "--r-min", "nan"]) == 2
    assert main(["classify", "--profile", str(p), "--verify", "--r-max", "inf"]) == 2
    assert main(["expand", "--profile", str(p), "--n-terms", "-1"]) == 2
    assert main(["verify", "--profile", str(p), "--n-terms", "-1"]) == 2
    assert main(["classify", "--profile", str(p), "--N", "-1"]) == 2
    # verify fits a slope, which takes two distinct radii
    assert main(["verify", "--profile", str(p), "--count", "1"]) == 2
    assert main(["verify", "--profile", str(p), "--count", "2", "--r-min", "100", "--r-max", "100"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--N", "3"),
        ("expand", "--tol", "1e-8"),
        ("verify", "--N", "3"),
        ("classify", "--count", "5"),
        ("slowdecrease", "--spacing", "log"),
        # classify reads its window flags only under --verify
        pytest.param(("classify", "--r-min", "5", "--tol", "0.5"), id="classify_window_without_verify"),
        pytest.param(("classify", "--r-max", "150"), id="classify_r_max_without_verify"),
    ],
    ids=lambda argv: argv[0],
)
def test_flag_the_subcommand_does_not_read_exits_2(capsys, sonine_path, argv):
    command, *flag = argv
    assert main([command, "--profile", sonine_path, *flag]) == 2
    assert capsys.readouterr().out == ""


def test_runs_without_scipy(origin_path):
    """The package depends on numpy alone: a fresh process that imports it
    and runs transform over both paths (Gauss-Jacobi panels below r = 30,
    Gauss-Laguerre edge legs above) has loaded no scipy module."""
    child = (
        "import contextlib, io, sys\n"
        "import finhankel\n"
        "from finhankel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['transform', '--profile', sys.argv[1], '--r-min', '5', '--count', '6'])\n"
        "print(code, len(out.getvalue().splitlines()), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(finhankel.__file__)))
    done = subprocess.run([sys.executable, "-c", child, origin_path], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 7 []\n"
