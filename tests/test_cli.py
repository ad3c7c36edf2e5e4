"""Command-line front end: argument parsing, output formats, exit codes,
determinism, and the installed entry point."""

import json
import subprocess
import sys

import pytest

from hyperbc.cli import main, parse_complex

F2_31_REF = 0.6444087364136890  # F, k = (1,1,1/2), lambda = (3,1), t = (1,0.4)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestParseComplex:
    def test_real(self):
        assert parse_complex("2.5") == 2.5 + 0.0j

    def test_positive_imaginary(self):
        assert parse_complex("2.5+0.3i") == 2.5 + 0.3j

    def test_negative_imaginary(self):
        assert parse_complex("-1.5 - 2i") == -1.5 - 2.0j

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("2.5+i3")


class TestEval:
    ARGS = [
        "eval", "--target", "F", "--n", "2", "--k", "1,1,0.5",
        "--lambda", "3,1", "--t", "1.0,0.4",
    ]

    def test_json_value(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        rec = json.loads(out)
        assert rec["request"]["target"] == "F"
        assert rec["request"]["k"] == {"k_s": 1.0, "k_m": 1, "k_l": 0.5}
        assert rec["request"]["lambda"] == [[3.0, 0.0], [1.0, 0.0]]
        assert abs(rec["value"][0] - F2_31_REF) < 1e-12
        assert abs(rec["value"][1]) < 1e-15
        assert rec["condition_estimate"] >= 1.0
        assert rec["degenerate_path"] is False

    def test_csv_header_and_precision(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "t_1,t_2,re(lambda_1),im(lambda_1),re(lambda_2),im(lambda_2),"
            "re(value),im(value),condition_estimate,degenerate_path"
        )
        cells = lines[1].split(",")
        assert cells[:6] == ["1", "0.40000000000000002", "3", "0", "1", "0"]
        assert float(cells[6]) == pytest.approx(F2_31_REF, rel=1e-12)
        # 17 significant digits round-trip exactly
        assert str(float(cells[6])) == repr(float(cells[6]))
        assert cells[9] == "false"

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, self.ARGS)
        _, out2, _ = run(capsys, self.ARGS)
        assert out1 == out2

    def test_symmetric_targets_accept_unsorted_t(self, capsys):
        code, out, _ = run(capsys, self.ARGS[:-1] + ["0.4,1.0"])
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[0] == "1"

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, self.ARGS + ["--output", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text().startswith("t_1,t_2,")

    def test_confluent_flag_surfaces(self, capsys):
        argv = [
            "eval", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2,2", "--t", "1.0,0.4", "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["degenerate_path"] is True


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, ["eval", "--target", "F"])
        assert code == 2

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, [
            "eval", "--target", "Nope", "--n", "1", "--k", "1,1,0.5",
            "--lambda", "2", "--t", "0.5",
        ])
        assert code == 2

    def test_precondition_chamber(self, capsys):
        # Phi is not symmetrized, so an out-of-chamber t is rejected
        code, _, err = run(capsys, [
            "eval", "--target", "Phi", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,1.07", "--t", "0.4,1.0",
        ])
        assert code == 3 and "rejected" in err

    def test_precondition_zero_lambda(self, capsys):
        code, _, _ = run(capsys, [
            "eval", "--target", "BesselBC", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,0", "--t", "1.0,0.4",
        ])
        assert code == 3

    def test_precondition_length_mismatch(self, capsys):
        code, _, _ = run(capsys, [
            "eval", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55", "--t", "1.0,0.4",
        ])
        assert code == 3

    @pytest.mark.parametrize("t", ["1.0", ",", "1.0,0.4,0.2"])
    def test_precondition_t_mismatch(self, capsys, t):
        code, out, err = run(capsys, [
            "eval", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,1.07", "--t", t,
        ])
        assert (code, out) == (3, "") and "do not match n = 2" in err

    def test_numerical_failure(self, capsys):
        # very deep t pushes the Gauss-series argument against its radius
        code, _, err = run(capsys, [
            "eval", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,1.07", "--t", "20,1",
        ])
        assert code == 4 and "numerical failure" in err

    @pytest.mark.parametrize("target, km, message", [
        ("BesselBC", 1, "not finite"),  # J of i lambda t overflows to inf, det to nan
        ("F", 0, "overflows"),  # sinh^2 t leaves the float range
        ("F", 1, "overflows"),
    ])
    def test_overflow(self, capsys, target, km, message):
        code, out, err = run(capsys, [
            "eval", "--target", target, "--n", "2", "--k", f"1,{km},0.5",
            "--lambda", "2.3,1.1", "--t", "400,1",
        ])
        assert (code, out) == (4, "") and "numerical failure" in err and message in err

    @pytest.mark.parametrize("target, km, lam, t", [
        # (2 cosh t)^(lambda - rho) of the asymptotic solution leaves the float range
        ("FTheta", 1, "300.5,1.5", "3,1"),
        ("Phi", 0, "300.5,1.5", "3,1"),
        # each factor is finite, their product is not
        ("Phi", 0, "160.3,150.7", "4,3"),
    ])
    def test_phi_overflow(self, capsys, target, km, lam, t):
        code, out, err = run(capsys, [
            "eval", "--target", target, "--n", "2", "--k", f"1,{km},0.5",
            "--lambda", lam, "--t", t,
        ])
        assert (code, out) == (4, "") and "overflows" in err


class TestGrid:
    def test_row_major_csv(self, capsys):
        code, out, _ = run(capsys, [
            "grid", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,1.07", "--t", "0.8:1.2:2,0.3:0.4:2",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        firsts = [ln.split(",")[:2] for ln in lines[1:]]
        # last axis varies fastest
        assert [f[0] for f in firsts] == ["0.80000000000000004"] * 2 + ["1.2"] * 2
        assert firsts[0][1] == "0.29999999999999999"
        assert firsts[1][1] == "0.40000000000000002"

    def test_grid_json_length(self, capsys):
        code, out, _ = run(capsys, [
            "grid", "--target", "BesselBC", "--n", "1", "--k", "1,1,0.5",
            "--lambda", "2.0", "--t", "0.5:1.0:3", "--format", "json",
        ])
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_bad_axis_spec(self, capsys):
        code, _, _ = run(capsys, [
            "grid", "--target", "F", "--n", "1", "--k", "1,1,0.5",
            "--lambda", "2.0", "--t", "0.5:1.0",
        ])
        assert code == 2


def _grid_rows(capsys, argv):
    code, out, _ = run(capsys, ["grid"] + argv)
    assert code == 0
    return out.strip().split("\n")[1:]


class TestGridValues:
    """Every grid row is the eval row at its t, bit for bit: the grid's
    shared rank-one table holds the same values each point would compute
    alone."""

    CASES = {
        # rows with t_1 below about 0.65 take the divided-difference path
        "F-km1": ["--target", "F", "--n", "2", "--k", "1,1,0.5",
                  "--lambda", "2.55,1.07", "--t", "0.1:1.3:4,0.05:0.6:4"],
        "F-km1-n3": ["--target", "F", "--n", "3", "--k", "1.1,1,0.45",
                     "--lambda", "5.1,3.6,2.1",
                     "--t", "0.1:2.0:3,0.15:2.05:3,0.2:2.1:3"],
        "F-km0": ["--target", "F", "--n", "2", "--k", "1,0,0.5",
                  "--lambda", "2.55+0.3i,1.07", "--t", "0.1:1.3:4,0.05:0.6:4"],
        "BesselBC-km1": ["--target", "BesselBC", "--n", "2", "--k", "1,1,0.5",
                         "--lambda", "2.55,1.07", "--t", "0.1:1.3:4,0.05:0.6:4"],
        "BesselBC-km0": ["--target", "BesselBC", "--n", "2", "--k", "1,0,0.5",
                         "--lambda", "2.55,1.07", "--t", "0.1:1.3:4,0.05:0.6:4"],
        "FTheta": ["--target", "FTheta", "--n", "2", "--k", "1,1,0.5",
                   "--lambda", "2.55,1.07", "--t", "1.3:2.5:3,0.4:1.1:3"],
        "Phi": ["--target", "Phi", "--n", "2", "--k", "1,1,0.5",
                "--lambda", "2.55,1.07", "--t", "1.3:2.5:3,0.4:1.1:3"],
        "confluent": ["--target", "F", "--n", "2", "--k", "1,1,0.5",
                      "--lambda", "2.0,2.0", "--t", "0.3:1.5:3,0.1:0.25:3"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_eval(self, capsys, case):
        argv = self.CASES[case]
        n = int(argv[argv.index("--n") + 1])
        rows = _grid_rows(capsys, argv)
        assert len(rows) > 1
        i = argv.index("--t")
        for row in rows:
            t = ",".join(row.split(",")[:n])
            code, out, _ = run(capsys, ["eval"] + argv[:i + 1] + [t] + argv[i + 2:])
            assert code == 0
            assert out.strip().split("\n")[1] == row

    def test_divided_path_rows_present(self, capsys):
        rows = _grid_rows(capsys, self.CASES["F-km1"])
        assert any(float(r.split(",")[0]) < 0.65 for r in rows)
        assert any(float(r.split(",")[0]) > 0.65 for r in rows)

    @pytest.mark.parametrize("km", [0, 1])
    def test_rank_one_values_once_per_axis_value(self, capsys, monkeypatch, km):
        # a 10^3 grid whose three axes hold 30 distinct values: 3 lambda_i
        # times 30 values, not 9 entries per point
        import hyperbc.hyper as hyper

        jacobi_phi, calls = hyper.jacobi_phi, []

        def counting(*args):
            calls.append(args)
            return jacobi_phi(*args)

        monkeypatch.setattr(hyper, "jacobi_phi", counting)
        rows = _grid_rows(capsys, [
            "--target", "F", "--n", "3", "--k", f"1,{km},0.5",
            "--lambda", "5.1,3.6,2.1",
            "--t", "0.1:2.4:10,0.13:2.43:10,0.16:2.46:10",
        ])
        assert len(rows) == 1000
        assert len(calls) == 90


class TestGridFailures:
    """A grid that fails writes no output file."""

    ARGS = ["grid", "--target", "F", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.55,1.07"]

    def _run(self, capsys, tmp_path, axes):
        dest = tmp_path / "out.csv"
        code, _, err = run(capsys, self.ARGS + ["--t", axes, "--output", str(dest)])
        return code, err, dest.exists()

    def test_wall_rejected(self, capsys, tmp_path):
        code, err, written = self._run(capsys, tmp_path, "0.5:1.0:3,0.5:1.0:3")
        assert (code, written) == (3, False) and "rejected" in err

    def test_deep_t_fails(self, capsys, tmp_path):
        code, err, written = self._run(capsys, tmp_path, "0.5:7.0:3,0.2:0.4:3")
        assert (code, written) == (4, False) and "numerical failure" in err

    def test_overflow_row_fails(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, _, err = run(capsys, [
            "grid", "--target", "BesselBC", "--n", "2", "--k", "1,1,0.5",
            "--lambda", "2.3,1.1", "--t", "1:400:2,0.5:1.0:2", "--output", str(dest),
        ])
        assert (code, dest.exists()) == (4, False) and "not finite" in err

    def test_axis_count_mismatch_rejected(self, capsys, tmp_path):
        code, err, written = self._run(capsys, tmp_path, "0.5:1.0:3")
        assert (code, written) == (3, False) and "do not match n = 2" in err

    def test_first_bad_row_decides(self, capsys, tmp_path):
        # row 1, (0.5, 0.5), is on a wall; a later row, (7.0, 0.5), would
        # not converge
        code, _, written = self._run(capsys, tmp_path, "0.5:7.0:3,0.5:7.0:3")
        assert (code, written) == (3, False)


class TestVerify:
    def test_suite_passes_csv(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "rank1-reduction"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "suite,name,error,tolerance,passed"
        assert all(ln.endswith(",pass") for ln in lines[1:])

    def test_suite_json(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "--suite", "B-constant", "--format", "json",
        ])
        assert code == 0
        recs = json.loads(out)
        assert recs and all(r["passed"] for r in recs)
        assert all(r["error"] <= r["tolerance"] for r in recs)

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "nope"])
        assert code == 2


class TestEntryPoint:
    ARGV = [sys.executable, "-m", "hyperbc.cli", "eval", "--target", "F",
            "--n", "1", "--k", "1,1,0.5", "--lambda", "2.3", "--t", "0.7",
            "--format", "json"]

    def test_public_names_resolve(self):
        import hyperbc

        namespace = {}
        exec("from hyperbc import *", namespace)
        assert set(hyperbc.__all__) <= namespace.keys()

    def test_installed_script(self):
        proc = subprocess.run(self.ARGV, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"][0] - 1.0751755732893242) < 1e-12
