"""Tests for the command-line front end.

Commands run in-process through main(argv); stdout is captured with
capsys and files land in tmp_path.  Exit code convention under test:
0 success, 1 usage errors, 2 validation or computation failures.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commbounds

from commbounds.approx import GaussianParams, erf_min_bound
from commbounds.cli import ParameterTable, UsageError, main, parse_norm
from commbounds.matrixlab import NormKind
from commbounds.optimize import BoundPoint, build_paper_grid, certify_grid
from commbounds.stitch import global_constant, sqrt_constant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParameterTable:
    def test_valid_table(self):
        table = ParameterTable((0.5, 1.0), (0.7, 0.8), (0.4, 0.5))
        assert len(table) == 2

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            ParameterTable((0.5, 1.0), (0.7,), (0.4, 0.5))

    def test_non_increasing_grid(self):
        with pytest.raises(UsageError):
            ParameterTable((1.0, 0.5), (0.7, 0.8), (0.4, 0.5))

    def test_non_positive_entries(self):
        with pytest.raises(UsageError):
            ParameterTable((0.5, 1.0), (0.7, -0.8), (0.4, 0.5))

    def test_empty(self):
        with pytest.raises(UsageError):
            ParameterTable((), (), ())


class TestParseNorm:
    def test_plain_kinds(self):
        assert parse_norm("operator") == NormKind.operator()
        assert parse_norm("trace") == NormKind.trace()
        assert parse_norm("hs") == NormKind.hilbert_schmidt()
        assert parse_norm("hilbert-schmidt") == NormKind.hilbert_schmidt()

    def test_parametrized_kinds(self):
        assert parse_norm("kyfan:3") == NormKind.ky_fan(3)
        assert parse_norm("schatten:1.5") == NormKind.schatten(1.5)

    def test_rejects_garbage(self):
        for bad in ("spectral", "kyfan", "kyfan:0", "schatten:0.5", "operator:2"):
            with pytest.raises(UsageError):
                parse_norm(bad)


class TestErfminCommand:
    def test_prints_outcome_json(self, capsys):
        code, out, _ = run(capsys, "erfmin", "1.0", "0.75", "0.45")
        assert code == 0
        payload = json.loads(out)
        expected = erf_min_bound(1.0, GaussianParams(0.75, 0.45))
        assert payload["value"] == expected.value
        assert payload["x1"] == expected.x1
        assert payload["x2"] == expected.x2
        assert payload["degenerate"] is False
        assert payload["error_budget"] == expected.error_budget

    def test_degenerate_triple_prints_null(self, capsys):
        code, out, _ = run(capsys, "erfmin", "1.0", "0.01", "1.0")
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["value"] is None
        assert payload["degenerate"] is True

    def test_non_positive_c_is_usage_error(self, capsys):
        code, _, err = run(capsys, "erfmin", "0", "0.75", "0.45")
        assert code == 1
        assert "usage error" in err

    def test_tolerance_flags_are_usage_errors(self, capsys):
        for flag in ("--T", "--Tf"):
            code, out, err = run(capsys, "erfmin", "1.0", "0.75", "0.45", flag, "1e-6")
            assert code == 1
            assert "usage error" in err and out == ""

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1


class TestCertifyCommand:
    def test_custom_grid_writes_json_and_csv(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        code, stdout, _ = run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", out)
        assert code == 0
        cert = json.loads(open(out).read())
        assert cert["grid"] == [0.9, 1.0, 1.1]
        assert len(cert["C_k"]) == 3 and len(cert["D_k"]) == 3
        assert all(1.0 < v < 1.02 for v in cert["C_k"])
        assert cert["global_C"] == max(
            [cert["corner_small"], cert["corner_large"]] + cert["D_k"]
        )
        assert "global_C" in stdout
        rows = open(str(tmp_path / "cert.csv")).read().splitlines()
        assert rows[0] == "c_k,C_k,D_k,degenerate"
        assert len(rows) == 4
        assert rows[1].endswith(",0")

    def test_round_trip_global_c_bit_identical(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        assert run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", out)[0] == 0
        first = json.loads(open(out).read())
        back = json.loads(json.dumps(first))
        assert back["global_C"] == first["global_C"]
        assert back["C_k"] == first["C_k"]

    def test_supplied_params_preserve_node_count(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        assert run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", out)[0] == 0
        cert = json.loads(open(out).read())
        a_file = tmp_path / "as.txt"
        b_file = tmp_path / "bs.txt"
        a_file.write_text("".join(f"  {a}  \n\n" for a, _ in cert["params"]))
        b_file.write_text("".join(f"{b}\n" for _, b in cert["params"]))
        replay = str(tmp_path / "replay.json")
        code, _, _ = run(
            capsys,
            "certify", "--grid", "0.9:1.1:0.1",
            "--params", str(a_file), str(b_file),
            "--out", replay,
        )
        assert code == 0
        replayed = json.loads(open(replay).read())
        assert len(replayed["grid"]) == 3
        assert replayed["C_k"] == cert["C_k"]
        assert replayed["global_C"] == cert["global_C"]

    def test_mismatched_tables_exit_one(self, capsys, tmp_path):
        a_file = tmp_path / "as.txt"
        b_file = tmp_path / "bs.txt"
        a_file.write_text("0.75\n")
        b_file.write_text("0.45\n0.45\n0.45\n")
        code, _, err = run(
            capsys,
            "certify", "--grid", "0.9:1.1:0.1",
            "--params", str(a_file), str(b_file),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "lengths differ" in err

    def test_degenerate_node_exits_two_with_partial_csv(self, capsys, tmp_path):
        a_file = tmp_path / "as.txt"
        b_file = tmp_path / "bs.txt"
        a_file.write_text("0.01\n0.75\n0.75\n")
        b_file.write_text("1.0\n0.45\n0.45\n")
        out = str(tmp_path / "dg.json")
        code, _, err = run(
            capsys,
            "certify", "--grid", "0.9:1.1:0.1",
            "--params", str(a_file), str(b_file),
            "--out", out,
        )
        assert code == 2
        assert "degenerate" in err
        assert not os.path.exists(out)
        rows = open(str(tmp_path / "dg.csv")).read().splitlines()
        assert rows[1].split(",")[1] == "inf"
        assert rows[1].split(",")[2] == ""
        assert rows[1].endswith(",1")
        assert rows[2].endswith(",0")

    def test_unparsable_param_file_exit_one(self, capsys, tmp_path):
        a_file = tmp_path / "as.txt"
        b_file = tmp_path / "bs.txt"
        a_file.write_text("0.75\nnot-a-number\n0.75\n")
        b_file.write_text("0.45\n0.45\n0.45\n")
        code, _, err = run(
            capsys,
            "certify", "--grid", "0.9:1.1:0.1",
            "--params", str(a_file), str(b_file),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "not a decimal float" in err

    def test_bad_grid_spec_exit_one(self, capsys, tmp_path):
        for spec in ("weird", "1:2", "0:1:0.5", "1:2:-1"):
            code, _, _ = run(
                capsys, "certify", "--grid", spec, "--out", str(tmp_path / "x.json")
            )
            assert code == 1


def run_process(*argv):
    """Run the CLI in a child process with 1 GiB of address space and 60 s.

    A range that never ends would hang an in-process call and fill memory;
    in the child it fails instead.
    """
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    source = str(Path(commbounds.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, "-m", "commbounds.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        preexec_fn=limit_memory,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # start + k*step == start for every k: the range loop never ended.
        ("certify", "--grid", "0.1:40:1e-300"),
        ("closed-forms", "--r", "0.5:0.5:1e-300"),
        # 8e11 values.
        ("closed-forms", "--r", "0.1:0.9:1e-12"),
    ],
)
def test_range_with_too_many_values_exits_one(tmp_path, argv):
    result = run_process(*argv, *(("--out", str(tmp_path / "x.json")) if argv[0] == "certify" else ()))
    assert result.returncode == 1, result.stderr
    assert "more than 10000000 values" in result.stderr
    assert result.stdout == ""


class TestSqrtConstCommand:
    def test_full_span_certificate(self, capsys, tmp_path):
        points = [BoundPoint(c, 1.0, GaussianParams(1.0, 1.0)) for c in build_paper_grid()]
        cert = global_constant(points, 0.0195, 40.0)
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(cert.to_dict()))
        code, out, _ = run(capsys, "sqrt-const", "--cert", str(path))
        assert code == 0
        assert float(out.strip()) == sqrt_constant(cert.points)
        assert float(out.strip()) == pytest.approx(1.001754608290616, abs=1e-9)

    def test_mixture_certificate(self, capsys, tmp_path):
        cert = global_constant(certify_grid(build_paper_grid()), 0.0195, 40.0)
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(cert.to_dict()))
        code, out, _ = run(capsys, "sqrt-const", "--cert", str(path))
        assert code == 0
        assert float(out.strip()) == sqrt_constant(cert.points)
        assert float(out.strip()) <= 1.0095

    def test_coverage_gap_exits_two(self, capsys, tmp_path):
        points = [BoundPoint(c, 1.0, GaussianParams(1.0, 1.0)) for c in (0.9, 1.0, 1.1)]
        cert = global_constant(points, 0.9, 1.1)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cert.to_dict()))
        code, _, err = run(capsys, "sqrt-const", "--cert", str(path))
        assert code == 2
        assert "span" in err

    def test_nan_constant_exits_two(self, capsys, tmp_path):
        points = [BoundPoint(c, 1.0, GaussianParams(1.0, 1.0)) for c in build_paper_grid()]
        payload = global_constant(points, 0.0195, 40.0).to_dict()
        payload["C_k"][1000] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "sqrt-const", "--cert", str(path))
        assert code == 2
        assert out == ""
        assert "C_k" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sqrt-const", "--cert", str(tmp_path / "nope.json"))
        assert code == 1

    def test_corrupt_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "sqrt-const", "--cert", str(path))
        assert code == 1


class TestClosedFormsCommand:
    def test_half_table_values(self, capsys):
        code, out, _ = run(capsys, "closed-forms")
        assert code == 0
        assert "1.2732395447351628" in out
        assert "1.4142135623730951" in out
        assert "1.2408064788027995" in out
        assert "1.0606601717798214" in out
        assert "1.1747553531222155" in out
        assert "1.1883951057781212" in out
        assert "1.5625" in out
        assert "1.1017414573743671" in out

    def test_csv_single_r(self, capsys):
        code, out, _ = run(capsys, "closed-forms", "--csv")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "r"
        assert "gamma_boyadzhiev" in header
        assert "gamma_half_integral" in header
        assert len(lines) == 2
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["r"]) == 0.5
        assert float(row["gamma_boyadzhiev"]) == pytest.approx(4.0 / math.pi, abs=1e-12)
        assert float(row["gamma_olsen_pedersen"]) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_csv_r_grid(self, capsys, tmp_path):
        out_path = str(tmp_path / "table.csv")
        code, _, _ = run(
            capsys, "closed-forms", "--csv", "--r", "0.3:0.7:0.2", "--out", out_path
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 4
        rs = [float(line.split(",")[0]) for line in lines[1:]]
        assert rs == pytest.approx([0.3, 0.5, 0.7], abs=1e-12)

    def test_out_of_range_r_exits_one(self, capsys):
        assert run(capsys, "closed-forms", "--r", "1.5")[0] == 1
        assert run(capsys, "closed-forms", "--r", "nope")[0] == 1

    def test_bad_r_range_exits_one(self, capsys):
        # A reversed or non-finite range has no values; it is an error, not an empty table.
        for spec in ("0.9:0.1:0.1", "nan:0.5:0.1", "0.1:0.5:0", "0.1:0.5"):
            code, out, _ = run(capsys, "closed-forms", "--csv", "--r", spec)
            assert code == 1
            assert out == ""


class TestVerifyCommand:
    def test_deterministic_runs(self, capsys, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        code1, stdout1, _ = run(
            capsys, "verify", "--trials", "80", "--seed", "7", "--out", out1
        )
        code2, stdout2, _ = run(
            capsys, "verify", "--trials", "80", "--seed", "7", "--out", out2
        )
        assert code1 == 0 and code2 == 0
        assert stdout1.splitlines()[0] == stdout2.splitlines()[0]
        assert json.loads(open(out1).read()) == json.loads(open(out2).read())

    def test_report_contents(self, capsys, tmp_path):
        out = str(tmp_path / "r.json")
        code, stdout, _ = run(
            capsys, "verify", "--trials", "50", "--seed", "3",
            "--norm", "kyfan:2", "--out", out,
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["seed"] == 3
        assert report["trials"] == 50
        assert report["norm"] == "kyfan:2"
        assert report["f"] == "f1"
        assert f"max_ratio={report['max_ratio']!r}" in stdout
        assert report["max_ratio"] <= 1.01975 + 1e-9

    def test_bad_norm_exits_one(self, capsys):
        assert run(capsys, "verify", "--trials", "5", "--norm", "spectral")[0] == 1

    def test_bad_trials_exits_two(self, capsys):
        assert run(capsys, "verify", "--trials", "0")[0] == 2


class TestCommandFlags:
    def test_seed_and_threads_belong_to_verify(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        code, _, err = run(capsys, "certify", "--grid", "1.0:1.0:0.1", "--threads", "2", "--out", out)
        assert code == 1 and "--threads" in err
        assert not os.path.exists(out)
        for command in (["closed-forms"], ["counterexample"], ["erfmin", "1.0", "0.75", "0.45"]):
            assert run(capsys, *command, "--seed", "3")[0] == 1
        runs = [
            run(capsys, "verify", "--trials", "1500", "--n-max", "3", "--seed", "3", *extra)
            for extra in ((), ("--threads", "2"))
        ]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]

    def test_unused_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f"
        assert run(capsys, "erfmin", "1.0", "0.75", "0.45", "--out", str(path))[0] == 1
        cert = str(tmp_path / "cert.json")
        assert run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", cert)[0] == 0
        code, _, err = run(capsys, "sqrt-const", "--cert", cert, "--out", str(path))
        assert code == 1 and "--out" in err
        assert not path.exists()


class TestCounterexampleCommand:
    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        report = json.loads(out)
        assert report["reversal"] is True
        assert report["trace_norm_f_exp"] > report["trace_norm_f_commutator"]
        assert len(report["sigma_commutator"]) == 3

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "ce.json")
        code, out, _ = run(capsys, "counterexample", "--out", path)
        assert code == 0
        assert "wrote" in out
        assert json.loads(open(path).read())["reversal"] is True
