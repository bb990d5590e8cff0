"""Tests for the command-line front end.

Commands run in-process through main(argv); stdout is captured with
capsys and files land in tmp_path.  Exit code convention under test:
0 success, 1 usage errors, 2 validation or computation failures.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import commbounds

from commbounds.approx import GaussianParams, erf_min_bound
from commbounds.cli import UsageError, _parse_range, main, parse_norm
from commbounds.matrixlab import CampaignConfig, NormKind, monte_carlo_campaign
from commbounds.optimize import BoundPoint, build_paper_grid, certify_grid
from commbounds.stitch import (
    RejectedCertificate,
    StitchedCertificate,
    global_constant,
    sqrt_constant,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("c, a, b", [("1e-320", "0.5", "0.5"), ("1e308", "2", "0.5")])
    def test_overflowed_bound_prints_null(self, capsys, c, a, b):
        # The kernel is not degenerate, but the bound overflows to inf.
        code, out, _ = run(capsys, "erfmin", c, a, b)
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)
        expected = erf_min_bound(float(c), GaussianParams(float(a), float(b)))
        assert math.isinf(expected.value)
        assert payload["value"] is None
        assert payload["degenerate"] is False
        assert payload["x1"] == expected.x1
        assert payload["x2"] == expected.x2

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

    def test_paper_grid_is_the_witness_envelope_certificate(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        code, stdout, _ = run(capsys, "certify", "--grid", "paper", "--out", out)
        assert code == 0
        expected = global_constant(certify_grid(build_paper_grid()), 0.0195, 40.0)
        assert json.loads(open(out).read()) == expected.to_dict()
        assert "global_C=1.0195" in stdout.splitlines()
        code, stdout, _ = run(capsys, "sqrt-const", "--cert", out)
        assert code == 0
        assert stdout.strip() == "1.0087602160646407"

    def test_out_that_is_the_csv_path_is_usage_error(self, capsys, tmp_path):
        # The JSON would be written and then overwritten by the CSV, also
        # on a case-insensitive file system, where cert.CSV is cert.csv.
        for name in ("cert.csv", "cert.CSV"):
            out = str(tmp_path / name)
            code, stdout, err = run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", out)
            assert code == 1
            assert err.startswith("usage error: ") and "CSV" in err
            assert stdout == ""
            assert list(tmp_path.iterdir()) == []

    def test_corner_below_two_thirds_is_the_shift_constant(self, capsys, tmp_path):
        out = str(tmp_path / "cert.json")
        code, stdout, _ = run(capsys, "certify", "--grid", "0.1:0.6:0.1", "--out", out)
        assert code == 0
        assert "corner_large=1.5625" in stdout.splitlines()
        assert "global_C=1.5625" in stdout.splitlines()

    def test_out_in_a_missing_directory_is_usage_error(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "cert.json")
        code, stdout, err = run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", out)
        assert code == 1
        assert err.startswith(f"usage error: cannot write {out}: ") and "Traceback" not in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_written_files_have_the_mode_open_gives(self, capsys, tmp_path):
        # mkstemp makes a file owner-only; a certificate is meant to be
        # read by others, so it gets open()'s 0o666 less the umask.
        old = os.umask(0o022)
        try:
            out = tmp_path / "cert.json"
            assert run(capsys, "certify", "--grid", "0.9:1.1:0.1", "--out", str(out))[0] == 0
            forms = tmp_path / "cf.txt"
            assert run(capsys, "closed-forms", "--out", str(forms))[0] == 0
        finally:
            os.umask(old)
        for path in (out, tmp_path / "cert.csv", forms):
            assert path.stat().st_mode & 0o777 == 0o644, path

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


def test_range_slack_scales_with_step():
    # An absolute slack of 1e-12 would take ten more values past 2e-13.
    assert _parse_range("1e-13:2e-13:1e-13", "grid") == [1e-13, 2e-13]
    for spec, count in (("0.9:1.1:0.1", 3), ("0.1:0.9:0.1", 9), ("0.0195:40:0.0005", 79962)):
        start, _, step = (float(part) for part in spec.split(":"))
        assert _parse_range(spec, "grid") == [start + k * step for k in range(count)]


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


@pytest.fixture(scope="module")
def paper_certificate():
    return global_constant(certify_grid(build_paper_grid()), 0.0195, 40.0).to_dict()


def _with_mixture(index):
    return lambda p: {**p, "params": [{"mixture": index}, *p["params"][1:]]}


def _first_weight_as_string(payload):
    payload = json.loads(json.dumps(payload))
    payload["mixtures"][0]["w"][0] = str(payload["mixtures"][0]["w"][0])
    return payload


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: {k: v for k, v in p.items() if k != "C_k"},
        lambda p: [p],
        lambda p: {**p, "grid": ["x", *p["grid"][1:]]},
        _with_mixture(120),
        _with_mixture(1.5),
        _with_mixture(-1),
        lambda p: {**p, "D_k": p["D_k"][:-1]},
        lambda p: {**p, "grid": [str(c) for c in p["grid"]]},
        _first_weight_as_string,
    ],
    ids=[
        "no-C_k", "list", "grid-string",
        "mixture-past-end", "mixture-float", "mixture-negative", "short-D_k",
        "grid-numbers-as-strings", "weight-as-string",
    ],
)
def test_malformed_certificate_is_usage_error(capsys, tmp_path, paper_certificate, edit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(paper_certificate)))
    code, out, err = run(capsys, "sqrt-const", "--cert", str(path))
    assert code == 1
    assert err.startswith("usage error: ") and "is not a certificate" in err and "Traceback" not in err
    assert out == ""


def _one_ulp(field, toward):
    def edit(payload):
        payload = json.loads(json.dumps(payload))
        if field == "D_k":
            payload["D_k"][1000] = math.nextafter(payload["D_k"][1000], toward)
        else:
            payload[field] = math.nextafter(payload[field], toward)
        return payload

    return edit


def _swap_grid(payload):
    grid = list(payload["grid"])
    grid[1000], grid[1001] = grid[1001], grid[1000]
    return {**payload, "grid": grid}


_ULP_FIELDS = {
    "global_C": "global_C",
    "corner_small": "corner_small",
    "corner_large": "corner_large",
    "D_k": "D_k[1000]",
}


@pytest.mark.parametrize(
    "edit, named",
    [
        (_one_ulp(field, toward), f"stored {name} = ")
        for field, name in _ULP_FIELDS.items()
        for toward in (math.inf, -math.inf)
    ]
    + [
        (lambda p: {**p, "global_C": 0.5, "corner_small": "abc"}, "stored corner_small = 'abc'"),
        (lambda p: {**p, "C_k": [*p["C_k"][:1000], 0.5, *p["C_k"][1001:]]}, "C_k must be >= 1"),
        (_swap_grid, "strictly increasing"),
    ],
    ids=[f"{field}-{way}" for field in _ULP_FIELDS for way in ("up", "down")]
    + ["unsupported-global_C", "C_k-below-one", "grid-out-of-order"],
)
def test_certificate_its_nodes_do_not_give_exits_two(
    capsys, tmp_path, paper_certificate, edit, named
):
    # Reading succeeds; the certificate rebuilt from the nodes fails or
    # differs from what the file states, and the message names the field.
    payload = edit(paper_certificate)
    with pytest.raises(RejectedCertificate, match=re.escape(named)):
        StitchedCertificate.from_dict(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "sqrt-const", "--cert", str(path))
    assert code == 2
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert out == ""


def test_invalid_gaussian_is_usage_error(capsys, tmp_path):
    # GaussianParams rejects it while the file is read, before any rebuild:
    # a DomainViolation there is a malformed file, not a failed certificate.
    points = [BoundPoint(c, 1.0, GaussianParams(1.0, 1.0)) for c in (0.9, 1.0, 1.1)]
    payload = global_constant(points, 0.9, 1.1).to_dict()
    payload["params"][1] = [-1.0, 1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "sqrt-const", "--cert", str(path))
    assert code == 1
    assert err.startswith("usage error: ")
    assert out == ""


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

    @pytest.mark.parametrize("extra", [(), ("--r", "0.1:0.9:0.4"), ("--csv",)])
    def test_out_file_holds_what_is_printed(self, capsys, tmp_path, extra):
        code, printed, _ = run(capsys, "closed-forms", *extra)
        assert code == 0
        path = tmp_path / "table.txt"
        code, out, _ = run(capsys, "closed-forms", *extra, "--out", str(path))
        assert code == 0
        assert out == f"wrote {path}\n"
        assert path.read_bytes() == printed.encode()

    def test_csv_header_follows_the_text_table(self, capsys):
        _, text, _ = run(capsys, "closed-forms")
        names = [line.split()[0] for line in text.splitlines() if line.startswith("  ")]
        _, table, _ = run(capsys, "closed-forms", "--csv")
        assert table.splitlines()[0].split(",") == ["r", *names]

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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--norm", "schatten:3", "--n-max", "4"),
            ("--f", "sqrt", "--n-max", "5", "--a-equals-b", "--unit-norm-a", "--min-commutator", "0.25"),
        ],
        ids=("schatten", "sharp"),
    )
    def test_report_reruns_from_its_own_file(self, capsys, tmp_path, flags):
        out = str(tmp_path / "r.json")
        code, _, _ = run(capsys, "verify", "--trials", "1500", "--seed", "5", *flags, "--out", out)
        assert code == 0
        report = json.loads(open(out).read())
        cfg = CampaignConfig(
            n_max=report["n_max"],
            trials=report["trials"],
            seed=report["seed"],
            f=report["f"],
            norm=NormKind.parse(report["norm"]),
            a_equals_b=report["a_equals_b"],
            unit_norm_a=report["unit_norm_a"],
            min_commutator=report["min_commutator"],
        )
        again = monte_carlo_campaign(cfg)
        assert again.max_ratio == report["max_ratio"]
        where = (report["argmax"]["shard"], report["argmax"]["trial"])
        assert (again.argmax["shard"], again.argmax["trial"]) == where
        assert again.histogram == report["histogram"]
        assert "threads" not in report

    def test_report_keeps_every_digit_of_p(self, capsys, tmp_path):
        out = str(tmp_path / "r.json")
        code, _, _ = run(capsys, "verify", "--trials", "20", "--norm", "schatten:1.2345678", "--out", out)
        assert code == 0
        assert NormKind.parse(json.loads(open(out).read())["norm"]) == NormKind.schatten(1.2345678)

    def test_bad_norm_exits_one(self, capsys):
        assert run(capsys, "verify", "--trials", "5", "--norm", "spectral")[0] == 1

    def test_bad_trials_exits_two(self, capsys):
        assert run(capsys, "verify", "--trials", "0")[0] == 2

    def test_negative_seed_exits_two(self, capsys):
        # numpy's default_rng rejects a negative seed with a ValueError;
        # the config refuses it first, as a CommboundsError.
        code, out, err = run(capsys, "verify", "--trials", "10", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_n_max_beyond_an_array_exits_two(self, capsys):
        # numpy would fail to draw one trial with "array is too big"; the
        # config refuses n_max first, before any draw.
        code, out, err = run(capsys, "verify", "--trials", "10", "--n-max", "9223372036854775807")
        assert code == 2 and out == ""
        assert err.startswith("error: n_max=9223372036854775807 ") and "Traceback" not in err

    def test_unknown_function_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "10", "--f", "cube")
        assert code == 1 and out == ""
        assert "invalid choice: 'cube' (choose from 'f1', 'sqrt')" in err


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

    def test_out_in_a_missing_directory_is_usage_error(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "ce.json")
        code, out, err = run(capsys, "counterexample", "--out", path)
        assert code == 1
        assert err.startswith(f"usage error: cannot write {path}: ") and "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestWrittenFilesPinned:
    """SHA-256 of files the command line writes, recorded before the
    mixture payload and the witness table moved out of the CLI."""

    def test_paper_certificate_json(self, capsys, tmp_path, paper_certificate):
        text = json.dumps(paper_certificate, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ceb69de974f7b05fb66b459d0367e7ae4ea18760420825fec335bf31858d4253"
        )
        out = tmp_path / "cert.json"
        assert run(capsys, "certify", "--grid", "paper", "--out", str(out))[0] == 0
        assert out.read_text() == text

    def test_one_witness_table(self, capsys, tmp_path, monkeypatch):
        import commbounds.witnesses as module

        monkeypatch.setattr(module, "FIT_NODES", module.FIT_NODES[:1])
        out = tmp_path / "table.json"
        code, stdout, _ = run(capsys, "fit-witnesses", "--out", str(out))
        assert code == 0
        assert stdout == f"wrote 1 witnesses to {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0f87f6a77684b8c1a1aa587f1711364fcda0f2ed33d98ac864a126e878e7f7c2"
        )


def test_mixture_with_unequal_lengths_is_usage_error(capsys, tmp_path, paper_certificate):
    payload = json.loads(json.dumps(paper_certificate))
    payload["mixtures"][0]["w"] = payload["mixtures"][0]["w"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "sqrt-const", "--cert", str(path))
    assert code == 1
    assert err.startswith("usage error: ") and "equally many weights and widths" in err
    assert "Traceback" not in err
    assert out == ""
