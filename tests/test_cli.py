import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bhbounds import FamilyParams, build_witness, polynomial_to_dict

WITNESS_M2 = polynomial_to_dict(build_witness(2, FamilyParams(1.0, -1.0, 2.0**1.5)))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None, timeout=None):
    # The subprocess imports bhbounds from this checkout's src/, installed or not.
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bhbounds", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=timeout,
    )


def write_witness_file(tmp_path, doc=WITNESS_M2, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- bounds -----------------------------------------------------------------


def test_bounds_csv():
    proc = run_cli("bounds", "--from", "2", "--to", "5")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 4
    assert rows[0]["m"] == "2"
    assert float(rows[0]["lower"]) == pytest.approx(1.10668192, abs=1e-7)
    assert float(rows[0]["upper"]) == pytest.approx(3.0, abs=1e-8)


def test_bounds_json():
    proc = run_cli("bounds", "--from", "2", "--to", "2", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload) == 1
    assert payload[0]["lower"] == pytest.approx(1.1066818, abs=1e-6)


def test_bounds_bad_range():
    proc = run_cli("bounds", "--from", "5", "--to", "2")
    assert proc.returncode == 2
    assert proc.stderr.strip()
    assert not proc.stdout.strip()


def test_bounds_below_minimum_degree():
    assert run_cli("bounds", "--from", "1", "--to", "3").returncode == 2


# --- ratio ------------------------------------------------------------------


def test_ratio_on_witness(tmp_path):
    path = write_witness_file(tmp_path)
    proc = run_cli("ratio", "--file", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["estimate"] == pytest.approx(1.1066818, abs=1e-6)
    assert payload["certified"] <= payload["estimate"]
    assert payload["supnorm_lower"] <= payload["supnorm_upper"]


def test_ratio_invalid_term_weight(tmp_path):
    doc = {"m": 3, "n": 2, "terms": [{"alpha": [2, 0], "re": 1.0, "im": 0.0}]}
    path = write_witness_file(tmp_path, doc, "bad.json")
    proc = run_cli("ratio", "--file", path)
    assert proc.returncode == 2
    assert "[2, 0]" in proc.stderr  # names the offending term


def test_ratio_zero_polynomial(tmp_path):
    doc = {"m": 2, "n": 2, "terms": []}
    path = write_witness_file(tmp_path, doc, "zero.json")
    assert run_cli("ratio", "--file", path).returncode == 2


def test_ratio_non_finite_coefficient(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):  # json writes NaN, Infinity
        doc = {"m": 2, "n": 2, "terms": [{"alpha": [2, 0], "re": bad, "im": 0.0}]}
        proc = run_cli("ratio", "--file", write_witness_file(tmp_path, doc, "bad.json"))
        assert proc.returncode == 2
        assert "not finite" in proc.stderr
        assert proc.stdout == ""


def test_ratio_overflowing_coefficients(tmp_path):
    # At 1e308 each term of the Lipschitz bound overflows; at 7e307 the
    # terms are finite and only their sum overflows.
    for size in (1e308, 7e307):
        terms = [
            {"alpha": alpha, "re": re, "im": 0.0}
            for alpha, re in (([2, 0], size), ([0, 2], -size), ([1, 1], size))
        ]
        doc = {"m": 2, "n": 2, "terms": terms}
        proc = run_cli("ratio", "--file", write_witness_file(tmp_path, doc, "huge.json"))
        assert proc.returncode == 2, size
        assert "not finite" in proc.stderr
        assert proc.stdout == ""


def test_ratio_overflowing_grid_prints_one_error_line(tmp_path):
    # With two free axes the grid's inverse FFT overflows before the bracket
    # is found not finite; numpy's RuntimeWarning must not reach stderr.  A
    # single term whose modulus exceeds the largest float has no free axis
    # and overflows the same way, not with an OverflowError.
    terms = [
        {"alpha": alpha, "re": re, "im": 0.0}
        for alpha, re in (([2, 0, 0], 1e308), ([0, 1, 1], 1e308), ([0, 0, 2], -1e308))
    ]
    for doc in (
        {"m": 2, "n": 3, "terms": terms},
        {"m": 2, "n": 1, "terms": [{"alpha": [2], "re": 1.5e308, "im": 1.5e308}]},
    ):
        proc = run_cli("ratio", "--file", write_witness_file(tmp_path, doc, "huge.json"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:") and "not finite" in line


def test_ratio_missing_file():
    assert run_cli("ratio", "--file", "/no/such/file.json").returncode == 2


def test_ratio_certified_tightens_with_grid(tmp_path):
    path = write_witness_file(tmp_path)
    certified = []
    for grid in ("8", "128"):
        proc = run_cli("ratio", "--file", path, "--grid", grid)
        assert proc.returncode == 0
        certified.append(json.loads(proc.stdout)["certified"])
    assert certified[1] >= certified[0]


# --- verify-family ----------------------------------------------------------


def test_verify_family_passes():
    proc = run_cli("verify-family", "--to", "5")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [row["m"] for row in rows] == ["2", "3", "4", "5"]
    assert all(row["status"] == "PASS" for row in rows)


def test_verify_family_below_domain():
    assert run_cli("verify-family", "--to", "1").returncode == 2


def test_verify_family_failure_exits_one(monkeypatch, capsys):
    # force a mismatch to exercise the verification-failure exit path
    import bhbounds.cli as cli

    monkeypatch.setattr(cli, "lower_bound", lambda m: 42.0)
    rc = cli.main(["verify-family", "--to", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "--grid" in captured.err  # prose hint goes to stderr


# --- fm-curve -----------------------------------------------------------------


def test_fm_curve_marks_maximum():
    proc = run_cli("fm-curve", "--m", "2", "--points", "100")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 101  # samples plus the marked optimum row
    best = max(rows, key=lambda row: float(row["f"]))
    assert float(best["x"]) == pytest.approx(2.8284271, abs=1e-6)
    assert best["optimal"] == "1"
    assert sum(row["optimal"] == "1" for row in rows) == 1


def test_fm_curve_single_point():
    proc = run_cli("fm-curve", "--m", "2", "--xmin", "5", "--xmax", "5", "--points", "1")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 1
    assert float(rows[0]["x"]) == pytest.approx(5.0)


def test_fm_curve_m3_maximum_value():
    proc = run_cli("fm-curve", "--m", "3", "--points", "50")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    best = max(float(row["f"]) for row in rows)
    assert best == pytest.approx(1.0378908, abs=1e-6)


def test_fm_curve_bad_range():
    assert run_cli("fm-curve", "--m", "2", "--xmin", "10", "--xmax", "1").returncode == 2
    assert run_cli("fm-curve", "--m", "1").returncode == 2


def test_fm_curve_refuses_too_many_points():
    # Refused before anything is allocated: 10^12 rows once ran numpy out
    # of memory with a traceback.
    from bhbounds.cli import MAX_CURVE_POINTS

    for points in (MAX_CURVE_POINTS + 1, 10**12):
        proc = run_cli("fm-curve", "--m", "3", "--points", str(points))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and str(MAX_CURVE_POINTS) in proc.stderr


def test_fm_curve_rejects_non_finite_range():
    for xmin, xmax in (("1", "inf"), ("inf", "inf"), ("nan", "10"), ("1", "nan")):
        proc = run_cli("fm-curve", "--m", "3", "--xmin", xmin, "--xmax", xmax, "--points", "3")
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert proc.stdout == ""


# --- search -------------------------------------------------------------------


def test_search_writes_certificate_and_summary(tmp_path):
    out = tmp_path / "cert.json"
    proc = run_cli(
        "search", "--m", "2", "--n", "2", "--seed", "1",
        "--restarts", "3", "--budget", "50", "--grid", "32",
        "--out", str(out),
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["estimate"] >= 1.1066
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bh-cert-1"
    assert doc["config"]["search"]["rng_seed"] == 1


def test_search_is_reproducible(tmp_path):
    args = (
        "search", "--m", "2", "--n", "2", "--seed", "3",
        "--restarts", "2", "--budget", "30", "--grid", "32",
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    proc1 = run_cli(*args, "--out", str(out1))
    proc2 = run_cli(*args, "--out", str(out2))
    assert proc1.returncode == proc2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert proc1.stdout.replace(str(out1), "") == proc2.stdout.replace(str(out2), "")


def test_search_rejects_zero_restarts():
    assert run_cli("search", "--m", "2", "--n", "2", "--restarts", "0").returncode == 2


def test_grid_below_two_is_usage_error(tmp_path):
    path = write_witness_file(tmp_path)
    out = tmp_path / "cert.json"
    for args in (
        ("ratio", "--file", path),
        ("verify-family", "--to", "3"),
        ("search", "--m", "2", "--n", "2", "--restarts", "1", "--out", str(out)),
    ):
        proc = run_cli(*args, "--grid", "1", cwd=tmp_path)
        assert proc.returncode == 2, args
        assert "grid must be >= 2" in proc.stderr
        assert proc.stdout == ""
    # search stopped before writing a certificate, at --out or the default path
    assert [p.name for p in tmp_path.iterdir()] == ["poly.json"]


def test_search_refuses_grids_that_alias(tmp_path):
    out = tmp_path / "cert.json"
    for args in (("--out", str(out)), ()):
        proc = run_cli("search", "--m", "4", "--n", "2", "--grid", "4", *args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "at least 5" in proc.stderr
    # no certificate, at --out or the default path
    assert list(tmp_path.iterdir()) == []


def test_search_refuses_unlistable_coefficient_space(tmp_path):
    # Without the limit this enumerates C(79, 39) multi-indices until memory
    # runs out, so a regression is killed after a few seconds.
    proc = run_cli("search", "--m", "40", "--n", "40", cwd=tmp_path, timeout=10)
    assert proc.returncode == 2
    assert "coefficients" in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def _term(alpha, re=1.0):
    return {"alpha": alpha, "re": re, "im": 0.0}


@pytest.mark.parametrize(
    "args, doc",
    [
        (("ratio",), {"m": 2, "n": 2, "terms": [_term([2.7, 0.3])]}),
        (("ratio",), {"m": True, "n": 2, "terms": [_term([1, 0])]}),
        (("ratio",), {"m": 2, "n": True, "terms": [_term([2])]}),
        (("ratio",), {"m": 2, "n": 2, "terms": [_term([True, True])]}),
        (("ratio",), {"m": 2, "n": 2, "terms": [_term([2, 0], re=[1])]}),
        (("ratio",), {"m": 2, "n": 2, "terms": [_term([2, 0], re=10**400)]}),
        (("ratio",), {"m": 2, "n": 2, "terms": 5}),
        (("ratio",), {"m": 2, "n": 2, "terms": [_term(5)]}),
        (("bounds", "--from", "2", "--to", "2036"), None),
        (("fm-curve", "--m", "2047"), None),
    ],
    ids=[
        "fractional-exponent", "bool-degree", "bool-variables", "bool-exponent",
        "list-coefficient", "huge-int-coefficient", "terms-not-list", "alpha-not-list",
        "bounds-overflow", "fm-curve-overflow",
    ],
)
def test_bad_input_is_usage_error(tmp_path, args, doc):
    if doc is not None:
        args = (*args, "--file", write_witness_file(tmp_path, doc, "bad.json"))
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


# --- in-process calls ---------------------------------------------------------


def _main_in_process(capsys, *args):
    from bhbounds import cli

    rc = cli.main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out


def test_in_process_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser, so nothing one call parses may reach the next.
    path = write_witness_file(tmp_path)
    rc, out = _main_in_process(capsys, "ratio", "--file", path)
    assert rc == 0
    fresh = out
    rc, out = _main_in_process(capsys, "ratio", "--file", path, "--grid", "128")
    assert rc == 0 and json.loads(out)["grid"] == 128
    rc, out = _main_in_process(capsys, "ratio", "--file", path)
    assert rc == 0 and json.loads(out)["grid"] == 64
    assert out == fresh
    # A call that fails, in the command or in parsing, leaves the next intact.
    rc, out = _main_in_process(capsys, "ratio", "--file", str(tmp_path / "missing.json"))
    assert rc == 2 and out == ""
    assert _main_in_process(capsys, "ratio", "--file", path) == (0, fresh)
    with pytest.raises(SystemExit) as exc:
        _main_in_process(capsys, "ratio", "--grid", "32")  # --file missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert _main_in_process(capsys, "ratio", "--file", path) == (0, fresh)
