"""Tests of the benchmark itself: metric output, checks and seeded inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import bhbounds  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"  {name} " in proc.stdout, name


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ratio-n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- seeded inputs ------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for cls in wl.WORKLOADS.values():
        first = cls(5, tmp_path / "a").inputs_bytes()
        assert cls(5, tmp_path / "b").inputs_bytes() == first
        assert cls(6, tmp_path / "b").inputs_bytes() != first


def test_generated_inputs_follow_the_workload_definitions():
    polys = wl.generate_polys(9)
    assert [p.m for p in polys].count(3) == len(polys) // 3
    for p in polys:
        total = len(wl._monomials(p.m, 3))
        assert len(p.terms) == round(0.7 * total)
        assert all(-2 <= re <= 2 and -2 <= im <= 2 for _, re, im in p.terms)
        assert bhbounds.polynomial_from_dict(json.loads(p.document())).degree == p.m
    for d in wl.generate_family(9):
        assert 2 <= d.m <= 16
        bhbounds.FamilyParams(d.a, d.b, d.c)  # raises outside the valid domain


# --- checks reject fabricated wrong results -------------------------------------


@pytest.fixture(scope="module")
def ratio_case():
    spec = wl.generate_polys(1)[0]
    doc = {
        "m": spec.m, "n": 3, "grid": 64, "converged": True,
        "coeff_norm": 1.0, "estimate": 0.6, "certified": 0.5,
        "supnorm_lower": spec.coeff_norm(2.0) * 1.2,
        "supnorm_upper": spec.coeff_norm(2.0) * 1.5,
    }
    return spec, doc


def test_check_ratio_accepts_a_consistent_result(ratio_case):
    spec, doc = ratio_case
    assert wl.check_ratio(spec, 0, json.dumps(doc)).certified == 0.5


@pytest.mark.parametrize(
    "rc, edit",
    [
        (2, {}),
        (0, {"estimate": float("nan")}),
        (0, {"supnorm_upper": 1e-3, "supnorm_lower": 1e-3}),
        (0, {"supnorm_lower": 1e9, "supnorm_upper": 1e9}),
        (0, {"certified": 1e3}),
        (0, {"grid": 32}),
    ],
    ids=["exit-code", "nan", "below-parseval", "above-l1", "above-upper-bound", "grid"],
)
def test_check_ratio_rejects_wrong_results(ratio_case, rc, edit):
    spec, doc = ratio_case
    with pytest.raises(wl.CheckFailure):
        wl.check_ratio(spec, rc, json.dumps({**doc, **edit}))


def test_check_ratio_rejects_non_json(ratio_case):
    with pytest.raises(wl.CheckFailure):
        wl.check_ratio(ratio_case[0], 0, "estimate: 1.0")


@pytest.fixture(scope="module")
def search_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("search") / "cert.json"
    rc, stdout = wl._run_cli(
        ["search", "--m", "2", "--n", "2", "--restarts", "1", "--budget", "5",
         "--out", str(path)]
    )
    return rc, stdout, path


def test_check_search_accepts_the_programs_result(search_case):
    rc, stdout, path = search_case
    assert wl.check_search(rc, stdout, str(path)).estimate >= bhbounds.lower_bound(2) - 1e-12


def _rewrite(path: Path, out: Path, **fields) -> str:
    doc = json.loads(path.read_text())
    doc.update(fields)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(out)


def test_check_search_rejects_wrong_results(search_case, tmp_path):
    rc, stdout, path = search_case
    with pytest.raises(wl.CheckFailure):
        wl.check_search(1, stdout, str(path))
    low = _rewrite(path, tmp_path / "low.json", estimate=1.0, certified_lower=0.9)
    with pytest.raises(wl.CheckFailure, match="family bound"):
        wl.check_search(rc, stdout, low)
    inverted = _rewrite(path, tmp_path / "inv.json", certified_lower=2.0)
    with pytest.raises(wl.CheckFailure, match="does not load"):
        wl.check_search(rc, stdout, inverted)
    reformatted = tmp_path / "spaced.json"
    reformatted.write_text(path.read_text() + " ")
    with pytest.raises(wl.CheckFailure, match="re-serialise"):
        wl.check_search(rc, stdout, str(reformatted))


@pytest.fixture(scope="module")
def family_case():
    draw = wl.FamilyDraw(5, 1.0, -1.0, 1.5)
    return draw, bhbounds.certify(bhbounds.build_witness(5, bhbounds.FamilyParams(1.0, -1.0, 1.5)))


def test_check_family_accepts_the_programs_result(family_case):
    draw, cert = family_case
    wl.check_family(draw, cert)


@pytest.mark.parametrize(
    "edit",
    [
        {"lower_estimate": 1e-5},
        {"upper_bracket": -1e-3},
        {"certified_lower": 1e3},
    ],
    ids=["lower-off-closed-form", "upper-below-closed-form", "above-upper-bound"],
)
def test_check_family_rejects_wrong_results(family_case, edit):
    draw, cert = family_case
    exact = bhbounds.quadratic_sup_norm(draw.a, draw.b, draw.c)
    fake = SimpleNamespace(
        supnorm=SimpleNamespace(
            lower_estimate=exact + edit.get("lower_estimate", 0.0),
            upper_bracket=exact + edit.get("upper_bracket", 0.5),
        ),
        certified_lower=edit.get("certified_lower", cert.certified_lower),
        estimate=cert.estimate,
    )
    with pytest.raises(wl.CheckFailure):
        wl.check_family(draw, fake)
