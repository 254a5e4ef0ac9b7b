"""CLI output pinned byte for byte to files in tests/golden/.

The expected files are the stdout of the commands below, run on the two
polynomial files beside them (a degree-8 binary form, with one free axis
and exponents that alias at --grid 7, and a degree-4 form on three
variables), and the certificate files that two default searches write
(the stdout of search names the file, so the file is compared).  A change that means to alter these outputs rewrites the files
in the same change and says why; any other difference is a regression.
"""

from pathlib import Path

import pytest

from bhbounds import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (["verify-family", "--to", "8"], "verify_family_to8.csv"),
    *[
        (["ratio", "--file", str(GOLDEN / f"poly_{name}.json"), "--grid", grid],
         f"ratio_{name}_grid{grid}.json")
        for name in ("m8_n2", "m4_n3")
        for grid in ("7", "64")
    ],
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[name for _, name in CASES])
def test_cli_stdout_matches_golden_file(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


SEARCHES = [("2", "2"), ("3", "3")]


@pytest.mark.parametrize("m, n", SEARCHES, ids=[f"m{m}_n{n}" for m, n in SEARCHES])
def test_search_certificate_matches_golden_file(capsys, tmp_path, m, n):
    out = tmp_path / "cert.json"
    assert cli.main(["search", "--m", m, "--n", n, "--seed", "0", "--out", str(out)]) == 0
    expected = GOLDEN / f"cert_search_m{m}_n{n}_seed0.json"
    assert out.read_text() == expected.read_text()
