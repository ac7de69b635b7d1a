"""The CLI records of golden.CLI_RUNS against their committed golden
records (tests/golden/cli.json), within golden's tolerance."""
import pytest

import golden

GOLDEN_CLI = golden.load("cli")


def test_golden_file_holds_the_listed_runs():
    assert {name: run["argv"] for name, run in GOLDEN_CLI.items()} \
        == golden.CLI_RUNS


@pytest.mark.parametrize("name", sorted(golden.CLI_RUNS))
def test_cli_record_matches_golden(name, monkeypatch):
    monkeypatch.delenv("SECTORAL_OUT", raising=False)
    want = GOLDEN_CLI[name]
    got = golden.run_cli(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    assert golden.mismatches(want["record"], got["record"]) == []


def test_mismatches_reads_floats_within_the_tolerance_only():
    want = {"pass": True, "n": 3, "x": 1.0, "ys": [0.0, -2.5], "s": "a"}
    assert golden.mismatches(want, dict(want)) == []
    near = dict(want, x=1.0 + 0.5 * golden.RTOL, ys=[0.5 * golden.ATOL, -2.5])
    assert golden.mismatches(want, near) == []
    for key, value in (("x", 1.0 + 3 * golden.RTOL), ("ys", [2 * golden.ATOL,
                       -2.5]), ("ys", [0.0]), ("pass", False), ("pass", 1),
                       ("n", 3.0), ("s", "b")):
        assert len(golden.mismatches(want, dict(want, **{key: value}))) == 1
    assert golden.mismatches(want, {"pass": True}) != []
