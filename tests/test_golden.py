"""Every subcommand's `--json` report on the shipped fixtures, compared
byte for byte with `tests/golden_reports.json`.

`invariants` runs once per named subgroupoid and `grothendieck` once per
named G-set.  A change that claims to keep the reports identical proves it
here.  To record the reports of the current code (only when a report is
meant to change), run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from gpdgalois.cli import main

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
FIXTURES = ["fix1.json", "fix2.json", "fixc2.json", "fixf4.json"]
PLAIN = ["check", "galois", "subgroupoids", "faithful", "skew", "correspondence"]


def golden_argvs():
    """(key, argv) for every report on the shipped fixtures."""
    out = []
    for name in FIXTURES:
        doc = json.loads((FIXDIR / name).read_text())
        runs = [[cmd] for cmd in PLAIN]
        runs += [["invariants", "--sub", sub] for sub in doc.get("subgroupoids", {})]
        runs += [["grothendieck", "--gset", gs] for gs in doc.get("gsets", {})]
        for run in runs:
            out.append((" ".join([name] + run), [run[0], str(FIXDIR / name)] + run[1:]))
    return out


def report_of(argv):
    """The exit code and the exact stdout of one `--json` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return {"exit": code, "stdout": out.getvalue()}


GOLDEN_ARGVS = golden_argvs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_report(golden):
    assert sorted(golden) == sorted(key for key, _ in GOLDEN_ARGVS)


@pytest.mark.parametrize("key,argv", GOLDEN_ARGVS, ids=[k for k, _ in GOLDEN_ARGVS])
def test_report_matches_golden(golden, key, argv):
    assert report_of(argv) == golden[key]


if __name__ == "__main__":
    recorded = {key: report_of(argv) for key, argv in GOLDEN_ARGVS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} reports to {GOLDEN}")
