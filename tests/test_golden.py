"""Subcommand `--json` reports compared byte for byte with
`tests/golden_reports.json`.

Every subcommand runs on the shipped fixtures, `invariants` once per named
subgroupoid and `grothendieck` once per named G-set.  `galois`, `skew`,
`correspondence` and any named `grothendieck` also run on two generated
problems over F_4 and F_8 (`conftest.pair_cyclic_doc`), written to a
temporary file, so the tensor-split and skew-ring paths over extension
fields are covered too.  `subgroupoids` also runs on those two and on
P_3 x C_2 over F_2 (31 wide subgroupoids of 18 elements), so the order of
the enumeration is held beyond the fixtures.  A change that claims to keep the reports identical
proves it here.

To record the reports of the current code (only when a report is meant to
change), run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from conftest import pair_cyclic_doc
from gpdgalois.cli import main

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
FIXTURES = ["fix1.json", "fix2.json", "fixc2.json", "fixf4.json"]
PLAIN = ["check", "galois", "subgroupoids", "faithful", "skew", "correspondence"]
GENERATED = [("twisted", 2, 2, 2), ("frobenius", 2, 3, 3)]
GENERATED_PLAIN = ["galois", "skew", "correspondence"]
ENUMERATED = [("shift", 3, 2, 1)] + GENERATED


def golden_argvs():
    """(key, source, argv tail) for every golden report; source is a
    fixture file name or a GENERATED spec."""
    out = []
    for name in FIXTURES:
        doc = json.loads((FIXDIR / name).read_text())
        runs = [[cmd] for cmd in PLAIN]
        runs += [["invariants", "--sub", sub] for sub in doc.get("subgroupoids", {})]
        runs += [["grothendieck", "--gset", gs] for gs in doc.get("gsets", {})]
        out += [(" ".join([name] + run), name, run) for run in runs]
    for spec in GENERATED:
        doc = pair_cyclic_doc(*spec)
        runs = [[cmd] for cmd in GENERATED_PLAIN]
        runs += [["grothendieck", "--gset", gs] for gs in doc.get("gsets", {})]
        out += [(" ".join(["_".join(map(str, spec))] + run), spec, run) for run in runs]
    for spec in ENUMERATED:
        out.append(("_".join(map(str, spec)) + " subgroupoids", spec, ["subgroupoids"]))
    return out


def report_of(source, run):
    """The exit code and the exact stdout of one `--json` run."""
    with contextlib.ExitStack() as stack:
        if isinstance(source, str):
            path = str(FIXDIR / source)
        else:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            path = os.path.join(tmp, "problem.json")
            with open(path, "w") as fh:
                json.dump(pair_cyclic_doc(*source), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([run[0], path] + run[1:] + ["--json"])
    return {"exit": code, "stdout": out.getvalue()}


GOLDEN_ARGVS = golden_argvs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_report(golden):
    assert sorted(golden) == sorted(key for key, _, _ in GOLDEN_ARGVS)


@pytest.mark.parametrize("key,source,run", GOLDEN_ARGVS,
                         ids=[k for k, _, _ in GOLDEN_ARGVS])
def test_report_matches_golden(golden, key, source, run):
    assert report_of(source, run) == golden[key]


if __name__ == "__main__":
    recorded = {key: report_of(source, run) for key, source, run in GOLDEN_ARGVS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} reports to {GOLDEN}")
