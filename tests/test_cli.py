import contextlib
import copy
import json
import pathlib
import sys
from unittest import mock

import pytest

from conftest import (
    PAIR_CYCLIC_SPECS,
    brute_invariants,
    disjoint_union,
    doc_action,
    pair_cyclic_doc,
    walk_conform,
)
from gpdgalois import action as action_mod, cli, omega, scalar as scalar_mod, tensor
from gpdgalois import galois as galois_mod
from gpdgalois.action import Submodule, invariants
from gpdgalois.cli import EXIT_CODES, main
from gpdgalois.errors import InvalidInput

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

FIX1 = str(FIXDIR / "fix1.json")
FIX2 = str(FIXDIR / "fix2.json")
FIXC2 = str(FIXDIR / "fixc2.json")
FIXF4 = str(FIXDIR / "fixf4.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", [FIX1, FIX2, FIXC2, FIXF4])
def test_check_passes(capsys, path):
    code, out = run(capsys, "check", path)
    assert code == 0
    assert "status: pass" in out


def test_check_broken_inverse(capsys, tmp_path):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    doc["groupoid"]["products"][6] = ["gi", "g", "e2"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    assert "[FAIL]" in out and "witness" not in out.lower() or "axiom" in out


def test_malformed_document(capsys, tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    code, out = run(capsys, "check", str(bad))
    assert code == 2
    assert "invalid-input" in out


def test_missing_section(capsys, tmp_path):
    bad = tmp_path / "nosec.json"
    bad.write_text(json.dumps({"field": {"p": 2}}))
    code, out = run(capsys, "check", str(bad))
    assert code == 2


def _without_sigma(doc):
    del doc["action"]["g"]["sigma"]


def _action_list(doc):
    doc["action"] = [doc["action"]]


@pytest.mark.parametrize("corrupt, message", [
    (_without_sigma, "action entry 'g' is missing key 'sigma'"),
    (_action_list, "section 'action' must be a JSON object"),
], ids=["missing-sigma", "action-not-object"])
def test_malformed_action_is_invalid_input(capsys, tmp_path, corrupt, message):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    corrupt(doc)
    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 2
    assert "invalid-input" in out
    assert message in out


def test_galois_command(capsys):
    code, out = run(capsys, "galois", FIX1)
    assert code == 0
    assert "galois coordinates" in out and "block-idempotents" in out
    code, out = run(capsys, "galois", FIXF4)
    assert code == 0
    assert "linear-solve" in out


def test_invariants_report_above_the_listing_bound(capsys, tmp_path):
    # P_5 x C_4: R^{G0} is all of R, 2^20 elements, above the 2^16 that
    # any subspace may list; the report needs only its dimension
    doc = pair_cyclic_doc("shift", 5, 4)
    doc["subgroupoids"] = {"G0": [f"g{i}_{i}_0" for i in range(5)]}
    path = tmp_path / "p5c4.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "invariants", str(path), "--sub", "G0")
    assert code == 0
    assert "1048576 elements" in out


def test_galois_command_negative(capsys, tmp_path):
    doc = {
        "field": {"p": 2, "k": 1},
        "groupoid": {
            "elements": ["e", "a"],
            "products": [["e", "e", "e"], ["e", "a", "a"],
                          ["a", "e", "a"], ["a", "a", "e"]],
        },
        "ring": {"blocks": ["w"], "ideals": {"e": ["w"]}},
        "action": {"a": {"sigma": {"w": "w"}}},
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "galois", str(path))
    assert code == 1
    assert "no coordinate system exists" in out


def test_subgroupoids_command(capsys):
    code, out = run(capsys, "subgroupoids", FIX1)
    assert code == 0
    assert out.count("wide subgroupoid") == 2
    code, out = run(capsys, "subgroupoids", FIX2)
    assert out.count("wide subgroupoid") == 4


def test_invariants_command(capsys):
    code, out = run(capsys, "invariants", FIX1, "--sub", "H1")
    assert code == 0
    assert "4 elements" in out
    assert "v1+v3" in out and "v2+v4" in out


def test_faithful_command(capsys):
    code, out = run(capsys, "faithful", FIX1)
    assert code == 0
    code, out = run(capsys, "faithful", FIX2)
    assert code == 1
    assert "annihilator v1+v3" in out
    # the combinatorial criterion still agrees with the direct check
    assert "FAIL] criterion" not in out


def test_skew_command(capsys):
    code, out = run(capsys, "skew", FIX1)
    assert code == 0
    assert "associativity" in out


def test_grothendieck_command(capsys):
    code, out = run(capsys, "grothendieck", FIX1, "--gset", "reg")
    assert code == 0
    code, out = run(capsys, "grothendieck", FIX1, "--gset", "byH1")
    assert code == 0
    code, out = run(capsys, "grothendieck", FIX2, "--gset", "reg")
    assert code == 1
    assert "status: hypothesis-failure" in out


def test_correspondence_command(capsys):
    code, out = run(capsys, "correspondence", FIX1)
    assert code == 0
    assert out.count("[INFO] row") == 2
    code, out = run(capsys, "correspondence", FIX2)
    assert code == 1
    assert "status: hypothesis-failure" in out
    code, out = run(capsys, "correspondence", FIXF4)
    assert code == 0


def test_explicit_gset_section(capsys, tmp_path):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    doc["gsets"]["explicit"] = {
        "carrier": ["x1", "x2", "x3", "x4"],
        "fibers": {"x1": "e1", "x2": "e1", "x3": "e2", "x4": "e2"},
        "gamma": {
            "g": {"x1": "x3", "x2": "x4"},
            "gi": {"x3": "x1", "x4": "x2"},
        },
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 0
    code, out = run(capsys, "grothendieck", str(path), "--gset", "explicit")
    assert code == 0


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "correspondence", FIX1, "--json")
    _, second = run(capsys, "correspondence", FIX1, "--json")
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "pass"
    assert doc["command"] == "correspondence"


def test_json_report_shape(capsys):
    _, out = run(capsys, "faithful", FIX2, "--json")
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert all(set(c) <= {"name", "verdict", "witness"} for c in doc["checks"])


@pytest.mark.parametrize("field,message", [
    ({"p": 4}, "4 is not prime"),
    ({"p": 2, "k": 2, "modulus": [1, 1]}, "modulus must have length k+1=3, got 2"),
    ({"p": 2, "k": 2, "modulus": [1, 0, 1]}, "modulus has factor of degree 1"),
], ids=["non-prime", "modulus-length", "reducible-modulus"])
def test_bad_field_is_invalid_input(capsys, tmp_path, field, message):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    doc["field"] = field
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "subgroupoids"):
        code, out = run(capsys, command, str(path), "--json")
        report = json.loads(out)
        assert code == 2 and report["status"] == "invalid-input"
        assert report["checks"] == [{"name": "input", "verdict": "fail", "witness": message}]


def test_a_field_above_the_table_bound_is_bound_exceeded(capsys, tmp_path):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    doc["field"] = {"p": 257}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path), "--json")
    report = json.loads(out)
    assert code == 3 and report["status"] == "bound-exceeded"
    assert report["checks"] == [{"name": "size bound", "verdict": "bound-exceeded",
                                 "witness": "field has 257^1 elements, above 256"}]


def _fix1_with(tmp_path, corrupt):
    doc = json.loads(pathlib.Path(FIX1).read_text())
    doc["gsets"]["explicit"] = {
        "carrier": ["x1", "x2", "x3", "x4"],
        "fibers": {"x1": "e1", "x2": "e1", "x3": "e2", "x4": "e2"},
        "gamma": {"g": {"x1": "x3", "x2": "x4"}, "gi": {"x3": "x1", "x4": "x2"}},
    }
    corrupt(doc)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _delete(*keys):
    def corrupt(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return corrupt


def _number(*keys, value=7):
    def corrupt(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_delete("field", "p"), "section 'field' is missing key 'p'"),
    (_delete("groupoid", "elements"), "section 'groupoid' is missing key 'elements'"),
    (_delete("groupoid", "products"), "section 'groupoid' is missing key 'products'"),
    (_delete("ring", "blocks"), "section 'ring' is missing key 'blocks'"),
    (_delete("ring", "ideals"), "section 'ring' is missing key 'ideals'"),
    (_delete("gsets", "explicit", "carrier"), "G-set 'explicit' is missing key 'carrier'"),
    (_delete("gsets", "explicit", "fibers"), "G-set 'explicit' is missing key 'fibers'"),
    (_number("field"), "section 'field' must be a JSON object"),
    (_number("groupoid"), "section 'groupoid' must be a JSON object"),
    (_number("ring"), "section 'ring' must be a JSON object"),
    (_number("action"), "section 'action' must be a JSON object"),
    (_number("subgroupoids"), "section 'subgroupoids' must be a JSON object"),
    (_number("gsets"), "section 'gsets' must be a JSON object"),
    (_number("subalgebras"), "section 'subalgebras' must be a JSON object"),
    (_number("groupoid", "products"),
     "section 'groupoid' key 'products' must be a JSON array"),
    (_number("groupoid", "products", 0),
     "section 'groupoid' key 'products' item 0 must be a JSON array"),
    (_number("ring", "ideals", "e1"),
     "section 'ring' key 'ideals' entry 'e1' must be a JSON array"),
    (_number("action", "g"), "action entry 'g' must be a JSON object"),
    (_number("action", "g", "sigma"), "action entry 'g' key 'sigma' must be a JSON object"),
    (_number("subgroupoids", "G0"), "subgroupoid 'G0' must be a JSON array"),
    (_number("gsets", "explicit", "carrier"),
     "G-set 'explicit' key 'carrier' must be a JSON array"),
    (_number("subalgebras", "full"), "subalgebra 'full' must be a JSON array"),
    (_number("subalgebras", "full", 0),
     "subalgebra 'full' item 0 must be a JSON object or a JSON array"),
    (_number("groupoid", "products", 0, 1, value={}),
     "section 'groupoid' key 'products' item 0 item 1 must be a label"),
    (_number("action", "g", "sigma", "v1", value=[]),
     "action entry 'g' key 'sigma' entry 'v1' must be a label"),
    (_number("subalgebras", "full", 0, "v1", value="1"),
     "subalgebra 'full' item 0 entry 'v1' must be an integer or a JSON array"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_document_is_invalid_input(capsys, tmp_path, corrupt, message):
    code, out = run(capsys, "check", _fix1_with(tmp_path, corrupt), "--json")
    report = json.loads(out)
    assert code == 2 and report["status"] == "invalid-input"
    assert report["checks"] == [{"name": "input", "verdict": "fail", "witness": message}]


def leaf_places(value, shape, path=()):
    """The path to every leaf of value under shape that a JSON value can
    break: all but the leaves of shape object, which take any value."""
    if isinstance(shape, cli.OneOf):
        shape = next(s for s in shape if isinstance(value, cli._type(s)))
    if isinstance(shape, dict):
        for key, sub in shape.items():
            if key.rstrip("?") in value:
                yield from leaf_places(value[key.rstrip("?")], sub, path + (key.rstrip("?"),))
    elif isinstance(shape, (list, cli.Each)):
        item = shape[0] if isinstance(shape, list) else shape.shape
        for name, x in enumerate(value) if isinstance(shape, list) else value.items():
            yield from leaf_places(x, item, path + (name,))
    elif shape is not object:
        yield path


def conform_message(conform, value, shape, where):
    with pytest.raises(InvalidInput) as err:
        conform(value, shape, where)
    return str(err.value)


@pytest.mark.parametrize("section", list(cli.SHAPES))
def test_flat_pass_names_the_bad_leaf_of_the_walk(tmp_path, section):
    # one bad leaf first, in the middle and last of each section, met by
    # the flat pass over lists and maps of leaves or by the walk
    doc = json.loads(pathlib.Path(_fix1_with(tmp_path, lambda doc: None)).read_text())
    value, shape, where = doc[section], cli.SHAPES[section], f"section {section!r}"
    assert cli._conform(value, shape, where) is value
    places = list(leaf_places(value, shape))
    assert len(places) >= 3
    for place in (places[0], places[len(places) // 2], places[-1]):
        bad = copy.deepcopy(value)
        holder = bad
        for key in place[:-1]:
            holder = holder[key]
        holder[place[-1]] = {}
        message = conform_message(cli._conform, bad, shape, where)
        assert message == conform_message(walk_conform, bad, shape, where)
        assert str(place[-1]) in message


def _gset_change(**spec):
    def corrupt(doc):
        doc["gsets"]["bad"] = {**doc["gsets"]["explicit"], **spec}
    return corrupt


def test_check_reports_a_bad_gset_on_its_line(capsys, tmp_path):
    path = _fix1_with(tmp_path, _gset_change(gamma={"g": {"x1": "x3", "x2": "x3"}}))
    code, out = run(capsys, "check", path)
    assert code == 1
    assert "[FAIL] gset bad  [gamma['g'] is not onto the fiber of 'e2']" in out.splitlines()


@pytest.mark.parametrize("argv, corrupt, status, last", [
    # a property failure of the named structure is the structural
    # validation FAIL, as in the build phase; malformed data is invalid input
    (["grothendieck", "--gset", "bad"], _gset_change(gamma={"g": {"x1": "x3", "x2": "x3"}}),
     "fail", "[FAIL] structural validation  [gamma['g'] is not onto the fiber of 'e2']"),
    (["grothendieck", "--gset", "bad"],
     _gset_change(fibers={"x1": "g", "x2": "e1", "x3": "e2", "x4": "e2"}),
     "fail", "[FAIL] structural validation  [point 'x1' assigned to non-identity 'g']"),
    (["grothendieck", "--gset", "bad"], _gset_change(gamma={}), "invalid-input",
     "[FAIL] input  [missing gamma for 'g']"),
    (["invariants", "--sub", "bad"],
     lambda doc: doc["subgroupoids"].update(bad=["e1", "e2", "zz"]), "invalid-input",
     "[FAIL] input  [unknown labels ['zz']]"),
    (["invariants", "--sub", "bad"],
     lambda doc: doc["subgroupoids"].update(bad=["e1", "e2", "g"]), "fail",
     "[FAIL] structural validation  [not closed under inverse: 'g']"),
], ids=["grothendieck-not-onto", "grothendieck-non-identity-fiber",
        "grothendieck-missing-gamma", "invariants-unknown-label", "invariants-not-closed"])
def test_bad_named_structure_ends_the_report(capsys, tmp_path, argv, corrupt, status, last):
    path = _fix1_with(tmp_path, corrupt)
    code, out = run(capsys, argv[0], path, *argv[1:])
    lines = out.splitlines()
    assert code == EXIT_CODES[status] and lines[-1] == f"status: {status}"
    assert lines[-2] == last


def test_subgroupoids_above_the_bound_is_bound_exceeded(capsys, tmp_path):
    path = tmp_path / "p4c4.json"
    path.write_text(json.dumps(pair_cyclic_doc("shift", 4, 4)))
    code, out = run(capsys, "subgroupoids", str(path))
    assert code == 3
    assert out.splitlines()[-3:] == [
        "[PASS] action axioms",
        "[BOUND-EXCEEDED] size bound  [|G|=64 exceeds bound 20]",
        "status: bound-exceeded",
    ]


def test_max_size_raises_the_subgroupoid_bound(capsys, tmp_path):
    # P_3 x C_4 has |G| = 36: above the default bound of 20, within 36
    path = tmp_path / "p3c4.json"
    path.write_text(json.dumps(pair_cyclic_doc("shift", 3, 4)))
    code, out = run(capsys, "subgroupoids", str(path))
    assert code == 3
    assert out.splitlines()[-2:] == [
        "[BOUND-EXCEEDED] size bound  [|G|=36 exceeds bound 20]",
        "status: bound-exceeded",
    ]
    code, out = run(capsys, "subgroupoids", str(path), "--max-size", "36")
    assert code == 0
    assert out.splitlines()[-2:] == ["[PASS] enumeration complete  [111 found]", "status: pass"]


@pytest.mark.parametrize("argv", [
    ["check"], ["galois"], ["faithful"], ["skew"],
    ["invariants", "--sub", "H1"], ["grothendieck", "--gset", "reg"],
])
def test_max_size_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    # only subgroupoids and correspondence enumerate wide subgroupoids
    with pytest.raises(SystemExit) as stop:
        main([argv[0], FIX1, *argv[1:], "--max-size", "5"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --max-size 5" in capsys.readouterr().err


# One process, several calls: --max-size on one call and not on the next,
# a usage error that ends in SystemExit, then valid calls, one with --json.
MIXED_CALLS = [
    ["subgroupoids", FIX1, "--max-size", "1"],
    ["subgroupoids", FIX1],
    ["invariants", FIX1, "--sub", "H1", "--max-size", "5"],
    ["invariants", FIX1, "--sub", "H1", "--json"],
    ["grothendieck", FIX1, "--gset", "reg"],
]


def call_outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = f"SystemExit({stop.code})"
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_gives_the_reports_of_a_fresh_parser(capsys):
    # main builds its parser once; no call may leave anything for the next
    assert cli.build_parser() is cli.build_parser()
    shared = [call_outcome(capsys, argv) for argv in MIXED_CALLS]
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = [call_outcome(capsys, argv) for argv in MIXED_CALLS]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [3, 0, "SystemExit(2)", 0, 0]


# Fields of odd characteristic: every fixture and every other generated
# problem is over F_2, F_4 or F_8.  No line is known to fail.
ODD_CHARACTERISTIC = [("shift", 2, 2, 1, 3), ("shift", 1, 2, 1, 5), ("shift", 1, 2, 1, 7)]
KNOWN_FAILURES: dict = {}


@pytest.mark.parametrize("spec", ODD_CHARACTERISTIC,
                         ids=[f"P{n}xC{m}-F{p}" for _, n, m, _, p in ODD_CHARACTERISTIC])
def test_every_subcommand_in_odd_characteristic(capsys, tmp_path, spec):
    doc = pair_cyclic_doc(*spec)
    doc["subgroupoids"] = {"G0": [f"g{i}_{i}_0" for i in range(spec[1])],
                           "all": doc["groupoid"]["elements"]}
    doc["gsets"] = {"reg": "regular", "cosets": "quotient:G0"}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    A = doc_action(doc)
    runs = [[cmd] for cmd in ("check", "galois", "subgroupoids", "faithful", "skew",
                              "correspondence")]
    runs += [["invariants", "--sub", name] for name in doc["subgroupoids"]]
    runs += [["grothendieck", "--gset", name] for name in doc["gsets"]]
    for argv in runs:
        code, out = run(capsys, argv[0], str(path), *argv[1:], "--json")
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if c["verdict"] not in ("pass", "info")]
        known = KNOWN_FAILURES.get((spec, argv[0]), [])
        assert (failed, code) == (known, 1 if known else 0), argv
        if argv[0] == "invariants":
            labels = doc["subgroupoids"][argv[2]]
            brute = brute_invariants(A, labels)
            assert set(invariants(A, labels).elements) == brute
            assert report["checks"][-1]["witness"].startswith(f"{len(brute)} elements, basis ")


def test_invariants_oracle_mismatch_is_reported(capsys):
    # a structural basis with one vector dropped disagrees with brute force
    orig = action_mod.twisted_invariant_basis
    with mock.patch.object(action_mod, "twisted_invariant_basis",
                           lambda *args: orig(*args)[1:]):
        code, out = run(capsys, "invariants", FIX1, "--sub", "H1")
    assert code == 4
    assert out.splitlines()[-2:] == [
        "[ORACLE-MISMATCH] oracle cross-check  [structural invariants disagree with brute force]",
        "status: oracle-mismatch",
    ]


def test_tensor_self_check_is_an_oracle_mismatch(capsys):
    # a K-block self-check that fails is a fault of the library, not a
    # verdict on the input: read as one block with unit 1, fix1's K, a
    # product of several fields, has F_p-dependent values at its first
    # slot, and galois ends in oracle-mismatch, not fail
    def one_block(K):
        return (tensor.KBlock(K.space, K.space.one(), K.basis),)

    with mock.patch.object(tensor, "_find_kblocks", one_block):
        code, out = run(capsys, "galois", FIX1, "--json")
    report = json.loads(out)
    assert (code, report["status"]) == (4, "oracle-mismatch")
    assert report["checks"][-1]["witness"] == "K block is not a field"


class _NeverContains(scalar_mod.FpSpan):
    def contains(self, vec):
        return False


class _NoCoords(scalar_mod.FpSpan):
    def coords(self, vec):
        return None


@pytest.mark.parametrize("span, witness", [
    (_NeverContains, "module not closed under base multiplication"),
    (_NoCoords, "element outside the block span"),
], ids=["closure", "span"])
def test_block_module_self_check_is_an_oracle_mismatch(capsys, span, witness):
    # every module the package splits into K-blocks is closed under K and
    # holds what it is asked to decompose, so a failed closure or span
    # check is a fault of the library: galois ends in oracle-mismatch, not
    # fail
    with mock.patch.object(tensor, "FpSpan", span):
        code, out = run(capsys, "galois", FIX1, "--json")
    report = json.loads(out)
    assert (code, report["status"]) == (4, "oracle-mismatch")
    assert report["checks"][-1]["witness"] == witness


# Capacity: inputs past the old listing bounds (2^16 elements of K, 20
# points of a G-set) end in a verdict, not in bound-exceeded.

def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def c2_on_orbits(n):
    """C_2 = {e, a} on 2n blocks of one object, a swapping blocks 2i and
    2i+1: n orbits, so K = F_2^n."""
    blocks = [f"w{i}" for i in range(2 * n)]
    swap = {f"w{i}": f"w{i ^ 1}" for i in range(2 * n)}
    return {
        "field": {"p": 2, "k": 1},
        "groupoid": {
            "elements": ["e", "a"],
            "products": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "e"]],
        },
        "ring": {"blocks": blocks, "ideals": {"e": blocks}},
        "action": {"a": {"sigma": swap}},
    }


def test_seventeen_orbits_pass_galois_and_faithful(capsys, tmp_path):
    path = _write(tmp_path, c2_on_orbits(17))
    for cmd in ("galois", "faithful"):
        code, out = run(capsys, cmd, path)
        assert (code, out.splitlines()[-1]) == (0, "status: pass"), cmd


def test_correspondence_on_eight_orbits_passes(capsys, tmp_path):
    # R needs 8 generators over K = F_2^8; the Omega search finds both
    # strong subalgebras, K and R
    code, out = run(capsys, "correspondence", _write(tmp_path, c2_on_orbits(8)))
    assert (code, out.splitlines()[-1]) == (0, "status: pass")
    assert out.count("] row  [") == 2


def test_partition_search_past_its_bound_is_bound_exceeded(capsys):
    # past its node bound the search refuses, and correspondence ends in
    # bound-exceeded, not in a verdict
    with mock.patch.object(omega, "MAX_SEARCH_NODES", 3):
        code, out = run(capsys, "correspondence", FIX1)
    assert code == 3
    assert out.splitlines()[-2:] == [
        "[BOUND-EXCEEDED] size bound  [partition search passed 3 nodes]",
        "status: bound-exceeded",
    ]


def test_partition_search_bound_fires_before_any_row(capsys):
    # the search runs before the enumeration and the row loop, so past its
    # node bound no row is checked and no subgroupoid enumerated
    with mock.patch.object(omega, "MAX_SEARCH_NODES", 3), \
            mock.patch.object(galois_mod, "strong_subalgebra_check",
                              wraps=galois_mod.strong_subalgebra_check) as rows, \
            mock.patch.object(galois_mod, "enumerate_wide_subgroupoids",
                              wraps=galois_mod.enumerate_wide_subgroupoids) as subs:
        code, out = run(capsys, "correspondence", FIX1)
    assert (code, out.splitlines()[-1]) == (3, "status: bound-exceeded")
    assert rows.call_count == 0 and subs.call_count == 0


def test_the_size_bound_fires_before_the_partition_search(capsys, tmp_path):
    # |G| = 16 over a bound of 8 is reported, not the node bound
    path = tmp_path / "p2c4.json"
    path.write_text(json.dumps(pair_cyclic_doc("shift", 2, 4)))
    with mock.patch.object(omega, "MAX_SEARCH_NODES", 3):
        code, out = run(capsys, "correspondence", str(path), "--max-size", "8")
    assert code == 3
    assert out.splitlines()[-2:] == [
        "[BOUND-EXCEEDED] size bound  [|G|=16 exceeds bound 8]",
        "status: bound-exceeded",
    ]


def test_seventeen_components_pass_galois_and_fail_faithful(capsys, tmp_path):
    # K = F_2^17, one field per copy of fixc2.  Each ideal is annihilated
    # by the unit of every other component, and the first annihilator in
    # K's order is the unit of the first other component.
    fixc2 = json.loads(pathlib.Path(FIXC2).read_text())
    doc = disjoint_union([fixc2] * 17, lambda c, label: f"{label}_{c}")
    path = _write(tmp_path, doc)
    code, out = run(capsys, "galois", path)
    assert (code, out.splitlines()[-1]) == (0, "status: pass")
    code, out = run(capsys, "faithful", path)
    assert (code, out.splitlines()[-1]) == (1, "status: fail")
    assert "[FAIL] ideal of e_0 faithful  [annihilator w1_1+w2_1]" in out
    assert "FAIL] criterion" not in out


def test_grothendieck_on_the_regular_gset_of_p3c4(capsys, tmp_path):
    # 48 points, past the 20 a backtracking search would take
    doc = pair_cyclic_doc("shift", 3, 4)
    doc["gsets"] = {"reg": "regular"}
    code, out = run(capsys, "grothendieck", _write(tmp_path, doc), "--gset", "reg")
    assert (code, out.splitlines()[-1]) == (0, "status: pass")
    assert "[PASS] independent isomorphism search" in out


GUARD_SPECS = [spec for spec in PAIR_CYCLIC_SPECS if spec[1] ** 2 * spec[2] <= 4]


def test_only_the_invariants_oracle_lists_a_subspace(capsys, tmp_path):
    # every subcommand on every fixture and small generated problem reads
    # Submodule.elements only from the brute-force cross-check in
    # action.invariants, lists a span only inside Submodule.elements, and
    # builds a field only from the problem's field section
    listed = Submodule.elements.func
    readers = set()
    callers = {"span_elements": set(), "make_field": set()}

    def elements(self):
        caller = sys._getframe(1).f_code
        readers.add((caller.co_filename, caller.co_name))
        return listed(self)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code
            callers[name].add((caller.co_filename, caller.co_name))
            return fn(*args, **kwargs)
        return wrapper

    docs = [json.loads(pathlib.Path(path).read_text()) for path in (FIX1, FIX2, FIXC2, FIXF4)]
    for spec in GUARD_SPECS:
        doc = pair_cyclic_doc(*spec)
        doc["subgroupoids"] = {"G0": [f"g{i}_{i}_0" for i in range(spec[1])]}
        doc["gsets"] = {"reg": "regular", "cosets": "quotient:G0"}
        docs.append(doc)
    package = [module for name, module in sys.modules.items()
               if name == "gpdgalois" or name.startswith("gpdgalois.")]
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Submodule, "elements", property(elements)))
        for name, fn in (("span_elements", action_mod.span_elements),
                         ("make_field", scalar_mod.make_field)):
            for module in package:
                if getattr(module, name, None) is fn:
                    stack.enter_context(mock.patch.object(module, name, recording(name, fn)))
        for doc in docs:
            path = _write(tmp_path, doc)
            runs = [[cmd] for cmd in ("check", "galois", "subgroupoids", "faithful", "skew",
                                      "correspondence")]
            runs += [["invariants", "--sub", name] for name in doc["subgroupoids"]]
            runs += [["grothendieck", "--gset", name] for name in doc["gsets"]]
            for argv in runs:
                run(capsys, argv[0], path, *argv[1:])
    assert readers == {(action_mod.__file__, "invariants")}
    assert callers == {"span_elements": {(action_mod.__file__, "elements")},
                       "make_field": {(cli.__file__, "_field")}}
