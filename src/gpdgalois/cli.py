"""Batch verification front door.

One JSON problem file describes a field, a groupoid, a block ring and an
action (plus optional named G-sets, subgroupoids and subalgebra generator
lists); each subcommand runs one family of checks and emits a
deterministic report.  Its status and exit code:

- 0 `pass`;
- 1 `fail`: a check fails, or the input breaks an axiom or a stated
  property (ValidationError);
- 1 `hypothesis-failure`: a theorem's hypothesis fails, so its check does
  not apply (HypothesisFailure);
- 2 `invalid-input`: a malformed or unknown file, section, key, name or
  argument (InvalidInput);
- 3 `bound-exceeded`: an enumeration is above its bound, such as
  `--max-size` (SizeBoundExceeded);
- 4 `oracle-mismatch`: a structural result disagreed with its brute-force
  cross-check, a fault of this library (OracleMismatch).

run_command gives each error category its status, in one place.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from . import galois as galois_mod
from . import mapalg
from .action import (
    find_galois_coordinates,
    invariants,
    subalgebra_closure,
    trace_image_is_base,
    validate_action,
    verify_skew_ring,
)
from .blockring import faithfulness_criterion, is_faithful_ideal, make_ring
from .errors import (
    HypothesisFailure,
    InvalidInput,
    OracleMismatch,
    SizeBoundExceeded,
    ValidationError,
)
from .groupoid import (
    DEFAULT_MAX_ELEMENTS,
    coset_space,
    enumerate_wide_subgroupoids,
    make_subgroupoid,
    quotient_gset,
    regular_gset,
    validate_groupoid,
)
from .gset import validate_gset
from .scalar import make_field

@dataclass
class Check:
    name: str
    verdict: str
    witness: str | None = None

    def as_dict(self):
        out = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    command: str
    status: str = "pass"
    checks: list = dc_field(default_factory=list)

    def add(self, name, ok, witness=None):
        self.checks.append(Check(name, "pass" if ok else "fail", witness))
        if not ok and self.status == "pass":
            self.status = "fail"

    def note(self, name, witness=None):
        self.checks.append(Check(name, "info", witness))

    def end(self, status, name, witness):
        """The last line and the report's status; its verdict is the
        status, but an invalid input's line is a FAIL."""
        self.checks.append(Check(name, "fail" if status == "invalid-input" else status, witness))
        self.status = status

    def as_dict(self):
        return {
            "command": self.command,
            "status": self.status,
            "checks": [c.as_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "info": "INFO",
                   "hypothesis-failure": "HYPOTHESIS-FAILURE",
                   "bound-exceeded": "BOUND-EXCEEDED",
                   "oracle-mismatch": "ORACLE-MISMATCH"}[c.verdict]
            suffix = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"[{tag}] {c.name}{suffix}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


# An object whose values all have one shape; kind, if given, names an
# entry in messages.
Each = namedtuple("Each", "kind shape")


class OneOf(tuple):
    """Shapes told apart by their JSON type."""


# The shape of each section of a problem file.  A dict lists an object's
# keys (a key ending in "?" may be absent), [shape] is an array, and a
# type is a JSON value of that type; a label is a string, a number or null.
NULL = type(None)
LABEL = (str, int, float, NULL)
LABELS = [LABEL]
LABEL_MAP = Each(None, LABEL)
FIELD = {"p": object}
COEFFICIENT = OneOf((int, [int]))
SHAPES = {
    "action": Each("action entry", {"sigma": LABEL_MAP, "frob?": Each(None, int)}),
    "groupoid": {"elements": LABELS, "products": [LABELS], "inverses?": OneOf((LABEL_MAP, NULL))},
    "ring": {"field?": FIELD, "blocks": LABELS, "ideals": Each(None, LABELS)},
    "subgroupoids": Each("subgroupoid", LABELS),
    "gsets": Each("G-set", OneOf((
        str, {"carrier": LABELS, "fibers": LABEL_MAP, "gamma?": Each(None, LABEL_MAP)}))),
    "subalgebras": Each("subalgebra", [OneOf((Each(None, COEFFICIENT), [COEFFICIENT]))]),
}
NAMES = {dict: "a JSON object", list: "a JSON array", str: "a string", int: "an integer",
         LABEL: "a label", NULL: "null"}


def _conform(value, shape, where):
    """Return value if it has the shape, else raise InvalidInput naming
    where it fails: the section, then each key, entry and item (see
    _where)."""
    shapes = shape if isinstance(shape, OneOf) else (shape,)
    for shape in shapes:
        if isinstance(value, _type(shape)):
            break
    else:
        raise InvalidInput(f"{_where(where)} must be "
                           f"{' or '.join(NAMES[_type(s)] for s in shapes)}")
    if isinstance(shape, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in value:
                _conform(value[name], sub, (where, "{} key {!r}", name))
            elif name == key:
                raise InvalidInput(f"{_where(where)} is missing key {name!r}")
    elif isinstance(shape, (list, Each)):
        item = shape[0] if isinstance(shape, list) else shape.shape
        if _leaves(value if isinstance(shape, list) else value.values(), item):
            return value
        place = ("{} item {}" if isinstance(shape, list) else
                 shape.kind + " {1!r}" if shape.kind else "{} entry {!r}")
        for name, x in enumerate(value) if isinstance(shape, list) else value.items():
            _conform(x, item, (where, place, name))
    return value


def _leaves(values, item) -> bool:
    """One isinstance pass: are the values all leaves of the shape item (a
    type or a tuple of types), or all lists of leaves when item is [leaf]?"""
    if isinstance(item, list):
        item = item[0]
        if type(item) not in (type, tuple) or not all(isinstance(x, list) for x in values):
            return False
        values = [y for x in values for y in x]
    return type(item) in (type, tuple) and all(isinstance(x, item) for x in values)


def _where(where) -> str:
    """A place in a document: a section's name, or (the place of a
    container, how to name a key or index in it, that key or index),
    spelled out only when an error names it."""
    return where if isinstance(where, str) else where[1].format(_where(where[0]), where[2])


def _type(shape):
    """The JSON type of a shape, as a Python type (or tuple of types)."""
    return dict if isinstance(shape, (dict, Each)) else list if isinstance(shape, list) else shape


def _field(sec, where):
    _conform(sec, FIELD, where)
    return make_field(sec["p"], sec.get("k", 1), sec.get("modulus"))


class Problem:
    """One problem file.  The shape of each section (SHAPES) is checked
    when it is first read: the sections G, R and A are built from here,
    the optional named entries when a command reads them."""

    def __init__(self, doc: dict):
        self.doc = _conform(doc, dict, "problem document")
        for section in ("field", "groupoid", "ring", "action"):
            if section not in doc:
                raise InvalidInput(f"missing section {section!r}")
        # The fields and the action entries are checked first, so a bad
        # one is invalid input rather than a structural failure.
        self.field = _field(doc["field"], "section 'field'")
        ring = _conform(doc["ring"], dict, "section 'ring'")
        self.ring_field = (_field(ring["field"], "section 'ring' key 'field'")
                           if "field" in ring else self.field)
        actions = _conform(doc["action"], SHAPES["action"], "section 'action'").items()
        self.sigma = {g: spec["sigma"] for g, spec in actions}
        self.frob = {g: spec.get("frob", {}) for g, spec in actions}
        for section in ("groupoid", "ring"):
            _conform(doc[section], SHAPES[section], f"section {section!r}")

    def build(self, built):
        """Build and validate G, R and A; built(line) reports each."""
        grp, ring = self.doc["groupoid"], self.doc["ring"]
        G = validate_groupoid(grp["elements"], grp["products"], grp.get("inverses"))
        built("groupoid axioms")
        R = make_ring(self.ring_field, ring["blocks"], ring["ideals"], identities=G.identities)
        built("ring blocks partition")
        A = validate_action(G, R, self.sigma, self.frob)
        built("action axioms")
        return G, R, A

    def named(self, section) -> dict:
        """Every entry of an optional section, each shape checked."""
        return _conform(self.doc.get(section, {}), SHAPES[section], f"section {section!r}")

    def entry(self, section, name):
        """One entry of an optional section, its shape checked."""
        entries = _conform(self.doc.get(section, {}), dict, f"section {section!r}")
        each = SHAPES[section]
        if name not in entries:
            raise InvalidInput(f"unknown {each.kind} {name!r}")
        return _conform(entries[name], each.shape, f"{each.kind} {name!r}")

    def gset(self, G, spec):
        if spec == "regular":
            return regular_gset(G)
        if isinstance(spec, str) and spec.startswith("quotient:"):
            H = make_subgroupoid(G, self.entry("subgroupoids", spec.split(":", 1)[1]))
            return quotient_gset(coset_space(G, H))
        if isinstance(spec, str):
            raise InvalidInput(f"unknown G-set shorthand {spec!r}")
        return validate_gset(G, spec["carrier"], spec["fibers"], {
            g: dict(m) for g, m in spec.get("gamma", {}).items()
        })


# Each subcommand adds its checks to a report once run_command has built
# and reported the groupoid G, the ring R and the action A.

def cmd_check(report, problem, args, G, R, A):
    for kind, section, build in (
        ("gset", "gsets", lambda spec: problem.gset(G, spec)),
        ("subgroupoid", "subgroupoids", lambda spec: make_subgroupoid(G, spec)),
        ("subalgebra", "subalgebras", lambda spec: subalgebra_closure(
            R, [R.element(x) for x in spec], include=A.base_subalgebra().basis)),
    ):
        for name, spec in problem.named(section).items():
            try:
                built = build(spec)
            except ValidationError as err:
                report.add(f"{kind} {name}", False, str(err))
            else:
                report.add(f"{kind} {name}", True,
                           f"{built.size} elements" if kind == "subalgebra" else None)


def cmd_galois(report, problem, args, G, R, A):
    coords = find_galois_coordinates(A)
    if coords is None:
        report.add("galois coordinates", False, "no coordinate system exists")
        return
    pairs = ", ".join(f"({R.format(x)}; {R.format(y)})" for x, y in coords.pairs)
    report.add("galois coordinates", True, f"{coords.strategy}: {pairs}")
    K = A.base_subalgebra()
    report.add("trace image equals invariants", trace_image_is_base(A))
    X = regular_gset(G)
    AX = mapalg.invariant_algebra(X, A)
    splits = mapalg.splits_per_target(A, AX, K, lambda e: mapalg.eval_hom_family(AX, e))
    for g, rep in splits.items():
        report.add(f"ideal tensor split at {g}", rep.ok)


def cmd_subgroupoids(report, problem, args, G, R, A):
    subs = enumerate_wide_subgroupoids(G, args.max_size)
    for H in subs:
        report.note("wide subgroupoid", "{" + ", ".join(map(str, H)) + "}")
    report.add("enumeration complete", True, f"{len(subs)} found")


def cmd_invariants(report, problem, args, G, R, A):
    T = invariants(A, make_subgroupoid(G, problem.entry("subgroupoids", args.sub)))
    report.add(
        "invariants computed (oracle checked)",
        True,
        f"{T.size} elements, basis "
        + ", ".join(R.format(b) for b in T.basis),
    )


def cmd_faithful(report, problem, args, G, R, A):
    K = A.base_subalgebra()
    for g in G.elements:
        crit = faithfulness_criterion(G, g)
        direct, witness = is_faithful_ideal(K, A.support[g])
        report.add(
            f"criterion agrees with direct check at {g}",
            crit == direct,
        )
        report.add(
            f"ideal of {g} faithful",
            direct,
            None if direct else f"annihilator {R.format(witness)}",
        )


def cmd_skew(report, problem, args, G, R, A):
    rep = verify_skew_ring(A)
    report.add("associativity on monomial triples", rep.associative)
    report.add("two-sided unit law", rep.unital)


def cmd_grothendieck(report, problem, args, G, R, A):
    rep = mapalg.grothendieck_set_check(A, problem.gset(G, problem.entry("gsets", args.gset)))
    report.add("points biject with evaluation maps", rep.eval_bijective)
    report.add("independent isomorphism search", rep.independent_iso_found)
    for g, srep in rep.splits.items():
        report.add(f"ideal tensor split at {g}", srep.ok)
    report.add("split components are the evaluations", rep.proof_identity)


def cmd_correspondence(report, problem, args, G, R, A):
    table = galois_mod.galois_correspondence(A, max_elements=args.max_size)
    for row in table.rows:
        report.note(
            "row",
            "{" + ", ".join(map(str, row.subgroupoid)) + "} -> "
            f"{row.subalgebra.size} elements"
            f" (separable={row.separable}, beta-strong={row.beta_strong},"
            f" split={row.r_split})",
        )
    report.add("map into strong subalgebras is injective", table.injective)
    report.add("image is every separable beta-strong subalgebra",
               table.image_equals_strong_subalgebras)
    report.add("stabilizer recovers each subgroupoid", table.closure_holds)
    report.add("coset partitions distinguish subgroupoids", table.partition_injective)


def _witness_str(R, err: HypothesisFailure) -> str:
    if not err.witness:
        return str(err)
    g, outside, annihilator = err.witness  # an unfaithful ideal has an annihilator
    parts = [f"ideal of {g} unfaithful"]
    if outside is not None:
        parts.append(f"identity {outside} not connected to r({g})")
    parts.append(f"annihilator {R.format(annihilator)}")
    return "; ".join(parts)


COMMANDS = {
    "check": cmd_check,
    "galois": cmd_galois,
    "subgroupoids": cmd_subgroupoids,
    "invariants": cmd_invariants,
    "faithful": cmd_faithful,
    "skew": cmd_skew,
    "grothendieck": cmd_grothendieck,
    "correspondence": cmd_correspondence,
}

# The status of each error category, the first match winning, the name
# of the line that ends a report with it, and the exit code.
STATUSES = (
    (InvalidInput, "invalid-input", "input", 2),
    (ValidationError, "fail", "structural validation", 1),
    (SizeBoundExceeded, "bound-exceeded", "size bound", 3),
    (OracleMismatch, "oracle-mismatch", "oracle cross-check", 4),
    (HypothesisFailure, "hypothesis-failure", "hypotheses", 1),
)
EXIT_CODES = {"pass": 0, **{status: code for _, status, _, code in STATUSES}}
HYPOTHESES = {"grothendieck": "equivalence hypotheses",
              "correspondence": "correspondence hypotheses"}


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not JSON, or not text
        raise InvalidInput(str(err)) from None


def run_command(args) -> Report:
    """Read the problem file, build and report G, R and A, one line each,
    then run the subcommand's checks.  An error ends the report with the
    status of its category (STATUSES), on a last line with its message:
    the only line for invalid input, else after the lines so far.  While
    G, R and A are built, InvalidInput is a structural failure like any
    ValidationError: building them is the check of the document itself.
    """
    report = Report(args.command)
    problem = A = None
    try:
        problem = Problem(_load(args.file))
        G, R, A = problem.build(lambda line: report.add(line, True))
        COMMANDS[args.command](report, problem, args, G, R, A)
    except (ValidationError, SizeBoundExceeded, OracleMismatch, HypothesisFailure) as err:
        # while G, R and A are built, InvalidInput falls through to ValidationError
        statuses = STATUSES[1:] if problem and A is None else STATUSES
        _, status, line, _ = next(s for s in statuses if isinstance(err, s[0]))
        if status == "invalid-input":
            report.checks.clear()  # the lines before it are not a report
        if status == "hypothesis-failure":
            report.end(status, HYPOTHESES.get(args.command, line), _witness_str(R, err))
        else:
            report.end(status, line, str(err))
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="gpdgalois",
        description="exact checks for groupoid actions on products of finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem description (JSON)")
        p.add_argument("--json", action="store_true", help="emit the structured report")
        if name in ("subgroupoids", "correspondence"):
            p.add_argument("--max-size", type=int, default=DEFAULT_MAX_ELEMENTS, dest="max_size",
                           help="bound on |G| for the enumeration of wide subgroupoids")
        if name == "invariants":
            p.add_argument("--sub", required=True, help="named subgroupoid")
        if name == "grothendieck":
            p.add_argument("--gset", required=True, help="named G-set")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = run_command(args)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
