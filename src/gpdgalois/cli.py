"""Batch verification front door.

One JSON problem file describes a field, a groupoid, a block ring and an
action (plus optional named G-sets, subgroupoids and subalgebra generator
lists); each subcommand runs one family of checks and emits a
deterministic report.  Exit codes: 0 pass, 1 fail or hypothesis failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    DegreeMismatch,
    HypothesisFailure,
    InvalidInput,
    NonPrimeCharacteristic,
    ReducibleModulus,
    ValidationError,
)
from .groupoid import (
    enumerate_wide_subgroupoids,
    make_subgroupoid,
    quotient_gset,
    regular_gset,
    validate_groupoid,
)
from .gset import validate_gset
from .scalar import make_field

EXIT_CODES = {"pass": 0, "fail": 1, "hypothesis-failure": 1, "invalid-input": 2}


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

    def hypothesis_failure(self, name, witness=None):
        self.checks.append(Check(name, "hypothesis-failure", witness))
        self.status = "hypothesis-failure"

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
                   "hypothesis-failure": "HYPOTHESIS-FAILURE"}[c.verdict]
            suffix = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"[{tag}] {c.name}{suffix}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


class Problem:
    """Lazily validated bundle built from one problem file."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise InvalidInput("problem document must be a JSON object")
        self.doc = doc
        for section in ("field", "groupoid", "ring", "action"):
            if section not in doc:
                raise InvalidInput(f"missing section {section!r}")
        # The fields and the action entries' keys are checked first, so a
        # bad one is invalid input rather than a structural failure.
        self.field = _field(doc["field"])
        ring = doc["ring"]
        self.ring_field = _field(ring["field"]) if "field" in ring else self.field
        if not isinstance(doc["action"], dict):
            raise InvalidInput("section 'action' must be a JSON object")
        self.sigma, self.frob = {}, {}
        for g, spec in doc["action"].items():
            if "sigma" not in spec:
                raise InvalidInput(f"action entry {g!r} is missing key 'sigma'")
            self.sigma[g] = spec["sigma"]
            self.frob[g] = spec.get("frob", {})

    def groupoid(self):
        sec = self.doc["groupoid"]
        return validate_groupoid(
            sec["elements"], sec["products"], sec.get("inverses")
        )

    def ring(self, G):
        sec = self.doc["ring"]
        return make_ring(
            self.ring_field, sec["blocks"], sec["ideals"], identities=G.identities
        )

    def action(self, G, R):
        return validate_action(G, R, self.sigma, self.frob)

    def subgroupoid(self, G, name):
        named = self.doc.get("subgroupoids", {})
        if name not in named:
            raise InvalidInput(f"unknown subgroupoid {name!r}")
        return make_subgroupoid(G, named[name])

    def gset(self, G, name):
        named = self.doc.get("gsets", {})
        if name not in named:
            raise InvalidInput(f"unknown G-set {name!r}")
        spec = named[name]
        if spec == "regular":
            return regular_gset(G)
        if isinstance(spec, str) and spec.startswith("quotient:"):
            return quotient_gset(G, self.subgroupoid(G, spec.split(":", 1)[1]))
        if isinstance(spec, str):
            raise InvalidInput(f"unknown G-set shorthand {spec!r}")
        return validate_gset(G, spec["carrier"], spec["fibers"], {
            g: dict(m) for g, m in spec.get("gamma", {}).items()
        })

    def subalgebra(self, A, name):
        named = self.doc.get("subalgebras", {})
        if name not in named:
            raise InvalidInput(f"unknown subalgebra {name!r}")
        R = A.ring
        gens = [R.element(entry) for entry in named[name]]
        return subalgebra_closure(R, gens, include=A.base_subalgebra().basis)


def _field(sec):
    try:
        return make_field(sec["p"], sec.get("k", 1), sec.get("modulus"))
    except (NonPrimeCharacteristic, DegreeMismatch, ReducibleModulus) as err:
        raise InvalidInput(str(err)) from None


# Each subcommand adds its checks to a report once run_command has built
# and reported the groupoid G, the ring R and the action A.

def cmd_check(report, problem, args, G, R, A):
    for name in problem.doc.get("gsets", {}):
        try:
            problem.gset(G, name)
            report.add(f"gset {name}", True)
        except ValidationError as err:
            report.add(f"gset {name}", False, str(err))
    for name in problem.doc.get("subgroupoids", {}):
        try:
            problem.subgroupoid(G, name)
            report.add(f"subgroupoid {name}", True)
        except ValidationError as err:
            report.add(f"subgroupoid {name}", False, str(err))
    for name in problem.doc.get("subalgebras", {}):
        try:
            T = problem.subalgebra(A, name)
            report.add(f"subalgebra {name}", True, f"{T.size} elements")
        except ValidationError as err:
            report.add(f"subalgebra {name}", False, str(err))


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
        report.note("wide subgroupoid", "{" + ", ".join(map(str, H.labels)) + "}")
    report.add("enumeration complete", True, f"{len(subs)} found")


def cmd_invariants(report, problem, args, G, R, A):
    H = problem.subgroupoid(G, args.sub)
    T = invariants(A, H)
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
    X = problem.gset(G, args.gset)
    try:
        rep = mapalg.grothendieck_set_check(A, X)
    except HypothesisFailure as err:
        report.hypothesis_failure("equivalence hypotheses", _witness_str(R, err))
        return
    report.add("points biject with evaluation maps", rep.eval_iso.isomorphism)
    report.add("independent isomorphism search", rep.independent_iso_found)
    for g, srep in rep.splits.items():
        report.add(f"ideal tensor split at {g}", srep.ok)
    report.add("split components are the evaluations", rep.proof_identity)


def cmd_correspondence(report, problem, args, G, R, A):
    try:
        table = galois_mod.galois_correspondence(A, max_elements=args.max_size)
    except HypothesisFailure as err:
        report.hypothesis_failure("correspondence hypotheses", _witness_str(R, err))
        return
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
    g, outside, annihilator = err.witness
    parts = [f"ideal of {g} unfaithful"]
    if outside is not None:
        parts.append(f"identity {outside} not connected to r({g})")
    if annihilator is not None:
        parts.append(f"annihilator {R.format(annihilator)}")
    return "; ".join(parts)


def run_command(problem: Problem, args) -> Report:
    """Build the groupoid, the ring and the action, one reported step
    each, then run the subcommand's checks; a structural failure ends the
    report."""
    report = Report(args.command)
    try:
        G = problem.groupoid()
        report.add("groupoid axioms", True)
        R = problem.ring(G)
        report.add("ring blocks partition", True)
        A = problem.action(G, R)
        report.add("action axioms", True)
    except ValidationError as err:
        report.add("structural validation", False, str(err))
        return report
    COMMANDS[args.command](report, problem, args, G, R, A)
    return report


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpdgalois",
        description="exact checks for groupoid actions on products of finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem description (JSON)")
        p.add_argument("--json", action="store_true", help="emit the structured report")
        p.add_argument("--max-size", type=int, default=20, dest="max_size",
                       help="bound for exhaustive enumerations")
        if name == "invariants":
            p.add_argument("--sub", required=True, help="named subgroupoid")
        if name == "grothendieck":
            p.add_argument("--gset", required=True, help="named G-set")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
        problem = Problem(doc)
        report = run_command(problem, args)
    except (json.JSONDecodeError, OSError, KeyError, TypeError, InvalidInput) as err:
        report = Report(args.command, status="invalid-input")
        report.checks.append(Check("input", "fail", str(err)))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
