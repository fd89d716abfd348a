"""Check one ``--json`` report against the benchmark's own expectations.

A report is judged line by line.  Every mismatch is returned with the name
of the known program fault it matches, or None when it matches none; an
operation with an unexplained mismatch means the program printed a wrong
verdict.
"""

from __future__ import annotations

import re

import expect

# The faults the program has today, each confined to one kind of line.
CRITERION = "faithfulness criterion disagrees with direct search"
CANDIDATES = "correspondence candidates are closures of at most 3 generators"
SIZE_BOUND = "SizeBoundExceeded escapes the CLI as a traceback"


class Expectations:
    """Everything the checker needs about one problem document."""

    def __init__(self, doc: dict, family=None, n=0, m=0):
        P = self.problem = expect.Problem(doc)
        if family is not None:
            self.wide_count = expect.wide_count_pair_cyclic(n, m)
        else:
            self.wide_count = len(expect.brute_wide_subgroupoids(P))
        self.galois = expect.galois(P)
        self.strategy = ("block-idempotents" if expect.block_idempotent_coordinates(P)
                         else "linear-solve")
        self.faithful = {g: expect.faithful(P, g) for g in P.elements}
        self.hypotheses = self.galois and all(self.faithful.values())
        self.named_sub = {name: expect.invariant_size(P, labels)
                          for name, labels in doc.get("subgroupoids", {}).items()}
        self.named_alg = {name: expect.subalgebra_size(P, gens)
                          for name, gens in doc.get("subalgebras", {}).items()}


def _labels(witness: str) -> list[str]:
    inner = witness[witness.index("{") + 1: witness.index("}")]
    return [s.strip() for s in inner.split(",") if s.strip()]


def check_report(exp: Expectations, argv: list, report: dict) -> list[tuple[str, str | None]]:
    """Mismatches between a report and the expectations, as
    (description, known fault or None)."""
    P = exp.problem
    cmd = argv[0]
    lines = report["checks"]
    out: list = []

    def want(name, verdict, fault=None):
        got = [c for c in lines if c["name"] == name]
        if len(got) != 1:
            out.append((f"{name}: expected one line, got {len(got)}", None))
        elif got[0]["verdict"] != verdict:
            out.append((f"{name}: {got[0]['verdict']} (expected {verdict})", fault))
        return got[0] if len(got) == 1 else None

    def count_in(line, pattern, expected):
        if line is None:
            return
        match = re.match(pattern, line.get("witness", ""))
        if not match or int(match.group(1)) != expected:
            out.append((f"{line['name']}: witness {line.get('witness')!r}, "
                        f"expected {expected}", None))

    if cmd in ("grothendieck", "correspondence") and not exp.hypotheses:
        if report["status"] != "hypothesis-failure":
            out.append((f"status {report['status']} (expected hypothesis-failure)", None))
        return out

    for name in ("groupoid axioms", "ring blocks partition", "action axioms"):
        want(name, "pass")

    if cmd == "check":
        for name in P.doc.get("gsets", {}):
            want(f"gset {name}", "pass")
        for name in P.doc.get("subgroupoids", {}):
            want(f"subgroupoid {name}", "pass")
        for name, size in exp.named_alg.items():
            count_in(want(f"subalgebra {name}", "pass"), r"(\d+) elements", size)
    elif cmd == "invariants":
        sub = argv[argv.index("--sub") + 1]
        count_in(want("invariants computed (oracle checked)", "pass"),
                 r"(\d+) elements", exp.named_sub[sub])
    elif cmd == "galois":
        line = want("galois coordinates", "pass" if exp.galois else "fail")
        if exp.galois:
            if line is not None and not line.get("witness", "").startswith(exp.strategy + ":"):
                out.append((f"coordinate strategy {line.get('witness', '')[:20]!r}, "
                            f"expected {exp.strategy}", None))
            want("trace image equals invariants", "pass")
            for g in P.elements:
                want(f"ideal tensor split at {g}", "pass")
    elif cmd == "subgroupoids":
        subs = [frozenset(_labels(c["witness"])) for c in lines
                if c["name"] == "wide subgroupoid"]
        if len(subs) != exp.wide_count or len(set(subs)) != len(subs):
            out.append((f"{len(subs)} distinct wide subgroupoids listed, "
                        f"expected {exp.wide_count}", None))
        if not all(P.is_wide(H) for H in subs):
            out.append(("a listed subset is not a wide subgroupoid", None))
        count_in(want("enumeration complete", "pass"), r"(\d+) found", exp.wide_count)
    elif cmd == "faithful":
        for g in P.elements:
            want(f"criterion agrees with direct check at {g}", "pass", CRITERION)
            want(f"ideal of {g} faithful", "pass" if exp.faithful[g] else "fail")
    elif cmd == "skew":
        want("associativity on monomial triples", "pass")
        want("two-sided unit law", "pass")
    elif cmd == "grothendieck":
        for name in ("points biject with evaluation maps",
                     "independent isomorphism search",
                     "split components are the evaluations"):
            want(name, "pass")
        for g in P.elements:
            want(f"ideal tensor split at {g}", "pass")
    elif cmd == "correspondence":
        rows = [c["witness"] for c in lines if c["name"] == "row"]
        subs = [frozenset(_labels(w)) for w in rows]
        if len(subs) != exp.wide_count or len(set(subs)) != len(subs):
            out.append((f"{len(subs)} rows, expected {exp.wide_count}", None))
        for w, H in zip(rows, subs):
            size = expect.invariant_size(P, H)
            tail = (f"-> {size} elements (separable=True, beta-strong=True,"
                    f" split=True)")
            if not P.is_wide(H) or not w.endswith(tail):
                out.append((f"row {w!r}, expected {tail!r}", None))
        want("map into strong subalgebras is injective", "pass")
        want("image is every separable beta-strong subalgebra", "pass", CANDIDATES)
        want("stabilizer recovers each subgroupoid", "pass")
        want("coset partitions distinguish subgroupoids", "pass")
    else:
        out.append((f"unknown command {cmd}", None))

    failing = any(c["verdict"] == "fail" for c in lines)
    if report["status"] != ("fail" if failing else "pass"):
        out.append((f"status {report['status']} with failing lines={failing}", None))
    return out
