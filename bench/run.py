"""Benchmark of the gpdgalois CLI as verification sessions.

Usage, from the root of a checkout:

    python3 bench/run.py --workload oracle-f2 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One workload is one seeded session: its problem files are generated from
the seed, then a fixed list of (file, subcommand) operations runs through
``gpdgalois.cli.main(argv + ["--json"])`` in a closed loop, one caller in
one process.  Whole rounds of the list run until the next round would end
after ``--seconds`` (at least one round).  Every report is checked against
expectations the benchmark computes itself (see expect.py and verdicts.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` one untraced round runs first, then
traced rounds give the per-layer metrics (spans.py) and the tracing
overhead.  ``--workload all`` runs every workload in turn, each in its own
child process, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import spans  # noqa: E402
import verdicts  # noqa: E402
from instances import pair_cyclic, reorder_fixture  # noqa: E402

FIXTURES = ["fix1", "fix2", "fixc2", "fixf4"]
SETUP_REPEATS = 31


def _oracle_f2(rng, root):
    insts = [reorder_fixture(rng, name, json.loads((root / "fixtures" / f"{name}.json")
                                                   .read_text()))
             for name in FIXTURES]
    insts.append(pair_cyclic(rng, "p2c2", "shift", 2, 2))
    return [(inst, all_commands(inst.doc)) for inst in insts]


def _structural_fq(rng, root):
    insts = [
        pair_cyclic(rng, "p3c2", "shift", 3, 2, quotient=False),
        pair_cyclic(rng, "p2c2-f4", "twisted", 2, 2, k=2, quotient=False),
        pair_cyclic(rng, "frob2-f8", "frobenius", 2, 3, k=3, quotient=False),
    ]
    # skew, grothendieck and correspondence on P_3 x C_2 take about 8 s
    # together; they run on the two smaller files only, so that a 40 s run
    # gets several rounds to take the median of (README.md, "Workloads")
    big = ("skew", "grothendieck", "correspondence")
    return [(inst, [cmd for cmd in all_commands(inst.doc)
                    if inst.name != "p3c2" or cmd[0] not in big])
            for inst in insts]


def _wide_groupoid(rng, root):
    insts = [
        pair_cyclic(rng, "p5c4", "shift", 5, 4),
        pair_cyclic(rng, "p5c4-f4", "twisted", 5, 4, k=2),
    ]
    cmds = [["check"], ["invariants", "--sub", "all"], ["invariants", "--sub", "G0"]]
    return [(inst, cmds) for inst in insts]


WORKLOADS = {
    "oracle-f2": _oracle_f2,
    "structural-fq": _structural_fq,
    "wide-groupoid": _wide_groupoid,
}

# Small instances on which every closed-form expectation is compared with
# brute force before a run, together with NOT_GALOIS, whose element fixes
# its only block untwisted.
CROSS_CHECK = [
    ("p2c2", "shift", 2, 2, 1),
    ("p1c4", "shift", 1, 4, 1),
    ("p1c2-f4", "twisted", 1, 2, 2),
    ("frob2-f4", "frobenius", 2, 2, 2),
]
NOT_GALOIS = {
    "field": {"p": 2, "k": 1},
    "groupoid": {"elements": ["e", "a"],
                 "products": [["e", "e", "e"], ["e", "a", "a"],
                              ["a", "e", "a"], ["a", "a", "e"]]},
    "ring": {"blocks": ["w"], "ideals": {"e": ["w"]}},
    "action": {"a": {"sigma": {"w": "w"}}},
}


def all_commands(doc):
    """The eight subcommands, invariants and grothendieck once per named
    subgroupoid and G-set."""
    cmds = [["check"]]
    cmds += [["invariants", "--sub", name] for name in doc.get("subgroupoids", {})]
    cmds += [["galois"], ["subgroupoids"], ["faithful"], ["skew"]]
    cmds += [["grothendieck", "--gset", name] for name in doc.get("gsets", {})]
    cmds.append(["correspondence"])
    return cmds


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def fresh_import(src):
    """Import gpdgalois from the checkout's src/, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "gpdgalois" or n.startswith("gpdgalois.")]:
        del sys.modules[name]
    cli = importlib.import_module("gpdgalois.cli")
    if pathlib.Path(cli.__file__).resolve().parent.parent != src:
        fail(f"gpdgalois imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload, seed, root, work):
    """Generate and write the problem files and import gpdgalois; returns
    the operations, the cli module and the setup time."""
    t0 = time.perf_counter()
    plan = WORKLOADS[workload](random.Random(seed), root)
    ops = []
    for inst, cmds in plan:
        path = work / f"{inst.name}.json"
        path.write_text(json.dumps(inst.doc))
        for cmd in cmds:
            ops.append((inst, [cmd[0], str(path), "--json"] + cmd[1:]))
    cli = fresh_import(root / "src")
    return ops, cli, time.perf_counter() - t0


def cross_check(seed):
    rng = random.Random(seed)
    problems = expect.cross_check(expect.Problem(NOT_GALOIS))
    for name, family, n, m, k in CROSS_CHECK:
        inst = pair_cyclic(rng, name, family, n, m, k=k)
        problems += [f"{name}: {p}" for p in
                     expect.cross_check(expect.Problem(inst.doc), family, n, m)]
    return problems


class Session:
    """Runs rounds of the operation list and checks every report."""

    def __init__(self, ops, cli):
        self.ops = ops
        self.cli = cli
        self.tracer = None  # a spans.Tracer while the traced rounds run
        self.layer_rounds: list = []  # per traced round, spans.Tracer.totals
        self.rss_mb = None  # peak resident memory at the end of the first round
        self.exp = {}
        for inst, _ in ops:
            if inst.name not in self.exp:
                self.exp[inst.name] = verdicts.Expectations(
                    inst.doc, inst.family, inst.n, inst.m)
        self.attempted = 0
        self.failed = 0
        self.unexplained: list = []
        self.faults: dict = {}

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                self.cli.main(argv)
            else:
                self.tracer.span(f"cli.{argv[0]}_s", self.cli.main, argv)
        return buf.getvalue()

    def round(self):
        """One pass over the list; returns per-operation wall times."""
        if self.tracer is not None:
            first, before = len(self.tracer.spans), dict(self.tracer.counts)
        times, outputs = [], []
        for _, argv in self.ops:
            t0 = time.perf_counter()
            try:
                out = self.call(argv)
            except Exception as err:  # a traceback a user would see
                out = err
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.layer_rounds.append(self.tracer.totals(first, before))
        for (inst, argv), out in zip(self.ops, outputs):
            self.judge(inst, argv, out)
        return times

    def judge(self, inst, argv, out):
        self.attempted += 1
        if isinstance(out, Exception):
            known = verdicts.SIZE_BOUND if (
                argv[0] == "invariants" and type(out).__name__ == "SizeBoundExceeded"
            ) else None
            problems = [(f"raised {type(out).__name__}: {out}", known)]
        else:
            try:
                report = json.loads(out)
            except ValueError:
                report = None
            problems = ([("report is not JSON", None)] if report is None else
                        verdicts.check_report(self.exp[inst.name], argv, report))
        if not problems:
            return
        self.failed += 1
        label = " ".join([argv[0], inst.name] + argv[3:])
        for why, known in problems:
            if known is None:
                self.unexplained.append(f"{label}: {why}")
            else:
                self.faults.setdefault(known, set()).add(label)


def rounds_for(session, seconds):
    """Whole rounds, at least one, until the next would end after `seconds`."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + sum(rounds[-1]) <= seconds:
        rounds.append(session.round())
    return rounds


def run_workload(args, root):
    if not (root / "src" / "gpdgalois" / "__init__.py").is_file():
        fail(f"no gpdgalois sources under {root / 'src'}")
    if not (root / "fixtures").is_dir():
        fail(f"no fixtures directory under {root}")
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(root / "src"))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        ops, cli, dt = setup(args.workload, args.seed, root, work)
        setup_times.append(dt)
        gc.collect()  # free the previous import, so peak_rss_mb sees one copy
    problems = cross_check(args.seed)
    if problems:
        fail("expectations disagree with brute force: " + "; ".join(problems))

    session = Session(ops, cli)
    metrics = {}
    if not args.trace:
        rounds = rounds_for(session, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["session_s"] = (statistics.median(sum(r) for r in rounds), "s")
        metrics["slowest_command_s"] = (statistics.median(max(r) for r in rounds), "s")
        metrics["peak_rss_mb"] = (session.rss_mb, "MB")
    else:
        untraced = sum(session.round())
        tracer = session.tracer = spans.Tracer()
        tracer.install()
        try:
            traced = rounds_for(session, args.seconds)
        finally:
            tracer.uninstall()
        for name in spans.METRICS:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = (statistics.median(r[name] for r in session.layer_rounds), unit)
        metrics["trace.overhead_s"] = (statistics.median(sum(r) for r in traced) - untraced, "s")
        (work / "spans.json").write_text(json.dumps(tracer.spans))

    for label in sorted(session.unexplained)[:20]:
        print(f"WRONG  {label}")
    for fault, labels in sorted(session.faults.items()):
        print(f"known fault ({fault}): {', '.join(sorted(labels))}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:42s} {value:14.6f} {unit}")
    print(f"{args.workload:14s} operations attempted {session.attempted}, "
          f"failed {session.failed}")
    print(json.dumps({
        "correct": not session.unexplained,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own child process, one after another."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            sys.exit(proc.returncode)
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, val in res["metrics"].items():
            print(f"  {metric:42s} {val['value']:14.6f} {val['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args, pathlib.Path.cwd().resolve())


if __name__ == "__main__":
    main()
