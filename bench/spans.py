"""Per-layer tracing from outside the program.

Each listed public function is replaced, in every ``gpdgalois`` module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent) or bumps a counter.  Methods are wrapped once on their class.
Spans stay in memory; self time is a span's duration minus the durations
of the spans recorded directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function or Class.method, metric); metrics ending in _calls
# count calls, oracle_elements counts generated items, the rest are spans.
LAYER_POINTS = [
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid_s"),
    ("groupoid", "enumerate_wide_subgroupoids", "groupoid.enumerate_wide_subgroupoids_s"),
    ("groupoid", "regular_gset", "groupoid.gset_build_s"),
    ("groupoid", "quotient_gset", "groupoid.gset_build_s"),
    ("groupoid", "coset_space", "groupoid.gset_build_s"),
    ("gset", "validate_gset", "gset.validate_gset_s"),
    ("blockring", "ProductSpace.mul", "blockring.ring_mul_calls"),
    ("blockring", "ProductSpace.all_elements", "blockring.oracle_elements"),
    ("blockring", "is_faithful_ideal", "blockring.faithful_s"),
    ("blockring", "faithfulness_criterion", "blockring.faithful_s"),
    ("action", "validate_action", "action.validate_action_s"),
    ("action", "AlgebraAction.apply", "action.apply_calls"),
    ("action", "invariants", "action.invariants_s"),
    ("action", "twisted_invariant_basis", "action.invariants_structural_s"),
    ("action", "find_galois_coordinates", "action.find_galois_coordinates_s"),
    ("action", "trace", "action.trace_s"),
    ("action", "verify_skew_ring", "action.verify_skew_ring_s"),
    ("action", "skew_mul", "action.skew_mul_calls"),
    ("action", "subalgebra_closure", "action.subalgebra_closure_s"),
    ("action", "stabilizer", "action.stabilizer_s"),
    ("mapalg", "function_algebra", "mapalg.function_algebra_s"),
    ("mapalg", "invariant_algebra", "mapalg.invariant_algebra_s"),
    ("mapalg", "tensor_split_check", "mapalg.tensor_split_check_s"),
    ("mapalg", "HomRecord.apply", "mapalg.hom_apply_calls"),
    ("mapalg", "hom_gset_check", "mapalg.hom_gset_check_s"),
    ("mapalg", "grothendieck_set_check", "mapalg.grothendieck_set_check_s"),
    ("tensor", "kblocks", "tensor.kblocks_s"),
    ("tensor", "rank_profile", "tensor.rank_profile_s"),
    ("galois", "galois_correspondence", "galois.galois_correspondence_s"),
    ("galois", "strong_subalgebra_check", "galois.strong_subalgebra_check_s"),
    ("galois", "separability_idempotent", "galois.separability_idempotent_s"),
    ("galois", "is_beta_strong", "galois.is_beta_strong_s"),
    ("scalar", "FieldSpec.mul", "scalar.field_mul_calls"),
    ("scalar", "solve_linear", "scalar.solve_linear_s"),
    ("scalar", "solve_linear", "scalar.solve_linear_calls"),
    ("scalar", "FpSpan.insert", "scalar.fpspan_calls"),
    ("scalar", "FpSpan.contains", "scalar.fpspan_calls"),
    ("scalar", "FpSpan.coords", "scalar.fpspan_calls"),
]

SUBCOMMANDS = ["check", "invariants", "galois", "subgroupoids", "faithful",
               "skew", "grothendieck", "correspondence"]

METRICS = (
    [f"cli.{c}_s" for c in SUBCOMMANDS]
    + list(dict.fromkeys(metric for _, _, metric in LAYER_POINTS))
)


class Tracer:
    """Span and counter store; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list = []  # [metric, start, end, parent index or None]
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self._undo: list = []

    def span(self, metric, fn, *args, **kwargs):
        rec = [metric, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, metric, fn):
        counts = self.counts
        if metric == "blockring.oracle_elements":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[metric] += 1
                    yield item
        elif metric.endswith("_calls"):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(metric, fn, *args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gpdgalois" or name.startswith("gpdgalois.")]
        for mod_name, path, metric in LAYER_POINTS:
            mod = sys.modules[f"gpdgalois.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(metric, orig))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(metric, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def totals(self, first_span: int = 0, counts_before=None) -> dict:
        """Per-metric totals over spans recorded from index first_span on:
        self time for layer spans, inclusive time for cli spans, and the
        counter increase since counts_before."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for metric, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in METRICS}
        for i, (metric, start, end, _) in enumerate(spans, start=first_span):
            dur = end - start
            out[metric] += dur if metric.startswith("cli.") else dur - child_time[i]
        before = counts_before or {}
        for metric in METRICS:
            if metric.endswith("_calls") or metric == "blockring.oracle_elements":
                out[metric] = self.counts[metric] - before.get(metric, 0)
        return out
