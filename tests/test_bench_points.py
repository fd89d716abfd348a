"""The functions bench/spans.py traces must exist in the package, so that
renaming or deleting one fails here instead of crashing a traced
benchmark run (bench/run.py --trace 1)."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_POINTS


def test_every_traced_point_resolves():
    points = _layer_points()
    assert points
    missing = []
    for mod_name, path, _ in points:
        mod = importlib.import_module(f"gpdgalois.{mod_name}")
        if "." in path:
            # Tracer.install wraps a method through the class's own __dict__.
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append((mod_name, path))
        elif not callable(getattr(mod, path, None)):
            missing.append((mod_name, path))
    assert missing == []
