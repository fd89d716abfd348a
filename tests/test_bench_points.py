"""The functions bench/spans.py traces must exist in the package, so that
renaming or deleting one fails here instead of crashing a traced
benchmark run (bench/run.py --trace 1)."""

import importlib

from conftest import layer_points


def test_every_traced_point_resolves():
    points = layer_points()
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
