"""The benchmark's traced run (perfbench/tracing.py) wraps hsfm's layer
functions by module and attribute name; a renamed or removed function would
otherwise only show up when the traced benchmark runs."""

import importlib
import importlib.util
import os

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr, _ in load_tracing().TARGETS:
        owner = importlib.import_module(f"hsfm.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer replaces the attribute where it is defined
        if not callable(getattr(owner, "__dict__", {}).get(leaf)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced targets missing from hsfm: {missing}"
