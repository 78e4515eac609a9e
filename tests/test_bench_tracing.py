"""The bench's traced layer functions still exist in `lieradicals`.

`bench/tracing.py` wraps each `(module, attribute)` of its `LAYERS` table by
name when the benchmark runs with `--trace 1`.  A function renamed or deleted
here would break only that traced run, so this test resolves every name the
way `Tracer.install` does: a method must be defined on the class itself, and
a module function must be an attribute of its module.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("span,mod,path", LAYERS, ids=[f"{m}.{p}" for _, m, p in LAYERS])
def test_traced_layer_resolves(span, mod, path):
    owner = importlib.import_module(f"lieradicals.{mod}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), f"{span}: {path} is gone"
    else:
        assert callable(getattr(owner, path, None)), f"{span}: {path} is gone"
