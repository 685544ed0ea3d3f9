"""The benchmark's tracer wraps library functions by module and name.

``perfbench/tracer.py`` replaces each of its ``TARGETS`` with a timing
wrapper; a target that is renamed, removed or turned into something other
than a plain function would break traced benchmark runs, so every one of
them must still be a function of its module.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for mod, fn, _span, _counter in tracer.TARGETS]


TARGETS = _targets()


def test_tracer_has_targets():
    assert TARGETS


@pytest.mark.parametrize("mod,fn", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_target_is_a_module_function(mod, fn):
    module = importlib.import_module(f"tipsychase.{mod}")
    assert inspect.isfunction(getattr(module, fn, None))
