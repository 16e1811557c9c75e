"""The benchmark's span tracer wraps prodap functions by name; every name it
lists must still exist, or a traced benchmark run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "modname,attr", [(m, a) for m, a, _, _ in TARGETS], ids=[f"{m}.{a}" for m, a, _, _ in TARGETS]
)
def test_target_resolves(modname, attr):
    # resolved as Tracer.install does: a method from the class's own dict
    owner = importlib.import_module(f"prodap.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name))[meth]
    else:
        fn = getattr(owner, attr)
    assert callable(fn)
