"""The benchmark's span tracer wraps prodap functions by name; every name it
lists must still exist, or a traced benchmark run fails at install time.  Its
counters also read some return values, so those keep their shape."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from prodap.construct import cover_set
from prodap.cyclelab import enumerate_even_cycles
from prodap.prodset import build_rep_graph

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


def test_enumerate_even_cycles_returns_a_list_capped_per_length():
    # spans.py counts len(result) and compares it with max_count
    res = cover_set(15)
    graph = build_rep_graph(list(res.elements), list(range(1, res.M + 1)))
    for cap in (1, 4, 30):
        cycles = enumerate_even_cycles(graph, 5, max_count=cap)
        assert isinstance(cycles, list)
        per_length = Counter(len(c.vertices) for c in cycles)
        assert per_length and max(per_length.values()) <= cap
