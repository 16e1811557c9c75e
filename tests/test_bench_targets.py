"""The benchmark's span tracer wraps prodap functions by name; every name it
lists must still exist, or a traced benchmark run fails at install time.  Its
counters also read some return values, so those keep their shape, and a traced
pipeline run must still count what its reports state."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from prodap import harness
from prodap.construct import cover_set
from prodap.cyclelab import enumerate_even_cycles
from prodap.prodset import build_rep_graph

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
TARGETS = spans.TARGETS


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


def test_traced_pipeline_counts_what_the_reports_state():
    # the counters read the irregularity report's per_prime and the graph's
    # edges: over one claimed and one searched cover run they must sum to
    # the reports' irregular edges and graph edges
    tracer = spans.Tracer()
    tracer.install()
    try:
        instances = [
            harness.demo_instance_file("cover100"),
            harness.InstanceFile("integer", list(cover_set(24).elements)),
        ]
        reports = [tracer.run_op(op, harness.pipeline, inst) for op, inst in enumerate(instances)]
    finally:
        tracer.uninstall()
    stages = [report["stages"] for report in reports]
    counters = tracer.counters
    irregular = sum(st["irregular"]["irregular_edges"] for st in stages)
    assert counters["irregular.irregularity_report.irregular_edges"] == irregular > 0
    edges = sum(st["graph"]["edges"] for st in stages)
    assert counters["prodset.build_rep_graph.edges"] == edges > 0
