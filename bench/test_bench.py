"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads as W  # noqa: E402
from worker import attempt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the smallest inputs of each workload, including one big-D reduction
TINY = {
    "pipeline": [["quad", 0, 2], ["noclaim", 12], ["claim", 40]],
    "study-random": [[36, 0]],
    "reduce-long": [
        [60, 9001, 4 * 7 * 5, 2, 7, 11, 1, 1],
        [60, 999_997, 2, 2, 1, 23, 11 * 13**3 * 17, 13**3 * 17**2],
    ],
    "construct-verify": [[500]],
}


def inputs_digest(w, seed: int, count: int) -> str:
    """sha256 over the first ``count`` generated (key, input) pairs."""
    h = hashlib.sha256()
    stream = w.inputs(seed)
    for _ in range(count):
        h.update(repr(next(stream)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_seed_fixes_inputs(name):
    w = W.WORKLOADS[name]()
    a, b, c = (inputs_digest(w, seed, 6) for seed in (7, 7, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tiny_ops_pass_their_checks(name):
    w = W.WORKLOADS[name]()
    for key in TINY[name] + [w.warmup_key()]:
        _, _, failure = attempt(w, key, w.make(key), w.run)
        assert failure is None, (key, failure)


def test_big_d_input_takes_the_bigint_gcd_path():
    key = TINY["reduce-long"][1]
    L, r, d, _, _, q, left, right = key
    assert q * left * right * (r + d * (L - 1)) >= W.INT64_SWITCH


def test_wrong_expected_value_is_a_failure():
    w = W.WORKLOADS["pipeline"]()
    key = ["claim", 40]
    entry = json.dumps(key)
    w.expected[entry] = {**w.expected[entry], "worst_gcd": w.expected[entry]["worst_gcd"] + 1}
    _, _, failure = attempt(w, key, w.make(key), w.run)
    assert isinstance(failure, W.CheckError)


def test_wrong_construction_value_is_a_failure():
    w = W.WORKLOADS["reduce-long"]()
    key = TINY["reduce-long"][0]
    wrong = key[:5] + [13] + key[6:]  # claims q = 13 where the input has 11
    _, _, failure = attempt(w, wrong, w.make(key), w.run)
    assert isinstance(failure, W.CheckError)


def test_closed_form_gcd_matches_pairwise_scan():
    from math import gcd

    for D, r, d, L in [(1, 1, 1, 10), (2, 1, 3, 4), (3, 7, 10, 40), (1, 999, 1000, 60)]:
        t = [D * (r + d * i) for i in range(L)]
        scan = max(gcd(t[i], t[j]) for i in range(L) for j in range(i))
        assert W.worst_pair_gcd(D, r, d, L) == scan


def test_tracer_wraps_every_alias_and_restores():
    import prodap
    from prodap import cyclelab, exactnum, harness, rationalize

    original = cyclelab.find_even_cycle
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = cyclelab.find_even_cycle
        assert wrapped is not original
        assert harness.find_even_cycle is wrapped
        assert rationalize.find_even_cycle is wrapped
        assert prodap.find_even_cycle is wrapped
        w = W.WORKLOADS["construct-verify"]()
        tracer.run_op(0, w.run, 500)
        assert tracer.calls["construct.coverage_check"] == 1
        assert tracer.calls["exactnum.factorize"] > 0
        ids = {s[0] for s in tracer.spans}
        roots = [s for s in tracer.spans if s[4] is None]
        assert [s[1] for s in roots] == ["op"]
        assert all(s[4] in ids for s in tracer.spans if s is not roots[0])
        assert all(s[5] == 0 and s[2] <= s[3] for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert cyclelab.find_even_cycle is original
    assert vars(exactnum.PrimeTable)["factorize"].__qualname__ == "PrimeTable.factorize"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = _run(ROOT, "--workload", "reduce-long", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pipeline", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
