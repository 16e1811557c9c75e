"""Acceptance criteria.

One test per criterion; each prints a PASS line with its elapsed time and
asserts the stated exact tolerances and time budgets.  Failures surface the
offending instance as a falsification payload, never a silent patch.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from prodap.apcore import APDescriptor, gcd_bound_audit, reduce_ap
from prodap.construct import cover_set, coverage_check
from prodap.cyclelab import cycle_identity_check, cycle_poly, divisibility_audit, enumerate_even_cycles
from prodap.harness import (
    concavity_demo,
    demo_instance_file,
    pipeline,
    random_quad_cycle_instance,
)
from prodap.irregular import hit_count, irregularity_report
from prodap.jsonio import dumps_canonical
from prodap.prodset import build_rep_graph, longest_ap, product_set
from prodap.rationalize import four_cycle_r_rotations, rationalize_components
from prodap.cyclelab import find_even_cycle
from prodap.exactnum import DEFAULT_TABLE

from instances import longest_ap_oracle, random_quad_chain_instance


def report(num: int, t0: float, detail: str) -> None:
    print(f"PASS criterion {num} ({time.perf_counter() - t0:.2f}s): {detail}")


def corpus_instances():
    """Structured corpora plus instances whose graphs provably interlock."""
    out = []
    grid = sorted({2**a * 3**b for a in range(6) for b in range(6)})
    out.append(("smooth-grid", grid, None))
    divs = sorted(
        {2**a * 3**b * 5**c for a in range(5) for b in range(4) for c in range(3)}
    )
    out.append(("divisor-lattice", divs, None))
    rng = random.Random(0xC0FFEE)
    for i in range(6):
        out.append((f"smooth-sub-{i}", sorted(rng.sample(grid, rng.randint(10, 20))), None))
    for i in range(6):
        out.append((f"divisor-sub-{i}", sorted(rng.sample(divs, rng.randint(12, 24))), None))
    for n in (10, 20, 30):
        res = cover_set(n)
        out.append((f"cover-{n}", list(res.elements), list(range(1, res.M + 1))))
    return out


def test_criterion_1_cover_coverage():
    """Every x in [1, floor(n ln n)] splits over the cover set; |B| <= 2n."""
    t0 = time.perf_counter()
    sizes = {}
    for n in (10, 50, 100, 500, 1000):
        res = coverage_check(n)
        assert set(res.witnesses) == set(range(1, res.M + 1))
        for x, (d1, d2) in res.witnesses.items():
            assert d1 * d2 == x
        assert res.size <= 2 * n
        sizes[n] = (res.M, res.size)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, t0, f"coverage certified for n=10..1000, sizes {sizes}")


def test_criterion_2_longest_ap_oracle_equivalence():
    """Exact search equals the brute-force oracle on 100 seeded sets."""
    t0 = time.perf_counter()
    rng = random.Random(0xACCE55)
    for _ in range(100):
        size = rng.randint(1, 8)
        B = sorted(rng.sample(range(1, 51), size))
        S = list(product_set(B).products)
        found = longest_ap(S)
        oracle = longest_ap_oracle(S)
        assert found.length == oracle.length
        assert (found.start, found.diff, found.indices) == (
            oracle.start,
            oracle.diff,
            oracle.indices,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, t0, "100 seeded sets, search and oracle identical")


def test_criterion_3_gcd_bound():
    """Pairwise gcd of reduced-progression terms never exceeds D*L."""
    t0 = time.perf_counter()
    rng = random.Random(0x6CD)
    worst_ratio = Fraction(0)
    for _ in range(1000):
        D = rng.randint(1, 10)
        L = rng.randint(3, 1000)
        while True:
            r = rng.randint(1, 10**6)
            d = rng.randint(1, 10**6)
            if gcd(d, D * r) == 1:
                break
        desc = APDescriptor(D, r, d, L)
        ok, (i, j, g) = gcd_bound_audit(desc)
        assert ok, f"gcd bound failed: desc={desc}, pair=({i},{j}), gcd={g}"
        worst_ratio = max(worst_ratio, Fraction(g, D * L))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, t0, f"1000 descriptors, worst gcd/(D*L) = {worst_ratio}")


def test_criterion_4_cycle_machinery():
    """Every even cycle of half-length <= 5 in the corpus passes the product
    identity, the vanishing polynomial, divisibility, and coefficient bounds."""
    t0 = time.perf_counter()
    audited = 0
    for name, B, claimed in corpus_instances():
        if claimed is None:
            found = longest_ap(list(product_set(B).products))
            if found.length < 3 or found.descriptor() is None:
                continue
            A = found.descriptor().terms()
        else:
            A = claimed
        B_red, desc, _ = reduce_ap(A, B)
        graph = build_rep_graph(B_red, desc.terms())
        for cyc in enumerate_even_cycles(graph, 5, max_count=400):
            assert cycle_identity_check(cyc, desc.terms()), f"identity failed on {name}"
            poly = cycle_poly(cyc, desc)  # raises on nonvanishing evaluation
            divisibility_audit(poly, desc)  # raises on any divisibility failure
            audited += 1
    assert audited > 0, "corpus produced no cycles; audits would be vacuous"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, t0, f"{audited} cycles audited, zero failures")


def test_criterion_5_hit_counts():
    """Window primes divide either two or three progression terms,
    exhaustively over L in [31, 200], d in [1, 20], r in [1, 50]."""
    t0 = time.perf_counter()
    checked = 0
    primes100 = DEFAULT_TABLE.primes_upto(100)
    for L in range(31, 201):
        base = [p for p in primes100 if 3 * p > L and 2 * p < L]
        for d in range(1, 21):
            usable = [p for p in base if d % p != 0]
            if not usable:
                continue
            for r in range(1, 51):
                if gcd(d, r) != 1:
                    continue
                desc = APDescriptor(1, r, d, L)
                for p in usable:
                    hits = hit_count(p, desc)
                    assert hits in (2, 3), f"hits={hits} at L={L}, d={d}, r={r}, p={p}"
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, t0, f"{checked} (L,d,r,p) combinations, all hits in {{2,3}}")


def test_criterion_6_forest_property(tmp_path):
    """Greedy independent irregular edges always span a forest; any
    counterexample is written out as a falsification artifact."""
    t0 = time.perf_counter()
    rng = random.Random(0xF03E57)
    instances = corpus_instances()
    for i in range(10):
        B = sorted(rng.sample(range(1, 120), rng.randint(8, 25)))
        instances.append((f"random-{i}", B, None))
    checked = 0
    for name, B, claimed in instances:
        if claimed is None:
            found = longest_ap(list(product_set(B).products))
            if found.length < 3 or found.descriptor() is None:
                continue
            A = found.descriptor().terms()
        else:
            A = claimed
        B_red, desc, _ = reduce_ap(A, B)
        graph = build_rep_graph(B_red, desc.terms())
        rep = irregularity_report(graph, desc)
        if rep.forest is not True:
            artifact = tmp_path / f"falsification-{name}.json"
            artifact.write_text(
                dumps_canonical(
                    {
                        "instance": name,
                        "set": [str(b) for b in B_red],
                        "descriptor": {"D": desc.D, "r": desc.r, "d": desc.d, "L": desc.L},
                        "selected": list(rep.selected_primes),
                    }
                )
            )
            pytest.fail(f"forest property falsified on {name}; artifact: {artifact}")
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, t0, f"{checked} instances, every selection acyclic")


def test_criterion_7_rationalization():
    """50 seeded quadratic instances rationalize exactly; 4-cycle start
    extraction is rotation-invariant."""
    t0 = time.perf_counter()
    count = 0
    rotations_checked = 0
    for m in (2, -1):
        for seed in range(13):
            inst = random_quad_chain_instance(seed, m)
            rational = rationalize_components(inst)
            assert all(isinstance(x, Fraction) for x in rational)
            ps = product_set(rational)
            for target in inst.targets:
                assert target in ps
            count += 1
        for seed in range(12):
            inst = random_quad_cycle_instance(seed, m)
            rational = rationalize_components(inst)
            ps = product_set(rational)
            for target in inst.targets:
                assert target in ps
            cyc = find_even_cycle(inst.graph, 2)
            starts = four_cycle_r_rotations(cyc)
            assert len(set(starts)) == 1 and starts[0] == inst.targets[0]
            rotations_checked += 1
            count += 1
    assert count == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(7, t0, f"50 instances rationalized, {rotations_checked} rotation audits")


def test_criterion_8_concavity_margins():
    """Log-concavity margins are identically D^2 * d^2."""
    t0 = time.perf_counter()
    rng = random.Random(0xC0CA)
    for _ in range(1000):
        desc = APDescriptor(
            rng.randint(1, 30), rng.randint(1, 10**4), rng.randint(1, 10**4), rng.randint(3, 60)
        )
        rep = concavity_demo(desc)
        expected = desc.D**2 * desc.d**2
        assert rep.concave and all(mg == expected for mg in rep.margins)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(8, t0, "1000 descriptors, margins identically D^2*d^2")


def test_criterion_9_end_to_end():
    """Both built-in pipelines finish green with byte-stable reports."""
    t0 = time.perf_counter()
    import json

    runs = {}
    for kind, seed in (("cover100", 0), ("quad", 0)):
        first = dumps_canonical(pipeline(demo_instance_file(kind, seed)))
        second = dumps_canonical(pipeline(demo_instance_file(kind, seed)))
        assert first == second, f"{kind} report is not byte-stable"
        parsed = json.loads(first)
        assert parsed["ok"] is True and parsed["falsifications"] == []
        runs[kind] = len(first)
    report(9, t0, f"pipelines green and byte-stable, report bytes {runs}")
