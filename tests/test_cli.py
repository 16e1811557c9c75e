"""Subcommand round-trips and exit codes (0 ok, 2 input, 3 capacity, 4
falsification)."""

import hashlib
import json
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prodap
from prodap import cyclelab
from prodap.apcore import APDescriptor
from prodap.cli import main
from prodap.exactnum import DEFAULT_TABLE, QuadElem
from prodap.harness import InstanceFile, demo_instance_file, instance_to_json
from prodap.jsonio import MAX_DESCRIPTOR_TERMS, dumps_canonical, enc_quad, load_json

from instances import inflated_reduce_instance


def save_instance(path, inst):
    Path(path).write_text(dumps_canonical(instance_to_json(inst)), encoding="utf-8")


@pytest.fixture
def cover10_instance(tmp_path):
    from prodap.construct import cover_set

    path = tmp_path / "cover10.json"
    res = cover_set(10)
    small = InstanceFile("integer", list(res.elements), ap=APDescriptor(1, 1, 1, res.M))
    save_instance(path, small)
    return path


def run(argv):
    return main([str(a) for a in argv])


# find-ap inputs beside the cover set: products 1/4, 3/2, 9, and products
# 1/4, 1/2, 3/4, 1, 3/2, 9/4
RATIONAL_SETS = {
    "pair": {"field": "rational", "elements": ["1/2", "3"]},
    "fractions": {"field": "rational", "elements": ["1/2", "1", "3/2"]},
}


class TestConstruct:
    def test_verify_writes_witnesses(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["construct", "--n", 10, "--verify", "--out", out]) == 0
        data = load_json(out)
        assert data["M"] == "23" and data["log"] == "natural"
        assert len(data["witnesses"]) == 23
        assert data["witnesses"]["21"] == ["3", "7"]

    @pytest.mark.parametrize(
        "n, digest, summary",
        [
            (3, "c507821fa01c6652dd9dc39a4ba0a341e5d9afb0213e318606ce55e623072137",
             "M=3, |B|=3, 3 witnesses"),
            (10, "3b30b9d65ccf2f1f460b0600b66d40ae8aa243ee8786100465a5b0922a2d7cab",
             "M=23, |B|=15, 23 witnesses"),
            (100, "c5ae50b5f0dfec4556dd678945b2456e97bf00614e7c22ae149287f7304cd2d7",
             "M=460, |B|=163, 460 witnesses"),
            (1000, "8ef598469cb3756eddd24cd7d5be82e8c5bddff09cc32abd0ef12d70d87a3395",
             "M=6907, |B|=1720, 6907 witnesses"),
            (5000, "db3d171a359d9255711237c046933fd12ef2c50bcae9155d124d049ef3dc3b76",
             "M=42585, |B|=8784, 42585 witnesses"),
        ],
    )
    def test_verify_output_pinned(self, capsys, n, digest, summary):
        # sha256 of the stdout report, taken when the witnesses were still
        # stored one dict entry per x (n = 5000: when they were read from a
        # largest-prime-factor sieve)
        assert run(["construct", "--n", n, "--verify"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == f"cover set n={n}: {summary} verified\n"

    def test_capacity_exit_code(self, tmp_path):
        assert run(["construct", "--n", 50, "--capacity", 60]) == 3

    def test_capacity_exit_code_with_verify(self, capsys):
        # the cover set sieves the prime table to M = 195, which a capacity
        # below it refuses before the certificate is built
        for capacity in (60, 194):
            assert run(["construct", "--n", 50, "--capacity", capacity, "--verify"]) == 3
            assert capsys.readouterr() == (
                "", f"capacity error: sieve limit 195 exceeds capacity {capacity}\n"
            )
        assert run(["construct", "--n", 50, "--capacity", 195, "--verify"]) == 0

    def test_zero_capacity_is_input_error(self):
        # 0 is a capacity, not "no override": PrimeTable rejects it
        assert run(["construct", "--n", 50, "--capacity", 0]) == 2


class TestFindApAndGraph:
    @pytest.mark.parametrize(
        "case, length, digest",
        [
            ("cover10", 28,
             "60704f52ca71e6b67ab3452117b2c1aabe4a210875c98a5f1f9c2543d14573c5"),
            # best run has two terms, so no descriptor
            ("pair", 2,
             "06151aa78d7860f23b670b692c4423d5be01fcf6208af83c450743b3bf0025ec"),
            ("fractions", 4,
             "711228f933d19bc87fe48780f0d7cafb1e100d4e6002a818c3b5ddfa71bf53e9"),
        ],
        ids=["cover10", "pair", "fractions"],
    )
    def test_find_ap_output_pinned(
        self, tmp_path, capsys, cover10_instance, case, length, digest
    ):
        # sha256 of the stdout report, taken when find-ap still had a
        # brute-force oracle mode beside the exact search
        if case == "cover10":
            inst = cover10_instance
        else:
            inst = tmp_path / "inst.json"
            inst.write_text(json.dumps(RATIONAL_SETS[case]))
        assert run(["find-ap", "--in", inst]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["length"] == length
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_find_ap_capacity_message(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(RATIONAL_SETS["fractions"]))
        assert run(["find-ap", "--in", inst, "--limit", 1]) == 3
        assert capsys.readouterr().err == (
            "capacity error: set size 6 exceeds limit 1; pass a larger limit\n"
        )

    def test_limit_below_one(self, tmp_path, capsys, cover10_instance):
        # malformed input (exit 2), not a capacity hit (exit 3)
        out = tmp_path / "ap.json"
        for limit in (0, -1):
            assert run(["find-ap", "--in", cover10_instance, "--limit", limit, "--out", out]) == 2
            err = capsys.readouterr().err
            assert "limit must be positive" in err and "Traceback" not in err
        assert not out.exists()

    def test_graph_then_cycles_audit(self, tmp_path, cover10_instance):
        ap = tmp_path / "ap.json"
        graph = tmp_path / "g.json"
        report = tmp_path / "r.json"
        with open(ap, "w") as fh:
            fh.write(dumps_canonical({"D": "1", "r": "1", "d": "1", "L": 23}))
        assert run(["graph", "--set", cover10_instance, "--ap", ap, "--out", graph]) == 0
        gdata = load_json(graph)
        assert len(gdata["edges"]) == 23
        assert run(
            ["cycles", "--graph", graph, "--k", 5, "--audit", "--ap", ap, "--out", report]
        ) == 0
        rep = load_json(report)
        assert rep["cycle"] is not None
        assert rep["audit"]["identity"] is True
        assert rep["audit"]["divisibility"]["ok"] is True

    def test_irregular_report(self, tmp_path, cover10_instance):
        ap = tmp_path / "ap.json"
        graph = tmp_path / "g.json"
        out = tmp_path / "irr.json"
        with open(ap, "w") as fh:
            fh.write(dumps_canonical({"D": "1", "r": "1", "d": "1", "L": 23}))
        run(["graph", "--set", cover10_instance, "--ap", ap, "--out", graph])
        assert run(["irregular", "--graph", graph, "--ap", ap, "--out", out]) == 0
        rep = load_json(out)
        assert rep["window"] == [11]
        assert rep["forest"] is True

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("cover10",
             "1c3682fe1243f8b76abb50db5813f0ca65c1d1f529366a2ada2ad89a1278d236"),
            ("cover23",
             "ec857a768b82cae7b7d01e4eca52cfe534563b2a0d7036b0e479ddd8098bbd39"),
            ("cover40",
             "c3a9ec2d754a3e0d94071e42964e5e2b67344a1bae8de25705cca90d3067b22f"),
            ("cover100",
             "c8ecf134c114da7e3cf395191c95d12faf949b3e459abd76619436583de101ab"),
            ("r119",
             "8440e77c48bd53f8da7f13ec91da08e029ae7fd545c535083cd9b3c7bf93122b"),
            ("D11",
             "77c243df4130022b148f8c3243f563ee388edc80a096d36f4c774d9552177119"),
        ],
    )
    def test_irregular_output_pinned(self, tmp_path, capsys, case, digest):
        # sha256 of the stdout report on a graph built by `prodap graph`,
        # taken when classification, selection and the forest verdict were
        # three separate passes over one mutable report
        from prodap.construct import cover_set

        if case.startswith("cover"):
            res = cover_set(int(case[len("cover"):]))
            elements, desc = list(res.elements), APDescriptor(1, 1, 1, res.M)
        elif case == "r119":
            desc = APDescriptor(1, 119, 1, 31)
            elements = sorted({1} | set(desc.terms()))
        else:
            desc = APDescriptor(11, 1, 2, 60)
            elements = sorted({11} | {1 + 2 * i for i in range(desc.L)})
        inst, ap, graph = (tmp_path / name for name in ("inst.json", "ap.json", "g.json"))
        save_instance(inst, InstanceFile("integer", elements))
        with open(ap, "w") as fh:
            fh.write(dumps_canonical(prodap.jsonio.descriptor_to_json(desc)))
        assert run(["graph", "--set", inst, "--ap", ap, "--out", graph]) == 0
        assert run(["irregular", "--graph", graph, "--ap", ap]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReduce:
    def test_reduce_instance(self, tmp_path):
        from prodap.apcore import APDescriptor

        path = tmp_path / "inst.json"
        out = tmp_path / "red.json"
        save_instance(path, InstanceFile("integer", [2, 3, 5, 7], ap=APDescriptor(2, 3, 2, 3)))
        assert run(["reduce", "--in", path, "--out", out]) == 0
        data = load_json(out)
        assert data["descriptor"] == {"D": "1", "r": "3", "d": "2", "L": 3}
        assert data["set"] == ["1", "3", "5", "7"]
        assert data["gcd_bound"]["ok"] is True

    def test_big_d_long_progression(self, tmp_path):
        # inflated like a long big-D input: U * V_i with U = 2*q*left and
        # V_i = right*(r + 2i); reduction leaves D = q*left*right, d = 2, and
        # the reduced terms pass 2**62 (formerly the O(L^2) pure-Python scan)
        from prodap.apcore import APDescriptor

        L, r, q, left, right = 1500, 1_000_003, 23, 11 * 13**3 * 17, 13**3 * 17**2
        D, U = q * left * right, 2 * q * left
        assert gcd(r, 2 * D) == 1 and D * r > 2**62
        B = sorted({right * (r + 2 * i) for i in range(L)} | {U})
        path = tmp_path / "inst.json"
        out = tmp_path / "red.json"
        save_instance(path, InstanceFile("integer", B, ap=APDescriptor(U * right, r, 2, L)))
        assert run(["reduce", "--in", path, "--out", out]) == 0
        data = load_json(out)
        assert data["descriptor"] == {"D": str(D), "r": str(r), "d": "2", "L": L}
        assert [s["case"] for s in data["trace"]] == ["k1", "extract-gcd"]
        # closed form: the largest odd g <= L-1 whose first multiple
        # r + 2*j0 leaves room for i = j0 + g
        g = next(g for g in range(L - 1, 1, -2) if (-r * pow(2, -1, g)) % g + g <= L - 1)
        j0 = (-r * pow(2, -1, g)) % g
        assert data["gcd_bound"] == {"ok": True, "worst": [j0 + g, j0, str(D * g)]}
        assert gcd(D * (r + 2 * (j0 + g)), D * (r + 2 * j0)) == D * g

    def test_output_pinned(self, tmp_path, capsys):
        # sha256 of the stdout report, one step of each case: k1 at 2,
        # partition at 3, gcd extraction of 7
        elements, claim = inflated_reduce_instance(6, 5, 6, 2, 3, 7)
        path = tmp_path / "inst.json"
        save_instance(path, InstanceFile("integer", elements, ap=claim))
        assert run(["reduce", "--in", path]) == 0
        out = capsys.readouterr().out
        steps = [(s["case"], s["prime"], s["measure_drop"]) for s in json.loads(out)["trace"]]
        assert steps == [("k1", 2, 1), ("partition-B1B2B3", 3, 7), ("extract-gcd", None, 0)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5dbbd5c5c395c2a92faf6eb1f3f252beac72e6994713ee11a71117c522afd008"
        )

    @pytest.mark.parametrize("command", ["reduce", "pipeline"])
    def test_untouched_element_is_not_factorized(self, tmp_path, capsys, command):
        # 1..4 need no step, so the 31-digit prime beside them, whose
        # primality the default sieve cannot certify, is never factorized
        big = 10**30 + 57
        path = tmp_path / "inst.json"
        save_instance(path, InstanceFile("integer", [1, 2, 3, 4, big], ap=APDescriptor(1, 1, 1, 4)))
        assert run([command, "--in", path]) == 0
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert err == ""
        if command == "reduce":
            assert data["trace"] == [] and data["set"][-1] == str(big)
        else:
            assert data["ok"] and data["stages"]["reduction"]["set_size"] == 5

    @pytest.mark.parametrize("command", ["reduce", "pipeline"])
    def test_empty_set_is_input_error(self, tmp_path, capsys, command):
        # no element to take a first column from: the coverage check still
        # reports the first term as uncovered
        path = tmp_path / "inst.json"
        path.write_text(
            '{"ap":{"D":"1","r":"1","d":"1","L":4},"elements":[],"field":"integer"}',
            encoding="utf-8",
        )
        assert run([command, "--in", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: term 0 is not a product of two set elements\n"

    def test_difference_past_capacity(self, tmp_path, capsys):
        # factorizing the difference is reduction work, so it stays bounded
        big = 10**30 + 57
        path = tmp_path / "inst.json"
        claim = APDescriptor(1, 1, big, 3)
        save_instance(path, InstanceFile("integer", claim.terms(), ap=claim))
        assert run(["reduce", "--in", path]) == 3
        assert capsys.readouterr().err.startswith(f"capacity error: factor of {big} exceeds")

    def test_power_of_two_keeps_sieve_small(self, tmp_path):
        # factorizing 2**60 needs no prime past 2, so the shared table must
        # not be sieved toward sqrt(2**60) (capped at 10**8); a subprocess
        # has a DEFAULT_TABLE no other test has grown
        path = tmp_path / "inst.json"
        out = tmp_path / "red.json"
        save_instance(path, InstanceFile("integer", [2**60, 3, 5, 7], ap=APDescriptor(2**60, 3, 2, 3)))
        code = (
            "import sys; from prodap.cli import main; "
            "from prodap.exactnum import DEFAULT_TABLE; "
            f"code = main(['reduce', '--in', {str(path)!r}, '--out', {str(out)!r}]); "
            "print(code, DEFAULT_TABLE.limit)"
        )
        src = Path(prodap.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        exit_code, limit = map(int, proc.stdout.split())
        assert exit_code == 0
        assert limit < 10**5
        assert load_json(out)["descriptor"] == {"D": "1", "r": "3", "d": "2", "L": 3}

    def test_hard_difference_grows_sieve_to_its_root(self, tmp_path):
        # d is the product of two primes near 10**7, so the division runs
        # past every sieved prime until the limit passes sqrt(d): 1024
        # doubles to 2**24, the first power past 9999982
        path = tmp_path / "inst.json"
        out = tmp_path / "red.json"
        claim = APDescriptor(1, 1, 9999973 * 9999991, 3)
        save_instance(path, InstanceFile("integer", claim.terms(), ap=claim))
        code = (
            "import sys; from prodap.cli import main; "
            "from prodap.exactnum import DEFAULT_TABLE; "
            f"code = main(['reduce', '--in', {str(path)!r}, '--out', {str(out)!r}]); "
            "print(code, DEFAULT_TABLE.limit)"
        )
        src = Path(prodap.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        exit_code, limit = map(int, proc.stdout.split())
        assert exit_code == 0
        assert limit == 2**24
        data = load_json(out)
        assert data["k0_primes"] == [9999973, 9999991] and data["trace"] == []


class TestRationalizeCmd:
    def test_quad_demo(self, tmp_path):
        path = tmp_path / "quad.json"
        out = tmp_path / "rat.json"
        save_instance(path, demo_instance_file("quad", seed=2))
        assert run(["rationalize", "--in", path, "--out", out]) == 0
        data = load_json(out)
        assert data["field"] == "rational"
        assert len(data["elements"]) >= 2


class TestConvexDemo:
    def test_margins(self, tmp_path):
        ap = tmp_path / "ap.json"
        out = tmp_path / "c.json"
        with open(ap, "w") as fh:
            fh.write(dumps_canonical({"D": "2", "r": "3", "d": "2", "L": 3}))
        assert run(["convex-demo", "--ap", ap, "--out", out]) == 0
        data = load_json(out)
        assert data["concave"] is True and data["margins"] == ["16"]

    def test_length_past_cap(self, tmp_path, capsys, monkeypatch):
        # the cap is checked on the decoded length, before any term exists
        monkeypatch.setattr(APDescriptor, "terms", None)
        ap = tmp_path / "ap.json"
        for L in (MAX_DESCRIPTOR_TERMS + 1, 10**9):
            ap.write_text(json.dumps({"D": "1", "r": "1", "d": "1", "L": L}))
            assert run(["convex-demo", "--ap", ap]) == 3
            err = capsys.readouterr().err
            assert err.startswith("capacity error:") and str(MAX_DESCRIPTOR_TERMS) in err
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"field": "integer", "elements": ["1", "2"],
                                    "ap": {"D": "1", "r": "1", "d": "1", "L": 10**9}}))
        assert run(["pipeline", "--in", inst]) == 3


class TestBigIntegers:
    """Integers past Python's int <-> str digit limit (4300 by default) are
    a capacity error (exit 3), never a traceback or a malformed literal."""

    def test_output_past_digit_limit(self, tmp_path, capsys):
        # margin D^2 d^2 = 10**5000 cannot be written as a decimal string
        ap = tmp_path / "ap.json"
        ap.write_text(json.dumps({"D": "1", "r": "1", "d": "1" + "0" * 2500, "L": 3}))
        assert run(["convex-demo", "--ap", ap, "--out", tmp_path / "c.json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "Traceback" not in err

    def test_literal_past_digit_limit(self, tmp_path, capsys):
        ap = tmp_path / "ap.json"
        ap.write_text(json.dumps({"D": "1", "r": "1" + "0" * 4999, "d": "1", "L": 3}))
        assert run(["convex-demo", "--ap", ap]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "bad integer literal" not in err

    def test_bare_number_past_digit_limit(self, tmp_path):
        ap = tmp_path / "ap.json"
        ap.write_text('{"D": 1, "r": 1' + "0" * 5000 + ', "d": 1, "L": 3}')
        assert run(["convex-demo", "--ap", ap]) == 3

    @pytest.mark.parametrize("command", ["graph", "irregular"])
    def test_message_about_a_term_past_digit_limit(self, tmp_path, capsys, command):
        # the terms D*(r + j) have 6001 digits: neither fits {1, 2, 3} nor
        # matches an edge value.  No integer needs printing, since the
        # message names the term by its index, so this is an input error
        big = "1" + "0" * 2999 + "7"
        ap = tmp_path / "ap.json"
        ap.write_text(json.dumps({"D": big, "r": big, "d": "1", "L": 3}))
        inp = tmp_path / "in.json"
        if command == "graph":
            inp.write_text(json.dumps({"field": "integer", "elements": ["1", "2", "3"]}))
            argv = ["graph", "--set", inp, "--ap", ap]
        else:
            edge = {"u": 0, "v": 0, "index": 0, "value": "1"}
            inp.write_text(json.dumps({"field": "integer", "elements": ["1"], "edges": [edge]}))
            argv = ["irregular", "--graph", inp, "--ap", ap]
        assert run(argv) == 2
        err = capsys.readouterr().err
        named = "term 0 is not a product" if command == "graph" else "edge 0 does not carry term 0"
        assert err.startswith(f"input error: {named}") and err.count("\n") == 1

    def test_malformed_literals_stay_input_errors(self, tmp_path):
        for text in ['{"D": "1", "r": "1x", "d": "1", "L": 3}',
                     '{"D": "1", "r": "1", "d": "1", "L": "three"}',
                     '{"D": "1", "r": ']:
            ap = tmp_path / "ap.json"
            ap.write_text(text)
            assert run(["convex-demo", "--ap", ap]) == 2


class TestStudyCmd:
    def test_skipped_rows_reported(self, tmp_path, capsys):
        # a longest-AP limit below every product set skips each trial
        out = tmp_path / "study.csv"
        argv = ["study", "--generators", "random", "--sizes", 20, "--trials", 2, "--limit", 5]
        assert run(argv + ["--out", out]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for trial, line in enumerate(lines):
            assert re.fullmatch(
                rf"skipped random n=20 trial={trial}: set size \d+ exceeds limit 5; "
                "pass a larger limit",
                line,
            ), line

    def test_csv_written(self, tmp_path):
        out = tmp_path / "study.csv"
        assert run(
            ["study", "--generators", "smooth", "--sizes", "8,12", "--trials", 2,
             "--seed", 5, "--out", out]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("generator,n,set_size")

    def test_sizes_not_integers(self, capsys):
        assert run(["study", "--sizes", "abc"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_size(self):
        assert run(["study", "--generators", "random", "--sizes", -5]) == 2

    def test_trials_below_one(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        for trials in (0, -3):
            assert run(["study", "--sizes", "8", "--trials", trials, "--out", out]) == 2
            assert "trial count" in capsys.readouterr().err
        assert not out.exists()

    def test_limit_below_one(self, tmp_path, capsys):
        # every trial would be written as a skipped ap_length=0 row
        out = tmp_path / "study.csv"
        for limit in (0, -1):
            assert run(["study", "--sizes", "8", "--trials", 1, "--limit", limit, "--out", out]) == 2
            assert "limit must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--generators", ",", "generator"),
        ("--generators", " , ", "generator"),
        ("--sizes", "", "set size"),
        ("--sizes", " , ", "set size"),
    ])
    def test_empty_lists(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "study.csv"
        assert run(["study", flag, value, "--trials", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestPipelineCmd:
    def test_demo_quad(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--demo", "quad", "--seed", 3, "--out", out]) == 0
        rep = load_json(out)
        assert rep["ok"] is True

    def test_instance_file(self, tmp_path, cover10_instance):
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--in", cover10_instance, "--out", out]) == 0
        assert load_json(out)["ok"] is True

    def test_quad_instance_from_file(self, tmp_path):
        path = tmp_path / "quad.json"
        out = tmp_path / "rep.json"
        save_instance(path, demo_instance_file("quad", seed=4))
        assert run(["pipeline", "--in", path, "--out", out]) == 0
        rep = load_json(out)
        assert rep["ok"] is True and rep["stages"]["rationalize"]["size"] >= 1

    def test_needs_input(self):
        with pytest.raises(SystemExit) as exc:
            run(["pipeline"])
        assert exc.value.code == 2

    def test_in_and_demo_exclusive(self, tmp_path, capsys, cover10_instance):
        # the demo used to be audited and the file silently ignored
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as exc:
            run(["pipeline", "--in", cover10_instance, "--demo", "quad", "--out", out])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra,message", [
        ({"m": "5"}, "top-level m"),
        ({"provenance": [1, 2]}, "provenance"),
    ])
    def test_instance_fields_checked(self, tmp_path, capsys, extra, message):
        # both were echoed into the report
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"field": "integer", "elements": ["1", "2", "3"], **extra}))
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--in", path, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ap", [{}, [], "", 0, False])
    def test_falsy_claim_is_not_absent(self, tmp_path, capsys, ap):
        # only an absent or null claim lets the pipeline search
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"field": "integer", "elements": ["1", "2", "3"], "ap": ap}))
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--in", path, "--out", out]) == 2
        assert "descriptor" in capsys.readouterr().err
        assert not out.exists()

    def test_null_claim_is_absent(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"field": "integer", "elements": ["1", "2", "3"], "ap": None}))
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--in", path, "--out", out]) == 0
        assert load_json(out)["stages"]["ap"]["source"] == "search"

    def test_falsification_exits_4(self, tmp_path, capsys, monkeypatch):
        # C(k, t) taken as 0 for t >= 1 breaks the |c_t| bound: the report
        # is written, and the exit code and stderr say it falsifies
        monkeypatch.setattr(cyclelab, "comb", lambda k, t: int(t == 0))
        out = tmp_path / "rep.json"
        assert run(["pipeline", "--demo", "cover100", "--cycle-cap", 2, "--out", out]) == 4
        assert capsys.readouterr().err == "falsification report produced\n"
        rep = load_json(out)
        assert rep["ok"] is False
        assert [f["message"] for f in rep["falsifications"]] == ["cycle coefficient audit failed"]

    def test_cycle_cap_below_one(self, tmp_path, capsys):
        # an audit capped at no cycles would report all_pass on nothing
        out = tmp_path / "rep.json"
        for cap in (0, -3):
            assert run(["pipeline", "--demo", "quad", "--cycle-cap", cap, "--out", out]) == 2
            assert "cycle cap" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    # each subcommand's precondition on its input: exit 2 with its message
    PRECONDITIONS = {
        "find-ap on a quadratic file": (
            ["find-ap", "--in", "{quad}"],
            "longest-AP search needs ordered values; use a claim instead",
        ),
        "rationalize on an integer file": (
            ["rationalize", "--in", "{integer}"], "rationalize expects a quadratic instance",
        ),
        "reduce without a claim": (
            ["reduce", "--in", "{integer}"], "instance has no claimed progression to reduce",
        ),
        "cycles --audit without --ap": (
            ["cycles", "--graph", "{graph}", "--audit"],
            "--audit needs --ap with the reduced descriptor",
        ),
        "quadratic claim with d = 2": (
            ["pipeline", "--in", "{quad_d2}"],
            "quadratic pipeline expects a claim with D = 1 and d = 1",
        ),
        "no 3-term progression": (
            ["pipeline", "--in", "{pair}"], "no progression of length >= 3 found (best length 2)",
        ),
    }

    @pytest.mark.parametrize("case", list(PRECONDITIONS))
    def test_precondition_is_input_error(self, tmp_path, capsys, cover10_instance, case):
        quad = {"field": "quadratic", "m": "2",
                "elements": [{"a": "0", "b": "1/2"}, {"a": "0", "b": "2"}]}
        files = {
            "quad": {**quad, "ap": {"D": "1", "r": "2", "d": "1", "L": 5}},
            "quad_d2": {**quad, "ap": {"D": "1", "r": "2", "d": "2", "L": 5}},
            "integer": {"field": "integer", "elements": ["1", "2", "3"]},
            "pair": {"field": "integer", "elements": ["1", "2"]},
        }
        paths = {name: tmp_path / f"{name}.json" for name in [*files, "graph", "ap"]}
        for name, obj in files.items():
            paths[name].write_text(json.dumps(obj))
        # a graph with a cycle, so that cycles reaches its audit
        paths["ap"].write_text(json.dumps({"D": "1", "r": "1", "d": "1", "L": 23}))
        argv = ["graph", "--set", cover10_instance, "--ap", paths["ap"], "--out", paths["graph"]]
        assert run(argv) == 0
        argv, message = self.PRECONDITIONS[case]
        assert run([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["reduce", "--in", missing]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.json"
        assert run(["construct", "--n", 10, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_malformed_instance_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field": "integer"}))
        assert run(["find-ap", "--in", bad]) == 2

    def test_elements_not_a_list(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field": "integer", "elements": 5}))
        assert run(["pipeline", "--in", bad]) == 2

    # one file per site that decodes an integer, "@" marking the site; a JSON
    # float, boolean, overflowing number or NaN there is not an integer
    INTEGER_SITES = {
        "element": (
            ["pipeline", "--in", "{0}"], ['{"field": "integer", "elements": [1, 2, 3, @]}']
        ),
        "descriptor": (["convex-demo", "--ap", "{0}"], ['{"D": 1, "r": @, "d": 1, "L": 3}']),
        "edge": (
            ["irregular", "--graph", "{0}", "--ap", "{1}"],
            ['{"field": "integer", "m": null, "elements": ["1", "3"],'
             ' "edges": [{"u": 0, "v": 1, "index": @, "value": "3"}]}',
             '{"D": "1", "r": "3", "d": "1", "L": 3}'],
        ),
        "quadratic coordinate": (
            ["pipeline", "--in", "{0}"],
            ['{"field": "quadratic", "m": "2", "elements": [{"a": @, "b": "1"}]}'],
        ),
        "m": (
            ["pipeline", "--in", "{0}"],
            ['{"field": "quadratic", "m": @, "elements": [{"a": "1", "b": "1"}]}'],
        ),
    }

    @pytest.mark.parametrize("literal", ["1.5", "true", "1e400", "NaN"])
    @pytest.mark.parametrize("site", list(INTEGER_SITES))
    def test_json_non_integer_is_input_error(self, tmp_path, capsys, site, literal):
        argv, texts = self.INTEGER_SITES[site]
        paths = []
        for t, text in enumerate(texts):
            path = tmp_path / f"in{t}.json"
            path.write_text(text.replace("@", literal))
            paths.append(str(path))
        assert run([a.format(*paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: bad integer literal ") and err.count("\n") == 1

    # strings int() reads but the wire format does not: an underscore,
    # blanks, a plus sign, a non-ASCII digit, nothing at all
    @pytest.mark.parametrize("spelling", ["1_000", " +12 ", "+12", "٣", ""])
    @pytest.mark.parametrize("site", ["element", "descriptor"])
    def test_integer_string_outside_wire_format(self, tmp_path, capsys, site, spelling):
        path = tmp_path / "in.json"
        if site == "element":
            path.write_text(json.dumps({"field": "integer", "elements": ["1", "2", spelling]}))
            argv = ["pipeline", "--in", path]
        else:
            path.write_text(json.dumps({"D": "1", "r": spelling, "d": "1", "L": 3}))
            argv = ["convex-demo", "--ap", path]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"input error: bad integer literal {spelling!r}\n"

    @pytest.mark.parametrize("index, r", [(8, 1), (7, 1), (-1, 4)])
    def test_edge_index_outside_progression(self, tmp_path, capsys, index, r):
        # both edges carry their terms r + i, but index is not in [0, 7)
        graph = tmp_path / "g.json"
        ap = tmp_path / "ap.json"
        edges = [{"u": 0, "v": 1, "index": 2, "value": str(r + 2)},
                 {"u": 1, "v": 1, "index": index, "value": str(r + index)}]
        graph.write_text(json.dumps({"field": "integer", "m": None,
                                     "elements": ["1", "3", "9"], "edges": edges}))
        ap.write_text(json.dumps({"D": "1", "r": str(r), "d": "1", "L": 7}))
        assert run(["irregular", "--graph", graph, "--ap", ap]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: edge index {index} outside progression of length 7\n"

    def test_corrupted_graph_falsifies(self, tmp_path, capsys):
        # hand-crafted 4-cycle whose values cannot satisfy the alternating
        # product identity: the audit must exit 4 with a report
        graph = tmp_path / "g.json"
        ap = tmp_path / "ap.json"
        gdata = {
            "field": "integer",
            "m": None,
            "elements": ["2", "3", "5", "7"],
            "edges": [
                {"u": 0, "v": 0, "index": 0, "value": "2"},
                {"u": 1, "v": 0, "index": 1, "value": "3"},
                {"u": 1, "v": 1, "index": 2, "value": "4"},
                {"u": 0, "v": 1, "index": 3, "value": "5"},
            ],
        }
        graph.write_text(json.dumps(gdata))
        with open(ap, "w") as fh:
            fh.write(dumps_canonical({"D": "1", "r": "2", "d": "1", "L": 4}))
        assert run(["cycles", "--graph", graph, "--k", 2, "--audit", "--ap", ap]) == 4
        # same falsification payload as the pipeline's cycle audit
        report = json.loads(capsys.readouterr().err)
        assert report["falsification"] == "cycle identity failed"
        assert report["payload"] == {
            "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "indices": [0, 1, 2, 3],
        }

    # a representation graph is simple; each file breaks that in one way
    SQUARE_EDGES = [{"u": u, "v": v, "index": j, "value": str(x)}
                    for j, (u, v, x) in enumerate([(0, 2, 6), (0, 3, 7), (1, 2, 12), (1, 3, 14)])]

    @pytest.mark.parametrize("command", ["cycles", "irregular"])
    @pytest.mark.parametrize(
        "field, elements, extra, message",
        [
            # a genuine 4-cycle plus a second edge on the pair (0, 2)
            ("integer", ["1", "2", "6", "7"], {"u": 0, "v": 2, "index": 4, "value": "6"},
             "second edge on the vertex pair (u, v) = (0, 2)"),
            ("integer", ["1", "2", "6", "7"], {"u": 1, "v": 1, "index": 3, "value": "4"},
             "edge index 3 used twice"),
            ("rational", ["1", "3", "6/2", "7"], None, "element 3 appears twice"),
            ("integer", ["1", "2", "6", "7"], {"u": 0, "v": 4, "index": 4, "value": "7"},
             "edge endpoint out of range: (u, v) = (0, 4) on edge 4 of value 7"),
        ],
    )
    def test_non_simple_graph_is_input_error(
        self, tmp_path, capsys, command, field, elements, extra, message
    ):
        graph = tmp_path / "g.json"
        ap = tmp_path / "ap.json"
        edges = self.SQUARE_EDGES + ([extra] if extra else [])
        graph.write_text(json.dumps({"field": field, "m": None, "elements": elements,
                                     "edges": edges}))
        ap.write_text(dumps_canonical({"D": "1", "r": "6", "d": "1", "L": 9}))
        argv = [command, "--graph", graph, "--ap", ap] + (["--k", 2] if command == "cycles" else [])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {message}\n"

    # a graph file's header follows the instance file's rules: "elements"
    # is a list, never a string or object read as its characters or keys;
    # the tag is known even with no element to decode; a top-level m sits
    # on quadratic files and only there
    @pytest.mark.parametrize("command", ["cycles", "irregular"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ({"field": "integer", "elements": "1236"}, "'elements' must be a list"),
            ({"field": "integer", "elements": {"1": 0, "2": 0}}, "'elements' must be a list"),
            ({"field": "bogus", "elements": []}, "unknown field tag 'bogus'"),
            ({"field": "integer", "m": "5", "elements": ["1", "2"]},
             "integer file with a top-level m"),
            ({"field": "quadratic", "elements": [{"a": "0", "b": "1", "m": "2"},
                                                 {"a": "1", "b": "0", "m": "2"}]},
             "quadratic file without top-level m"),
        ],
    )
    def test_graph_header_checked(self, tmp_path, capsys, command, header, message):
        graph = tmp_path / "g.json"
        ap = tmp_path / "ap.json"
        graph.write_text(json.dumps({**header, "edges": []}))
        ap.write_text(dumps_canonical({"D": "1", "r": "1", "d": "1", "L": 3}))
        argv = [command, "--graph", graph, "--ap", ap] + (["--k", 2] if command == "cycles" else [])
        assert run(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    # a --ap file is a descriptor or a find-ap report wrapping one; the
    # top-level fields here are a valid descriptor, so a malformed wrapper
    # that counted as absent would let every command exit 0
    @pytest.mark.parametrize("wrapper", [{}, False], ids=["empty", "false"])
    @pytest.mark.parametrize("command", ["graph", "cycles", "irregular", "convex-demo"])
    def test_falsy_descriptor_wrapper_is_not_absent(
        self, tmp_path, capsys, cover10_instance, command, wrapper
    ):
        desc = {"D": "1", "r": "1", "d": "1", "L": 23}
        plain, ap, graph = (tmp_path / name for name in ("plain.json", "ap.json", "g.json"))
        plain.write_text(json.dumps(desc))
        ap.write_text(json.dumps({"descriptor": wrapper, **desc}))
        assert run(["graph", "--set", cover10_instance, "--ap", plain, "--out", graph]) == 0
        argv = {
            "graph": ["graph", "--set", cover10_instance, "--ap", ap],
            "cycles": ["cycles", "--graph", graph, "--k", 5, "--audit", "--ap", ap],
            "irregular": ["irregular", "--graph", graph, "--ap", ap],
            "convex-demo": ["convex-demo", "--ap", ap],
        }[command]
        assert run(argv) == 2
        message = "descriptor missing field 'D'" if wrapper == {} else "bad descriptor False"
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_descriptor_wrapper_from_find_ap(self, tmp_path, capsys, cover10_instance):
        # a report with a run is read through its wrapper; one without
        # ("descriptor": null) is read as a bare descriptor, which it is not
        inst, ap = tmp_path / "inst.json", tmp_path / "ap.json"
        assert run(["find-ap", "--in", cover10_instance, "--out", ap]) == 0
        assert run(["convex-demo", "--ap", ap]) == 0
        assert json.loads(capsys.readouterr().out)["expected_margin"] == "1"
        inst.write_text(json.dumps(RATIONAL_SETS["pair"]))
        assert run(["find-ap", "--in", inst, "--out", ap]) == 0
        assert run(["convex-demo", "--ap", ap]) == 2
        assert capsys.readouterr().err == "input error: descriptor missing field 'D'\n"

    @pytest.mark.parametrize("argv", [
        ["find-ap", "--in"], ["cycles", "--k", "4", "--graph"], ["convex-demo", "--ap"],
    ], ids=lambda argv: argv[0])
    def test_deeply_nested_json(self, tmp_path, capsys, argv):
        # past the decoder's depth limit json.load raises RecursionError,
        # which used to end in a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert run(argv + [path]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_find_ap_mode_flag_removed(self, cover10_instance):
        # one search path: --mode is an unknown argument
        with pytest.raises(SystemExit) as exc:
            run(["find-ap", "--in", cover10_instance, "--mode", "exact"])
        assert exc.value.code == 2


def console(*argv, memory_limit=None):
    """``python -m prodap.cli argv`` in a child process, as the console
    script runs it.  memory_limit, in bytes, caps the child's address space
    (RLIMIT_AS), and only the child's."""

    def limit_child():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    src = Path(prodap.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "prodap.cli", *map(str, argv)], cwd=src,
        capture_output=True, text=True, timeout=300,
        preexec_fn=None if memory_limit is None else limit_child,
    )


class TestConsoleRuns:
    """Whole runs of the command line in a child process."""

    def test_edge_order_changes_no_output(self, tmp_path, cover10_instance):
        ap, graph, reverse = (tmp_path / name for name in ("ap.json", "g.json", "rev.json"))
        ap.write_text(json.dumps({"D": "1", "r": "1", "d": "1", "L": 23}))
        assert console("graph", "--set", cover10_instance, "--ap", ap, "--out", graph).returncode == 0
        obj = json.loads(graph.read_text())
        obj["edges"].reverse()
        reverse.write_text(json.dumps(obj))
        outputs = []
        for path in (graph, reverse):
            runs = [
                console("irregular", "--graph", path, "--ap", ap),
                console("cycles", "--graph", path, "--k", 4, "--audit", "--ap", ap),
            ]
            assert [(p.returncode, p.stderr) for p in runs] == [(0, "")] * 2
            outputs.append([p.stdout for p in runs])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["cycle"] is not None

    def test_cover12_claim(self, tmp_path):
        # one audited 6-cycle, indices (8, 26, 20, 13, 21, 10), has c_1 = 0
        # and is handed to cycle_audit
        path = tmp_path / "cover12claim.json"
        res = prodap.cover_set(12)
        save_instance(path, InstanceFile("integer", list(res.elements), ap=APDescriptor(1, 1, 1, 29)))
        proc = console("pipeline", "--in", path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] and report["stages"]["cycles"]["audited"] == 47

    @pytest.mark.parametrize("cap, audited", [(None, 200), (1000, 4000)])
    def test_cover500_claim(self, tmp_path, cap, audited):
        # long runs of cycle walks whose heads share a prefix, at the
        # default cap and at 1000
        path = tmp_path / "cover500claim.json"
        save_instance(
            path, InstanceFile("integer", list(prodap.cover_set(500).elements),
                               ap=APDescriptor(1, 1, 1, 3107))
        )
        proc = console("pipeline", "--in", path, *(() if cap is None else ("--cycle-cap", cap)))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        cycles = report["stages"]["cycles"]
        assert report["ok"] and cycles["audited"] == audited
        assert all(row["stopped"] == "cap" for row in cycles["by_length"])

    def test_quadratic_graph_cycle_audit(self, tmp_path):
        # cycle_audit on QuadElem edge values: the square on terms 2, 3, 4
        # and 6 of the claim 2..6, and the claim r = 3 whose terms it does
        # not carry
        quad, graph, claim, other = (
            tmp_path / name for name in ("quad.json", "g.json", "ap.json", "ap3.json")
        )
        quad.write_text(json.dumps({
            "field": "quadratic", "m": "2",
            "elements": [{"a": "0", "b": b} for b in ("1/2", "2", "1", "3", "5")],
        }))
        claim.write_text(json.dumps({"D": "1", "r": "2", "d": "1", "L": 5}))
        other.write_text(json.dumps({"D": "1", "r": "3", "d": "1", "L": 5}))
        assert console("graph", "--set", quad, "--ap", claim, "--out", graph).returncode == 0
        proc = console("cycles", "--graph", graph, "--k", 2, "--audit", "--ap", claim)
        assert proc.returncode == 0, proc.stderr
        audit = json.loads(proc.stdout)["audit"]
        assert (audit["coefficients"], audit["l"], audit["m"]) == (["0", "-1", "2"], 1, 2)
        proc = console("cycles", "--graph", graph, "--k", 2, "--audit", "--ap", other)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "input error: edge 0 of the cycle does not carry term 0\n"

    def test_huge_cycle_cap_stops_on_steps(self):
        # closed walks count against the step budget, so a cap past any
        # count stops lengths 6-10 on the budget within 1 GiB
        proc = console(
            "pipeline", "--demo", "cover100", "--cycle-cap", 10**20, memory_limit=1 << 30
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["stages"]["cycles"]["by_length"]
        assert [(row["length"], row["stopped"]) for row in rows] == [
            (4, None), (6, "steps"), (8, "steps"), (10, "steps")
        ]


# ---------------------------------------------------------------------------
# fuzz: malformed and extreme instance, graph and descriptor files
# ---------------------------------------------------------------------------

# Python cannot print an int past its 4300-digit conversion limit, so "@BIG@"
# stands in for a bare 5001-digit JSON number and is spliced in as text
BIG = "1" + "0" * 5000

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# magnitudes up to 10**12 keep factorizations cheap; longer ones reach the
# digit limit or the sieve capacity
ints = st.one_of(
    st.integers(-20, 60),
    st.integers(-(10**12), 10**12),
    st.sampled_from([10**100 + 1, 10**3000 + 7]),
)
int_literals = ints | ints.map(str) | st.sampled_from([BIG, "@BIG@"])
rat_literals = st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-5, 9))
quad_elems = st.fixed_dictionaries(
    {"a": int_literals | rat_literals, "b": int_literals | rat_literals}
)
values = int_literals | rat_literals | quad_elems | junk
fields = st.sampled_from(["integer", "rational", "quadratic"]) | junk
m_values = st.sampled_from([None, "2", "-1", "3", "4", "1", "0", "15"]) | int_literals | junk
# lengths are small or past the cap: every subcommand materializes L terms
descriptors = junk | st.fixed_dictionaries(
    {
        "D": int_literals,
        "r": int_literals,
        "d": int_literals,
        "L": st.integers(-3, 40)
        | st.integers(MAX_DESCRIPTOR_TERMS + 1, 10**30)
        | st.sampled_from(["7", "x", "@BIG@", str(MAX_DESCRIPTOR_TERMS + 1)]),
    }
)
small_descriptors = st.fixed_dictionaries(
    {
        "D": st.integers(1, 6).map(str),
        "r": st.integers(1, 12).map(str),
        "d": st.integers(1, 6).map(str),
        "L": st.integers(3, 8),
    }
)
descriptors |= small_descriptors


@st.composite
def covered_instances(draw):
    """Well-formed integer instances whose claimed progression is covered
    (every term is 1 times an element), so the pipeline runs every stage."""
    ap = draw(small_descriptors)
    D, r, d, L = (int(ap[k]) for k in "DrdL")
    elements = draw(st.sets(st.integers(-30, 60).filter(bool), max_size=8))
    elements |= {1} | {D * (r + d * i) for i in range(L)}
    return {"field": "integer", "elements": [str(b) for b in sorted(elements)], "ap": ap}


@st.composite
def quad_cycle_instances(draw):
    """The quadratic demo shape, g*sqrt(m) and 2, 3, 5 over it, which
    carries [2..6] through a 4-cycle for most g."""
    m = draw(st.sampled_from([2, 3, -1]))
    b1 = QuadElem(Fraction(0), Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))), m)
    elements = {b1, 2 / b1, 2 * b1, 3 / b1, 5 / b1}
    return {
        "field": "quadratic",
        "m": str(m),
        "elements": [enc_quad(x) for x in elements],
        "ap": {"D": "1", "r": "2", "d": "1", "L": 5},
    }


small_quads = st.fixed_dictionaries(
    {
        "a": st.integers(-4, 4).map(str),
        "b": st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 3)),
    }
)
small_instances = st.one_of(
    covered_instances(),
    quad_cycle_instances(),
    st.fixed_dictionaries(
        {
            "field": st.sampled_from(["integer", "rational"]),
            "elements": st.lists(st.integers(-12, 40).map(str) | rat_literals, min_size=1,
                                 max_size=10, unique=True),
        },
        optional={"ap": small_descriptors},
    ),
    st.fixed_dictionaries(
        {
            "field": st.just("quadratic"),
            "m": st.sampled_from(["2", "3", "-1"]),
            "elements": st.lists(small_quads, min_size=1, max_size=6),
            "ap": small_descriptors | st.just({"D": "1", "r": "2", "d": "1", "L": 5}),
        }
    ),
)
instances = junk | small_instances | st.fixed_dictionaries(
    {"field": fields, "m": m_values, "elements": st.lists(values, max_size=8) | junk},
    optional={"ap": descriptors, "provenance": junk},
)
edges = st.fixed_dictionaries(
    {"u": int_literals, "v": int_literals, "index": int_literals, "value": values}
)
small_edges = st.fixed_dictionaries(
    {
        "u": st.integers(0, 4),
        "v": st.integers(0, 4),
        "index": st.integers(-1, 8),
        "value": st.integers(1, 40).map(str),
    }
)
graphs = junk | st.fixed_dictionaries(
    {
        "field": fields,
        "m": m_values,
        "elements": st.lists(values, max_size=6) | junk,
        "edges": st.lists(edges, max_size=6) | junk,
    }
) | st.fixed_dictionaries(
    {
        "field": st.just("integer"),
        "elements": st.lists(st.integers(1, 12).map(str), min_size=5, max_size=5, unique=True),
        "edges": st.lists(small_edges, max_size=8),
    }
)


def documents(objects):
    """JSON text of the drawn objects, and a few files that are not JSON or
    not UTF-8 at all."""
    text = objects.map(lambda obj: json.dumps(obj).replace('"@BIG@"', BIG))
    return text | st.sampled_from(["", "{", '{"D": 1', "\udcff\udcfe", "[1, 2"])


# (argv with {0}, {1} for the input files, file texts)
commands = st.one_of(
    st.tuples(st.sampled_from(["pipeline", "find-ap", "reduce", "rationalize"]),
              documents(instances)).map(lambda t: ([t[0], "--in", "{0}"], [t[1]])),
    st.tuples(documents(instances), documents(descriptors)).map(
        lambda t: (["graph", "--set", "{0}", "--ap", "{1}"], list(t))),
    (covered_instances() | quad_cycle_instances()).map(
        lambda inst: (["graph", "--set", "{0}", "--ap", "{1}"],
                      [json.dumps(inst), json.dumps(inst["ap"])])),
    st.tuples(documents(graphs), documents(descriptors), st.integers(-2, 6), st.booleans()).map(
        lambda t: (["cycles", "--graph", "{0}", "--ap", "{1}", "--k", str(t[2])]
                   + ["--audit"] * t[3], [t[0], t[1]])),
    st.tuples(documents(graphs), documents(descriptors)).map(
        lambda t: (["irregular", "--graph", "{0}", "--ap", "{1}"], list(t))),
    documents(descriptors).map(lambda d: (["convex-demo", "--ap", "{0}"], [d])),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands)
def test_fuzz_files_exit_cleanly(command):
    """Every file-driven subcommand ends in exit 0, 2, 3 or 4 on any input.

    The shared sieve's capacity is lowered to 10**6 for the run, so a large
    factorization the fuzz reaches ends in a capacity error (exit 3, one of
    the allowed codes) instead of a sieve of 10**8."""
    argv, docs = command
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(DEFAULT_TABLE, "capacity", 10**6)
        paths = []
        for t, text in enumerate(docs):
            path = Path(tmp) / f"in{t}.json"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            paths.append(str(path))
        argv = [a.format(*paths) for a in argv] + ["--out", str(Path(tmp) / "out")]
        assert main(argv) in (0, 2, 3, 4)
