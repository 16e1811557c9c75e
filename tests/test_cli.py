"""Subcommand round-trips and exit codes (0 ok, 2 input, 3 capacity, 4
falsification)."""

import json
from math import gcd

import pytest

from prodap.cli import main
from prodap.harness import demo_instance_file, save_instance
from prodap.jsonio import dumps_canonical, load_json


@pytest.fixture
def cover10_instance(tmp_path):
    from prodap.apcore import APDescriptor
    from prodap.construct import cover_set
    from prodap.harness import InstanceFile

    path = tmp_path / "cover10.json"
    res = cover_set(10)
    small = InstanceFile("integer", list(res.elements), ap=APDescriptor(1, 1, 1, res.M))
    save_instance(path, small)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestConstruct:
    def test_verify_writes_witnesses(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["construct", "--n", 10, "--verify", "--out", out]) == 0
        data = load_json(out)
        assert data["M"] == "23" and data["log"] == "natural"
        assert len(data["witnesses"]) == 23
        assert data["witnesses"]["21"] == ["3", "7"]

    def test_capacity_exit_code(self, tmp_path):
        assert run(["construct", "--n", 50, "--capacity", 60]) == 3


class TestFindApAndGraph:
    def test_find_ap_modes_agree(self, tmp_path, cover10_instance):
        out_e = tmp_path / "e.json"
        out_o = tmp_path / "o.json"
        assert run(["find-ap", "--in", cover10_instance, "--mode", "exact", "--out", out_e]) == 0
        assert run(["find-ap", "--in", cover10_instance, "--mode", "oracle", "--out", out_o]) == 0
        assert load_json(out_e)["length"] == load_json(out_o)["length"] == 28

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


class TestReduce:
    def test_reduce_instance(self, tmp_path):
        from prodap.apcore import APDescriptor
        from prodap.harness import InstanceFile

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
        from prodap.harness import InstanceFile

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

    def test_malformed_literals_stay_input_errors(self, tmp_path):
        for text in ['{"D": "1", "r": "1x", "d": "1", "L": 3}',
                     '{"D": "1", "r": "1", "d": "1", "L": "three"}',
                     '{"D": "1", "r": ']:
            ap = tmp_path / "ap.json"
            ap.write_text(text)
            assert run(["convex-demo", "--ap", ap]) == 2


class TestStudyCmd:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "study.csv"
        assert run(
            ["study", "--generators", "smooth", "--sizes", "8,12", "--trials", 2,
             "--seed", 5, "--out", out]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("generator,n,set_size")


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
        assert run(["pipeline"]) == 2


class TestExitCodes:
    def test_malformed_instance_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field": "integer"}))
        assert run(["find-ap", "--in", bad]) == 2

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
