"""Preprocessing, generators, the scaling study, and the audit pipeline."""

import hashlib
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap import apcore, cyclelab, harness, jsonio, prodset
from prodap.apcore import APDescriptor, reduce_ap
from prodap.errors import FalsificationError, InputError, RepresentationError
from prodap.harness import (
    InstanceFile,
    absolutize,
    concavity_demo,
    demo_instance_file,
    gen_smooth,
    instance_from_json,
    instance_to_json,
    integerize,
    pipeline,
    ratio_e9,
    run_trial,
    scaling_study,
    study_csv,
)
from prodap.construct import cover_set
from prodap.cyclelab import enumerate_even_cycles, find_even_cycle
from prodap.jsonio import dumps_canonical
from prodap.prodset import build_rep_graph


class TestAbsolutize:
    def test_examples(self):
        assert absolutize([-2, 3])[0] == [2, 3]
        assert absolutize([-2, 2])[0] == [2]
        assert absolutize([-1, -2, -3])[0] == [1, 2, 3]

    def test_shrink_factor_reported(self):
        _, factor = absolutize([1, 2])
        assert factor == 2

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            absolutize([0, 1])


class TestIntegerize:
    def test_examples(self):
        assert integerize([Fraction(1, 2), Fraction(3, 2)]) == ([1, 3], 2)
        assert integerize([1, 2]) == ([1, 2], 1)
        assert integerize([Fraction(2, 3), Fraction(1, 2)]) == ([4, 3], 6)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            integerize([Fraction(-1, 2)])

    @given(
        st.lists(
            st.fractions(min_value="1/20", max_value=50, max_denominator=20),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_scaling_preserves_ratios(self, B):
        ints, scale = integerize(B)
        assert all(Fraction(v) == scale * b for v, b in zip(ints, B))


class TestConcavity:
    def test_examples(self):
        rep = concavity_demo(APDescriptor(1, 1, 1, 4))
        assert rep.concave and rep.margins == (1, 1)
        rep = concavity_demo(APDescriptor(2, 3, 2, 3))
        assert rep.margins == (16,)

    @settings(max_examples=200)
    @given(
        st.integers(1, 50),
        st.integers(1, 10**4),
        st.integers(1, 10**4),
        st.integers(3, 40),
    )
    def test_margin_identity(self, D, r, d, L):
        desc = APDescriptor(D, r, d, L)
        rep = concavity_demo(desc)
        assert rep.concave
        assert all(m == D * D * d * d for m in rep.margins)


class TestGenerators:
    def test_smooth_prefix(self):
        assert gen_smooth(10) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]

    def test_trial_reproducible_in_isolation(self):
        records = scaling_study(["random"], [12], 3, 99)
        lone = run_trial("random", 12, 99, 1)
        matching = [r for r in records if r.trial == 1][0]
        assert (lone.set_size, lone.prodset_size, lone.ap_length) == (
            matching.set_size,
            matching.prodset_size,
            matching.ap_length,
        )

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            scaling_study(["fibonacci"], [5], 1, 0)


def strip_elapsed(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


class TestStudy:
    def test_csv_deterministic(self):
        a = study_csv(scaling_study(["cover", "random", "smooth"], [10, 15], 2, 7))
        b = study_csv(scaling_study(["cover", "random", "smooth"], [10, 15], 2, 7))
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_header_and_rows(self):
        text = study_csv(scaling_study(["smooth"], [10], 2, 0))
        lines = text.splitlines()
        assert lines[0] == (
            "generator,n,set_size,prodset_size,ap_length,status,"
            "ratio_len_over_nlogn,seed,trial,elapsed_ms"
        )
        assert len(lines) == 3
        assert all(line.split(",")[5] == "ok" for line in lines[1:])

    def test_skipped_trials_say_so(self):
        records = scaling_study(["random"], [20], 2, 0, ap_limit=5)
        assert all(r.skipped and r.status == "skipped" for r in records)
        rows = study_csv(records).splitlines()[1:]
        assert [row.split(",")[4:7] for row in rows] == [["0", "skipped", "0.000000000"]] * 2

    def test_ratio_is_floored_exactly(self):
        # 10**9 * 28 / (15 ln 15) = 689302829.6...: a float printed to 9
        # decimals rounds it up
        assert ratio_e9(28, 15) == 689_302_829
        assert ratio_e9(0, 15) == ratio_e9(5, 1) == 0
        for n in range(2, 200):
            for length in (1, 3, 28, 10**6):
                r = ratio_e9(length, n)
                q = 10**9 * length / (n * log(n))
                # the float is off by far less than 10**-4 here
                assert q - 1 - 1e-4 < r <= q + 1e-4
                if 1e-4 < q % 1 < 1 - 1e-4:
                    assert r == int(q)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one(self, limit, monkeypatch):
        # rejected before the first trial, not reported as skipped rows
        monkeypatch.setattr(harness, "run_trial", None)
        with pytest.raises(InputError, match="limit must be positive"):
            scaling_study(["random"], [10], 2, 0, ap_limit=limit)

    def test_cover_lengths_meet_floor(self):
        from prodap.construct import floor_n_log_n

        for rec in scaling_study(["cover"], [10, 20, 50], 1, 0):
            assert rec.ap_length >= floor_n_log_n(rec.n)


class TestInstanceIO:
    def test_roundtrip_integer(self):
        inst = InstanceFile("integer", [1, 2, 3], ap=APDescriptor(1, 1, 1, 3))
        again = instance_from_json(instance_to_json(inst))
        assert again.elements == [1, 2, 3]
        assert again.ap == inst.ap

    def test_roundtrip_quadratic(self):
        inst = demo_instance_file("quad", seed=3)
        again = instance_from_json(instance_to_json(inst))
        assert again.elements == inst.elements
        assert again.m == 2

    def test_duplicate_elements_rejected(self):
        with pytest.raises(InputError):
            instance_from_json({"field": "integer", "elements": ["2", "2"]})

    def test_unknown_field(self):
        with pytest.raises(InputError):
            instance_from_json({"field": "octonion", "elements": []})

    @pytest.mark.parametrize("tag", ["integer", "rational"])
    def test_top_level_m_only_on_quadratic(self, tag):
        with pytest.raises(InputError, match="top-level m"):
            instance_from_json({"field": tag, "m": "5", "elements": ["2", "3"]})
        assert instance_from_json({"field": tag, "m": None, "elements": ["2", "3"]}).m is None

    @pytest.mark.parametrize("provenance", [[1, 2], "cover", 7, [], False])
    def test_provenance_must_be_an_object(self, provenance):
        obj = {"field": "integer", "elements": ["2", "3"], "provenance": provenance}
        with pytest.raises(InputError, match="provenance"):
            instance_from_json(obj)

    def test_missing_or_null_provenance_is_empty(self):
        for extra in ({}, {"provenance": None}):
            inst = instance_from_json({"field": "integer", "elements": ["2"], **extra})
            assert inst.provenance == {}


class TestPipeline:
    def test_cover100_green(self):
        report = pipeline(demo_instance_file("cover100"))
        assert report["ok"] is True
        assert report["falsifications"] == []
        stages = report["stages"]
        assert stages["reduction"]["descriptor"] == {"D": "1", "r": "1", "d": "1", "L": 460}
        assert stages["gcd_bound"]["ok"] is True
        assert stages["cycles"]["all_pass"] is True
        assert stages["irregular"]["forest"] is True
        assert stages["concavity"]["margin"] == "1"

    @pytest.mark.parametrize("kind,seed", [("cover100", 0), ("noclaim", 24)])
    def test_makes_no_edge_objects(self, kind, seed, monkeypatch):
        # the graph is built and read as columns, and the irregularity
        # report names edges by index: a run makes no Edge at all, even
        # with irregular edges marked
        made = []
        init = prodset.Edge.__init__

        def spy(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(prodset.Edge, "__init__", spy)
        report = pipeline(self.golden_instance(kind, seed))
        assert report["ok"] is True
        assert report["stages"]["irregular"]["irregular_edges"] > 0
        assert made == []

    @pytest.mark.parametrize("kind", ["cover12", "noclaim", "k1"])
    def test_each_term_is_scanned_once(self, kind, monkeypatch):
        # the graph takes its pairs from the reduction's last coverage
        # check, so the op's only factor-pair scans are the checks' own,
        # each over the terms outside its set's first column
        if kind == "cover12":
            inst = InstanceFile("integer", list(cover_set(12).elements), ap=APDescriptor(1, 1, 1, 29))
        elif kind == "noclaim":
            inst = self.golden_instance("noclaim", 24)
        else:
            elements = [1, 2, 3, 5, 6, 7, 9, 11, 13, 15, 17, 19]
            inst = InstanceFile("integer", elements, ap=APDescriptor(1, 2, 4, 11))
        scans, real = [], apcore.first_pairs
        monkeypatch.setattr(apcore, "first_pairs", lambda A, base: scans.append(A) or real(A, base))
        report = pipeline(inst)
        monkeypatch.undo()
        assert report["ok"] is True
        B = inst.elements
        if inst.ap is None:
            A = prodset.longest_ap(prodset.product_set(B)).descriptor().terms()
        else:
            A = inst.ap.terms()
        checks = [(A, B)] + [
            (s.result_desc.terms(), s.result_set)
            for s in reduce_ap(A, B)[2].steps
            if s.case != "extract-gcd"
        ]
        outside = [[a for a in terms if a not in {min(S) * b for b in S}] for terms, S in checks]
        assert scans == [terms for terms in outside if terms]
        assert len(checks) == (2 if kind == "k1" else 1) and outside[-1]

    def test_cycles_stage_reports_each_length(self):
        cycles = pipeline(demo_instance_file("cover100"))["stages"]["cycles"]
        assert cycles["cap"] == harness.DEFAULT_CYCLE_CAP == 50
        assert cycles["by_length"] == [
            {"length": length, "audited": 50, "complete": False, "stopped": "cap"}
            for length in (4, 6, 8, 10)
        ]
        assert cycles["audited"] == 200

    def test_complete_lengths_audit_every_cycle(self):
        res = cover_set(10)
        inst = InstanceFile("integer", list(res.elements), ap=APDescriptor(1, 1, 1, res.M))
        graph = build_rep_graph(list(res.elements), list(range(1, res.M + 1)))
        every = enumerate_even_cycles(graph, 5)
        for cap in (16, 17, 100):
            rows = pipeline(inst, cycle_cap=cap)["stages"]["cycles"]["by_length"]
            for row in rows:
                total = sum(len(c.vertices) == row["length"] for c in every)
                assert row["audited"] == min(total, cap)
                assert row["complete"] == (total <= cap)
                assert row["stopped"] == (None if total <= cap else "cap")

    def test_cycle_audit_failure_is_reported(self, monkeypatch):
        # C(k, t) taken as 0 for t >= 1 breaks only the |c_t| bound; the
        # report carries cycle_audit's falsification for the first cycle
        monkeypatch.setattr(cyclelab, "comb", lambda k, t: int(t == 0))
        inst = demo_instance_file("cover100")
        report = pipeline(inst, cycle_cap=2)
        assert report["ok"] is False and "cycles" not in report["stages"]
        A = inst.ap.terms()
        first = enumerate_even_cycles(build_rep_graph(inst.elements, A), 2, 1)[0]
        with pytest.raises(FalsificationError) as exc:
            cyclelab.cycle_audit(first, A, inst.ap)
        assert report["falsifications"] == [
            {"message": str(exc.value), "payload": exc.value.payload}
        ]

    @pytest.mark.parametrize("budget", [1, 20])
    def test_step_budget_is_reported(self, budget, monkeypatch):
        full = pipeline(demo_instance_file("cover100"))["stages"]["cycles"]
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", budget)
        report = pipeline(demo_instance_file("cover100"))
        cycles = report["stages"]["cycles"]
        assert [row["stopped"] for row in cycles["by_length"]] == ["steps"] * 4
        assert not any(row["complete"] for row in cycles["by_length"])
        # with budget 1 no cycle is walked, and the BFS still finds the shortest
        assert (cycles["audited"] == 0) == (budget == 1)
        assert cycles["shortest"] == full["shortest"]
        assert report["ok"] is True

    @pytest.mark.parametrize("n", [10, 14, 21, 33])
    @pytest.mark.parametrize("claim", [True, False])
    def test_shortest_is_the_bfs_cycle(self, n, claim):
        res = cover_set(n)
        inst = InstanceFile(
            "integer", list(res.elements), ap=APDescriptor(1, 1, 1, res.M) if claim else None
        )
        report = pipeline(inst)
        desc = jsonio.descriptor_from_json(report["stages"]["reduction"]["descriptor"])
        graph = build_rep_graph(list(res.elements), desc.terms())
        assert report["stages"]["cycles"]["shortest"] == find_even_cycle(graph, 5).as_json()

    def test_quad_demo_green(self):
        report = pipeline(demo_instance_file("quad", seed=1))
        assert report["ok"] is True
        assert report["stages"]["four_cycle_r"]["rotations_agree"] is True
        assert report["stages"]["rationalize"]["size"] >= 1

    def test_byte_stability(self):
        a = dumps_canonical(pipeline(demo_instance_file("quad", seed=5)))
        b = dumps_canonical(pipeline(demo_instance_file("quad", seed=5)))
        assert a == b

    # sha256 of the canonical reports; a change that alters report bytes on
    # purpose updates these and records why
    GOLDEN = {
        ("cover100", 0): "7641c347aed1e5889e55e2d8c6b405d0a37f9f6be6c2331f7b071ea719746241",
        ("quad", 0): "4fcaf1076bd84e2c8001f5f49977353ae53543adc2a40b731cfbe702ee7c5b1b",
        ("quad", 1): "3490ed8f3b2dd6bfd43f3fc2a0458c98afff76bcd931fa9ca378d24381661a1f",
        ("quad", 2): "336c89618f9834045536ec628277817ab54d2f18c88bc5cf81b98853fa48b2f8",
        ("quad", 3): "a2acc4396988bf7f7c1c5f33484d19d0d6e01b38c82b63636c3a6683a6a0ba5d",
        ("quad", 4): "a01b802eee9720dfaedbcd18f2c56d0edb73ba76304278d0a40822b9a660eb2e",
        # a cover set with no claim, n = 24: the progression comes from search
        ("noclaim", 24): "a7f505ad1a68678a784473e233a12a427128397048598bfdd9a7c0578d0c601c",
        # (kind, seed, cycle cap) for caps below the default
        ("cover100", 0, 1): "9f7fe6f2db8eb515f3cc7e365972afcb85299d0d30d2c440cd6f5ad086ea5be3",
        ("cover100", 0, 2): "6af9631619e3c96aa8d1e45c3d1cad06fdd495c18061bbedce020563f073d3f9",
        ("cover100", 0, 3): "5e353516d1ae996bca0ed9103a85ef4bb3a63488a92a06c3b53838f15d9a2e9c",
    }

    @staticmethod
    def golden_instance(kind, seed):
        if kind == "noclaim":
            elements = list(cover_set(seed).elements)
            return InstanceFile("integer", elements, provenance={"generator": "cover", "n": seed})
        return demo_instance_file(kind, seed)

    @pytest.mark.parametrize("kind,seed", sorted(k for k in GOLDEN if len(k) == 2))
    def test_golden_report_digest(self, kind, seed):
        text = dumps_canonical(pipeline(self.golden_instance(kind, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[(kind, seed)]

    @pytest.mark.parametrize("kind,seed,cap", sorted(k for k in GOLDEN if len(k) == 3))
    def test_golden_report_digest_at_cap(self, kind, seed, cap):
        text = dumps_canonical(pipeline(self.golden_instance(kind, seed), cap))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[(kind, seed, cap)]

    def test_benchmark_mix_digest(self):
        # sha256 of the 410 canonical reports, one after another, of the
        # pipeline benchmark's instance mix: unclaimed cover sets for n =
        # 12..40, claimed [1, M] for n = 40..100, and the quadratic 4-cycle
        # instances of seeds 0..63 over m = 2, 3, 5, 6, 7
        instances = [InstanceFile("integer", list(cover_set(n).elements)) for n in range(12, 41)]
        for n in range(40, 101):
            res = cover_set(n)
            instances.append(
                InstanceFile("integer", list(res.elements), ap=APDescriptor(1, 1, 1, res.M))
            )
        for seed in range(64):
            for m in (2, 3, 5, 6, 7):
                elements = list(harness.random_quad_cycle_instance(seed, m).elements)
                instances.append(
                    InstanceFile("quadratic", elements, m=m, ap=APDescriptor(1, 2, 1, 5))
                )
        digest = hashlib.sha256()
        for inst in instances:
            digest.update(dumps_canonical(pipeline(inst)).encode())
        assert digest.hexdigest() == (
            "0d3a355fc843fed0dc3ddc13c62ea12b60fe5676fea70054d68d227e49b65132"
        )

    def test_fabricated_claim_fails_loudly(self):
        inst = InstanceFile("integer", [2, 3, 5], ap=APDescriptor(1, 5, 1, 3))
        with pytest.raises(RepresentationError):
            pipeline(inst)  # 7 is not a product of set elements

    def test_search_when_no_claim(self):
        inst = InstanceFile("integer", [1, 2, 3, 4])
        report = pipeline(inst)
        assert report["ok"] is True
        assert report["stages"]["ap"]["source"] == "search"
        assert report["stages"]["ap"]["descriptor"]["L"] == 4

    def test_rational_instance(self):
        inst = InstanceFile(
            "rational",
            [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)],
            ap=None,
        )
        report = pipeline(inst)
        assert report["ok"] is True
        assert report["stages"]["integerize"]["scale"] == "2"


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert dumps_canonical({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}\n'


class TestWireFormats:
    def test_rational_encoding(self):
        from prodap.jsonio import dec_rat, enc_rat

        assert enc_rat(Fraction(3, 2)) == "3/2"
        assert enc_rat(Fraction(-4, 2)) == "-2"
        assert dec_rat("3/2") == Fraction(3, 2)
        assert dec_rat("-7") == Fraction(-7)
        with pytest.raises(InputError):
            dec_rat("x/y")

    def test_big_integer_strings(self):
        from prodap.jsonio import dec_int, enc_int

        n = 123456789012345678901
        assert enc_int(n) == "123456789012345678901"
        assert dec_int(enc_int(n)) == n

    def test_quad_encoding(self):
        from prodap.exactnum import QuadElem
        from prodap.jsonio import dec_quad, enc_quad

        q = QuadElem(Fraction(3, 2), Fraction(-1), 2)
        assert enc_quad(q) == {"a": "3/2", "b": "-1"}
        assert dec_quad(enc_quad(q), m=2) == q
        assert dec_quad({"a": "3/2", "b": "-1", "m": "2"}) == q
        assert dec_quad({"a": "3/2", "b": "-1"}, m=2) == q
        with pytest.raises(InputError):
            dec_quad({"a": "1", "b": "0", "m": "3"}, m=2)
        with pytest.raises(InputError):
            dec_quad({"a": "1", "b": "0"})
