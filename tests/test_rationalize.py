"""4-cycle start extraction, component rationalization, and the C4 audit."""

from fractions import Fraction

import pytest

from prodap.apcore import first_pairs
from prodap.cyclelab import find_even_cycle
from prodap.errors import (
    DomainError,
    FalsificationError,
    InputError,
)
from prodap.exactnum import QuadElem
from prodap.harness import quadratic_demo_instance, random_quad_cycle_instance
from prodap.prodset import Edge, product_set
from prodap.rationalize import (
    c4_extremal_threshold,
    four_cycle_exists_audit,
    four_cycle_r,
    four_cycle_r_rotations,
    make_quad_instance,
    rationalize_components,
)

from instances import graph_from_edges, random_quad_chain_instance


def rt2(b):
    return QuadElem(0, Fraction(b), 2)


def _irrational_component(inst):
    # one edge from 10**5000 * sqrt2 to 1: the rescaled 1 is irrational
    inst.graph = graph_from_edges((rt2(10**5000), QuadElem(1, 0, 2)), (Edge(0, 1, 0, 1),))


class TestFourCycleR:
    def test_demo_matches_hand_value(self):
        inst = quadratic_demo_instance(2)
        cyc = find_even_cycle(inst.graph, 2)
        # edges with values 2 (index 0) and 4 (index 2): q = 1/2, r = 2
        r = four_cycle_r(cyc, 0, 2)
        assert r == 2

    def test_rotations_agree(self):
        for m in (2, -1):
            inst = random_quad_cycle_instance(5, m)
            cyc = find_even_cycle(inst.graph, 2)
            starts = four_cycle_r_rotations(cyc)
            assert len(set(starts)) == 1
            assert starts[0] == inst.targets[0]

    def test_shifted_indices_stay_consistent(self):
        # adding a constant to all indices shifts the recovered start by it
        inst = quadratic_demo_instance(2)
        cyc = find_even_cycle(inst.graph, 2)
        shifted = ReindexedCycle(cyc, lambda j: j + 10)
        assert four_cycle_r(shifted, 10, 12) == -8

    def test_consistency_check_rejects_dilated(self):
        # doubling the index spacing breaks value = start + index
        inst = quadratic_demo_instance(2)
        cyc = find_even_cycle(inst.graph, 2)
        dilated = ReindexedCycle(cyc, lambda j: 2 * j)
        with pytest.raises(InputError):
            four_cycle_r(dilated, 0, 4)

    def test_non_adjacent_rejected(self):
        inst = quadratic_demo_instance(2)
        cyc = find_even_cycle(inst.graph, 2)
        with pytest.raises(InputError):
            four_cycle_r(cyc, cyc.indices[0], cyc.indices[0])
        with pytest.raises(InputError):
            four_cycle_r(cyc, cyc.indices[0], cyc.indices[2])


def ReindexedCycle(cyc, f):
    """The same cycle with every progression index remapped through f."""
    from prodap.cyclelab import EvenCycle

    return EvenCycle(cyc.vertices, tuple(f(j) for j in cyc.indices), cyc.values)


class TestRationalize:
    def test_three_surds_example(self):
        # sqrt2, 2*sqrt2, (3/2)*sqrt2 with targets 3, 4, 6; pivot sqrt2.
        # Scaled whites contribute 1 and 3/2, blacks 3 and 4; copies that
        # carry no edge become 1.  The edge for 4 = sqrt2 * 2sqrt2 turns
        # into 1 * 4.
        inst = make_quad_instance(
            [rt2(1), rt2(2), rt2(Fraction(3, 2))], [3, 4, 6], 2
        )
        out = rationalize_components(inst)
        assert out == [Fraction(1), Fraction(3, 2), Fraction(3), Fraction(4)]
        ps = product_set(out)
        for t in (3, 4, 6):
            assert Fraction(t) in ps
        assert first_pairs([Fraction(4)], out) == [(Fraction(1), Fraction(4))]

    def test_all_rational_passthrough(self):
        inst = make_quad_instance(
            [QuadElem(2, 0, 2), QuadElem(3, 0, 2)], [Fraction(6)], 2
        )
        out = rationalize_components(inst)
        assert all(isinstance(x, Fraction) for x in out)
        assert Fraction(6) in product_set(out)

    def test_two_components_independent(self):
        # component 1 covers 4, component 2 covers 70
        inst = make_quad_instance(
            [rt2(1), rt2(2), rt2(5), rt2(7)], [Fraction(4), Fraction(70)], 2
        )
        out = rationalize_components(inst)
        ps = product_set(out)
        assert Fraction(4) in ps and Fraction(70) in ps

    def test_chain_instances(self):
        for m in (2, -1):
            for seed in range(5):
                inst = random_quad_chain_instance(seed, m)
                out = rationalize_components(inst)
                ps = product_set(out)
                for t in inst.targets:
                    assert t in ps

    def test_negative_field_instances(self):
        inst = random_quad_cycle_instance(3, -1)
        out = rationalize_components(inst)
        ps = product_set(out)
        for t in inst.targets:
            assert t in ps

    def test_irrational_target_rejected(self):
        with pytest.raises(DomainError):
            make_quad_instance([rt2(1), rt2(2)], [QuadElem(0, 1, 2)], 2)

    def test_irrational_target_past_digit_limit(self):
        # the target's 5001-digit coordinate is named by its bit length
        big = QuadElem(10**5000, 1, 2)
        with pytest.raises(DomainError, match=r"^target <16610-bit integer> \+ 1\*sqrt\(2\) "):
            make_quad_instance([rt2(1), rt2(2)], [big], 2)

    def test_foreign_element_past_digit_limit(self):
        big = QuadElem(10**5000, 1, 3)
        with pytest.raises(InputError, match=r"^element <16610-bit integer> \+ 1\*sqrt\(3\) "):
            make_quad_instance([rt2(1), big], [Fraction(2)], 2)

    @pytest.mark.parametrize("tamper, key", [
        (_irrational_component, "pivot"),
        (lambda inst: inst.targets.__setitem__(0, inst.targets[0] + 1), "expected"),
        (lambda inst: inst.targets.append(Fraction(7 * 10**5000)), "target"),
    ])
    def test_falsification_past_digit_limit(self, tamper, key):
        # a falsification about a 5001-digit value stays a falsification
        inst = make_quad_instance([QuadElem(10**5000, 0, 2), QuadElem(3, 0, 2)], [3 * 10**5000], 2)
        tamper(inst)
        with pytest.raises(FalsificationError) as exc:
            rationalize_components(inst)
        assert "-bit integer>" in exc.value.payload[key]


class TestC4Audit:
    def k33(self):
        elements = tuple(range(2, 8))
        edges = tuple(
            Edge(u, v, i, 0)
            for i, (u, v) in enumerate((u, v) for u in range(3) for v in range(3, 6))
        )
        return graph_from_edges(elements, edges)

    def test_threshold_values(self):
        assert c4_extremal_threshold(6) == 9
        assert c4_extremal_threshold(8) == 13

    def test_k33_at_threshold(self):
        report = four_cycle_exists_audit(self.k33())
        assert report.n == 6 and report.edges == 9 and report.threshold == 9
        assert not report.exceeded  # strict inequality
        assert report.cycle is not None  # a 4-cycle exists regardless

    def test_k44_exceeds_and_finds(self):
        elements = tuple(range(2, 10))
        edges = tuple(
            Edge(u, v, i, 0)
            for i, (u, v) in enumerate((u, v) for u in range(4) for v in range(4, 8))
        )
        report = four_cycle_exists_audit(graph_from_edges(elements, edges))
        assert report.exceeded and report.cycle is not None

    def test_star_below_threshold(self):
        elements = (2, 3, 5, 7)
        edges = tuple(Edge(0, v, i, 0) for i, v in enumerate(range(4)))
        report = four_cycle_exists_audit(graph_from_edges(elements, edges))
        assert report.cycle is None and not report.exceeded
