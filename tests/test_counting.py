import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from conftest import SAMPLES
from pinrig.counting import (LinkageSchema, circuit_oracle, grubler_dof,
                             laman_independent_oracle, pinned_conditions_oracle,
                             remove_drivers)
from pinrig.errors import GraphError, SizeLimitError
from pinrig.fileio import load_linkage
from pinrig.graphs import Multigraph, PinnedGraph, complete_graph
from pinrig.pebble import fundamental_circuit, pebble_rank


@pytest.fixture
def excavator():
    return load_linkage(SAMPLES / "excavator.json")


class TestGrubler:
    def test_excavator_mobility(self, excavator):
        rep = grubler_dof(excavator)
        assert rep.dof == 2
        assert rep.link_count == 9
        assert rep.constraint_sum == 11
        assert rep.overbraced is False

    def test_excavator_after_driver_removal(self, excavator):
        reduced = remove_drivers(excavator)
        rep = grubler_dof(reduced)
        assert rep.link_count == 7
        assert rep.constraint_sum == 9
        assert rep.dof == 0

    def test_two_links_one_joint(self):
        s = LinkageSchema(links={"g", "a"}, joints=[{"g", "a"}], ground="g")
        assert grubler_dof(s).dof == 1

    def test_report_formula_holds_exactly(self, excavator):
        rep = grubler_dof(excavator)
        assert rep.dof == 3 * (rep.link_count - 1) - 2 * rep.constraint_sum

    def test_negative_count_not_clamped(self):
        # K4 made of six bars: one internal state too many
        k4_bars = support.bar_schema_from_graph(complete_graph(4))
        rep = grubler_dof(k4_bars)
        assert rep.dof == -1
        assert rep.overbraced is True

    def test_overbraced_subcollection_flagged(self):
        schema = load_linkage(SAMPLES / "overbraced_linkage.json")
        rep = grubler_dof(schema)
        assert rep.dof == 1
        assert rep.overbraced is True
        assert set(rep.overbraced_witness) == {"b1", "b2", "b3", "b4", "b5", "b6"}

    def test_overbrace_game_agrees_with_the_subset_scan(self):
        # a seeded slice of the cross-check against the 2^L scan
        rng = random.Random(2024)
        tally = Counter()
        for _ in range(400):
            schema = support.random_linkage(rng)
            rep = grubler_dof(schema)
            over, smallest = support.overbraced_oracle(schema)
            assert rep.overbraced is over
            if over:
                w = frozenset(rep.overbraced_witness)
                assert 3 * (len(w) - 1) < 2 * support.subset_joint_sum(schema.joints, w)
                assert len(w) >= len(smallest)
            else:
                assert rep.overbraced_witness is None
            tally[over] += 1
        assert tally[True] >= 100 and tally[False] >= 100

    def test_caveat_on_a_999_link_bar_linkage(self):
        g = support.henneberg_graph(random.Random(1), 501)
        assert grubler_dof(support.bar_schema_from_graph(g)).overbraced is False
        schema = support.bar_schema_from_graph(
            Multigraph(g.vertices, g.edges + ((0, 500),)))
        rep = grubler_dof(schema)
        assert rep.link_count == 1000 and rep.overbraced is True
        w = frozenset(rep.overbraced_witness)
        assert 3 * (len(w) - 1) < 2 * support.subset_joint_sum(schema.joints, w)

    def test_joint_needs_two_links(self):
        with pytest.raises(GraphError):
            LinkageSchema(links={"g", "a"}, joints=[{"g"}], ground="g")

    def test_ground_must_exist(self):
        with pytest.raises(GraphError):
            LinkageSchema(links={"a"}, joints=[], ground="g")


class TestRemoveDrivers:
    def test_no_drivers_is_identity(self, excavator):
        bare = LinkageSchema(links=excavator.links, joints=excavator.joints,
                             ground=excavator.ground)
        assert remove_drivers(bare) == bare

    def test_driver_to_ground_grounds_the_link(self):
        s = LinkageSchema(links={"g", "d", "a"},
                          joints=[{"g", "d"}, {"d", "a"}],
                          ground="g", drivers={"d"})
        before = grubler_dof(s).dof
        after_schema = remove_drivers(s)
        assert frozenset({"g", "a"}) in after_schema.joints
        assert grubler_dof(after_schema).dof == before - 1

    def test_driver_with_three_joints_rejected(self):
        s = LinkageSchema(links={"g", "d", "a", "b"},
                          joints=[{"g", "d"}, {"d", "a"}, {"d", "b"}],
                          ground="g", drivers={"d"})
        with pytest.raises(GraphError):
            remove_drivers(s)

    def test_result_has_no_drivers(self, excavator):
        assert not remove_drivers(excavator).drivers


class TestBarJointDof:
    def test_small_counts(self):
        triangle = Multigraph(edges=[(0, 1), (1, 2), (0, 2)])
        square = Multigraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert grubler_dof(support.bar_schema_from_graph(triangle)).dof == 0
        assert grubler_dof(support.bar_schema_from_graph(complete_graph(4))).dof == -1
        assert grubler_dof(support.bar_schema_from_graph(square)).dof == 1

    def test_empty_graph_rejected(self):
        # a linkage without links has no ground to count against
        with pytest.raises(GraphError):
            LinkageSchema(links=frozenset(), joints=(), ground="e0")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0))
    def test_matches_grubler_on_binary_bar_schemas(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        g = support.random_multigraph(rng, n, rng.randint(n, 2 * n),
                                      allow_parallel=True)
        if any(g.degree(v) < 2 for v in g.vertices):
            return
        schema = support.bar_schema_from_graph(g)
        assert grubler_dof(schema).dof == 2 * g.n - 3 - g.m


class TestLamanOracle:
    def test_single_edge_independent(self):
        assert laman_independent_oracle(Multigraph(edges=[(0, 1)]))

    def test_k4_dependent(self):
        assert not laman_independent_oracle(complete_graph(4))

    def test_doubled_edge_dependent(self):
        assert not laman_independent_oracle(support.doubled_edge())

    def test_violation_witness(self):
        # the fundamental circuit of a rejected edge is a smallest violating
        # subset: all of K4, with 6 > 2 * 4 - 3 edges
        k4 = complete_graph(4)
        rep = pebble_rank(k4)
        w = fundamental_circuit(k4, rep, rep.rejected[0])
        assert w.n == 4 and w.m > 2 * w.n - 3
        assert not laman_independent_oracle(w)
        assert not pebble_rank(Multigraph(edges=[(0, 1)])).rejected

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            laman_independent_oracle(complete_graph(13))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0))
    def test_agrees_with_pebble_game(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = support.random_multigraph(rng, n, rng.randint(0, 2 * n + 2),
                                      allow_parallel=True)
        assert laman_independent_oracle(g) == (not pebble_rank(g).rejected)


class TestCircuitOracle:
    def test_k4_is_circuit(self):
        assert circuit_oracle(complete_graph(4))

    def test_doubled_edge_is_circuit(self):
        assert circuit_oracle(support.doubled_edge())

    def test_bowtie_is_not(self):
        bowtie = Multigraph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert not circuit_oracle(bowtie)

    def test_k4_plus_pendant_is_not(self):
        g = complete_graph(4).with_edge(3, 4)
        assert not circuit_oracle(g)

    def test_wheel_is_circuit(self):
        assert circuit_oracle(support.wheel(4))

    def test_circuits_have_even_edge_count(self):
        for g in (complete_graph(4), support.wheel(4), support.doubled_edge()):
            assert circuit_oracle(g)
            assert g.m % 2 == 0


class TestPinnedConditionsOracle:
    def test_dyad(self, dyad):
        assert pinned_conditions_oracle(dyad)

    def test_dyad_with_extra_edge_fails(self):
        g = PinnedGraph({"v"}, {"p1", "p2", "p3"},
                        [("v", "p1"), ("v", "p2"), ("v", "p3")])
        assert not pinned_conditions_oracle(g)

    def test_stacked_dyads(self, stacked_dyads):
        assert pinned_conditions_oracle(stacked_dyads)

    def test_triad(self, triad):
        assert pinned_conditions_oracle(triad)

    def test_overloaded_single_pin_fails(self):
        # all six edges lean on one pin: |E'| <= 2|I'| - 1 breaks on (I, {p})
        g = PinnedGraph({"a", "b", "c"}, {"p", "q"},
                        [("a", "b"), ("b", "c"), ("a", "c"),
                         ("a", "p"), ("b", "p"), ("c", "p")])
        assert not pinned_conditions_oracle(g)

    def test_agrees_with_pebble_isostatic(self):
        from pinrig.pebble import pinned_isostatic
        rng = random.Random(99)
        agree = 0
        for _ in range(150):
            ni, npins = rng.randint(1, 3), rng.randint(2, 3)
            inner = list(range(ni))
            pins = [f"P{i}" for i in range(npins)]
            pairs = ([(a, b) for a in inner for b in inner if a < b]
                     + [(a, p) for a in inner for p in pins])
            want = 2 * ni
            if want > len(pairs):
                continue
            g = PinnedGraph(inner, pins, rng.sample(pairs, want))
            assert pinned_conditions_oracle(g) == pinned_isostatic(g)
            agree += 1
        assert agree > 100
