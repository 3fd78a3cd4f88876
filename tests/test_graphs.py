import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from pinrig.canon import canonical_code
from pinrig.counting import circuit_oracle
from pinrig.errors import CertificateError, GraphError
from pinrig.fileio import certificate_from_dict
from pinrig.generate import replay_certificate
from pinrig.graphs import (Multigraph, PinnedGraph, complete_graph, compose,
                           contract_pins, split_contracted_vertex)
from pinrig.pebble import pebble_rank, pinned_isostatic


class TestConstruction:
    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            Multigraph(edges=[(1, 1)])
        with pytest.raises(GraphError):
            PinnedGraph({1}, {2, 3}, [(1, 1)])

    def test_pin_pin_edge_rejected(self):
        with pytest.raises(GraphError):
            PinnedGraph({"v"}, {"p", "q"}, [("p", "q")])

    def test_parallel_edge_rejected_in_pinned(self):
        with pytest.raises(GraphError):
            PinnedGraph({"v"}, {"p", "q"}, [("v", "p"), ("p", "v")])

    def test_overlapping_classes_rejected(self):
        with pytest.raises(GraphError):
            PinnedGraph({"v"}, {"v", "p"}, [])

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(GraphError):
            PinnedGraph({"v"}, {"p", "q"}, [("v", "x")])

    def test_multigraph_keeps_parallel_copies(self):
        m = Multigraph(edges=[(0, 1), (1, 0)])
        assert m.m == 2
        assert m.edge_counter()[(0, 1)] == 2

    def test_adjacency_counts_parallel_edges_as_plain_dict_copies(self):
        m = Multigraph([0, 1, 2, 3], [(0, 1), (1, 0), (1, 2)])
        adj = m.adjacency()
        assert adj == {0: {1: 2}, 1: {0: 2, 2: 1}, 2: {1: 1}, 3: {}}
        assert all(type(nbrs) is dict for nbrs in adj.values())
        assert all(list(adj[v].items()) == list(m.neighbors(v).items()) for v in m.vertices)
        adj[1][3] = 1
        del adj[0][1]
        assert m.has_edge(0, 1) and not m.has_edge(1, 3) and m.neighbors(0) == {1: 2}
        assert not m.has_edge(3, 0) and not m.has_edge(9, 0)


def _reference_neighbors(g):
    """Vertex -> Counter of neighbours, filled in edge order, for every
    vertex of `g`: the reading every derived query must agree with."""
    ref = {v: Counter() for v in g.vertices}
    for u, w in g.edges:
        ref[u][w] += 1
        ref[w][u] += 1
    return ref


def _random_graphs(rng):
    """A multigraph with parallel edges and an isolated vertex, and a
    pinned graph that may leave pins isolated."""
    verts = list(range(rng.randint(2, 7)))
    pairs = [(u, w) for u in verts for w in verts if u != w]
    multi = Multigraph(verts + ["lone"], rng.choices(pairs, k=rng.randint(0, 14)))
    inner = list(range(rng.randint(1, 5)))
    pins = [f"p{i}" for i in range(rng.randint(1, 4))]
    pairs = [(u, w) for u in inner for w in inner + pins if w in pins or u < w]
    pinned = PinnedGraph(inner, pins, rng.sample(pairs, rng.randint(0, len(pairs))))
    return multi, pinned


def test_derived_reads_match_counters_over_the_edge_tuple():
    rng = random.Random(30)
    for _ in range(300):
        multi, pinned = _random_graphs(rng)
        for g, collect in ((multi, Counter), (pinned, frozenset)):
            ref = _reference_neighbors(g)
            for v in g.vertices:
                nbrs = g.neighbors(v)
                assert type(nbrs) is collect and nbrs == collect(ref[v])
                if collect is Counter:
                    assert list(nbrs.items()) == list(ref[v].items())
                assert g.degree(v) == sum(ref[v].values())
                assert not g.has_edge(v, v)
                assert all(g.has_edge(v, w) == (ref[v][w] > 0) for w in g.vertices)
            assert g.support() == {v for v, c in ref.items() if c}
            # an absent vertex reads no neighbours and degree 0
            assert not g.neighbors("absent") and g.degree("absent") == 0
            assert not g.has_edge("absent", next(iter(g.vertices)))
        assert not multi.neighbors("lone") and multi.degree("lone") == 0
        adj = multi.adjacency()
        assert list(adj) == list(multi.vertices)
        assert all(list(adj[v].items()) == list(want.items())
                   for v, want in _reference_neighbors(multi).items())
        ref = _reference_neighbors(pinned)
        assert pinned.isolated_pins() == {p for p in pinned.pins if not ref[p]}


class TestContraction:
    def test_dyad_contracts_to_doubled_edge(self, dyad):
        m = contract_pins(dyad)
        assert m.vertices == {"v", "p*"}
        assert m.edge_counter() == Counter({("p*", "v"): 2})

    def test_triad_contracts_to_k4(self, triad):
        m = contract_pins(triad)
        assert canonical_code(m) == canonical_code(complete_graph(4))

    def test_two_dyad_chain_contraction(self):
        chain = support.stacked_dyads()
        m = contract_pins(chain)
        assert m.vertices == {"a", "b", "p*"}
        assert m.edge_counter() == Counter(
            {("a", "p*"): 2, ("a", "b"): 1, ("b", "p*"): 1})
        # the doubled edge is the one circuit the pebble game finds
        rep = pebble_rank(m)
        assert len(rep.rejected) == 1
        assert rep.reach[rep.rejected[0]] == {"a", "p*"}

    def test_edge_count_preserved(self, triad):
        assert contract_pins(triad).m == triad.m

    def test_star_collision_is_renamed(self):
        g = PinnedGraph({"p*"}, {"p1", "p2"}, [("p*", "p1"), ("p*", "p2")])
        m = contract_pins(g)
        assert "p*" in m.vertices and "p**" in m.vertices


class TestSplit:
    def test_split_doubled_edge_gives_dyad(self, dyad):
        m = contract_pins(dyad)
        back = split_contracted_vertex(m, "p*", [("v", "q1"), ("v", "q2")])
        assert canonical_code(back) == canonical_code(dyad)

    def test_k4_three_labels_gives_triad(self, triad):
        k4 = complete_graph(4)
        split = split_contracted_vertex(
            k4, 3, [(0, "q1"), (1, "q2"), (2, "q3")])
        assert canonical_code(split) == canonical_code(triad)
        # round trip back through contraction
        assert canonical_code(contract_pins(split)) == canonical_code(k4)

    def test_k4_two_labels_gives_5_vertex_assur(self):
        from pinrig.assur import is_assur
        k4 = complete_graph(4)
        split = split_contracted_vertex(k4, 3, [(0, "pA"), (1, "pA"), (2, "pB")])
        assert split.n == 5 and len(split.pins) == 2
        assert is_assur(split, seed=1).overall

    def test_requires_two_labels(self):
        m = Multigraph(edges=[(0, 1), (0, 1)])
        with pytest.raises(GraphError):
            split_contracted_vertex(m, 0, [(1, "q"), (1, "q")])

    def test_refuses_an_assignment_that_makes_a_parallel_pin_edge(self):
        m = Multigraph(edges=[(0, 1), (0, 1), (0, 2)])
        with pytest.raises(GraphError, match="parallel"):
            split_contracted_vertex(m, 0, [(1, "q"), (1, "q"), (2, "r")])

    def test_refuses_parallel_edges_away_from_the_split_vertex(self):
        m = Multigraph(edges=[(1, 2), (1, 2), (0, 1), (0, 2)])
        with pytest.raises(GraphError, match="parallel"):
            split_contracted_vertex(m, 0, [(1, "q"), (2, "r")])

    def test_refuses_a_pin_named_by_a_remaining_vertex(self):
        # pin 1 is also the inner vertex 1, in the library and in a replay
        assignment = [(0, "q"), (1, "q"), (2, 1)]
        with pytest.raises(GraphError, match="both inner and pinned"):
            split_contracted_vertex(complete_graph(4), 3, assignment)
        cert = certificate_from_dict(
            {"base": {"kind": "k4", "vertices": [0, 1, 2, 3]},
             "steps": [{"kind": "pin-split", "vertex": 3,
                        "assignment": [list(pair) for pair in assignment]}]})
        with pytest.raises(CertificateError, match="both inner and pinned"):
            replay_certificate(cert)

    def test_vertex_must_exist(self):
        with pytest.raises(GraphError):
            split_contracted_vertex(Multigraph(edges=[(0, 1)]), 7, [])

    def test_assignment_must_match_incident_edges(self):
        k4 = complete_graph(4)
        with pytest.raises(GraphError):
            split_contracted_vertex(k4, 3, [(0, "a"), (0, "b"), (2, "c")])

    def test_edge_count_preserved(self):
        k4 = complete_graph(4)
        split = split_contracted_vertex(k4, 3, [(0, "q1"), (1, "q2"), (2, "q3")])
        assert split.m == k4.m


class TestCompose:
    def test_dyad_on_dyad(self, dyad):
        top = PinnedGraph({"b"}, {"t1", "t2"}, [("b", "t1"), ("b", "t2")])
        out = compose(top, dyad, {"t1": "v", "t2": "p1"})
        assert len(out.inner) == 2 and len(out.pins) == 2 and out.m == 4
        assert pinned_isostatic(out)

    def test_empty_upper_graph_is_identity(self, dyad):
        empty = PinnedGraph((), {"t1", "t2"}, [])
        # an edgeless upper graph contributes nothing
        out = compose(empty, dyad, {"t1": "v", "t2": "p1"})
        assert out == dyad

    def test_triad_on_triad(self, triad):
        top = PinnedGraph({"x", "y", "z"}, {"t1", "t2", "t3"},
                          [("x", "y"), ("y", "z"), ("x", "z"),
                           ("x", "t1"), ("y", "t2"), ("z", "t3")])
        out = compose(top, triad, {"t1": "a", "t2": "b", "t3": "c"})
        assert len(out.inner) == 6 and len(out.pins) == 3 and out.m == 12
        assert pinned_isostatic(out)

    def test_counts_are_additive(self, dyad, triad):
        out = compose(triad, dyad, {"q1": "v", "q2": "p1", "q3": "p2"})
        assert out.m == dyad.m + triad.m
        assert len(out.inner) == len(dyad.inner) + len(triad.inner)

    def test_colliding_inner_ids_renamed(self, dyad):
        top = PinnedGraph({"v"}, {"t1", "t2"}, [("v", "t1"), ("v", "t2")])
        out = compose(top, dyad, {"t1": "v", "t2": "p1"})
        assert "v'" in out.inner and "v" in out.inner

    def test_map_must_cover_pins(self, dyad):
        top = PinnedGraph({"b"}, {"t1", "t2"}, [("b", "t1"), ("b", "t2")])
        with pytest.raises(GraphError):
            compose(top, dyad, {"t1": "v"})

    def test_map_must_be_injective(self, dyad):
        top = PinnedGraph({"b"}, {"t1", "t2"}, [("b", "t1"), ("b", "t2")])
        with pytest.raises(GraphError):
            compose(top, dyad, {"t1": "v", "t2": "v"})

    def test_target_must_exist(self, dyad):
        top = PinnedGraph({"b"}, {"t1", "t2"}, [("b", "t1"), ("b", "t2")])
        with pytest.raises(GraphError):
            compose(top, dyad, {"t1": "v", "t2": "nope"})


@st.composite
def pinned_graphs(draw):
    n_inner = draw(st.integers(min_value=1, max_value=4))
    n_pins = draw(st.integers(min_value=2, max_value=3))
    inner = list(range(n_inner))
    pins = [f"P{i}" for i in range(n_pins)]
    pairs = ([(a, b) for a in inner for b in inner if a < b]
             + [(a, p) for a in inner for p in pins])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    # keep every pin used so contraction round trips cleanly
    used = {p for e in chosen for p in e if p in pins}
    for p in pins:
        if p not in used:
            chosen.append((draw(st.sampled_from(inner)), p))
    return PinnedGraph(inner, pins, set(chosen))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(pinned_graphs())
    def test_contract_then_split_is_identity_up_to_iso(self, g):
        m = contract_pins(g, star="S")
        assignment = [((u if v in g.pins else v), (v if v in g.pins else u))
                      for u, v in g.edges if u in g.pins or v in g.pins]
        back = split_contracted_vertex(m, "S", assignment)
        assert canonical_code(back) == canonical_code(g)
        assert support.brute_isomorphic(back, g)

    def test_contraction_circuit_sanity(self, dyad):
        # the contraction of a dyad is itself a rigidity circuit
        assert circuit_oracle(contract_pins(dyad))
