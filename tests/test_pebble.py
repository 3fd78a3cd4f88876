import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from pinrig.counting import circuit_oracle, laman_independent_oracle
from pinrig.errors import GraphError
from pinrig.graphs import (Multigraph, PinnedGraph, complete_graph,
                           contract_pins)
from pinrig.pebble import (circuit_indices, fundamental_circuit, is_circuit,
                           pebble_rank, pinned_game, pinned_isostatic)


def _reordered(g, order):
    """The multigraph `g` with its edges in the index order `order`."""
    return Multigraph(g.vertices, [g.edges[i] for i in order])


class TestRank:
    def test_k4(self):
        rep = pebble_rank(complete_graph(4))
        assert rep.rank == 5
        assert len(rep.rejected) == 1
        # every 5-edge subset of K4 is independent (oracle cross-check)
        for subset in combinations(complete_graph(4).edges, 5):
            assert laman_independent_oracle(Multigraph(range(4), subset))

    def test_doubled_edge(self):
        rep = pebble_rank(support.doubled_edge())
        assert rep.rank == 1
        assert rep.rejected_edges == ((0, 1),)

    def test_triangle_chain_isostatic(self):
        g = support.triangle_chain()
        rep = pebble_rank(g)
        assert rep.rank == 2 * g.n - 3
        assert not rep.rejected
        assert laman_independent_oracle(g)

    def test_empty(self):
        rep = pebble_rank(Multigraph(range(3), []))
        assert rep.rank == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0))
    def test_rank_is_order_invariant(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = support.random_multigraph(rng, n, rng.randint(2, 2 * n + 2),
                                      allow_parallel=True)
        base = pebble_rank(g).rank
        for _ in range(20):
            order = list(range(g.m))
            rng.shuffle(order)
            assert pebble_rank(_reordered(g, order)).rank == base

    def test_report_indices_consistent(self):
        g = complete_graph(4)
        rep = pebble_rank(g)
        assert sorted(rep.independent + rep.rejected) == list(range(g.m))
        assert rep.rank == len(rep.independent)

    def test_accepted_set_is_independent_and_rank_bounded(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = support.random_multigraph(rng, n, rng.randint(1, 2 * n + 2),
                                          allow_parallel=True)
            rep = pebble_rank(g)
            assert rep.rank <= 2 * g.n - 3
            basis = Multigraph(g.vertices, [g.edges[i] for i in rep.independent])
            assert laman_independent_oracle(basis)


class TestFundamentalCircuit:
    def test_k4_rejected_edge_gives_whole_k4(self):
        g = complete_graph(4)
        rep = pebble_rank(g)
        circuit = fundamental_circuit(g, rep, rep.rejected[0])
        assert circuit.edge_counter() == g.edge_counter()
        assert circuit_oracle(circuit)

    def test_parallel_pair(self, dyad):
        m = contract_pins(dyad)
        rep = pebble_rank(m)
        circuit = fundamental_circuit(m, rep, rep.rejected[0])
        assert circuit.m == 2 and circuit.n == 2

    def test_k4_with_pendant_path(self):
        g = Multigraph(range(6), [(3, 4), (4, 5)] + list(complete_graph(4).edges))
        rep = pebble_rank(g)
        assert len(rep.rejected) == 1
        circuit = fundamental_circuit(g, rep, rep.rejected[0])
        assert circuit.edge_counter() == complete_graph(4).edge_counter()
        assert circuit_oracle(circuit)

    def test_circuit_same_for_any_order(self):
        g = Multigraph(range(6), [(3, 4), (4, 5)] + list(complete_graph(4).edges))
        rng = random.Random(3)
        want = complete_graph(4).edge_counter()
        for _ in range(10):
            order = list(range(g.m))
            rng.shuffle(order)
            h = _reordered(g, order)
            rep = pebble_rank(h)
            circuit = fundamental_circuit(h, rep, rep.rejected[0])
            assert circuit.edge_counter() == want

    def test_lookup_by_pair(self):
        g = complete_graph(4)
        rep = pebble_rank(g)
        pair = rep.rejected_edges[0]
        assert fundamental_circuit(g, rep, pair).m == 6

    def test_non_rejected_edge_raises(self):
        g = complete_graph(4)
        rep = pebble_rank(g)
        with pytest.raises(GraphError):
            fundamental_circuit(g, rep, rep.independent[0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0))
    def test_circuits_pass_the_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = support.random_multigraph(rng, n, rng.randint(3, 2 * n + 3),
                                      allow_parallel=True)
        rep = pebble_rank(g)
        for idx in rep.rejected[:3]:
            assert circuit_oracle(fundamental_circuit(g, rep, idx))


class TestIsostatic:
    def test_examples(self):
        # isostatic: a full-rank game on exactly 2|V| - 3 edges
        triangle = Multigraph(edges=[(0, 1), (1, 2), (0, 2)])
        square = Multigraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert pebble_rank(triangle).rank == triangle.m == 2 * triangle.n - 3
        assert pebble_rank(complete_graph(4)).rejected
        assert pebble_rank(square).rank == square.m < 2 * square.n - 3

    def test_is_circuit(self):
        assert is_circuit(complete_graph(4))
        assert is_circuit(support.doubled_edge())
        assert is_circuit(support.wheel(4))
        assert not is_circuit(support.triangle_chain())
        assert not is_circuit(complete_graph(4).with_edge(3, 4))

    def test_is_circuit_matches_the_oracle(self):
        rng = random.Random(2008)
        circuits = 0
        for i in range(4000):
            n = rng.randint(2, 9)
            g = support.random_multigraph(rng, n, 2 * n - 2, allow_parallel=i % 2 == 0)
            expected = circuit_oracle(g)
            assert is_circuit(g) == expected, g
            circuits += expected
        assert circuits >= 200


class TestPinned:
    def test_dyad_and_triad(self, dyad, triad):
        assert pinned_isostatic(dyad)
        assert pinned_isostatic(triad)

    def test_dyad_minus_edge(self):
        g = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        assert not pinned_isostatic(g)
        assert pinned_game(g)[0] == 1

    def test_needs_two_pins(self):
        g = PinnedGraph({"v"}, {"p"}, [("v", "p")])
        with pytest.raises(GraphError):
            pinned_isostatic(g)
        assert pinned_game(g)[0] == 1  # rotation about the single pin

    def test_stacked_dyads(self, stacked_dyads):
        assert pinned_isostatic(stacked_dyads)

    def test_matches_conditions_oracle(self, dyad, triad, stacked_dyads, basic_5):
        from pinrig.counting import pinned_conditions_oracle
        for g in (dyad, triad, stacked_dyads, basic_5):
            assert pinned_isostatic(g) == pinned_conditions_oracle(g)


class TestDof:
    def test_square_has_one_dof(self):
        square = Multigraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert 2 * square.n - 3 - pebble_rank(square).rank == 1

    def test_k4_rigid_overbraced(self):
        rep = pebble_rank(complete_graph(4))
        assert 2 * 4 - 3 - rep.rank == 0 and len(rep.rejected) == 1

    def test_contracted_chain_dof_is_circuits_minus_one(self, stacked_dyads):
        m = contract_pins(stacked_dyads)
        rep = pebble_rank(m)
        n_circuits = len(rep.rejected)
        assert 2 * m.n - 3 - rep.rank == n_circuits - 1 == 0

    def test_contraction_circuit_count_equals_nullity(self):
        # two dyads side by side: the contraction carries two circuits
        g = PinnedGraph({"a", "b"}, {"p1", "p2"},
                        [("a", "p1"), ("a", "p2"), ("b", "p1"), ("b", "p2")])
        assert pinned_isostatic(g)
        m, circuits = _contraction_circuits(g)
        assert len(circuits) == 2
        assert 2 * m.n - 3 - pebble_rank(m).rank == len(circuits) - 1

    def test_contraction_circuits_meet_only_at_star(self):
        fixtures = [support.stacked_dyads(), support.triad(), support.basic_5(),
                    PinnedGraph({"a", "b"}, {"p1", "p2"},
                                [("a", "p1"), ("a", "p2"), ("b", "p1"), ("b", "p2")])]
        for g in fixtures:
            m, circuits = _contraction_circuits(g)
            star, = m.vertices - g.inner
            for i, j in combinations(range(len(circuits)), 2):
                assert not (circuits[i] & circuits[j])
                vi = {x for k in circuits[i] for x in m.edges[k]}
                vj = {x for k in circuits[j] for x in m.edges[k]}
                assert vi & vj <= {star}


def _contraction_circuits(g):
    """The pin contraction of `g` and its fundamental circuits, as sets of
    edge indices."""
    m = contract_pins(g)
    rep = pebble_rank(m)
    return m, [circuit_indices(rep, i) for i in rep.rejected]


def _pinned_bound(inner, pins):
    if len(pins) >= 2:
        return 2 * len(inner)
    return 2 * len(inner) - (1 if pins else 3)


def test_pinned_witness_breaks_its_count_on_all_small_graphs():
    from pinrig.counting import pinned_conditions_oracle
    failing = 0
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                witness = pinned_game(g)[1]
                assert (witness is None) == pinned_conditions_oracle(g)
                if witness is not None:
                    inner, pins = witness
                    assert g.induced(inner, pins).m > _pinned_bound(inner, pins)
                    failing += 1
    assert failing == 1441


def test_pinned_game_orients_pinned_isostatic_graphs(triad, stacked_dyads):
    # after the trial bar, every inner vertex has out degree 2 and no edge of
    # g leaves a pin, whatever order the edges came in
    rng = random.Random(9)
    graphs = [triad, stacked_dyads, support.edge_split_assur(rng, 12)]
    parts = (support.dyad, support.triad, support.basic_5)
    for _ in range(20):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(1, 8))]
        graphs.append(support.stack(rng, chosen, ["G0", "G1", "G2"])[0])
    for g in graphs:
        for _ in range(5):
            edges = list(g.edges)
            rng.shuffle(edges)
            dof, witness, out = pinned_game(g, edges)
            assert (dof, witness) == (0, None)
            assert all(k == 1 for heads in out.values() for k in heads.values())
            assert all(len(out[v]) == 2 for v in g.inner)
            assert not any(y in g.inner for p in g.pins for y in out[p])
            arcs = Counter(frozenset((x, y)) for x in g.inner for y in out[x])
            assert arcs == Counter(frozenset(e) for e in g.edges)


def test_rejected_reach_set_is_the_smallest_tight_set():
    # brute force: the reach set recorded for a rejected edge is the smallest
    # vertex set containing both endpoints that spans 2|S| - 3 of the edges
    # accepted before it, so no search order can change it
    rng = random.Random(23)
    rejected = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        g = support.random_multigraph(rng, n, rng.randint(1, 3 * n), allow_parallel=True)
        order = list(range(g.m))
        rng.shuffle(order)
        h = _reordered(g, order)
        rep = pebble_rank(h)
        accepted = set(rep.independent)
        for i, (u, v) in enumerate(h.edges):
            if i in accepted:
                continue
            before = [h.edges[j] for j in range(i) if j in accepted]
            rest = sorted(g.vertices - {u, v})
            subsets = [set(c) | {u, v} for k in range(len(rest) + 1)
                       for c in combinations(rest, k)]
            tight = [s for s in subsets
                     if sum(a in s and b in s for a, b in before) == 2 * len(s) - 3]
            smallest = min(len(s) for s in tight)
            assert [s for s in tight if len(s) == smallest] == [set(rep.reach[i])]
            rejected += 1
    assert rejected > 500


def test_pinned_game_is_all_zero_exactly_on_isostatic_graphs():
    from pinrig.counting import pinned_conditions_oracle
    rng = random.Random(77)
    for _ in range(300):
        ni, npins = rng.randint(1, 4), rng.randint(2, 3)
        inner = list(range(ni))
        pins = [f"P{i}" for i in range(npins)]
        pairs = ([(a, b) for a in inner for b in inner if a < b]
                 + [(a, p) for a in inner for p in pins])
        g = PinnedGraph(inner, pins, rng.sample(pairs, rng.randint(1, len(pairs))))
        dof, witness, _ = pinned_game(g)
        assert ((dof, witness) == (0, None)) == pinned_isostatic(g) \
            == pinned_conditions_oracle(g)


def test_no_module_imports_a_private_name_from_a_sibling():
    import ast
    import pathlib

    import pinrig
    for path in sorted(pathlib.Path(pinrig.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


# public names with no caller that are kept on purpose
UNCALLED_PUBLIC_API = {
    "fileio.scheme_from_dict",  # reads back the scheme files `decompose --json` writes
    "fileio.linkage_to_dict",   # writes the linkage format that `load_linkage` reads
    "assur.AssurScheme.leq",    # the scheme's partial order, for queries on its components
}


def test_every_public_function_has_a_caller():
    """Each public top-level function or method of pinrig is used as an
    identifier in the package, the shared test support, the acceptance
    tests or the benchmark harness, or is named in the README."""
    import ast
    import pathlib
    import re

    import pinrig
    src = pathlib.Path(pinrig.__file__).parent
    root = src.parent.parent
    used = set()
    for path in [*src.glob("*.py"), root / "tests" / "support.py",
                 root / "tests" / "test_acceptance.py", *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.update(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    uncalled = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node, path.stem)]
            if isinstance(node, ast.ClassDef):
                members = [(m, f"{path.stem}.{node.name}") for m in node.body]
            for fn, owner in members:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and fn.name not in used):
                    uncalled.add(f"{owner}.{fn.name}")
    assert uncalled == UNCALLED_PUBLIC_API


def test_edge_removal_returns_the_pebble_and_keeps_the_game_valid():
    from pinrig.pebble import _PebbleState
    rng = random.Random(21)

    def check(state, edges):
        out = state.out
        assert all(state.pebbles[v] + sum(out[v].values()) == 2 for v in state.pebbles)
        arcs = Counter(frozenset((x, y)) for x in out for y in Counter(out[x]).elements())
        assert arcs == Counter(frozenset(e) for e in edges)
        return sum(state.pebbles.values())

    for _ in range(40):
        g = support.henneberg_graph(rng, rng.randint(3, 24))
        state = _PebbleState(dict.fromkeys(g.vertices, 2))
        assert all(state.try_insert(u, v)[0] for u, v in g.edges)
        edges = list(g.edges)
        for _ in range(3):
            gone = rng.sample(edges, rng.randint(1, len(edges)))
            rest = list(edges)
            for u, v in gone:
                state.remove_edge(*rng.sample((u, v), 2))
                rest.remove((u, v))
                assert check(state, rest) == 3 + len(edges) - len(rest)
            # a subset of an independent set is independent: all come back
            assert all(state.try_insert(u, v)[0] for u, v in gone)
            assert check(state, edges) == 3
        # the Laman graph is rigid: any further edge is rejected, and its
        # reach set spans a tight subgraph
        u, v = rng.sample(sorted(g.vertices), 2)
        ok, reach = state.try_insert(u, v)
        assert not ok and {u, v} <= reach
        assert sum(1 for e in edges if set(e) <= reach) == 2 * len(reach) - 3
        assert check(state, edges) == 3


def _random_pinned_graph(rng):
    inner = list(range(rng.randint(1, 6)))
    pins = [f"p{i}" for i in range(rng.randint(2, 4))]
    pairs = [(u, w) for u, w in combinations(inner + pins, 2) if u in inner or w in inner]
    edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 2 * len(inner) + 2)))
    return PinnedGraph(inner, pins, edges)


def _play_in_lockstep(rng, pebbles, first, edges):
    """Play `first` and then `edges` on `_PebbleState` and on the `Counter`
    reference, then a few rounds that delete the accepted edges at one
    vertex, offer pairs of vertices and put the deleted edges back, as
    `generate._unsplit` does.  After every step both give the same answer
    and hold the same pebbles and the same out-edges, in the same order,
    and no vertex pair is held twice."""
    from pinrig.pebble import _PebbleState
    new = _PebbleState(dict(pebbles))
    ref = support.pebble_state_reference(dict(pebbles))
    held = []

    def agree():
        assert new.pebbles == ref.pebbles
        assert ([(x, list(heads.items())) for x, heads in new.out.items()]
                == [(x, list(heads.items())) for x, heads in ref.out.items()])
        assert all(k == 1 for heads in new.out.values() for k in heads.values())

    def offer(u, v):
        got = new.try_insert(u, v)
        assert got == ref.try_insert(u, v)
        agree()
        if got[0]:
            held.append((u, v))
        return got[0]

    for e in (*first, *edges):
        offer(*e)
    verts = sorted(pebbles, key=str)
    rejected = 0
    for _ in range(rng.randint(1, 4)):
        x = rng.choice(verts)
        gone = [e for e in held if x in e]
        rng.shuffle(gone)
        for e in gone:
            held.remove(e)
            u, v = rng.sample(e, 2)
            new.remove_edge(u, v)
            ref.remove_edge(u, v)
            agree()
        for _ in range(rng.randint(0, 3)):
            rejected += not offer(*rng.sample(verts, 2))
        for e in gone:
            rejected += not offer(*e)
    return rejected


def test_engine_matches_the_counter_reference_step_by_step():
    from pinrig.pebble import _scaffold
    KINDS = ("2,3", "scaffolded")
    rng = random.Random(18)
    games = Counter()
    for i in range(2400):
        kind = KINDS[i % 2]
        if kind == "2,3":
            n = rng.randint(2, 9)
            g = support.random_multigraph(rng, n, rng.randint(1, 3 * n), allow_parallel=True)
            args = (dict.fromkeys(g.vertices, 2), (), g.edges)
        else:
            g = _random_pinned_graph(rng)
            edges = list(g.edges)
            rng.shuffle(edges)
            pebbles = dict.fromkeys(g.vertices | {"apex"}, 2)
            args = (pebbles, _scaffold(sorted(g.pins), "apex"), edges)
        games[kind, _play_in_lockstep(rng, *args) > 0] += 1
    # every kind of game meets rejections after the deletions, and runs without them
    assert all(games[kind, True] and games[kind, False] for kind in KINDS)
