import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from pinrig import assur as assur_mod
from pinrig import numeric
from pinrig.assur import (ALL_METHODS, AssurComponent, AssurScheme, assur_gate,
                          check_circuit_condition, check_edge_deletion,
                          check_minimality, check_vertex_deletion, decompose,
                          is_assur, minimality_violation, recompose)
from pinrig.canon import canonical_code
from pinrig.errors import GraphError, NotIsostaticError
from pinrig.fileio import scheme_to_dict
from pinrig.counting import circuit_oracle, pinned_conditions_oracle
from pinrig.graphs import PinnedGraph, compose, contract_pins, ekey, norm_edge, vkey
from pinrig.numeric import motion_space
from pinrig.pebble import pinned_isostatic


class TestChecks:
    def test_dyad_passes_all(self, dyad):
        assert check_minimality(dyad)
        assert check_circuit_condition(dyad)
        assert check_vertex_deletion(dyad, seed=1)
        assert check_edge_deletion(dyad, seed=1)

    def test_triad_passes_all(self, triad):
        assert check_minimality(triad)
        assert check_circuit_condition(triad)
        assert check_vertex_deletion(triad, seed=1)
        assert check_edge_deletion(triad, seed=1)

    def test_stacked_dyads_fail_all(self, stacked_dyads):
        assert not check_minimality(stacked_dyads)
        assert not check_circuit_condition(stacked_dyads)
        assert not check_vertex_deletion(stacked_dyads, seed=1)
        assert not check_edge_deletion(stacked_dyads, seed=1)

    def test_minimality_witness(self, stacked_dyads):
        witness = minimality_violation(stacked_dyads)
        assert witness == (("a",), ("p1", "p2"))

    def test_checks_require_isostatic_input(self):
        pendulum = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        for check in (check_minimality, check_circuit_condition):
            with pytest.raises(NotIsostaticError):
                check(pendulum)
        with pytest.raises(NotIsostaticError):
            check_vertex_deletion(pendulum, seed=0)
        with pytest.raises(NotIsostaticError):
            check_edge_deletion(pendulum, seed=0)

    @pytest.mark.parametrize("entry", [check_minimality, check_circuit_condition,
                                       check_vertex_deletion, check_edge_deletion,
                                       decompose])
    def test_fewer_than_two_pins_is_not_isostatic(self, entry):
        one_pin = PinnedGraph({"v"}, {"p"}, [("v", "p")])
        with pytest.raises(NotIsostaticError, match="fewer than two pins"):
            entry(one_pin)


class TestVerdict:
    def test_dyad_verdict(self, dyad):
        v = is_assur(dyad, seed=7)
        assert v.overall and not v.disagreement
        assert v.evaluated() == {m: True for m in ALL_METHODS}

    def test_k4_split_on_two_pins(self, basic_5):
        v = is_assur(basic_5, seed=7)
        assert v.overall and not v.disagreement

    def test_stacked_dyads_verdict(self, stacked_dyads):
        v = is_assur(stacked_dyads, seed=7)
        assert not v.overall and not v.disagreement
        assert v.evaluated() == {m: False for m in ALL_METHODS}

    def test_non_isostatic_reports_reason(self):
        pendulum = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        v = is_assur(pendulum)
        assert not v.overall and v.reason and "isostatic" in v.reason

    def test_isolated_pin_reports_reason(self):
        g = PinnedGraph({"v"}, {"p1", "p2", "p3"}, [("v", "p1"), ("v", "p2")])
        v = is_assur(g)
        assert not v.overall and "isolated" in v.reason

    def test_method_subset_and_aliases(self, triad):
        v = is_assur(triad, methods=("i", "iv"), seed=1)
        assert v.minimality is True and v.edge_deletion is True
        assert v.circuit is True  # always computed: it keys the overall verdict
        assert v.vertex_deletion is None

    def test_unknown_method_rejected(self, triad):
        with pytest.raises(GraphError):
            is_assur(triad, methods=("v",))


def shifted_triad(tag):
    return PinnedGraph({f"{tag}x", f"{tag}y", f"{tag}z"},
                       {f"{tag}1", f"{tag}2", f"{tag}3"},
                       [(f"{tag}x", f"{tag}y"), (f"{tag}y", f"{tag}z"),
                        (f"{tag}x", f"{tag}z"), (f"{tag}x", f"{tag}1"),
                        (f"{tag}y", f"{tag}2"), (f"{tag}z", f"{tag}3")])


class TestDecompose:
    def test_dyad_is_its_own_scheme(self, dyad):
        scheme = decompose(dyad)
        assert len(scheme.components) == 1
        comp = scheme.components[0]
        assert comp.level == 1
        assert comp.graph == dyad

    def test_stacked_dyads(self, stacked_dyads):
        scheme = decompose(stacked_dyads)
        assert [c.level for c in scheme.components] == [1, 2]
        codes = {canonical_code(c.graph) for c in scheme.components}
        assert codes == {canonical_code(support.dyad())}
        assert scheme.covers == (("c1", "c2"),)
        assert scheme.leq("c1", "c2") and not scheme.leq("c2", "c1")

    def test_triad_on_triad(self, triad):
        top = shifted_triad("t")
        big = compose(top, triad, {"t1": "a", "t2": "b", "t3": "c"})
        scheme = decompose(big)
        assert len(scheme.components) == 2
        assert sorted(c.level for c in scheme.components) == [1, 2]
        for c in scheme.components:
            assert canonical_code(c.graph) == canonical_code(triad)

    def test_rejects_non_isostatic(self):
        pendulum = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        with pytest.raises(NotIsostaticError) as info:
            decompose(pendulum)
        assert info.value.dof == 1

    def test_every_component_is_assur(self, stacked_dyads, triad):
        mid = compose(triad, stacked_dyads, {"q1": "a", "q2": "b", "q3": "p1"})
        top = shifted_triad("t")
        inner_targets = sorted(mid.inner, key=str)[:2]
        big = compose(top, mid, {"t1": inner_targets[0], "t2": inner_targets[1],
                                 "t3": "p2"})
        scheme = decompose(big)
        assert len(scheme.components) >= 3
        for comp in scheme.components:
            assert is_assur(comp.graph, seed=3).overall

    def test_assur_iff_single_component(self, dyad, triad, basic_5, stacked_dyads):
        for g in (dyad, triad, basic_5):
            assert is_assur(g, methods=("circuit",)).overall
            assert len(decompose(g).components) == 1
        assert not is_assur(stacked_dyads, methods=("circuit",)).overall
        assert len(decompose(stacked_dyads).components) > 1

    def test_edge_partition_invariant_under_shuffles(self, triad, stacked_dyads):
        base = compose(triad, stacked_dyads, {"q1": "a", "q2": "b", "q3": "p1"})
        want = sorted(Counter(c.graph.edges) for c in decompose(base).components
                      for _ in [0])
        want = sorted((frozenset(c.graph.edges), c.level)
                      for c in decompose(base).components)
        for seed in range(20):
            got = sorted((frozenset(c.graph.edges), c.level)
                         for c in decompose(base, seed=seed).components)
            assert got == want

    def test_parallel_siblings_found_in_one_level(self):
        g = PinnedGraph({"a", "b"}, {"p1", "p2"},
                        [("a", "p1"), ("a", "p2"), ("b", "p1"), ("b", "p2")])
        scheme = decompose(g)
        assert [c.level for c in scheme.components] == [1, 1]
        assert scheme.covers == ()

    def test_graph_with_no_inner_vertices_has_empty_scheme(self):
        g = PinnedGraph((), {"p1", "p2"}, [])
        scheme = decompose(g)
        assert scheme.components == ()
        assert recompose(scheme) == g

    def test_skip_level_pinning(self, stacked_dyads):
        # a third dyad pins onto the level-1 inner vertex and the ground,
        # bypassing level 2 entirely
        extra = PinnedGraph({"c"}, {"s1", "s2"}, [("c", "s1"), ("c", "s2")])
        g = compose(extra, stacked_dyads, {"s1": "a", "s2": "p3"})
        scheme = decompose(g)
        levels = sorted(c.level for c in scheme.components)
        assert levels == [1, 2, 2]
        bottom = next(c.cid for c in scheme.components if c.level == 1)
        for c in scheme.components:
            if c.level == 2:
                assert scheme.leq(bottom, c.cid)
        assert recompose(scheme) == g


class TestRecompose:
    def test_round_trip_dyad(self, dyad):
        assert recompose(decompose(dyad)) == dyad

    def test_round_trip_stacked(self, stacked_dyads):
        scheme = decompose(stacked_dyads)
        back = recompose(scheme)
        assert back == stacked_dyads
        assert canonical_code(back) == canonical_code(stacked_dyads)

    def test_synthetic_three_component_scheme(self, dyad):
        c1 = AssurComponent("c1", support.dyad(), 1,
                            (("p1", "G1"), ("p2", "G2")))
        c2 = AssurComponent("c2", PinnedGraph({"w"}, {"s1", "s2"},
                                              [("w", "s1"), ("w", "s2")]),
                            2, (("s1", "v"), ("s2", "G1")))
        c3 = AssurComponent("c3", PinnedGraph({"u"}, {"t1", "t2"},
                                              [("u", "t1"), ("u", "t2")]),
                            3, (("t1", "w"), ("t2", "v")))
        scheme = AssurScheme(components=(c1, c2, c3),
                             ground=frozenset({"G1", "G2"}))
        out = recompose(scheme)
        assert out.m == 2 * len(out.inner)
        from pinrig.pebble import pinned_isostatic
        assert pinned_isostatic(out)
        # rebuilt graph decomposes back into three dyads
        again = decompose(out)
        assert len(again.components) == 3

    def test_dangling_target_rejected(self):
        c1 = AssurComponent("c1", support.dyad(), 1,
                            (("p1", "G1"), ("p2", "nowhere")))
        with pytest.raises(GraphError):
            AssurScheme(components=(c1,), ground=frozenset({"G1", "G2"}))

    def test_covers_are_computed_not_passed(self):
        c1 = AssurComponent("c1", support.dyad(), 1, (("p1", "G1"), ("p2", "G2")))
        with pytest.raises(TypeError):
            AssurScheme(components=(c1,), ground=frozenset({"G1", "G2"}),
                        covers=(("c1", "c1"),))

    def test_level_ordering_validated(self):
        c1 = AssurComponent("c1", support.dyad(), 2,
                            (("p1", "G1"), ("p2", "G2")))
        c2 = AssurComponent("c2", PinnedGraph({"w"}, {"s1", "s2"},
                                              [("w", "s1"), ("w", "s2")]),
                            1, (("s1", "v"), ("s2", "G1")))
        with pytest.raises(GraphError):
            AssurScheme(components=(c1, c2), ground=frozenset({"G1", "G2"}))


def test_random_compositions_round_trip():
    rng = random.Random(2026)
    library = [support.dyad, support.triad, support.basic_5]
    for trial in range(15):
        g = PinnedGraph((), {"G1", "G2", "G3"}, [])
        for k in range(rng.randint(1, 4)):
            part = library[rng.randrange(len(library))]()
            tagged = part.relabeled({v: f"{trial}.{k}.{v}" for v in part.vertices})
            targets = rng.sample(sorted(g.inner | g.pins, key=str),
                                 len(tagged.pins))
            g = compose(tagged, g, dict(zip(sorted(tagged.pins, key=str), targets)))
        scheme = decompose(g)
        assert recompose(scheme) == g
        for comp in scheme.components:
            assert is_assur(comp.graph, methods=("circuit",)).overall


# -- minimality from the decomposition, against the exhaustive scan -------------

def _assert_minimality_matches_oracle(g):
    expected = support.minimality_oracle(g)
    assert check_minimality(g) == (expected is None)
    witness = minimality_violation(g)
    assert (witness is None) == (expected is None)
    if witness is not None:
        inner, pins = witness
        assert len(inner) + len(pins) < g.n
        assert g.induced(inner, pins).m >= max(1, 2 * len(inner))


def test_minimality_matches_oracle_on_all_small_pinned_graphs():
    checked = 0
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                if pinned_isostatic(g):
                    _assert_minimality_matches_oracle(g)
                    checked += 1
    assert checked == 2756


def test_minimality_matches_oracle_on_compositions():
    rng = random.Random(31)
    parts = (support.dyad, support.triad, support.basic_5)
    for _ in range(150):
        chosen, inner = [], 0
        budget = rng.randint(1, 9)
        while inner < budget:
            part = parts[rng.randrange(3)]() if budget - inner >= 3 else support.dyad()
            chosen.append(part)
            inner += len(part.inner)
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        assert g.n <= 12
        _assert_minimality_matches_oracle(g)
    for splits in range(1, 8):
        _assert_minimality_matches_oracle(support.edge_split_assur(rng, splits))


def test_minimality_violation_is_polynomial():
    g = support.edge_split_assur(random.Random(5), 21)
    assert g.n >= 24
    started = time.perf_counter()
    assert minimality_violation(g) is None
    assert check_minimality(g)
    assert time.perf_counter() - started < 2.0


def test_minimality_witness_for_isolated_pin():
    g = PinnedGraph({"v"}, {"p1", "p2", "p3"}, [("v", "p1"), ("v", "p2")])
    assert not check_minimality(g)
    assert minimality_violation(g) == (("v",), ("p1", "p2"))


# -- decomposition of known stacks ------------------------------------------------

def _parts(scheme):
    return {(c.level, frozenset(c.graph.edges)) for c in scheme.components}


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), count=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decompose_returns_the_stacked_parts(rng, count, seed):
    library = (support.dyad, support.triad, support.basic_5)
    parts = [library[rng.randrange(3)]() for _ in range(count)]
    g, expected = support.stack(rng, parts, ["G0", "G1", "G2", "G3"])
    scheme = decompose(g)
    assert _parts(scheme) == expected
    assert len(scheme.components) == count
    assert scheme.levels == max(lvl for lvl, _ in expected)
    assert decompose(g, seed=seed).components == scheme.components
    assert recompose(scheme) == g


@settings(max_examples=5, deadline=None)
@given(rng=st.randoms(use_true_random=False), levels=st.integers(150, 200))
def test_decompose_deep_dyad_chain(rng, levels):
    g, expected = support.dyad_chain(rng, levels)
    scheme = decompose(g)
    assert _parts(scheme) == expected
    assert scheme.levels == levels
    assert [c.level for c in scheme.components] == list(range(1, levels + 1))


def _reference_scheme_doc(g, seed):
    """The scheme document from the (2,0) game that `decompose` played
    before it read the gate's orientation, over the same seeded order."""
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    out = support.pinned_orientation_reference(g, edges)
    return scheme_to_dict(assur_mod._decompose(g, out))


def test_decompose_matches_the_two_zero_game_on_all_small_pinned_graphs():
    checked = 0
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                if pinned_conditions_oracle(g):
                    assert (scheme_to_dict(decompose(g, seed=checked))
                            == _reference_scheme_doc(g, checked)), g
                    checked += 1
    assert checked == 2756


def test_decompose_matches_the_two_zero_game_on_seeded_stacks():
    rng = random.Random(19)
    parts = (support.dyad, support.triad, support.basic_5)
    for _ in range(500):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(1, 10))]
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        seed = rng.randrange(2 ** 32)
        assert scheme_to_dict(decompose(g, seed=seed)) == _reference_scheme_doc(g, seed)


def test_decompose_refuses_with_one_dof_in_every_order():
    # the gate plays the seeded order: the DOF and whether an edge is
    # rejected do not depend on it, and each order's witness breaks its count
    def bound(inner, pins):
        return 2 * len(inner) - (0 if len(pins) >= 2 else 1 if pins else 3)

    rng = random.Random(29)
    graphs = [g for n_inner in range(1, 5) for n_pins in range(2, 7 - n_inner)
              for g in support.all_pinned_graphs(n_inner, n_pins)
              if not pinned_conditions_oracle(g)]
    parts = (support.dyad, support.triad, support.basic_5)
    for _ in range(100):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(2, 8))]
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        edges = set(g.edges)
        pairs = {norm_edge(u, w) for u in g.inner for w in g.vertices if u != w}
        edges.remove(rng.choice(g.edges))
        edges.add(rng.choice(sorted(pairs - edges, key=ekey)))
        graphs.append(PinnedGraph(g.inner, g.pins, edges))
    refused = 0
    for g in graphs:
        outcomes = set()
        for seed in (None, 0, 1, 2, 3):
            try:
                decompose(g, seed=seed)
            except NotIsostaticError as exc:
                outcomes.add((exc.dof, exc.witness is None))
                if exc.witness is not None:
                    inner, pins = exc.witness
                    assert g.induced(inner, pins).m > bound(inner, pins), g
            else:
                outcomes.add("decomposed")
        assert len(outcomes) == 1, g
        refused += "decomposed" not in outcomes
    # every small graph, and the stacks whose moved edge broke a count
    assert refused == 1441 + 38


# -- deletion checks from the first sample's inverse, against the references ---

def _assert_deletions_match_oracle(g, seed, wrappers=False):
    # both verdicts from one sampling loop, as `is_assur` takes them
    expected = support.deletion_oracle(g, seed=seed)
    assert numeric.deletion_verdicts(g, seed=seed) == expected, g
    if wrappers:
        # through `is_assur`'s gate, which fails isolated pins
        gated = not g.isolated_pins()
        assert check_vertex_deletion(g, seed=seed) == (gated and expected[0])
        assert check_edge_deletion(g, seed=seed) == (gated and expected[1])


def test_assur_gate_matches_the_oracles_on_all_small_pinned_graphs():
    """NotIsostaticError exactly for fewer than two pins or failed pinned
    counts, else a reason exactly for an isolated pin; otherwise a held game
    exactly when the pin contraction is a circuit.  On every graph the gate
    lets through, the four checks agree with `is_assur`."""
    seen = Counter()
    checks = (check_minimality, check_circuit_condition,
              check_vertex_deletion, check_edge_deletion)
    for n_inner in range(1, 7):
        for n_pins in range(7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                isostatic = len(g.pins) >= 2 and pinned_conditions_oracle(g)
                try:
                    reason, held, _ = assur_gate(g)
                except NotIsostaticError:
                    assert not isostatic, g
                    seen["not isostatic"] += 1
                    continue
                assert isostatic and (reason is not None) == bool(g.isolated_pins()), g
                if reason:
                    assert held is None, g
                else:
                    assert (held is not None) == circuit_oracle(contract_pins(g)), g
                overall = is_assur(g).overall
                assert [check(g) for check in checks] == [overall] * 4, g
                seen[reason is None, held is not None] += 1
    assert seen[True, True] and seen[True, False] and seen[False, False]
    assert seen["not isostatic"]


def test_deletions_match_oracle_on_all_small_pinned_graphs():
    checked = 0
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                if pinned_isostatic(g):
                    _assert_deletions_match_oracle(g, seed=checked)
                    checked += 1
    assert checked == 2756


def test_deletions_match_oracle_on_stacks_and_edge_splits():
    rng = random.Random(47)
    parts = (support.dyad, support.triad, support.basic_5)
    for k in range(30):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(2, 7))]
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        _assert_deletions_match_oracle(g, seed=k, wrappers=True)
    for splits in (2, 6, 9, 11, 14, 17):
        g = support.edge_split_assur(rng, splits)
        assert len(g.inner) == 3 + splits
        _assert_deletions_match_oracle(g, seed=splits, wrappers=True)


def test_deletion_checks_eliminate_once_per_sample(monkeypatch):
    calls = []
    real = numeric._factor
    monkeypatch.setattr(numeric, "_factor", lambda *a: calls.append(1) or real(*a))
    g = support.edge_split_assur(random.Random(3), 9)
    assert check_vertex_deletion(g, seed=2) and check_edge_deletion(g, seed=2)
    assert len(calls) == 2
    calls.clear()
    stacked, _ = support.stack(random.Random(4), [support.triad(), support.basic_5()],
                               ["G0", "G1", "G2"])
    verdict = is_assur(stacked, seed=2, trials=5)
    assert verdict.evaluated() == dict.fromkeys(ALL_METHODS, False)
    assert len(calls) == 1  # a rigid block certifies both kinds at one sample


def test_decomposes_for_minimality_or_a_failed_circuit_only(monkeypatch, triad,
                                                            stacked_dyads):
    # a passing circuit condition asks for the decomposition only to check
    # minimality; a failing one asks for it once, and the verdict keeps it
    calls = []
    real = assur_mod._decompose
    monkeypatch.setattr(assur_mod, "_decompose", lambda *a: calls.append(1) or real(*a))
    assert check_vertex_deletion(triad) and check_edge_deletion(triad)
    assert check_circuit_condition(triad) and calls == []
    assert check_minimality(triad) and calls == [1]
    for method in ALL_METHODS:
        calls.clear()
        verdict = is_assur(stacked_dyads, methods=(method,))
        assert verdict.evaluated() == {"circuit": False, method: False} and calls == [1]
        assert verdict.scheme == decompose(stacked_dyads)


def test_singular_sample_counts_as_a_trial(monkeypatch, triad, stacked_dyads):
    real = numeric.random_configuration
    singular = []

    def collinear_first(g, rng):
        if not singular:
            singular.append(g)
            return {v: (k, 0) for k, v in enumerate(sorted(g.vertices, key=str))}
        return real(g, rng)

    expected = {g: (check_vertex_deletion(g, seed=9), check_edge_deletion(g, seed=9))
                for g in (triad, stacked_dyads)}
    assert expected == {triad: (True, True), stacked_dyads: (False, False)}
    monkeypatch.setattr(numeric, "random_configuration", collinear_first)
    for g, verdict in expected.items():
        singular.clear()
        assert numeric.deletion_verdicts(g, seed=9) == verdict
        assert singular == [g]
        singular.clear()
        # the only sample is the singular one: no target is seen to move
        assert numeric.deletion_verdicts(g, seed=9, trials=1) == (False, False)


@pytest.mark.parametrize("trials", [0, -1])
def test_motion_checks_refuse_fewer_than_one_trial(triad, trials):
    checks = [lambda: numeric.deletion_verdicts(triad, trials=trials),
              lambda: numeric.all_inner_move(triad, trials=trials),
              lambda: check_vertex_deletion(triad, trials=trials),
              lambda: check_edge_deletion(triad, trials=trials),
              lambda: is_assur(triad, trials=trials)]
    for check in checks:
        with pytest.raises(GraphError, match="trials must be >= 1"):
            check()


def test_deletions_match_inverse_oracle_on_assur_graphs_and_compositions():
    # the replaced route, one full inverse per sample, on 3-60 inner vertices
    rng = random.Random(53)
    for k, size in enumerate((3, 5, 8, 13, 21, 34, 60)):
        assur = support.edge_split_assur(rng, size - 3)
        parts, placed = [], 0
        while placed < size:
            room = size - placed - (0 if parts else 1)  # room for a second part
            part = (support.edge_split_assur(rng, rng.randint(0, min(room, 20) - 3))
                    if room >= 3 else support.dyad())
            parts.append(part)
            placed += len(part.inner)
        composed, _ = support.stack(rng, parts, ["G0", "G1"])
        assert len(assur.inner) == len(composed.inner) == size and len(parts) > 1
        for g in (assur, composed):
            expected = support.deletion_inverse_oracle(g, seed=k)
            assert expected == ((True, True) if g is assur else (False, False))
            assert numeric.deletion_verdicts(g, seed=k) == expected, (size, g is assur)


def test_deletions_match_the_gauss_jordan_reference_sample_for_sample():
    # the same algorithm on dense rows through `support.solve_reference`
    rng = random.Random(59)
    parts = (support.dyad, support.triad, support.basic_5)
    for k in range(40):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(1, 6))]
        if k % 4 == 0:
            chosen.append(support.edge_split_assur(rng, rng.randint(0, 12)))
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        for trials in (1, 3, 8):
            assert numeric.deletion_verdicts(g, k, trials) \
                == support.deletion_verdicts_reference(g, k, trials), (k, trials)


def _fixed_at(h, config):
    """Some inner vertex of `h` stays still in every motion at `config`, in
    exact rationals."""
    basis = motion_space(h, {v: config[v] for v in h.vertices})
    return any(all(vec[v] == (0, 0) for vec in basis.vectors) for v in h.inner)


def _fixed_deletions(g, config):
    """Per kind (vertex, edge), the deletion targets in `deletion_verdicts`
    order that leave some inner vertex fixed at `config`."""
    inner = sorted(g.inner, key=vkey)
    vertices = [h for h in map(g.without_vertex, inner + sorted(g.pins, key=vkey))
                if h.inner]
    edges = [g.without_edge(u, v) for u, v in g.edges]
    return [[i for i, h in enumerate(hs) if _fixed_at(h, config)]
            for hs in (vertices, edges)]


def _run_at(monkeypatch, g, special, trials, seed=5):
    """deletion_verdicts with the configurations `special` gives by sample
    number (from 1); returns the verdicts, the samples drawn and, per target
    found still, (sample, its bars, still blocks, certified), as
    `_rigid_block` is handed them."""
    real_config, real_block = numeric.random_configuration, numeric._rigid_block
    samples, still = [], []

    def configure(h, rng):
        samples.append(h)
        return dict(special[len(samples)]) if len(samples) in special \
            else real_config(h, rng)

    def recorded(ends, blocks, own):
        ok = real_block(ends, blocks, own)
        still.append((len(samples), tuple(own), frozenset(blocks), ok))
        return ok

    for name, fake in (("random_configuration", configure), ("_rigid_block", recorded)):
        monkeypatch.setattr(numeric, name, fake)
    verdicts = numeric.deletion_verdicts(g, seed=seed, trials=trials)
    monkeypatch.undo()
    return verdicts, len(samples), still


TRIAD_SPECIAL = {"b": (0, 0), "c": (1, 0), "q3": (2, 0), "a": (0, 1),
                 "q1": (-1, 3), "q2": (1, -2)}


def test_accidental_still_vertex_is_not_certified(monkeypatch, triad):
    # b, c and q3 collinear: the bar c-q3 points at b, so deletions that leave
    # the triangle on the bars b-q2 and c-q3 hold b still at this position only
    assert motion_space(triad, TRIAD_SPECIAL).dim == 0
    fixed = _fixed_deletions(triad, TRIAD_SPECIAL)
    assert all(fixed) and _fixed_deletions(triad, support.generic_configuration(triad)) \
        == [[], []]
    b = sorted(triad.inner, key=vkey).index("b")
    for trials in (1, 2, 8):
        verdicts, samples, still = _run_at(monkeypatch, triad, {1: TRIAD_SPECIAL}, trials)
        # b carries one bar to the ground, b-q2, not the two a certificate
        # needs, so every still target is left open and the next sample
        # (when there is one) sees all of them move
        assert len(still) == sum(map(len, fixed))
        assert all(k == 1 and b in blocks and not ok for k, _, blocks, ok in still)
        assert verdicts == ((False, False) if trials == 1 else (True, True))
        assert samples == min(trials, 2)


def test_rigid_block_certifies_false_at_the_first_sample(monkeypatch, triad):
    # a dyad z on the triad's vertex a and pin q1: deleting z, or one of its
    # bars, leaves the triad rigid on its 6 bars, so those targets are fixed
    # generically; at TRIAD_SPECIAL b is also still, by accident
    g = PinnedGraph(triad.inner | {"z"}, triad.pins,
                    list(triad.edges) + [("z", "a"), ("z", "q1")])
    special = dict(TRIAD_SPECIAL, z=(3, 4))
    assert motion_space(g, special).dim == 0
    inner = sorted(g.inner, key=vkey)
    held = frozenset(inner.index(v) for v in triad.inner)
    by_z = tuple(j for j, e in enumerate(g.edges) if "z" in e)
    b = inner.index("b")
    for trials in (1, 2, 8):
        for at in ({1: special}, {}):
            verdicts, samples, still = _run_at(monkeypatch, g, at, trials)
            assert verdicts == (False, False) and samples == 1
            certified = [(own, blocks) for _, own, blocks, ok in still if ok]
            # one certificate per kind: deleting z, then its bar to a
            assert certified == [(by_z, held), (by_z[:1], held)]
            assert all(b in blocks for _, _, blocks, ok in still if not ok)
            if not at:  # a generic sample leaves no accidental zero
                assert [ok for *_, ok in still] == [True, True]


def test_singular_sample_uses_up_a_trial(monkeypatch, stacked_dyads):
    collinear = {v: (k, 0) for k, v in enumerate(sorted(stacked_dyads.vertices, key=vkey))}
    for trials in (1, 3, 5):
        verdicts, samples, still = _run_at(monkeypatch, stacked_dyads,
                                           {1: collinear}, trials)
        # the singular first sample tests nothing; the second certifies both
        # kinds, and trials=1 leaves both False uncertified
        assert verdicts == (False, False)
        assert samples == min(trials, 2)
        assert [(k, ok) for k, _, _, ok in still] == ([] if trials == 1
                                                      else [(2, True), (2, True)])


def test_forged_zero_on_a_targets_own_bar_is_not_certified(monkeypatch, dyad):
    # the first sample reads block v as zero at bar 0 in every solution, so
    # the bar v-p1 and the pin p1 find v still; the bars on v, bar 0 among
    # them, number 2, but bar 0 is the target's, so neither is certified
    real_solve, solved = numeric._solve, []

    def solve(rows, rhs):
        ys = real_solve(rows, rhs)
        solved.append(ys)
        if len(solved) == 1:
            ys = [(0,) + tuple(y[1:]) for y in ys]
        return ys

    monkeypatch.setattr(numeric, "_solve", solve)
    verdicts, samples, still = _run_at(monkeypatch, dyad, {}, 8)
    assert [(k, own, ok) for k, own, _, ok in still] == [(1, (0,), False), (1, (0,), False)]
    assert samples == len(solved) == 2 and verdicts == (True, True)


def test_isolated_pin_holds_every_block_still():
    # deleting the isolated pin p3 leaves the dyad rigid: a target with no
    # bars leaves every inner block still, and its kind fails
    g = PinnedGraph({"v"}, {"p1", "p2", "p3"}, [("v", "p1"), ("v", "p2")])
    for seed in range(3):
        assert numeric.deletion_verdicts(g, seed) == (False, True) \
            == support.deletion_inverse_oracle(g, seed)


def _deleted(g, own):
    """`g` without the bars `own`: every inner vertex other than a deleted
    one keeps the motions that deleting the whole target leaves it."""
    return PinnedGraph(g.inner, g.pins, [e for j, e in enumerate(g.edges) if j not in own])


def _assert_certificates_hold(monkeypatch, g, seed):
    """Every vector of the exact rational motion space of `g` minus a
    certified target is zero on the certified blocks; returns the number of
    certificates and the verdicts."""
    verdicts, _, still = _run_at(monkeypatch, g, {}, numeric.DEFAULT_TRIALS, seed)
    found = [(own, blocks) for _, own, blocks, ok in still if ok]
    inner = sorted(g.inner, key=vkey)
    config = support.generic_configuration(g, seed)
    for own, blocks in found:
        basis = motion_space(_deleted(g, own), config)
        assert all(vec[inner[i]] == (0, 0) for vec in basis.vectors for i in blocks), \
            (g, own, blocks)
    return len(found), verdicts


def test_rigid_block_certificates_hold_on_all_small_pinned_graphs(monkeypatch):
    checked = certified = 0
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                if pinned_isostatic(g):
                    found, verdicts = _assert_certificates_hold(monkeypatch, g, checked)
                    # a certificate per failing kind, none for a kind that holds
                    assert found == list(verdicts).count(False), g
                    certified += found
                    checked += 1
    assert checked == 2756 and certified > 0


def test_rigid_block_certificates_hold_on_compositions(monkeypatch):
    rng = random.Random(61)
    parts = (support.dyad, support.triad, support.basic_5)
    for k in range(200):
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(2, 5))]
        if k % 4 == 0:
            chosen.append(support.edge_split_assur(rng, rng.randint(0, 8)))
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        found, verdicts = _assert_certificates_hold(monkeypatch, g, k)
        assert verdicts == (False, False) and found == 2, k
