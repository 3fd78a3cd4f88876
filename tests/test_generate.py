import random
import warnings
from collections import Counter
from dataclasses import replace

import pytest

import support
from pinrig.assur import is_assur
from pinrig.canon import canonical_code
from pinrig.counting import ORACLE_MAX_VERTICES, circuit_oracle
from pinrig.errors import GraphError, PinrigWarning
from pinrig.generate import (STEPS, Certificate, ConstructionStep, assur_catalog, certify,
                             circuit_catalog, circuit_classes, edge_split,
                             pin_rearrangement, replay_certificate, step,
                             two_sum, verify_certificate, vertex_split)
from pinrig.graphs import (Multigraph, PinnedGraph, complete_graph, contract_pins, norm_edge,
                           split_contracted_vertex, vkey)
from pinrig.pebble import circuit_state, pebble_rank


class TestEdgeSplit:
    def test_k4_split_gives_the_wheel(self):
        g = edge_split(complete_graph(4), (0, 1), 2, new_vertex=4)
        assert circuit_oracle(g)
        assert canonical_code(g) == canonical_code(support.wheel(4))

    def test_triad_inner_edge_split_stays_assur(self, triad):
        g = edge_split(triad, ("a", "b"), "c")
        assert len(g.inner) == 4
        assert is_assur(g, seed=5).overall

    def test_isostatic_triangle_split(self):
        tri = Multigraph(edges=[(0, 1), (1, 2), (0, 2)])
        g = edge_split(tri, (0, 1), 2, new_vertex=3)
        assert pebble_rank(g).rank == g.m == 2 * g.n - 3

    def test_edges_keep_construction_order(self):
        # the first copy of a doubled edge goes, the new edges come last
        g = Multigraph(edges=[(0, 1), (1, 2), (1, 0), (0, 2)])
        assert edge_split(g, (1, 0), 2, new_vertex=3).edges == (
            (1, 2), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3))

    def test_endpoint_as_third_rejected(self):
        with pytest.raises(GraphError):
            edge_split(complete_graph(4), (0, 1), 1)

    def test_two_pinned_attachments_rejected(self, basic_5):
        # contraction would gain a doubled edge; the split has no
        # circuit-level counterpart and cannot preserve the Assur property
        with pytest.raises(GraphError):
            edge_split(basic_5, (0, "pA"), "pB")


class TestTwoSum:
    def test_k4_pair(self):
        k4 = complete_graph(4)
        other = k4.relabeled({i: i + 4 for i in range(4)})
        g = two_sum(k4, other, (0, 1), (4, 5))
        assert g.n == 6 and g.m == 10
        assert circuit_oracle(g)

    def test_doubled_edge_glue_is_identity(self):
        k4 = complete_graph(4)
        de = Multigraph(edges=[("x", "y"), ("x", "y")])
        with pytest.warns(PinrigWarning) if False else _nowarn():
            g = two_sum(de, k4, ("x", "y"), (0, 1))
        assert canonical_code(g) == canonical_code(k4)

    def test_non_circuit_input_warns_but_runs(self):
        tri = Multigraph(edges=[(0, 1), (1, 2), (0, 2)])
        other = complete_graph(4).relabeled({i: i + 3 for i in range(4)})
        with pytest.warns(PinrigWarning):
            g = two_sum(tri, other, (0, 1), (3, 4))
        assert g.m == tri.m + other.m - 2

    def test_orientation_flips_identification(self):
        c1 = support.wheel(4)
        c2 = complete_graph(4).relabeled({i: i + 10 for i in range(4)})
        a = two_sum(c1, c2, (1, 2), (10, 11), flip=False)
        b = two_sum(c1, c2, (1, 2), (10, 11), flip=True)
        assert circuit_oracle(a) and circuit_oracle(b)

    def test_assur_level_two_sum_via_circuits(self, triad, basic_5):
        # glue the contractions, then split a vertex back into pins:
        # composing two Assur graphs while eliminating one pinned vertex
        c1 = contract_pins(triad, star="s1")
        c2 = contract_pins(basic_5, star="s2")
        glued = two_sum(c1, c2, ("a", "s1"), (0, "s2"))
        assert circuit_oracle(glued) or glued.n > 12
        nbrs = sorted(glued.neighbors("s1").elements(), key=str)
        assignment = [(x, f"np{i % 2}") for i, x in enumerate(nbrs)]
        g = split_contracted_vertex(glued, "s1", assignment)
        assert is_assur(g, methods=("circuit",)).overall

    def test_missing_glue_edge_rejected(self):
        k4 = complete_graph(4)
        other = k4.relabeled({i: i + 4 for i in range(4)})
        with pytest.raises(GraphError):
            two_sum(k4, other, (0, 5), (4, 5))

    def test_pinned_operand_is_refused(self, triad):
        k4 = complete_graph(4)
        for c1, c2, e1, e2 in ((triad, k4, ("a", "b"), (0, 1)),
                               (k4, triad, (0, 1), ("a", "b"))):
            with pytest.raises(GraphError, match="takes a multigraph"):
                two_sum(c1, c2, e1, e2)


class _nowarn:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestVertexSplit:
    def test_k4_split_gives_the_wheel(self):
        g = vertex_split(complete_graph(4), 3, shared=0, moved=[1], new_vertex=4)
        assert canonical_code(g) == canonical_code(support.wheel(4))
        assert circuit_oracle(g)

    def test_wheel_hub_split(self):
        w = support.wheel(4)
        g = vertex_split(w, 0, shared=1, moved=[2], new_vertex=9)
        assert g.n == 6
        assert circuit_oracle(g)

    def test_triad_inner_vertex_split_grows_assur(self, triad):
        m = contract_pins(triad, star="s")
        grown = vertex_split(m, "a", shared="b", moved=["c"], new_vertex="a2")
        nbrs = sorted(grown.neighbors("s").elements(), key=str)
        assignment = [(x, f"q{i}") for i, x in enumerate(nbrs)]
        g = split_contracted_vertex(grown, "s", assignment)
        assert is_assur(g, seed=9).overall

    def test_degree_floor_enforced(self):
        with pytest.raises(GraphError):
            vertex_split(complete_graph(4), 3, shared=0, moved=[1, 2])

    def test_shared_must_be_adjacent(self):
        g = support.wheel(4)
        with pytest.raises(GraphError):
            vertex_split(g, 1, shared=3, moved=[2])

    def test_pinned_graph_is_refused(self, triad):
        with pytest.raises(GraphError, match="takes a multigraph"):
            vertex_split(triad, "a", shared="b", moved=["c"], new_vertex="a2")


class TestPinRearrangement:
    def test_triad_to_two_pins(self, triad):
        g = pin_rearrangement(triad, [("a", "r1"), ("b", "r1"), ("c", "r2")])
        assert len(g.pins) == 2
        assert is_assur(g, methods=("circuit",)).overall
        assert (canonical_code(contract_pins(g))
                == canonical_code(contract_pins(triad)))

    def test_dyad_pin_swap_is_isomorphic(self, dyad):
        g = pin_rearrangement(dyad, [("v", "pB"), ("v", "pA")])
        assert canonical_code(g) == canonical_code(dyad)

    def test_all_rearrangements_share_one_contraction(self, basic_5):
        from pinrig.generate import _set_partitions
        base_code = canonical_code(contract_pins(basic_5))
        slots = [(u, v) if v in basic_5.pins else (v, u)
                 for u, v in basic_5.edges
                 if u in basic_5.pins or v in basic_5.pins]
        inners = [i for i, _ in slots]
        seen = set()
        for blocks in _set_partitions(inners):
            if len(blocks) < 2:
                continue
            assignment = [(x, f"r{bi}") for bi, block in enumerate(blocks)
                          for x in block]
            g = pin_rearrangement(basic_5, assignment)
            assert canonical_code(contract_pins(g)) == base_code
            seen.add(canonical_code(g))
        assert len(seen) >= 2

    def test_single_pin_rejected(self, dyad):
        with pytest.raises(GraphError):
            pin_rearrangement(dyad, [("v", "r"), ("v", "r")])


class TestEnumeration:
    def test_circuits_n4_is_k4_alone(self):
        catalog = circuit_catalog(4)
        assert set(catalog) == {4}
        assert len(catalog[4]) == 1
        assert canonical_code(catalog[4][0]) == canonical_code(complete_graph(4))

    def test_circuits_n5_single_class(self):
        catalog = circuit_catalog(5)
        assert len(catalog[5]) == 1
        assert canonical_code(catalog[5][0]) == canonical_code(support.wheel(4))
        # brute-force sweep: every 5-vertex 8-edge graph that is a circuit
        sweep = {canonical_code(g) for g in support.all_simple_graphs(5, m=8)
                 if circuit_oracle(g)}
        assert sweep == {canonical_code(g) for g in catalog[5]}

    def test_every_enumerated_circuit_passes_the_oracle(self):
        for n, graphs in circuit_catalog(6).items():
            for g in graphs:
                assert circuit_oracle(g)
                assert g.m % 2 == 0, "circuits have an even number of edges"

    def test_enumerate_circuits_codes(self):
        classes = circuit_classes(5)
        assert sum(map(len, classes.values())) == 2  # K4 and the wheel

    def test_assur_n3_is_the_dyad(self):
        catalog = assur_catalog(4)
        assert set(catalog) == {3}
        assert len(catalog[3]) == 1
        assert canonical_code(catalog[3][0]) == canonical_code(support.dyad())

    def test_no_assur_graph_on_four_vertices(self):
        assert 4 not in assur_catalog(6)

    def test_assur_n5(self, basic_5):
        catalog = assur_catalog(5)
        assert len(catalog[5]) == 1
        assert canonical_code(catalog[5][0]) == canonical_code(basic_5)

    def test_every_enumerated_assur_graph_passes(self):
        for n, graphs in assur_catalog(6).items():
            for g in graphs:
                assert is_assur(g, seed=6).overall

    def test_bounds_enforced(self):
        with pytest.raises(GraphError):
            circuit_catalog(11)
        with pytest.raises(GraphError):
            assur_catalog(2)


class TestCertificates:
    def test_dyad_has_empty_certificate(self, dyad):
        cert = certify(dyad)
        assert cert.base_kind == "dyad" and cert.steps == ()
        assert verify_certificate(cert)

    def test_triad_certifies_with_one_pin_split(self, triad):
        cert = certify(triad)
        assert cert.base_kind == "k4"
        assert [s.kind for s in cert.steps] == ["pin-split"]
        assert verify_certificate(cert)
        assert replay_certificate(cert) == cert.claimed == triad

    def test_two_sum_built_graph_certifies_with_two_sum_step(self):
        k4 = complete_graph(4)
        other = k4.relabeled({i: i + 4 for i in range(4)})
        glued = two_sum(k4, other, (0, 1), (4, 5))
        nbrs = sorted(glued.neighbors(2).elements())
        g = split_contracted_vertex(glued, 2, [(x, f"P{i % 2}")
                                               for i, x in enumerate(nbrs)])
        cert = certify(g)
        kinds = [s.kind for s in cert.steps]
        assert "two-sum" in kinds
        assert verify_certificate(cert)

    def test_certify_rejects_non_assur(self, stacked_dyads):
        with pytest.raises(GraphError):
            certify(stacked_dyads)

    def test_tampered_claimed_code_fails(self, triad):
        cert = certify(triad)
        assert not verify_certificate(replace(cert, claimed="bogus"))

    def test_isomorphic_claim_with_other_labels_fails(self, triad):
        # the claim is the labelled graph, not its isomorphism class
        swap = {v: v for v in triad.vertices} | {"a": "b", "b": "a"}
        relabeled = triad.relabeled(swap)
        assert relabeled != triad
        assert not verify_certificate(replace(certify(triad), claimed=relabeled))

    def test_tampered_step_fails(self, triad):
        cert = certify(triad)
        split = cert.steps[0]
        broken = step("pin-split", vertex=split.get("vertex"),
                      assignment=split.get("assignment")[:-1])
        assert not verify_certificate(replace(cert, steps=(broken,)))

    def test_grammar_rejects_pin_split_after_pinning(self, dyad):
        cert = certify(dyad)
        extra = step("pin-split", vertex="v", assignment=(("v", "q"),))
        assert not verify_certificate(replace(cert, steps=(extra,)))

    def test_grammar_rejects_vertex_addition_from_k4(self, triad):
        cert = certify(triad)
        bad = (step("vertex-addition", u="a", w="b", v="zz"),) + cert.steps
        assert not verify_certificate(replace(cert, steps=bad))

    def test_grammar_rejects_pin_split_from_edge_base(self):
        # the replay would be a pinned graph with pinned DOF 1, not isostatic
        cert = Certificate(
            base_kind="edge", base_vertices=(0, 1),
            steps=(step("vertex-addition", u=0, w=1, v=2),
                   step("edge-split", u=0, w=1, x=2, v=3),
                   step("pin-split", vertex=0, assignment=((2, "p"), (3, "q")))),
            claimed=PinnedGraph({1, 2, 3}, {"p", "q"},
                                [(1, 2), (1, 3), (2, 3), (2, "p"), (3, "q")]))
        assert verify_certificate(cert) is False

    def test_two_sum_operand_that_is_no_certificate_is_false(self):
        cert = Certificate("k4", (0, 1, 2, 3),
                           (step("two-sum", a=0, b=1, other="x"),), "")
        assert verify_certificate(cert) is False

    def test_catalog_certificates_round_trip(self):
        for n, graphs in assur_catalog(6).items():
            for g in graphs:
                cert = certify(g)
                assert verify_certificate(cert)
                assert canonical_code(replay_certificate(cert)) == canonical_code(g)

    def test_seven_vertex_catalog_certifies(self):
        catalog = assur_catalog(7)
        assert len(catalog[7]) == 32
        kinds = set()
        for g in catalog[7]:
            cert = certify(g)
            assert verify_certificate(cert)
            kinds.update(s.kind for s in cert.steps)
        assert "two-sum" in kinds and "edge-split" in kinds

    def test_large_mixed_circuits_certify_through_two_sums(self):
        rng = random.Random(53)
        largest_two_sum = 0
        for _ in range(24):
            nv = rng.randint(13, 30)
            c = support.random_circuit(rng, nv, rng.randint(2, (nv - 4) // 2))
            star, pins = rng.randrange(nv), rng.choice((2, 3))
            nbrs = sorted(c.neighbors(star).elements())
            g = split_contracted_vertex(c, star, [(x, f"P{i % pins}")
                                                  for i, x in enumerate(nbrs)])
            cert = certify(g)
            assert verify_certificate(cert)
            for i, st in enumerate(cert.steps):
                if st.kind == "two-sum":
                    before = replay_certificate(replace(cert, steps=cert.steps[:i]))
                    other = replay_certificate(st.get("other"))
                    largest_two_sum = max(largest_two_sum, before.n + other.n - 2)
        assert largest_two_sum > ORACLE_MAX_VERTICES


class TestClosure:
    def test_randomized_closure_produces_circuits(self):
        rng = random.Random(77)
        current = complete_graph(4)
        for step_no in range(60):
            ops = ["edge-split", "vertex-split", "two-sum"]
            op = ops[rng.randrange(3)]
            if op == "edge-split":
                e = current.edges[rng.randrange(current.m)]
                choices = sorted(current.vertices - set(e), key=str)
                current = edge_split(current, e, choices[rng.randrange(len(choices))])
            elif op == "vertex-split":
                v = sorted(current.vertices, key=str)[rng.randrange(current.n)]
                nbrs = sorted(current.neighbors(v).elements(), key=str)
                if len(set(nbrs)) < 3:
                    continue
                shared = nbrs[rng.randrange(len(nbrs))]
                rest = [x for x in nbrs if x != shared]
                k = rng.randint(1, len(rest) - 1)
                current = vertex_split(current, v, shared, rest[:k])
            else:
                other = complete_graph(4).relabeled(
                    {i: f"g{step_no}.{i}" for i in range(4)})
                e1 = current.edges[rng.randrange(current.m)]
                current = two_sum(current, other, e1,
                                  (f"g{step_no}.0", f"g{step_no}.1"),
                                  flip=rng.random() < 0.5)
            if current.n > 8:
                current = complete_graph(4)
                continue
            assert circuit_oracle(current), (step_no, current)


def test_verify_certificate_step_missing_parameter_is_false():
    cert = Certificate("k4", (0, 1, 2, 3),
                       (ConstructionStep("edge-split", (("u", 0), ("w", 1))),), "")
    assert verify_certificate(cert) is False


def _pin_split(c, star, pins):
    nbrs = sorted(c.neighbors(star).elements())
    return split_contracted_vertex(c, star, [(x, f"P{i % pins}")
                                             for i, x in enumerate(nbrs)])


def _two_sum_operands(steps):
    return sum(1 + _two_sum_operands(st.get("other").steps)
               for st in steps if st.kind == "two-sum")


def test_certify_builds_two_plus_two_pebble_states_per_two_sum(monkeypatch):
    """The gate's two games, the scaffolded one and the contraction's, whose
    state the reduction goes on to edit, then one game per side of each
    reverse 2-sum, nested operands included."""
    from pinrig import pebble
    built = []

    class Counting(pebble._PebbleState):
        def __init__(self, pebbles):
            built.append(1)
            super().__init__(pebbles)

    monkeypatch.setattr(pebble, "_PebbleState", Counting)
    rng = random.Random(3)
    circuits = [support.nested_k4(2), support.nested_k4(3)]
    circuits += [support.random_circuit(rng, 20, 6) for _ in range(6)]
    counts = []
    for i, c in enumerate(circuits):
        built.clear()
        cert = certify(_pin_split(c, 0, 2 + i % 2))
        counts.append((_two_sum_operands(cert.steps), len(built)))
    assert all(n == 2 + 2 * k for k, n in counts), counts
    # nested operands: more 2-sums than the top level holds
    assert counts[0][0] == 3 and max(k for k, _ in counts[2:]) > 0


def test_certify_builds_the_pin_contraction_once(monkeypatch, triad):
    """The reduction starts on the adjacency and the live game that the
    Assur gate's `circuit_state` hands on, so no second contraction is
    built."""
    from pinrig import graphs
    built = []
    real = graphs.Multigraph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(graphs.Multigraph, "__init__", counting)
    certify(triad)
    assert len(built) == 1


def test_every_reduction_step_matches_the_oracle(monkeypatch):
    """On every step of the one-state reduction, nested 2-sum operands
    included, the state holds the circuit minus its rejected edge, and the
    reverse edge-split taken (or its absence) is the oracle's."""
    from pinrig import generate
    real = generate._unsplit
    taken = Counter()

    def graph_of(adj):
        return Multigraph(adj, [(x, y) for x in adj for y in Counter(adj[x]).elements()
                                if vkey(x) < vkey(y)])

    def held_plus(state, r):
        out = state.out
        return Counter([norm_edge(*r)] + [norm_edge(x, y) for x in out
                                          for y in Counter(out[x]).elements()])

    def checked(adj, state, r):
        m = graph_of(adj)
        assert held_plus(state, r) == m.edge_counter()
        want = support.reverse_edge_split_oracle(m)
        st, r = real(adj, state, r)
        if want is None:
            assert st is None and held_plus(state, r) == m.edge_counter()
            taken["none"] += 1
        else:
            assert st == want[1] and graph_of(adj) == want[0]
            assert norm_edge(*r) == norm_edge(st.get("u"), st.get("w"))
            taken["edge-split"] += 1
        return st, r

    monkeypatch.setattr(generate, "_unsplit", checked)
    rng = random.Random(8)
    for i in range(48):
        nv = rng.randint(8, 36)
        two_sums = rng.randint(1, (nv - 4) // 2) if i % 2 else 0
        c = support.random_circuit(rng, nv, two_sums)
        base, steps = generate._reduce_circuit(circuit_state(c))
        assert verify_certificate(Certificate("k4", base, tuple(steps), c))
    assert taken["none"] >= 24 and taken["edge-split"] >= 700


def _random_step(rng, g, kind, fresh):
    """A `kind` step with parameters drawn from the graph `g` it extends:
    mostly well formed, now and then not (a repeated vertex, one pin
    label), so that the replay has something to refuse."""
    verts = sorted(g.vertices, key=vkey)
    pins = g.pins if isinstance(g, PinnedGraph) else ()
    u, w = rng.choice(g.edges)[::rng.choice((1, -1))]
    new = rng.choice(verts) if rng.random() < 0.05 else fresh
    labels = [f"P{i}" for i in range(rng.choice((1, 2, 3, 3)))]
    v = rng.choice(verts)
    nbrs = sorted((y if x == v else x for x, y in g.edges if v in (x, y)), key=vkey)
    if kind == "edge-split":
        return step(kind, u=u, w=w, x=rng.choice(verts), v=new)
    if kind == "vertex-split":
        shared = nbrs.pop(rng.randrange(len(nbrs)))
        moved = tuple(x for x in nbrs if rng.random() < 0.5)
        return step(kind, v=v, shared=shared, moved=moved, v2=new)
    if kind == "two-sum":
        operand = Certificate("k4", (u, w, f"{fresh}a", f"{fresh}b"), ())
        if rng.random() < 0.5:
            operand = replace(operand, steps=(step("edge-split", u=u, w=w, x=f"{fresh}a",
                                                   v=f"{fresh}c"),))
        return step(kind, a=u, b=w, other=operand)
    if kind == "pin-split":
        return step(kind, vertex=v, assignment=tuple((x, rng.choice(labels)) for x in nbrs))
    assert kind == "pin-rearrange"
    return step(kind, assignment=tuple(
        (y if x in pins else x, rng.choice(labels)) for x, y in g.edges
        if x in pins or y in pins))


def test_accepted_replays_are_sound():
    """Short random certificates from the `k4` and `dyad` bases, each step
    of any kind, `pin-rearrange` and 2-sums with certified K4 operands among
    them: each replay that `replay_certificate` accepts is, by the
    exhaustive oracles, a circuit in the multigraph phase and an Assur graph
    (pinned isostatic, with pins contracting to a circuit) in the pinned
    phase."""
    from pinrig.counting import pinned_conditions_oracle
    from pinrig.errors import CertificateError
    rng = random.Random(16)
    accepted = Counter()
    for base, verts in [("k4", (0, 1, 2, 3)), ("dyad", (0, "P0", "P1"))] * 300:
        cert = Certificate(base, verts, (), "")
        g = replay_certificate(cert)
        for k in range(10):
            kind = rng.choice(sorted(STEPS))
            st = _random_step(rng, g, kind, f"n{k}")
            try:
                h = replay_certificate(replace(cert, steps=cert.steps + (st,)))
            except CertificateError:
                continue
            if h.n > 9:
                break
            if isinstance(h, PinnedGraph):
                assert pinned_conditions_oracle(h) and circuit_oracle(contract_pins(h)), \
                    (base, cert.steps, st)
            else:
                assert circuit_oracle(h), (base, cert.steps, st)
            accepted[base, isinstance(g, PinnedGraph), kind] += 1
            cert, g = replace(cert, steps=cert.steps + (st,)), h
    # every edge-split of the dyad has two pinned attachments, so the dyad
    # base grows only by pin-rearrange
    assert set(accepted) == {("k4", False, kind)
                             for kind in ("edge-split", "vertex-split", "two-sum", "pin-split")
                             } | {("k4", True, "edge-split"), ("k4", True, "pin-rearrange"),
                                  ("dyad", True, "pin-rearrange")}
    assert min(accepted.values()) >= 20, accepted


def test_first_separating_pair_splits_a_circuit_into_two_circuits():
    """At a 2-separation {a, b} of a rigidity circuit both sides plus the
    edge ab are circuits (Berg & Jordan, J. Combin. Theory Ser. B 88, 2003),
    so `_reverse_two_sum` takes the first separating pair in `combinations`
    order.  The pair scan it replaced, kept as the test reference, finds the
    same pair (or none) on every circuit; the sides are checked by the
    exhaustive oracle up to its bound and by the pebble game above it."""
    from pinrig import generate
    from pinrig.pebble import is_circuit
    rng = random.Random(2003)
    circuits = [support.nested_k4(depth) for depth in (1, 2, 3)]
    for _ in range(120):
        nv = rng.randint(8, 24)
        circuits.append(support.random_circuit(rng, nv, rng.randint(1, (nv - 4) // 2)))
    same = split = by_oracle = 0
    for c in circuits:
        adj = {x: c.neighbors(x) for x in c.vertices}
        found = support.first_separating_pair_reference(adj)
        pair = found and found[0]
        assert generate._separating_pair(adj, sorted(adj, key=vkey)) == pair, c
        same += 1
        if pair is None:
            continue
        a, b = pair
        first = found[1]
        for inside in (True, False):
            side = [e for e in c.edges if (e[0] in first or e[1] in first) == inside]
            m = Multigraph({a, b}.union(*side), side + [(a, b)])
            if m.n <= ORACLE_MAX_VERTICES:
                assert circuit_oracle(m), (c, pair)
                by_oracle += 1
            else:
                assert is_circuit(m), (c, pair)
        held1, st = generate._reverse_two_sum(adj)
        assert (st.get("a"), st.get("b")) == pair
        assert set(held1[0]) == first | {a, b}
        split += 1
    assert same >= 94 and split > 80 and by_oracle > 100


def test_in_place_replay_equals_the_per_step_reference():
    """On certificates of seeded pin-splits of circuits with up to 200 inner
    vertices and 2-sum shares 0, 0.3 and 0.6, the in-place replay gives the
    graph of the per-step reference, edge order included, after the whole
    multigraph phase, half of it and the pin-split."""
    rng = random.Random(17)
    for inner in (20, 60, 200):
        for share in (0, 0.3, 0.6):
            nv = inner + 1
            c = support.random_circuit(rng, nv, round(share * (nv - 4) / 2))
            cert = certify(_pin_split(c, rng.randrange(nv), 3))
            assert _two_sum_operands(cert.steps) > 0 or share == 0
            for cut in (len(cert.steps) // 2, len(cert.steps) - 1, len(cert.steps)):
                part = replace(cert, steps=cert.steps[:cut])
                got, want = replay_certificate(part), support.replay_reference(part)
                assert type(got) is type(want) and got.edges == want.edges
                assert got.vertices == want.vertices
            assert isinstance(got, PinnedGraph) and got.pins == want.pins
            assert got == cert.claimed


def _replay_outcome(replay, cert):
    """(graph or refusal message, warnings) of one replay."""
    from pinrig.errors import CertificateError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = replay(cert)
            got = (type(g).__name__, g.vertices, g.edges,
                   g.pins if isinstance(g, PinnedGraph) else None)
        except CertificateError as exc:
            got = str(exc)
    return got, [(w.category, str(w.message)) for w in caught]


def test_random_replays_match_the_reference():
    """The random certificates of `test_accepted_replays_are_sound`, grown
    the same way, are accepted or refused by the in-place replay exactly as
    by the per-step reference, with the same graph, message and warnings."""
    rng = random.Random(16)
    outcomes = Counter()
    for base, verts in [("k4", (0, 1, 2, 3)), ("dyad", (0, "P0", "P1"))] * 300:
        cert = Certificate(base, verts, (), "")
        g = support.replay_reference(cert)
        for k in range(10):
            kind = rng.choice(sorted(STEPS))
            st = _random_step(rng, g, kind, f"n{k}")
            grown = replace(cert, steps=cert.steps + (st,))
            want = _replay_outcome(support.replay_reference, grown)
            assert _replay_outcome(replay_certificate, grown) == want, (base, grown.steps)
            refused = isinstance(want[0], str)
            outcomes["refused" if refused else "accepted"] += 1
            if refused:
                continue
            h = support.replay_reference(grown)
            if h.n > 9:
                break
            cert, g = grown, h
    assert outcomes["accepted"] >= 900 and outcomes["refused"] >= 4000, outcomes


def test_verify_builds_one_graph_plus_one_per_two_sum_operand(monkeypatch):
    """The replay edits one draft in place: verifying a certificate with 200
    inner vertices builds the pin-split's pinned graph and one multigraph
    per 2-sum operand, nested operands included, and no other graph."""
    from pinrig import graphs
    built = Counter()
    for cls in (graphs.Multigraph, graphs.PinnedGraph):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    rng = random.Random(200)
    c = support.random_circuit(rng, 201, 59)
    cert = certify(_pin_split(c, 0, 3))
    operands = _two_sum_operands(cert.steps)
    built.clear()
    assert verify_certificate(cert)
    assert operands > 20
    assert built == {"PinnedGraph": 1, "Multigraph": operands}, (built, operands)


def test_reverse_two_sum_searches_at_most_once_per_vertex(monkeypatch):
    """Each reverse 2-sum makes at most |V| graph searches: one cut vertex
    search per vertex up to the pair's first vertex a, then one side
    search, where the pair scan it replaced searched once per vertex pair."""
    from pinrig import generate
    real_cuts, real_pair, real_side = (generate._cut_vertices, generate._separating_pair,
                                       generate._component)
    reversals, sides = [], []

    def cut_vertices(*args):
        reversals[-1][1] += 1
        return real_cuts(*args)

    def separating_pair(adj, order):
        reversals.append([len(adj), 0])
        pair = real_pair(adj, order)
        reversals[-1].append(order.index(pair[0]))
        return pair

    def component(*args):
        sides.append(len(reversals))
        reversals[-1][1] += 1
        return real_side(*args)

    monkeypatch.setattr(generate, "_cut_vertices", cut_vertices)
    monkeypatch.setattr(generate, "_separating_pair", separating_pair)
    monkeypatch.setattr(generate, "_component", component)
    rng = random.Random(5)
    for nv in (40, 80, 120):
        c = support.random_circuit(rng, nv, (nv - 4) // 3)
        assert verify_certificate(certify(_pin_split(c, 0, 2)))
    # one side search per reversal, right after its own pair search
    assert sides == list(range(1, len(reversals) + 1))
    assert len(reversals) >= 30
    # the cut vertex searches stop at the pair's first vertex a
    assert all(searches == a + 2 <= n for n, searches, a in reversals), reversals
