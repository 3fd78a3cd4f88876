import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from pinrig.canon import canonical_code, canonical_form
from pinrig.errors import SizeLimitError
from pinrig.generate import assur_catalog, circuit_catalog
from pinrig.graphs import Multigraph, PinnedGraph, complete_graph


GOLDEN_CODES = Path(__file__).with_name("canon_codes_8.json")


def test_catalog_codes_match_the_golden_fixture():
    # issued certificates embed these codes, so no change to a code may pass
    golden = json.loads(GOLDEN_CODES.read_text())
    for name, catalog in (("circuit_catalog", circuit_catalog),
                          ("assur_catalog", assur_catalog)):
        codes = {str(n): [canonical_code(g) for g in reps]
                 for n, reps in catalog(8).items()}
        assert codes == golden[name], name


def test_relabeled_dyad_has_equal_code(dyad):
    other = PinnedGraph({"w"}, {"x", "y"}, [("w", "x"), ("w", "y")])
    assert canonical_code(dyad) == canonical_code(other)


def test_dyad_differs_from_doubled_edge(dyad):
    assert canonical_code(dyad) != canonical_code(support.doubled_edge())


def test_triad_differs_from_5_vertex_split(triad, basic_5):
    assert canonical_code(triad) != canonical_code(basic_5)


def test_pin_coloring_matters():
    a = PinnedGraph({0, 1}, {2}, [(0, 1), (0, 2), (1, 2)])
    b = PinnedGraph({0, 2}, {1}, [(0, 1), (0, 2), (1, 2)])
    # triangle with one pin: isomorphic regardless of which label is the pin
    assert canonical_code(a) == canonical_code(b)
    c = PinnedGraph({0, 1, 2}, (), [(0, 1), (0, 2), (1, 2)])
    assert canonical_code(a) != canonical_code(c)


def test_parallel_multiplicity_matters():
    single = Multigraph(edges=[(0, 1)])
    double = support.doubled_edge()
    assert canonical_code(single) != canonical_code(double)


def test_size_bound_enforced():
    big = complete_graph(13)
    with pytest.raises(SizeLimitError):
        canonical_code(big)
    assert canonical_code(big, max_vertices=13)


@pytest.mark.parametrize("depth", range(1, 7))
def test_symmetric_circuit_takes_at_most_one_leaf_per_vertex(depth, monkeypatch):
    # 6 to 130 vertices; a leaf is a search node whose refined partition is
    # discrete, so wrapping the refinement counts every node and leaf
    from pinrig import canon
    counts = {"nodes": 0, "leaves": 0}
    refine = canon._refine

    def counted(cells, adj):
        out = refine(cells, adj)
        counts["nodes"] += 1
        counts["leaves"] += all(len(c) == 1 for c in out)
        return out

    monkeypatch.setattr(canon, "_refine", counted)
    g = support.nested_k4(depth)
    canonical_code(g, max_vertices=g.n)
    assert 1 <= counts["leaves"] <= g.n
    assert counts["nodes"] <= 2 * g.n


def test_canonical_relabel_is_stable():
    # relabeling by the canonical labeling gives a fixed representative
    g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    code, lab = canonical_form(g)
    rel = g.relabeled(lab)
    assert rel.vertices == frozenset(range(4))
    assert canonical_code(rel) == code
    assert rel.relabeled(canonical_form(rel)[1]) == rel


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0))
def test_random_relabeling_preserves_code(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    g = support.random_multigraph(rng, n, rng.randint(0, 2 * n), allow_parallel=True)
    verts = sorted(g.vertices)
    new = [f"x{i}" for i in range(n)]
    rng.shuffle(new)
    assert canonical_code(g) == canonical_code(g.relabeled(dict(zip(verts, new))))


def test_agrees_with_brute_force_on_4_vertex_graphs():
    graphs = list(support.all_simple_graphs(4))
    codes = [canonical_code(g) for g in graphs]
    for i, j in combinations(range(len(graphs)), 2):
        same_code = codes[i] == codes[j]
        same_iso = support.brute_isomorphic(graphs[i], graphs[j])
        assert same_code == same_iso, (graphs[i], graphs[j])


def _with_shuffled_copies(graphs, rng):
    """Each graph and a copy under a random relabeling (an isomorphic pair)."""
    out = []
    for g in graphs:
        verts = sorted(g.vertices, key=str)
        new = [f"x{i}" for i in range(len(verts))]
        rng.shuffle(new)
        out += [g, g.relabeled(dict(zip(verts, new)))]
    return out


K4_EDGES = list(combinations(range(4), 2))
SYMMETRIC = [
    Multigraph(range(6), []),                                  # isolated vertices
    Multigraph(range(6), [(0, 1), (0, 1)]),                    # doubled edge, isolated
    Multigraph(range(6), [(0, 1), (2, 3)]),                    # matching, isolated
    Multigraph(range(5), [(a, b) for a in (0, 1) for b in (2, 3, 4)]),          # twins
    Multigraph(range(5), [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    Multigraph(range(8), K4_EDGES + [(a + 4, b + 4) for a, b in K4_EDGES]),  # 2 K4s
]
SYMMETRIC_PINNED = [
    PinnedGraph([0, 1], ["P0", "P1", "P2"],                    # twins, isolated pin
                [(0, "P0"), (0, "P1"), (1, "P0"), (1, "P1")]),
    PinnedGraph([0, 1, 2], ["P0", "P1", "P2"], [(i, f"P{i}") for i in range(3)]),
    PinnedGraph([0, 1, 2], ["P0", "P1"],                       # twin pins
                [(0, 1), (1, 2), (0, 2), (0, "P0"), (0, "P1")]),
]


def test_agrees_with_brute_force_on_sampled_larger_graphs():
    rng = random.Random(20260810)
    pool = [support.random_multigraph(rng, rng.randint(5, 6), rng.randint(4, 10))
            for _ in range(60)] + _with_shuffled_copies(SYMMETRIC, rng)
    codes = [canonical_code(g) for g in pool]
    for i, j in combinations(range(len(pool)), 2):
        assert (codes[i] == codes[j]) == support.brute_isomorphic(pool[i], pool[j])


def test_agrees_with_brute_force_on_pinned_graphs():
    rng = random.Random(7)
    pool = []
    for _ in range(40):
        ni, np_ = rng.randint(1, 3), rng.randint(2, 3)
        inner = list(range(ni))
        pins = [f"P{i}" for i in range(np_)]
        pairs = ([(a, b) for a in inner for b in inner if a < b]
                 + [(a, p) for a in inner for p in pins])
        m = rng.randint(1, len(pairs))
        pool.append(PinnedGraph(inner, pins, rng.sample(pairs, m)))
    pool += _with_shuffled_copies(SYMMETRIC_PINNED, rng)
    codes = [canonical_code(g) for g in pool]
    for i, j in combinations(range(len(pool)), 2):
        assert (codes[i] == codes[j]) == support.brute_isomorphic(pool[i], pool[j])
