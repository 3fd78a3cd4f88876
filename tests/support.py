"""Shared builders and brute-force oracles for the test suite.

Everything here is deliberately independent of the library's fast paths:
isomorphism by permutation search, graph sweeps by direct enumeration of edge
subsets.  These are the second route that the implementation is checked
against.
"""

from collections import Counter
from itertools import combinations, permutations

from pinrig.graphs import Multigraph, PinnedGraph, norm_edge, vkey

# -- fixtures ----------------------------------------------------------------


def dyad():
    return PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1"), ("v", "p2")])


def triad():
    return PinnedGraph({"a", "b", "c"}, {"q1", "q2", "q3"},
                       [("a", "b"), ("b", "c"), ("a", "c"),
                        ("a", "q1"), ("b", "q2"), ("c", "q3")])


def stacked_dyads():
    return PinnedGraph({"a", "b"}, {"p1", "p2", "p3"},
                       [("a", "p1"), ("a", "p2"), ("b", "a"), ("b", "p3")])


def basic_5():
    """The 2-pin basic Assur graph: K4 with one vertex split into two pins."""
    return PinnedGraph({0, 1, 2}, {"pA", "pB"},
                       [(0, 1), (0, 2), (1, 2), (0, "pA"), (1, "pA"), (2, "pB")])


def wheel(rim=4):
    """Hub 0 joined to a cycle 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Multigraph(range(rim + 1), edges)


def triangle_chain():
    """Three triangles glued along edges; isostatic on 5 vertices."""
    return Multigraph(range(5), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                                 (2, 4), (3, 4)])


def doubled_edge():
    return Multigraph(edges=[(0, 1), (0, 1)])


# -- brute-force isomorphism ---------------------------------------------------


def brute_isomorphic(g1, g2) -> bool:
    """Isomorphism by exhaustive color-respecting permutation search."""
    pinned = isinstance(g1, PinnedGraph)
    if pinned != isinstance(g2, PinnedGraph):
        return False
    if pinned:
        if (len(g1.inner), len(g1.pins), g1.m) != (len(g2.inner), len(g2.pins), g2.m):
            return False
        groups1 = [sorted(g1.inner, key=vkey), sorted(g1.pins, key=vkey)]
        groups2 = [sorted(g2.inner, key=vkey), sorted(g2.pins, key=vkey)]
        target = Counter(g2.edges)
    else:
        if (g1.n, g1.m) != (g2.n, g2.m):
            return False
        groups1 = [sorted(g1.vertices, key=vkey)]
        groups2 = [sorted(g2.vertices, key=vkey)]
        target = g2.edge_counter()
    for h1, h2 in zip(groups1, groups2):
        if sorted(g1.degree(v) for v in h1) != sorted(g2.degree(v) for v in h2):
            return False
    e1 = list(g1.edges)

    def search(gi, mapping):
        if gi == len(groups1):
            mapped = Counter(norm_edge(mapping[u], mapping[v]) for u, v in e1)
            return mapped == target
        for perm in permutations(groups2[gi]):
            if any(g1.degree(a) != g2.degree(b) for a, b in zip(groups1[gi], perm)):
                continue
            mapping.update(zip(groups1[gi], perm))
            if search(gi + 1, mapping):
                return True
        return False

    return search(0, {})


# -- sweeps ---------------------------------------------------------------------


def all_simple_graphs(n, m=None):
    """Every labeled simple graph on vertices 0..n-1 (optionally fixed |E|)."""
    pairs = list(combinations(range(n), 2))
    if m is None:
        for mask in range(1 << len(pairs)):
            yield Multigraph(range(n),
                             [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    else:
        for subset in combinations(pairs, m):
            yield Multigraph(range(n), subset)


def all_pinned_graphs(n_inner, n_pins):
    """Every labeled pinned graph with |E| = 2|I| on the given class sizes.

    Inner vertices 0..n_inner-1, pins named 'P0'.., edges drawn from all
    inner-inner and inner-pin pairs.
    """
    inner = list(range(n_inner))
    pins = [f"P{i}" for i in range(n_pins)]
    pairs = list(combinations(inner, 2)) + [(i, p) for i in inner for p in pins]
    want = 2 * n_inner
    if want > len(pairs):
        return
    for subset in combinations(pairs, want):
        yield PinnedGraph(inner, pins, subset)


def random_multigraph(rng, n, m, allow_parallel=False):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if allow_parallel:
        edges = [pairs[rng.randrange(len(pairs))] for _ in range(m)]
    else:
        edges = rng.sample(pairs, min(m, len(pairs)))
    return Multigraph(range(n), edges)


def random_circuit(rng, nv, two_sums):
    """A rigidity circuit on nv vertices: K4, then `two_sums` 2-sums with K4
    (two new vertices each) and edge-splits (one new vertex each), in random
    order.  Both operations take circuits to circuits."""
    verts = list(range(4))
    edges = list(combinations(verts, 2))
    ops = [True] * two_sums + [False] * (nv - 4 - 2 * two_sums)
    rng.shuffle(ops)
    for glue in ops:
        u, w = edges.pop(rng.randrange(len(edges)))
        if glue:
            c, d = len(verts), len(verts) + 1
            edges += [(u, c), (u, d), (w, c), (w, d), (c, d)]
            verts += [c, d]
        else:
            x = rng.choice([v for v in verts if v not in (u, w)])
            v = len(verts)
            edges += [(v, u), (v, w), (v, x)]
            verts.append(v)
    return Multigraph(verts, edges)


def bar_schema_from_graph(m: Multigraph):
    """Encode a min-degree-2 multigraph as an all-binary-bar linkage schema."""
    from pinrig.counting import LinkageSchema
    link_of = {i: f"e{i}" for i in range(m.m)}
    joints = []
    for v in sorted(m.vertices, key=vkey):
        incident = frozenset(link_of[i] for i, e in enumerate(m.edges) if v in e)
        if len(incident) < 2:
            raise ValueError("bar-joint encoding needs minimum degree 2")
        joints.append(incident)
    return LinkageSchema(links=frozenset(link_of.values()), joints=tuple(joints),
                         ground=link_of[0])
