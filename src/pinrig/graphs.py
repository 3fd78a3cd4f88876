"""Core graph types: multigraphs, pinned graphs, contraction and composition.

Vertex ids are opaque hashables (ints and strings in practice).  All graph
values are immutable after construction; every operation returns a new graph.

A pinned graph G(I, P; E) keeps two disjoint vertex classes: inner vertices I
and pinned (ground-fixed) vertices P.  Every edge must touch an inner vertex;
edges between two pins are rejected here (file loaders drop them with a
warning instead).  Pinned graphs are simple.  Multigraphs allow parallel
edges, which arise from pin contraction, but never loops.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping

from .errors import GraphError

Vertex = Hashable


def vkey(v):
    """Deterministic sort key over mixed int/str vertex ids."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    if isinstance(v, str):
        return (1, 0, v)
    return (2, 0, repr(v))


def ekey(e):
    return (vkey(e[0]), vkey(e[1]))


def norm_edge(u, v):
    """Order an edge's endpoints canonically; reject loops."""
    if u == v:
        raise GraphError(f"loop edge at {u!r} is not allowed")
    return (u, v) if vkey(u) <= vkey(v) else (v, u)


class Multigraph:
    """Loop-free undirected graph, parallel edges allowed.

    The edge tuple preserves construction order and keeps parallel copies as
    separate entries, so edges can be addressed by index (the pebble game and
    pin contraction both rely on stable indices).
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable[tuple] = ()):
        vs = set(vertices)
        es = []
        for u, v in edges:
            e = norm_edge(u, v)
            vs.add(e[0])
            vs.add(e[1])
            es.append(e)
        self._vertices = frozenset(vs)
        self._edges = tuple(es)
        adj = {v: {} for v in self._vertices}
        for u, v in es:
            nbrs = adj[u]
            nbrs[v] = nbrs.get(v, 0) + 1
            nbrs = adj[v]
            nbrs[u] = nbrs.get(u, 0) + 1
        self._adj = adj

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def edge_counter(self) -> Counter:
        return Counter(self._edges)

    def degree(self, v) -> int:
        return sum(self._adj[v].values())

    def neighbors(self, v) -> Counter:
        """Neighbor -> multiplicity for v (a copy)."""
        return Counter(self._adj[v])

    def adjacency(self) -> dict:
        """Vertex -> {neighbor: multiplicity} for every vertex, as plain
        dicts (copies) in the order `neighbors` gives."""
        return {v: dict(nbrs) for v, nbrs in self._adj.items()}

    def has_edge(self, u, v) -> bool:
        return self._adj.get(u, {}).get(v, 0) > 0

    def support(self) -> frozenset:
        """Vertices with at least one incident edge."""
        return frozenset(v for v in self._vertices if self._adj[v])

    def without_vertex(self, v) -> "Multigraph":
        if v not in self._vertices:
            raise GraphError(f"vertex {v!r} not present")
        keep = [e for e in self._edges if v not in e]
        return Multigraph(self._vertices - {v}, keep)

    def with_edge(self, u, v) -> "Multigraph":
        return Multigraph(self._vertices, self._edges + (norm_edge(u, v),))

    def relabeled(self, mapping: Mapping) -> "Multigraph":
        """Apply an injective vertex relabeling given as a full mapping."""
        if set(mapping) != set(self._vertices):
            raise GraphError("relabeling must cover every vertex")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling must be injective")
        return Multigraph(
            (mapping[v] for v in self._vertices),
            ((mapping[u], mapping[v]) for u, v in self._edges),
        )

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self._vertices == other._vertices
                and self.edge_counter() == other.edge_counter())

    def __hash__(self):
        return hash((self._vertices, frozenset(self.edge_counter().items())))

    def __repr__(self):
        vs = sorted(self._vertices, key=vkey)
        return f"Multigraph(vertices={vs!r}, edges={list(self._edges)!r})"


class PinnedGraph:
    """Pinned graph G(I, P; E): inner vertices, pinned vertices, simple edges.

    Invariants enforced here: I and P are disjoint, every edge touches an
    inner vertex, no loops, no parallel edges, no edges between two pins.
    Pins with no incident edges are permitted by the type (some operations
    reject them separately).
    """

    __slots__ = ("_inner", "_pins", "_edges", "_adj")

    def __init__(self, inner: Iterable[Vertex], pins: Iterable[Vertex],
                 edges: Iterable[tuple] = ()):
        inner_set = frozenset(inner)
        pin_set = frozenset(pins)
        clash = inner_set & pin_set
        if clash:
            raise GraphError(f"vertices marked both inner and pinned: {sorted(clash, key=vkey)!r}")
        allv = inner_set | pin_set
        seen = set()
        norm = []
        for u, v in edges:
            e = norm_edge(u, v)
            if e[0] not in allv or e[1] not in allv:
                raise GraphError(f"edge {e!r} references an undeclared vertex")
            if e[0] in pin_set and e[1] in pin_set:
                raise GraphError(f"edge {e!r} joins two pinned vertices")
            if e in seen:
                raise GraphError(f"parallel edge {e!r} in a pinned graph")
            seen.add(e)
            norm.append(e)
        self._inner = inner_set
        self._pins = pin_set
        self._edges = tuple(sorted(norm, key=ekey))
        adj = {v: set() for v in allv}
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj

    @property
    def inner(self) -> frozenset:
        return self._inner

    @property
    def pins(self) -> frozenset:
        return self._pins

    @property
    def vertices(self) -> frozenset:
        return self._inner | self._pins

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._inner) + len(self._pins)

    @property
    def m(self) -> int:
        return len(self._edges)

    def degree(self, v) -> int:
        return len(self._adj[v])

    def neighbors(self, v) -> frozenset:
        return frozenset(self._adj[v])

    def isolated_pins(self) -> frozenset:
        return frozenset(p for p in self._pins if not self._adj[p])

    def without_edge(self, u, v) -> "PinnedGraph":
        e = norm_edge(u, v)
        if e not in self._edges:
            raise GraphError(f"edge {e!r} not present")
        return PinnedGraph(self._inner, self._pins,
                           (f for f in self._edges if f != e))

    def without_vertex(self, v) -> "PinnedGraph":
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not present")
        keep = [e for e in self._edges if v not in e]
        return PinnedGraph(self._inner - {v}, self._pins - {v}, keep)

    def induced(self, inner_subset: Iterable, pin_subset: Iterable) -> "PinnedGraph":
        ins = frozenset(inner_subset)
        ps = frozenset(pin_subset)
        if not ins <= self._inner or not ps <= self._pins:
            raise GraphError("induced subsets must come from the graph's own classes")
        keep_v = ins | ps
        keep_e = [e for e in self._edges
                  if e[0] in keep_v and e[1] in keep_v
                  and (e[0] in ins or e[1] in ins)]
        return PinnedGraph(ins, ps, keep_e)

    def relabeled(self, mapping: Mapping) -> "PinnedGraph":
        allv = self.vertices
        if set(mapping) != set(allv):
            raise GraphError("relabeling must cover every vertex")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling must be injective")
        return PinnedGraph(
            (mapping[v] for v in self._inner),
            (mapping[v] for v in self._pins),
            ((mapping[u], mapping[v]) for u, v in self._edges),
        )

    def to_multigraph(self) -> Multigraph:
        """Forget the inner/pin distinction."""
        return Multigraph(self.vertices, self._edges)

    def __eq__(self, other):
        if not isinstance(other, PinnedGraph):
            return NotImplemented
        return (self._inner == other._inner and self._pins == other._pins
                and self._edges == other._edges)

    def __hash__(self):
        return hash((self._inner, self._pins, self._edges))

    def __repr__(self):
        return (f"PinnedGraph(inner={sorted(self._inner, key=vkey)!r}, "
                f"pins={sorted(self._pins, key=vkey)!r}, "
                f"edges={list(self._edges)!r})")


def fresh_id(taken: Iterable, hint: str = "v"):
    """A vertex id not in `taken`, derived from `hint`."""
    taken = set(taken)
    if hint not in taken:
        return hint
    k = 1
    while f"{hint}{k}" in taken:
        k += 1
    return f"{hint}{k}"


def contraction_star(g: PinnedGraph):
    """Default id used for the contracted pin vertex."""
    star = "p*"
    while star in g.inner:
        star += "*"
    return star


def contract_pins(g: PinnedGraph, star=None) -> Multigraph:
    """Identify all pins of `g` into a single vertex.

    The result keeps one edge per input edge, in the same index order as
    ``g.edges``, so parallel copies created by the contraction stay
    distinguishable by position.
    """
    if star is None:
        star = contraction_star(g)
    elif star in g.inner:
        raise GraphError(f"star id {star!r} collides with an inner vertex")
    pins = g.pins
    edges = [((star if u in pins else u), (star if v in pins else v))
             for u, v in g.edges]
    return Multigraph(g.inner | {star}, edges)


def split_contracted_vertex(m: Multigraph, v, assignment) -> PinnedGraph:
    """Split vertex `v` of `m` into a set of pins, inverting a contraction.

    `assignment` lists one ``(neighbor, pin_label)`` pair per edge copy
    incident to `v`; its neighbor multiset must match exactly.  At least two
    distinct labels are required and every label must receive an edge, so no
    isolated pins are created.  A split that leaves parallel edges is
    refused by `PinnedGraph`, since pinned graphs are simple.
    """
    if v not in m.vertices:
        raise GraphError(f"vertex {v!r} not present")
    assignment = list(assignment)
    want = m.neighbors(v)
    got = Counter(nbr for nbr, _ in assignment)
    if got != want:
        raise GraphError(
            f"assignment neighbors {sorted(got.items(), key=lambda t: vkey(t[0]))!r} "
            f"do not match the edges at {v!r}")
    labels = Counter(lab for _, lab in assignment)
    if len(labels) < 2:
        raise GraphError("splitting requires at least two distinct pin labels")
    inner = m.vertices - {v}
    bad = set(labels) & inner
    if bad:
        raise GraphError(f"pin labels collide with remaining vertices: {sorted(bad, key=vkey)!r}")
    return PinnedGraph(inner, labels, [e for e in m.edges if v not in e] + assignment)


def compose(h: PinnedGraph, g: PinnedGraph, cmap: Mapping) -> PinnedGraph:
    """Stack `h` on top of `g`, identifying each pin of `h` with a vertex of `g`.

    `cmap` must map every pin of `h` injectively into ``g.inner | g.pins``.
    Inner vertices of `h` whose ids collide with `g` are renamed with a
    trailing apostrophe.  The result keeps `g`'s pins as its pin set.
    """
    if set(cmap) != set(h.pins):
        missing = h.pins - set(cmap)
        extra = set(cmap) - h.pins
        raise GraphError(f"composition map must cover exactly the pins of the upper "
                         f"graph (missing {sorted(missing, key=vkey)!r}, "
                         f"extra {sorted(extra, key=vkey)!r})")
    targets = list(cmap.values())
    if len(set(targets)) != len(targets):
        raise GraphError("composition map must be injective")
    gverts = g.vertices
    for t in targets:
        if t not in gverts:
            raise GraphError(f"composition target {t!r} is not a vertex of the base graph")

    rename = rename_apart(h.inner, gverts)

    def send(x):
        return cmap[x] if x in h.pins else rename[x]

    edges = list(g.edges) + [(send(u), send(v)) for u, v in h.edges]
    inner = set(g.inner) | set(rename.values())
    return PinnedGraph(inner, g.pins, edges)


def rename_apart(names, taken) -> dict:
    """Map each of `names`, in vkey order, to itself with apostrophes
    appended until it clashes neither with `taken` nor with an earlier
    new name."""
    taken = set(taken)
    out = {}
    for w in sorted(names, key=vkey):
        new = w
        while new in taken:
            new = f"{new}'"
        out[w] = new
        taken.add(new)
    return out


def complete_graph(spec) -> Multigraph:
    """K_n on the given vertices (or on 0..n-1 for an int)."""
    verts = list(range(spec)) if isinstance(spec, int) else list(spec)
    edges = [(verts[i], verts[j])
             for i in range(len(verts)) for j in range(i + 1, len(verts))]
    return Multigraph(verts, edges)
