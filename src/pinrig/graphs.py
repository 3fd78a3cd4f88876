"""Core graph types: multigraphs, pinned graphs, contraction and composition.

Vertex ids are opaque hashables (ints and strings in practice).  A graph
value is its vertex set and its edge tuple, immutable after construction;
every operation returns a new graph.  Adjacency is not stored: neighbours,
degrees and the adjacency map are derived from the edge tuple by the query
that needs them.

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


class _Graph:
    """The state both graph types share: a vertex set and an edge tuple.

    `_PARTS` names the vertex classes the constructor takes before the
    edges, and `_collect` is the type `neighbors` returns.
    """

    __slots__ = ("_vertices", "_edges")

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

    def degree(self, v) -> int:
        """Edges at v, parallel copies counted; 0 for an absent vertex."""
        return sum(v in e for e in self._edges)

    def neighbors(self, v):
        """The other end of each edge at v, in edge order."""
        return self._collect(b if a == v else a for a, b in self._edges if v in (a, b))

    def has_edge(self, u, v) -> bool:
        return (u, v) in self._edges or (v, u) in self._edges

    def support(self) -> frozenset:
        """Vertices with at least one incident edge."""
        return frozenset(x for e in self._edges for x in e)

    def without_vertex(self, v):
        if v not in self._vertices:
            raise GraphError(f"vertex {v!r} not present")
        return type(self)(*(getattr(self, part) - {v} for part in self._PARTS),
                          [e for e in self._edges if v not in e])

    def relabeled(self, mapping: Mapping):
        """Apply an injective vertex relabeling given as a full mapping."""
        if set(mapping) != self._vertices:
            raise GraphError("relabeling must cover every vertex")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling must be injective")
        return type(self)(*((mapping[v] for v in getattr(self, part)) for part in self._PARTS),
                          ((mapping[u], mapping[v]) for u, v in self._edges))

    def __repr__(self):
        parts = "".join(f"{part}={sorted(getattr(self, part), key=vkey)!r}, "
                        for part in self._PARTS)
        return f"{type(self).__name__}({parts}edges={list(self._edges)!r})"


class Multigraph(_Graph):
    """Loop-free undirected graph, parallel edges allowed.

    The edge tuple preserves construction order and keeps parallel copies as
    separate entries, so edges can be addressed by index (the pebble game and
    pin contraction both rely on stable indices).  `neighbors` gives a
    Counter of multiplicities.
    """

    __slots__ = ()
    _PARTS = ("vertices",)
    _collect = Counter

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable[tuple] = ()):
        self._edges = tuple(norm_edge(u, v) for u, v in edges)
        self._vertices = frozenset(vertices).union(*self._edges)

    def edge_counter(self) -> Counter:
        return Counter(self._edges)

    def adjacency(self) -> dict:
        """Vertex -> {neighbor: multiplicity} for every vertex, as plain
        dicts in the order `neighbors` gives."""
        adj = {v: {} for v in self._vertices}
        for u, v in self._edges:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
        return adj

    def with_edge(self, u, v) -> "Multigraph":
        return Multigraph(self._vertices, self._edges + (norm_edge(u, v),))

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self._vertices == other._vertices
                and self.edge_counter() == other.edge_counter())

    def __hash__(self):
        return hash((self._vertices, frozenset(self.edge_counter().items())))


class PinnedGraph(_Graph):
    """Pinned graph G(I, P; E): inner vertices, pinned vertices, simple edges.

    Invariants enforced here: I and P are disjoint, every edge touches an
    inner vertex, no loops, no parallel edges, no edges between two pins.
    Pins with no incident edges are permitted by the type (some operations
    reject them separately).  The edge tuple is sorted; `neighbors` gives a
    frozenset.
    """

    __slots__ = ("_pins",)
    _PARTS = ("inner", "pins")
    _collect = frozenset

    def __init__(self, inner: Iterable[Vertex], pins: Iterable[Vertex],
                 edges: Iterable[tuple] = ()):
        inner_set = frozenset(inner)
        pin_set = frozenset(pins)
        clash = inner_set & pin_set
        if clash:
            raise GraphError(f"vertices marked both inner and pinned: {sorted(clash, key=vkey)!r}")
        allv = inner_set | pin_set
        norm = set()
        for u, v in edges:
            e = norm_edge(u, v)
            if e[0] not in allv or e[1] not in allv:
                raise GraphError(f"edge {e!r} references an undeclared vertex")
            if e[0] in pin_set and e[1] in pin_set:
                raise GraphError(f"edge {e!r} joins two pinned vertices")
            if e in norm:
                raise GraphError(f"parallel edge {e!r} in a pinned graph")
            norm.add(e)
        self._vertices = allv
        self._pins = pin_set
        self._edges = tuple(sorted(norm, key=ekey))

    @property
    def inner(self) -> frozenset:
        return self._vertices - self._pins

    @property
    def pins(self) -> frozenset:
        return self._pins

    def isolated_pins(self) -> frozenset:
        return self._pins - self.support()

    def without_edge(self, u, v) -> "PinnedGraph":
        e = norm_edge(u, v)
        if e not in self._edges:
            raise GraphError(f"edge {e!r} not present")
        return PinnedGraph(self.inner, self._pins,
                           (f for f in self._edges if f != e))

    def induced(self, inner_subset: Iterable, pin_subset: Iterable) -> "PinnedGraph":
        ins = frozenset(inner_subset)
        ps = frozenset(pin_subset)
        if not ins <= self.inner or not ps <= self._pins:
            raise GraphError("induced subsets must come from the graph's own classes")
        keep_v = ins | ps
        keep_e = [e for e in self._edges
                  if e[0] in keep_v and e[1] in keep_v
                  and (e[0] in ins or e[1] in ins)]
        return PinnedGraph(ins, ps, keep_e)

    def __eq__(self, other):
        if not isinstance(other, PinnedGraph):
            return NotImplemented
        return (self._vertices == other._vertices and self._pins == other._pins
                and self._edges == other._edges)

    def __hash__(self):
        return hash((self._vertices, self._pins, self._edges))


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
    isolated pins are created.  A split that leaves parallel edges, or
    that names a pin by a remaining vertex, is refused by `PinnedGraph`.
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
    return PinnedGraph(m.vertices - {v}, labels, [e for e in m.edges if v not in e] + assignment)


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
