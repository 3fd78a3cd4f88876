"""Construction operations, enumeration of circuits and Assur graphs, and
replayable construction certificates.

Every rigidity circuit arises from K4 by edge-splits and 2-sums, and every
Assur graph on five or more vertices arises from a circuit by splitting one
vertex into pins; the dyad is the lone extra base (its contraction, the
doubled edge, sits outside the K4 closure).  The enumerations below implement
exactly those closures, deduplicating by canonical code, and the brute-force
oracles in :mod:`pinrig.counting` cross-check them in the test suite.

A certificate records a construction path to a target graph from one of two
bases: K4, grown by circuit steps up to one pin-split, or the dyad.
`certify` reduces backwards with reverse edge-splits and reverse 2-sums,
never backtracking, on one pebble state that holds the current circuit
minus one rejected edge: the state of the game that found the circuit
(`pebble.circuit_state`), one game per side of a reverse 2-sum.  A reverse
2-sum splits at the first separating pair {a, b}, found as the first cut
vertex b of M - a with one depth-first search per vertex a.
A certificate claims the labelled graph it was built for, so
`verify_certificate` replays forward and compares the result with the claim
as labelled graphs, with no canonical search.  It enforces a step grammar so
that a passing certificate really does witness the Assur property; a 2-sum
operand claims nothing, as the grammar alone makes it a circuit.  The
replay edits one draft (vertex set, pins, edge multiset) in place with the
same rule that each public operation runs on a copy, and builds a graph
only where a step reads a whole graph, per 2-sum operand and at the end.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count

from .assur import assur_gate
from .canon import canonical_form
from .errors import CertificateError, GraphError, NotIsostaticError, PinrigWarning
from .graphs import (Multigraph, PinnedGraph, complete_graph, contract_pins,
                     contraction_star, fresh_id, norm_edge, rename_apart,
                     split_contracted_vertex, vkey)
from .pebble import circuit_state

ENUM_MAX_VERTICES = 10


# -- circuit and Assur operations --------------------------------------------

class _Draft:
    """A graph under construction, edited in place by the step rules below.

    It holds a vertex set, the pins (None for a multigraph) and the edges in
    construction order, each under an increasing token, so removing one copy
    of an edge keeps the order of the rest.  It offers the read-only view
    (`vertices`, `pins`, `inner`, `edges`, `neighbors`) that
    `split_contracted_vertex` and `pin_rearrangement` read, and `build`
    makes the immutable graph.
    """

    __slots__ = ("vertices", "pins", "_edges", "_at", "_tokens")

    def __init__(self, vertices, edges, pins=None):
        self.vertices = set(vertices)
        self.pins = pins
        self._edges = {}                           # token -> edge
        self._at = {x: {} for x in self.vertices}  # vertex -> {token: neighbour}
        self._tokens = count()
        for u, w in edges:
            self.add_edge(u, w)

    @classmethod
    def of(cls, g):
        """`g` itself when it is a draft, else a draft copy of the graph `g`."""
        if isinstance(g, _Draft):
            return g
        return cls(g.vertices, g.edges, g.pins if isinstance(g, PinnedGraph) else None)

    @property
    def inner(self):
        return self.vertices - self.pins

    @property
    def edges(self):
        return tuple(self._edges.values())

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self._edges)

    def neighbors(self, v) -> Counter:
        return Counter(self._at[v].values())

    def has_edge(self, u, w) -> bool:
        return w in self._at.get(u, {}).values()

    def add_vertex(self, v):
        self.vertices.add(v)
        self._at[v] = {}

    def add_edge(self, u, w):
        u, w = norm_edge(u, w)
        t = next(self._tokens)
        self._edges[t] = (u, w)
        self._at[u][t] = w
        self._at[w][t] = u

    def remove_edge(self, u, w) -> bool:
        """Remove the first copy of the edge uw; False when there is none."""
        for t, y in self._at.get(u, {}).items():
            if y == w:
                del self._edges[t], self._at[u][t], self._at[w][t]
                return True
        return False

    def remove_edges_at(self, v):
        for t, y in self._at[v].items():
            del self._edges[t], self._at[y][t]
        self._at[v] = {}

    def build(self):
        if self.pins is None:
            return Multigraph(self.vertices, self._edges.values())
        return PinnedGraph(self.vertices - self.pins, self.pins, self._edges.values())


# Each rule below edits a draft in place and returns it; the public
# operations run the same rule on a copy and build the result.

def _multigraphs_only(name, *graphs):
    """Refuse a pinned graph given to a multigraph operation, whose result
    would forget which vertices are pins."""
    if any(isinstance(g, PinnedGraph) for g in graphs):
        raise GraphError(f"{name} takes a multigraph, not a pinned graph")


def _split_edge(d, u, w, x, v=None):
    u, w = norm_edge(u, w)
    if x == u or x == w:
        raise GraphError("third attachment must differ from the split edge's endpoints")
    if x not in d.vertices:
        raise GraphError(f"third attachment {x!r} must exist")
    v = fresh_id(d.vertices, "v") if v is None else v
    if v in d.vertices:
        raise GraphError(f"new vertex {v!r} already present")
    # two pinned attachments would collapse to a doubled edge under pin
    # contraction, so no circuit-level split corresponds to them
    if d.pins is not None and sum(1 for t in (u, w, x) if t in d.pins) > 1:
        raise GraphError("at most one of the three attachments may be pinned")
    if not d.remove_edge(u, w):
        raise GraphError(f"edge {(u, w)!r} not present")
    d.add_vertex(v)
    for t in (u, w, x):
        d.add_edge(v, t)
    return d


def edge_split(g, e, x, new_vertex=None):
    """Split edge e = (u, w) by a new vertex joined to u, w and a third vertex x.

    Works on multigraphs and on pinned graphs (the new vertex is inner).
    Takes independent sets to independent sets, circuits to circuits, and
    Assur graphs on at least four vertices to Assur graphs.
    """
    return _split_edge(_Draft.of(g), *e, x, new_vertex).build()


def _two_sum(d, c2, e1, e2, flip=False):
    e1 = norm_edge(*e1)
    if not d.has_edge(*e1):
        raise GraphError(f"glue edge {e1!r} is not in the first graph")
    e2n = norm_edge(*e2)
    if e2n not in c2.edges:
        raise GraphError(f"glue edge {e2!r} is not in the second graph")
    for name, c in (("first", d), ("second", c2)):
        if c.m != 2 * c.n - 2:
            # stack level 3: the caller of `two_sum` or of `_two_sum_step`
            warnings.warn(f"{name} 2-sum operand has {c.m} edges on {c.n} vertices, "
                          f"not a rigidity circuit count", PinrigWarning, stacklevel=3)
    a, b = e1
    cc, dd = e2n if not flip else (e2n[1], e2n[0])
    amap = {cc: a, dd: b, **rename_apart(c2.vertices - {cc, dd}, d.vertices)}
    d.remove_edge(a, b)
    edges2 = list(c2.edges)
    edges2.remove(e2n)
    for x in amap.values():
        if x not in d.vertices:
            d.add_vertex(x)
    for u, v in edges2:
        d.add_edge(amap[u], amap[v])
    return d


def two_sum(c1: Multigraph, c2: Multigraph, e1, e2, flip: bool = False) -> Multigraph:
    """Glue two circuits along an edge and delete the glued edge.

    Endpoints of e2 are identified with endpoints of e1 (crosswise when
    `flip`); remaining vertices of c2 are renamed if they collide with c1.
    For circuit inputs the result is a circuit with |V1|+|V2|-2 vertices and
    |E1|+|E2|-2 edges; non-circuit inputs only get a warning (the operation is
    still performed for experimentation).
    """
    _multigraphs_only("2-sum", c1, c2)
    return _two_sum(_Draft(c1.vertices, c1.edges), c2, e1, e2, flip).build()


def _split_vertex(d, v, shared, moved, v2=None):
    if v not in d.vertices:
        raise GraphError(f"vertex {v!r} not present")
    nbrs = d.neighbors(v)
    if not nbrs[shared]:
        raise GraphError(f"shared neighbor {shared!r} is not adjacent to {v!r}")
    moved_count = Counter(moved)
    rest = nbrs - Counter([shared])
    if moved_count - rest:
        raise GraphError("moved neighbors must come from v's edges, excluding the shared one")
    if shared in moved_count:
        raise GraphError("the shared neighbor cannot also be moved")
    keep_count = rest - moved_count
    if not moved_count or not keep_count:
        raise GraphError("each side of the split must keep at least one non-shared edge")
    v2 = fresh_id(d.vertices, "v") if v2 is None else v2
    if v2 in d.vertices:
        raise GraphError(f"new vertex {v2!r} already present")
    d.remove_edges_at(v)
    d.add_vertex(v2)
    for x in sorted(keep_count.elements(), key=vkey):
        d.add_edge(v, x)
    for x in sorted(moved_count.elements(), key=vkey):
        d.add_edge(v2, x)
    d.add_edge(v, shared)
    d.add_edge(v2, shared)
    d.add_edge(v, v2)
    return d


def vertex_split(c: Multigraph, v, shared, moved, new_vertex=None) -> Multigraph:
    """Split v into two adjacent vertices, both of degree at least three.

    `shared` names the one neighbor joined to both halves; `moved` lists the
    neighbors (with multiplicity) handed to the new half, the rest staying
    with v.  Adds the connecting edge and the duplicated shared edge, so a
    circuit stays a circuit and an Assur graph grows to a larger one.
    """
    _multigraphs_only("vertex split", c)
    return _split_vertex(_Draft(c.vertices, c.edges), v, shared, moved, new_vertex).build()


def pin_rearrangement(g: PinnedGraph, assignment) -> PinnedGraph:
    """Redistribute the pin-incident edges over a new pin set.

    `assignment` lists one ``(inner_endpoint, new_pin)`` pair per pin-incident
    edge; at least two distinct pins, none left empty.  The pin contraction is
    unchanged, so the Assur property is preserved.
    """
    star = contraction_star(g)
    m = contract_pins(g, star)
    return split_contracted_vertex(m, star, assignment)


# -- enumeration --------------------------------------------------------------

def _set_partitions(items):
    """All partitions of `items` into unlabeled nonempty blocks: the first
    item is a block on its own, or joins a block of a partition of the rest."""
    items = list(items)
    if not items:
        yield ()
        return
    first = items[0]
    for blocks in _set_partitions(items[1:]):
        yield ((first,), *blocks)
        for i, block in enumerate(blocks):
            yield (*blocks[:i], (first, *block), *blocks[i + 1:])


def _add_class(found, g):
    """Keep `g`, canonically relabeled, unless `found` has its class already."""
    code, lab = canonical_form(g)
    if code not in found:
        found[code] = g.relabeled(lab)


def _sorted_classes(by_n):
    """{n: {code: graph}} with vertex counts and codes in sorted order."""
    return {n: dict(sorted(reps.items())) for n, reps in sorted(by_n.items()) if reps}


def circuit_classes(n_max: int) -> dict:
    """Representatives of all rigidity circuit classes on 4..n_max vertices.

    Closure of {K4} under edge-split and 2-sum, breadth-first by vertex count,
    deduplicated by canonical code.  Returns {vertex count: {canonical code:
    canonically labeled multigraph}}, codes in sorted order.
    """
    if not 4 <= n_max <= ENUM_MAX_VERTICES:
        raise GraphError(f"circuit enumeration supports 4..{ENUM_MAX_VERTICES} vertices")
    by_n = {4: {}}
    _add_class(by_n[4], complete_graph(4))
    for n in range(5, n_max + 1):
        found = {}
        for c in by_n[n - 1].values():
            for u, w in set(c.edges):
                for x in sorted(c.vertices - {u, w}, key=vkey):
                    _add_class(found, edge_split(c, (u, w), x, new_vertex=n - 1))
        for n1 in range(4, (n + 2) // 2 + 1):  # n + 2 - n1 is in n1..n - 2
            for c1 in by_n[n1].values():
                for c2 in by_n[n + 2 - n1].values():
                    shifted = c2.relabeled({i: i + n1 for i in c2.vertices})
                    for e1 in set(c1.edges):
                        for e2 in set(shifted.edges):
                            for flip in (False, True):
                                _add_class(found, two_sum(c1, shifted, e1, e2, flip=flip))
        by_n[n] = found
    return _sorted_classes(by_n)


def circuit_catalog(n_max: int) -> dict:
    """{vertex count: tuple of the `circuit_classes` representatives}."""
    return {n: tuple(reps.values()) for n, reps in circuit_classes(n_max).items()}


def _dyad() -> PinnedGraph:
    return PinnedGraph({0}, {1, 2}, [(0, 1), (0, 2)])


def assur_classes(n_max: int) -> dict:
    """Representatives of all Assur graph classes with at most n_max vertices.

    The dyad, plus every pin-splitting of every vertex of every circuit on at
    most n_max - 1 vertices (each pin must receive an edge, so no isolated
    pins appear).  Returns {total vertex count: {canonical code:
    canonically labeled pinned graph}}, codes in sorted order.
    """
    if not 3 <= n_max <= ENUM_MAX_VERTICES:
        raise GraphError(f"assur enumeration supports 3..{ENUM_MAX_VERTICES} vertices")
    buckets = {3: {}}
    _add_class(buckets[3], _dyad())
    if n_max >= 5:
        for n_c, circuits in circuit_catalog(n_max - 1).items():
            for c in circuits:
                for v in sorted(c.vertices, key=vkey):
                    slots = sorted(c.neighbors(v).elements(), key=vkey)
                    max_pins = min(len(slots), n_max - (n_c - 1))
                    for blocks in _set_partitions(slots):
                        k = len(blocks)
                        if not 2 <= k <= max_pins:
                            continue
                        assignment = [(nbr, n_c + bi)
                                      for bi, block in enumerate(blocks)
                                      for nbr in block]
                        g = split_contracted_vertex(c, v, assignment)
                        _add_class(buckets.setdefault(g.n, {}), g)
    return _sorted_classes(buckets)


def assur_catalog(n_max: int) -> dict:
    """{total vertex count: tuple of the `assur_classes` representatives}."""
    return {n: tuple(reps.values()) for n, reps in assur_classes(n_max).items()}


def enumerate_assur(n_max: int) -> frozenset:
    """Canonical codes of every Assur class with at most n_max vertices."""
    return frozenset(code for reps in assur_classes(n_max).values() for code in reps)


# -- certificates --------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionStep:
    """One replayable construction move; `params` is a sorted (key, value) tuple."""

    kind: str
    params: tuple

    def get(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise CertificateError(f"{self.kind!r} step lacks {key!r}")


def step(kind: str, **params) -> ConstructionStep:
    return ConstructionStep(kind, tuple(sorted(params.items())))


@dataclass(frozen=True)
class Certificate:
    """A base graph, a list of construction steps, and the claimed result.

    Bases: ``dyad`` (inner, pin, pin) and ``k4`` (four vertices).  Replaying
    the steps from the base must land on the labelled graph `claimed`
    itself: the same inner vertices, pins and edges.  A 2-sum operand claims
    nothing (None).  Any other claim, such as a string, is equal to no
    replay.
    """

    base_kind: str
    base_vertices: tuple
    steps: tuple
    claimed: object = None


_MULTI_STEPS = ("edge-split", "two-sum", "vertex-split")
_PINNED_STEPS = ("edge-split", "pin-rearrange")


def _base_graph(cert: Certificate) -> _Draft:
    vs = cert.base_vertices
    if cert.base_kind == "k4":
        if len(vs) != 4 or len(set(vs)) != 4:
            raise CertificateError("k4 base needs four distinct vertices")
        return _Draft(vs, combinations(vs, 2))
    if cert.base_kind == "dyad":
        if len(vs) != 3 or len(set(vs)) != 3:
            raise CertificateError("dyad base needs three distinct vertices")
        inner, p1, p2 = vs
        return _Draft(vs, [(inner, p1), (inner, p2)], frozenset({p1, p2}))
    raise CertificateError(f"unknown base kind {cert.base_kind!r}")


def _two_sum_step(d, a, b, operand):
    # a k4 base whose replay stays a multigraph is a circuit by the grammar
    if not (isinstance(operand, Certificate) and operand.base_kind == "k4"
            and isinstance(other := replay_certificate(operand), Multigraph)):
        raise CertificateError("two-sum operand must be a k4-base certificate "
                               "that builds a multigraph")
    return _two_sum(d, other, (a, b), (a, b))


# step kind -> (parameter names, rule taking a draft and their values); a
# rule returns the draft it edited, or the graph it built from it
STEPS = {
    "edge-split": (("u", "w", "x", "v"), _split_edge),
    "two-sum": (("a", "b", "other"), _two_sum_step),
    "vertex-split": (("v", "shared", "moved", "v2"), _split_vertex),
    "pin-split": (("vertex", "assignment"), split_contracted_vertex),
    "pin-rearrange": (("assignment",), pin_rearrangement),
}


def _apply_step(g, st: ConstructionStep):
    if st.kind not in STEPS:
        raise CertificateError(f"unknown step kind {st.kind!r}")
    names, rule = STEPS[st.kind]
    return rule(_Draft.of(g), *map(st.get, names))


def replay_certificate(cert: Certificate):
    """Rebuild the certified graph, enforcing the step grammar.

    From a ``k4`` base the steps must be circuit-preserving until a single
    ``pin-split`` moves to the pinned phase, in which a ``dyad`` base
    starts; that phase allows only Assur-preserving pinned steps.  Each
    2-sum operand must have a ``k4`` base and stay a multigraph, so it is a
    circuit.

    The steps edit one draft in place.  A graph is built only by a step that
    reads a whole graph (``pin-split``, ``pin-rearrange``), by each 2-sum
    operand, and at the end when the last step left a draft, so no step
    costs a rebuild of the whole graph.
    """
    g = _base_graph(cert)
    pinned = cert.base_kind == "dyad"
    for st in cert.steps:
        if pinned:
            if st.kind not in _PINNED_STEPS:
                raise CertificateError(f"step {st.kind!r} not allowed after pinning")
        elif st.kind == "pin-split":
            pinned = True
        elif st.kind not in _MULTI_STEPS:
            raise CertificateError(
                f"step {st.kind!r} not allowed from base {cert.base_kind!r}")
        try:
            g = _apply_step(g, st)
        except GraphError as exc:
            raise CertificateError(f"step {st.kind!r} failed: {exc}") from None
    return g.build() if isinstance(g, _Draft) else g


def verify_certificate(cert: Certificate) -> bool:
    """Replay and compare with the claimed labelled graph (inner vertices,
    pins and edges); False on any violation."""
    try:
        return replay_certificate(cert) == cert.claimed
    except (CertificateError, GraphError):
        return False


def _cut_vertices(adj, a, root):
    """The cut vertices of the connected graph `adj` minus the vertex a,
    from one depth-first search at `root` (Hopcroft & Tarjan, "Algorithm
    447", Comm. ACM 16, 1973): a vertex p other than the root is one
    exactly when some child subtree of p reaches no vertex discovered
    before p, and the root exactly when it has two children."""
    num = {root: 0}  # discovery order
    low = {root: 0}  # least number the subtree reaches by one back edge
    cuts = set()
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        x, nbrs = stack[-1]
        for y in nbrs:
            if y == a:
                continue
            if y not in num:
                num[y] = low[y] = len(num)
                stack.append((y, iter(adj[y])))
                break
            if num[y] < low[x]:
                low[x] = num[y]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[x] < low[p]:
                    low[p] = low[x]
                if p == root:
                    root_children += 1
                elif low[x] >= num[p]:
                    cuts.add(p)
    if root_children > 1:
        cuts.add(root)
    return cuts


def _separating_pair(adj, order):
    """The first pair (a, b) of `order`, in `combinations` order, whose
    removal disconnects the 2-connected graph `adj`, or None.

    {a, b} separates exactly when b is a cut vertex of the graph minus a,
    so one search per a finds every b.  A pair whose b comes before a would
    have been found at b's own turn, so the first cut vertex in `order` is
    the pair's b.
    """
    rank = {x: i for i, x in enumerate(order)}
    for a in order[:-1]:
        cuts = _cut_vertices(adj, a, order[0] if a != order[0] else order[1])
        if cuts:
            return a, min(cuts, key=rank.__getitem__)
    return None


def _component(adj, start, a, b):
    """The vertices that `start` reaches in the graph `adj` minus a and b."""
    side = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != a and y != b and y not in side:
                side.add(y)
                stack.append(y)
    return side


def _reverse_two_sum(adj):
    """Reverse 2-sum of the circuit with adjacency `adj` at its first
    separating pair {a, b}: (side one held as by `circuit_state`, step), or
    None when there is no such pair or a side is not a circuit.

    Side one is the component of M - {a, b} that holds its first other
    vertex, with its edges, side two everything else.  At a 2-separation of
    a circuit both sides plus the edge ab are circuits (Berg & Jordan,
    J. Combin. Theory Ser. B 88, 2003), which one game per side confirms.
    Side two is reduced on its own state into the step's operand
    certificate.
    """
    order = sorted(adj, key=vkey)
    pair = _separating_pair(adj, order)
    if pair is None:
        return None
    a, b = pair
    first = _component(adj, next(x for x in order if x != a and x != b), a, b)
    edges = [(x, y) for x, nbrs in adj.items() for y, k in nbrs.items()
             if vkey(x) < vkey(y) for _ in range(k)]
    sides = ([], [])
    for e in edges:
        sides[not (e[0] in first or e[1] in first)].append(e)
    c1, c2 = (Multigraph({a, b} | {x for e in side for x in e}, side + [(a, b)])
              for side in sides)
    held1 = circuit_state(c1)
    held2 = held1 and circuit_state(c2)
    if not held2:
        return None
    base2, steps2 = _reduce_circuit(held2)
    other = Certificate(base_kind="k4", base_vertices=base2, steps=tuple(steps2))
    return held1, step("two-sum", a=a, b=b, other=other)


def _unsplit(adj, state, r):
    """First reverse edge-split of the circuit M held as (adj, state, r):
    (step or None, the edge the state now lacks).

    M minus a vertex v is independent with 2|V - v| - 3 edges, so adding a
    non-edge ab between two of v's neighbours closes a single circuit, the
    fundamental circuit of ab; M - v + ab is a circuit exactly when the
    reach set of the rejected ab is all of V - v.  A rejected try leaves a
    valid orientation, so nothing is undone.  On success `adj` and `state`
    hold the smaller circuit and its missing edge is ab; otherwise v's edges
    go back in and the one rejected becomes the missing edge.  A dropped v
    stays in the state as an isolated vertex with two pebbles, which no
    search reaches.
    """
    for v in sorted(adj, key=vkey):
        nbrs = adj[v]
        if len(nbrs) != 3 or sum(nbrs.values()) != 3:
            continue
        order = sorted(nbrs, key=vkey)
        # each pair in order with the neighbour it leaves out, which loses its
        # edge to v: no circuit on four or more vertices has a vertex of degree 2
        pairs = [(a, b, x) for (a, b), x in zip(combinations(order, 2), order[::-1])
                 if b not in adj[a] and sum(adj[x].values()) > 3]
        if not pairs:
            continue
        for x in order:
            if not (v in r and x in r):
                state.remove_edge(v, x)
        if v not in r:
            state.try_insert(*r)  # accepted: M - v is independent
        for a, b, x in pairs:
            _, reach = state.try_insert(a, b)
            if len(reach) == len(adj) - 1:
                for y in order:
                    adj[y].pop(v)
                del adj[v]
                adj[a][b] = adj[b][a] = 1
                return step("edge-split", u=a, w=b, x=x, v=v), (a, b)
        r = [(v, x) for x in order if not state.try_insert(v, x)[0]][0]
    return None, r


def _reduce_circuit(held):
    """Reduce the circuit held as (adj, state, r) to K4: (base vertex tuple,
    forward step list).

    Every circuit arises from K4 by edge-splits and 2-sums (Berg & Jordan,
    J. Combin. Theory Ser. B 88, 2003), so any move that leaves a smaller
    circuit can be carried on down to K4: the first one found is taken and
    never undone.  Reverse edge-splits come first, then reverse 2-sums.

    The current circuit M lives in one pebble state holding M minus one
    rejected edge r; each reverse edge-split deletes and re-inserts edges
    there (Jacobs & Hendrickson, J. Comput. Phys. 137, 1997).  Only a
    reverse 2-sum builds graphs, one per side, and it goes on with the state
    whose game decided side one.
    """
    adj, state, r = held
    steps = []
    while not (len(adj) == 4
               and all(sorted(c.values()) == [1, 1, 1] for c in adj.values())):
        st, r = _unsplit(adj, state, r)
        if st is None:
            move = _reverse_two_sum(adj)
            if move is None:
                raise GraphError("internal error: circuit has no reverse edge-split "
                                 "and no reverse 2-sum")
            (adj, state, r), st = move
        steps.append(st)
    return tuple(sorted(adj, key=vkey)), steps[::-1]


def certify(g: PinnedGraph) -> Certificate:
    """Construction certificate for an Assur graph.

    Dyads certify trivially; otherwise the pin contraction is reduced
    directly to K4 by reverse edge-splits and reverse 2-sums, starting on
    the live game in which `assur_gate` found it a circuit, and a final
    pin-split step rebuilds the pinned graph.  The certificate claims `g`
    itself.  Raises GraphError when `g` is not Assur; there is no search
    that could give up.
    """
    try:
        reason, held, _ = assur_gate(g)
    except NotIsostaticError as exc:
        reason, held = str(exc), None
    if held is None:
        raise GraphError(f"certify requires an Assur graph ({reason or 'circuit condition fails'})")
    if len(g.inner) == 1:
        inner = next(iter(g.inner))
        p1, p2 = sorted(g.pins, key=vkey)
        return Certificate("dyad", (inner, p1, p2), (), g)
    base, steps = _reduce_circuit(held)
    assignment = tuple(sorted(((u, v) if v in g.pins else (v, u)
                               for u, v in g.edges if u in g.pins or v in g.pins),
                              key=lambda t: (vkey(t[0]), vkey(t[1]))))
    steps.append(step("pin-split", vertex=contraction_star(g),
                      assignment=assignment))
    return Certificate("k4", base, tuple(steps), g)
