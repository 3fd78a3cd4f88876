"""Construction operations, enumeration of circuits and Assur graphs, and
replayable construction certificates.

Every rigidity circuit arises from K4 by edge-splits and 2-sums, and every
Assur graph on five or more vertices arises from a circuit by splitting one
vertex into pins; the dyad is the lone extra base (its contraction, the
doubled edge, sits outside the K4 closure).  The enumerations below implement
exactly those closures, deduplicating by canonical code, and the brute-force
oracles in :mod:`pinrig.counting` cross-check them in the test suite.

A certificate records a construction path from a base (dyad or K4) to a
target graph.  `certify` reduces backwards with reverse edge-splits and
reverse 2-sums, never backtracking, on one pebble state that holds the current
circuit minus one rejected edge: the state of the game that found the
circuit (`pebble.circuit_state`), one game per side of a reverse 2-sum.
`verify_certificate` replays forward and compares canonical codes, of the
result and of every 2-sum operand, enforcing a step grammar so that a passing
certificate with a dyad/K4 base really does witness the Assur property.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .assur import assur_gate
from .canon import canonical_code, canonical_form
from .errors import CertificateError, GraphError, NotIsostaticError, PinrigWarning
from .graphs import (Multigraph, PinnedGraph, complete_graph, contract_pins,
                     contraction_star, fresh_id, norm_edge, rename_apart,
                     split_contracted_vertex, vkey)
from .pebble import circuit_state

ENUM_MAX_VERTICES = 10


# -- Henneberg and circuit operations ----------------------------------------

def vertex_addition(g: Multigraph, u, w, new_vertex=None) -> Multigraph:
    """Attach a new 2-valent vertex to u and w (preserves independence)."""
    if u == w:
        raise GraphError("attachment vertices must be distinct")
    if u not in g.vertices or w not in g.vertices:
        raise GraphError("attachment vertices must exist")
    v = fresh_id(g.vertices, "v") if new_vertex is None else new_vertex
    if v in g.vertices:
        raise GraphError(f"new vertex {v!r} already present")
    return Multigraph(g.vertices | {v}, g.edges + ((u, v), (v, w)))


def edge_split(g, e, x, new_vertex=None):
    """Split edge e = (u, w) by a new vertex joined to u, w and a third vertex x.

    Works on multigraphs and on pinned graphs (the new vertex is inner).
    Takes independent sets to independent sets, circuits to circuits, and
    Assur graphs on at least four vertices to Assur graphs.
    """
    u, w = norm_edge(*e)
    if x == u or x == w:
        raise GraphError("third attachment must differ from the split edge's endpoints")
    if x not in g.vertices:
        raise GraphError(f"third attachment {x!r} must exist")
    v = fresh_id(g.vertices, "v") if new_vertex is None else new_vertex
    if v in g.vertices:
        raise GraphError(f"new vertex {v!r} already present")
    if isinstance(g, PinnedGraph):
        # two pinned attachments would collapse to a doubled edge under pin
        # contraction, so no circuit-level split corresponds to them
        if sum(1 for t in (u, w, x) if t in g.pins) > 1:
            raise GraphError("at most one of the three attachments may be pinned")
    # one copy of (u, w) out, three new edges in, and a single graph built
    edges = list(g.edges)
    try:
        edges.remove((u, w))
    except ValueError:
        raise GraphError(f"edge {(u, w)!r} not present") from None
    edges += [(v, u), (v, w), (v, x)]
    if isinstance(g, PinnedGraph):
        return PinnedGraph(g.inner | {v}, g.pins, edges)
    return Multigraph(g.vertices | {v}, edges)


def two_sum(c1: Multigraph, c2: Multigraph, e1, e2, flip: bool = False) -> Multigraph:
    """Glue two circuits along an edge and delete the glued edge.

    Endpoints of e2 are identified with endpoints of e1 (crosswise when
    `flip`); remaining vertices of c2 are renamed if they collide with c1.
    For circuit inputs the result is a circuit with |V1|+|V2|-2 vertices and
    |E1|+|E2|-2 edges; non-circuit inputs only get a warning (the operation is
    still performed for experimentation).
    """
    e1 = norm_edge(*e1)
    if e1 not in c1.edges:
        raise GraphError(f"glue edge {e1!r} is not in the first graph")
    e2n = norm_edge(*e2)
    if e2n not in c2.edges:
        raise GraphError(f"glue edge {e2!r} is not in the second graph")
    for name, c in (("first", c1), ("second", c2)):
        if c.m != 2 * c.n - 2:
            warnings.warn(f"{name} 2-sum operand has {c.m} edges on {c.n} vertices, "
                          f"not a rigidity circuit count", PinrigWarning, stacklevel=2)
    a, b = e1
    cc, dd = e2n if not flip else (e2n[1], e2n[0])
    amap = {cc: a, dd: b, **rename_apart(c2.vertices - {cc, dd}, c1.vertices)}
    edges1 = list(c1.edges)
    edges1.remove(e1)
    edges2 = list(c2.edges)
    edges2.remove(e2n)
    mapped = [(amap[u], amap[v]) for u, v in edges2]
    return Multigraph(c1.vertices | set(amap.values()), edges1 + mapped)


def vertex_split(c: Multigraph, v, shared, moved, new_vertex=None) -> Multigraph:
    """Split v into two adjacent vertices, both of degree at least three.

    `shared` names the one neighbor joined to both halves; `moved` lists the
    neighbors (with multiplicity) handed to the new half, the rest staying
    with v.  Adds the connecting edge and the duplicated shared edge, so a
    circuit stays a circuit and an Assur graph grows to a larger one.
    """
    if v not in c.vertices:
        raise GraphError(f"vertex {v!r} not present")
    nbrs = c.neighbors(v)
    if not nbrs[shared]:
        raise GraphError(f"shared neighbor {shared!r} is not adjacent to {v!r}")
    moved = list(moved)
    moved_count = Counter(moved)
    rest_count = Counter(nbrs)
    rest_count[shared] -= 1
    if rest_count[shared] == 0:
        del rest_count[shared]
    if not all(moved_count[x] <= rest_count.get(x, 0) for x in moved_count):
        raise GraphError("moved neighbors must come from v's edges, excluding the shared one")
    if shared in moved_count:
        raise GraphError("the shared neighbor cannot also be moved")
    keep_count = rest_count - moved_count
    if not moved_count or not keep_count:
        raise GraphError("each side of the split must keep at least one non-shared edge")
    v2 = fresh_id(c.vertices, "v") if new_vertex is None else new_vertex
    if v2 in c.vertices:
        raise GraphError(f"new vertex {v2!r} already present")
    edges = [e for e in c.edges if v not in e]
    edges.extend((v, x) for x in sorted(keep_count.elements(), key=vkey))
    edges.extend((v2, x) for x in sorted(moved_count.elements(), key=vkey))
    edges.append((v, shared))
    edges.append((v2, shared))
    edges.append((v, v2))
    return Multigraph(c.vertices | {v2}, edges)


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
        for c in by_n.get(n - 1, {}).values():
            for u, w in set(c.edges):
                for x in sorted(c.vertices - {u, w}, key=vkey):
                    _add_class(found, edge_split(c, (u, w), x, new_vertex=n - 1))
        for n1 in range(4, (n + 2) // 2 + 1):
            n2 = n + 2 - n1
            if n2 < n1 or n2 not in by_n:
                continue
            for c1 in by_n[n1].values():
                for c2 in by_n[n2].values():
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
                    if max_pins < 2:
                        continue
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
    """A base graph, a list of construction steps, and the claimed result code.

    Bases: ``dyad`` (inner, pin, pin), ``k4`` (four vertices), ``edge`` (two
    vertices).  Replaying the steps from the base must land on a graph whose
    canonical code equals `claimed`.
    """

    base_kind: str
    base_vertices: tuple
    steps: tuple
    claimed: str


_MULTI_STEPS = {"edge": ("vertex-addition", "edge-split"),
                "k4": ("edge-split", "two-sum", "vertex-split")}
_PINNED_STEPS = ("edge-split", "pin-rearrange")


def _base_graph(cert: Certificate):
    vs = cert.base_vertices
    if cert.base_kind == "k4":
        if len(set(vs)) != 4:
            raise CertificateError("k4 base needs four distinct vertices")
        return complete_graph(vs)
    if cert.base_kind == "edge":
        if len(set(vs)) != 2:
            raise CertificateError("edge base needs two distinct vertices")
        return Multigraph(vs, [tuple(vs)])
    if cert.base_kind == "dyad":
        if len(set(vs)) != 3:
            raise CertificateError("dyad base needs three distinct vertices")
        inner, p1, p2 = vs
        return PinnedGraph({inner}, {p1, p2}, [(inner, p1), (inner, p2)])
    raise CertificateError(f"unknown base kind {cert.base_kind!r}")


def _edge_split_step(g, u, w, x, v):
    if isinstance(g, PinnedGraph) and g.n < 4:
        raise CertificateError("pinned edge-split needs at least four vertices")
    return edge_split(g, (u, w), x, new_vertex=v)


def _two_sum_step(g, a, b, claim):
    if not isinstance(claim, Certificate):
        raise CertificateError("two-sum operand must be a certificate")
    other = replay_certificate(claim)
    if not isinstance(other, Multigraph) or _code(other) != claim.claimed:
        raise CertificateError("two-sum operand must build the multigraph it claims")
    return two_sum(g, other, (a, b), (a, b), flip=False)


# step kind -> (parameter names, builder taking the graph and their values)
STEPS = {
    "vertex-addition": (("u", "w", "v"), vertex_addition),
    "edge-split": (("u", "w", "x", "v"), _edge_split_step),
    "two-sum": (("a", "b", "other"), _two_sum_step),
    "vertex-split": (("v", "shared", "moved", "v2"), vertex_split),
    "pin-split": (("vertex", "assignment"), split_contracted_vertex),
    "pin-rearrange": (("assignment",), pin_rearrangement),
}


def _apply_step(g, st: ConstructionStep):
    if st.kind not in STEPS:
        raise CertificateError(f"unknown step kind {st.kind!r}")
    names, build = STEPS[st.kind]
    return build(g, *map(st.get, names))


def replay_certificate(cert: Certificate):
    """Rebuild the certified graph, enforcing the step grammar.

    Multigraph-phase steps must be circuit-preserving for a ``k4`` base (or
    independence-preserving for an ``edge`` base); a single ``pin-split``
    from a ``k4`` base moves to the pinned phase (a split independent graph
    need not be pinned isostatic), after which only Assur-preserving pinned
    steps are allowed, and each 2-sum operand must build the code it claims.
    """
    g = _base_graph(cert)
    pinned = cert.base_kind == "dyad"
    for st in cert.steps:
        if pinned:
            if st.kind not in _PINNED_STEPS:
                raise CertificateError(f"step {st.kind!r} not allowed after pinning")
        elif st.kind == "pin-split" and cert.base_kind == "k4":
            pinned = True
        elif st.kind not in _MULTI_STEPS[cert.base_kind]:
            raise CertificateError(
                f"step {st.kind!r} not allowed from base {cert.base_kind!r}")
        try:
            g = _apply_step(g, st)
        except GraphError as exc:
            raise CertificateError(f"step {st.kind!r} failed: {exc}") from None
    return g


def _code(g):
    """Canonical code of `g` at any size: certificates are not bounded by
    the catalog-sized default of `canonical_code`."""
    return canonical_code(g, max_vertices=g.n)


def verify_certificate(cert: Certificate) -> bool:
    """Replay and compare canonical codes; False on any violation."""
    try:
        return _code(replay_certificate(cert)) == cert.claimed
    except (CertificateError, GraphError):
        return False


def _first_side(adj, order, a, b):
    """The component of m - {a, b} that holds its first vertex in `order`,
    or None when m - {a, b} is connected."""
    start = next(x for x in order if x != a and x != b)
    side = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != a and y != b and y not in side:
                side.add(y)
                stack.append(y)
    return side if len(side) < len(order) - 2 else None


def _reverse_two_sum(adj):
    """First reverse 2-sum of the circuit with adjacency `adj` at a
    separating pair: (side one held as by `_circuit_state`, step).

    Side one is the first component of M - {a, b} with its edges, side two
    everything else; each side plus the edge ab must be a circuit, which one
    game per side decides.  Side two is reduced on its own state into the
    step's operand certificate.
    """
    order = sorted(adj, key=vkey)
    edges = [(x, y) for x in adj for y in adj[x].elements() if vkey(x) < vkey(y)]
    for a, b in combinations(order, 2):
        first = _first_side(adj, order, a, b)
        if first is None:
            continue
        sides = ([], [])
        for e in edges:
            sides[not (e[0] in first or e[1] in first)].append(e)
        c1, c2 = (Multigraph({a, b} | {x for e in side for x in e}, side + [(a, b)])
                  for side in sides)
        held1 = _circuit_state(c1)
        held2 = held1 and _circuit_state(c2)
        if held2:
            base2, steps2 = _reduce_circuit(held2)
            other = Certificate(base_kind="k4", base_vertices=base2,
                                steps=tuple(steps2),
                                claimed=_code(c2))
            return held1, step("two-sum", a=a, b=b, other=other)
    return None


def _circuit_state(m: Multigraph):
    """Circuit `m` held as (adjacency, pebble state of m minus r, r), where r
    is the one edge the game rejects, or None when `m` is not a circuit."""
    held = circuit_state(m)
    if held is None:
        return None
    return ({x: m.neighbors(x) for x in m.vertices}, *held)


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
                 if not adj[a][b] and sum(adj[x].values()) > 3]
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
                    del adj[y][v]
                del adj[v]
                adj[a][b] += 1
                adj[b][a] += 1
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
    pin-split step rebuilds the pinned graph.  Raises GraphError when `g`
    is not Assur; there is no search that could give up.
    """
    try:
        reason, held = assur_gate(g)
    except NotIsostaticError as exc:
        reason, held = str(exc), None
    if held is None:
        raise GraphError(f"certify requires an Assur graph ({reason or 'circuit condition fails'})")
    claimed = _code(g)
    if len(g.inner) == 1:
        inner = next(iter(g.inner))
        p1, p2 = sorted(g.pins, key=vkey)
        return Certificate("dyad", (inner, p1, p2), (), claimed)
    m = contract_pins(g)
    base, steps = _reduce_circuit(({x: m.neighbors(x) for x in m.vertices}, *held))
    assignment = tuple(sorted(((u, v) if v in g.pins else (v, u)
                               for u, v in g.edges if u in g.pins or v in g.pins),
                              key=lambda t: (vkey(t[0]), vkey(t[1]))))
    steps.append(step("pin-split", vertex=contraction_star(g),
                      assignment=assignment))
    return Certificate("k4", base, tuple(steps), claimed)
