"""Assur graph characterizations and the unique decomposition of pinned
isostatic graphs into a partially ordered scheme of Assur components.

A pinned isostatic graph is Assur when it is minimal as such; equivalently its
pin contraction is a rigidity circuit; equivalently deleting any vertex (or
any edge) leaves a motion of all remaining inner vertices.  The four checks
are implemented separately and `is_assur` runs any subset of them, flagging
disagreement (which, the equivalence being a theorem, signals a bug or an
unlucky random sample rather than a property of the graph).

Graphs with an isolated pinned vertex are refused by `is_assur`: the
contraction erases such pins, so the combinatorial and motion checks stop
talking about the same object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .counting import ORACLE_MAX_VERTICES
from .errors import GraphError, NotIsostaticError
from .graphs import Multigraph, PinnedGraph, compose, contract_pins, ekey, vkey
from .numeric import DEFAULT_TRIALS, all_inner_move
from .pebble import (circuit_indices, is_circuit, pebble_rank, pinned_dof,
                     pinned_isostatic)


def _require_isostatic(g: PinnedGraph, op: str):
    if not pinned_isostatic(g):
        raise NotIsostaticError(f"{op} requires a pinned isostatic graph",
                                dof=pinned_dof(g))


def check_minimality(g: PinnedGraph) -> bool:
    """No proper vertex subset induces a pinned subgraph with 2|I'| edges.

    Exhaustive over vertex subsets up to ORACLE_MAX_VERTICES total vertices;
    above that the equivalent circuit condition is used instead.
    """
    _require_isostatic(g, "minimality check")
    if g.n > ORACLE_MAX_VERTICES:
        return check_circuit_condition(g)
    verts = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
    ni = len(g.inner)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    emasks = [(1 << index[u]) | (1 << index[v]) for u, v in g.edges]
    full = (1 << n) - 1
    inner_mask = (1 << ni) - 1
    for mask in range(1, full):
        induced = sum(1 for em in emasks if em & mask == em)
        if induced == 0:
            continue
        ki = (mask & inner_mask).bit_count()
        if induced > 2 * ki - 1:
            return False
    return True


def minimality_violation(g: PinnedGraph):
    """A proper pinned subgraph violating minimality: (inner, pins) or None."""
    _require_isostatic(g, "minimality check")
    verts = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
    ni = len(g.inner)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    emasks = [(1 << index[u]) | (1 << index[v]) for u, v in g.edges]
    for mask in range(1, (1 << n) - 1):
        induced = sum(1 for em in emasks if em & mask == em)
        if induced == 0:
            continue
        ki = (mask & ((1 << ni) - 1)).bit_count()
        if induced > 2 * ki - 1:
            return (tuple(verts[i] for i in range(ni) if mask >> i & 1),
                    tuple(verts[i] for i in range(ni, n) if mask >> i & 1))
    return None


def check_circuit_condition(g: PinnedGraph) -> bool:
    """The pin contraction is a rigidity circuit (one pebble game).

    Isolated pins fail the check: they vanish under contraction, so no
    circuit splitting can recover them.
    """
    _require_isostatic(g, "circuit condition")
    if g.isolated_pins():
        return False
    return is_circuit(contract_pins(g))


def check_vertex_deletion(g: PinnedGraph, seed: int = 0,
                          trials: int = DEFAULT_TRIALS,
                          include_pins: bool = True) -> bool:
    """Deleting any vertex leaves a motion of all remaining inner vertices.

    The single-inner-vertex-of-degree-2 graph passes outright.  By default
    pins are deleted too; `include_pins=False` restricts to inner vertices.
    """
    _require_isostatic(g, "vertex deletion check")
    if len(g.inner) == 1 and g.degree(next(iter(g.inner))) == 2:
        return True
    rng = random.Random(seed)
    targets = sorted(g.inner, key=vkey)
    if include_pins:
        targets += sorted(g.pins, key=vkey)
    for v in targets:
        h = g.without_vertex(v)
        if not h.inner:
            continue
        if not all_inner_move(h, seed=rng.randrange(2 ** 32), trials=trials):
            return False
    return True


def check_edge_deletion(g: PinnedGraph, seed: int = 0,
                        trials: int = DEFAULT_TRIALS) -> bool:
    """Deleting any edge leaves a motion of all inner vertices."""
    _require_isostatic(g, "edge deletion check")
    rng = random.Random(seed)
    for u, v in g.edges:
        if not all_inner_move(g.without_edge(u, v),
                              seed=rng.randrange(2 ** 32), trials=trials):
            return False
    return True


_METHOD_ALIASES = {
    "i": "minimality", "ii": "circuit", "iii": "vertex_deletion",
    "iv": "edge_deletion",
    "minimality": "minimality", "circuit": "circuit",
    "vertex_deletion": "vertex_deletion", "edge_deletion": "edge_deletion",
}

ALL_METHODS = ("minimality", "circuit", "vertex_deletion", "edge_deletion")


@dataclass(frozen=True)
class AssurVerdict:
    """Outcome of the (selected) equivalent characterizations.

    `overall` is keyed to the circuit condition, the purely combinatorial
    check; the motion-based conditions are randomized witnesses.  When
    `disagreement` is False all evaluated booleans are equal.
    """

    minimality: Optional[bool]
    circuit: Optional[bool]
    vertex_deletion: Optional[bool]
    edge_deletion: Optional[bool]
    overall: bool
    disagreement: bool
    reason: Optional[str] = None

    def evaluated(self) -> dict:
        out = {}
        for name in ALL_METHODS:
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def is_assur(g: PinnedGraph, methods=ALL_METHODS, seed: int = 0,
             trials: int = DEFAULT_TRIALS) -> AssurVerdict:
    """Run the selected characterizations and combine them into a verdict.

    `methods` accepts the names above or the numerals i..iv.  The circuit
    condition is always computed since it decides `overall`.  Non-isostatic
    input (or an isolated pin) yields overall False with a reason instead of
    an error.
    """
    chosen = set()
    for m in methods:
        try:
            chosen.add(_METHOD_ALIASES[m])
        except KeyError:
            raise GraphError(f"unknown method {m!r}") from None
    if len(g.pins) < 2:
        return AssurVerdict(None, None, None, None, overall=False,
                            disagreement=False, reason="fewer than two pins")
    if not pinned_isostatic(g):
        return AssurVerdict(None, None, None, None, overall=False,
                            disagreement=False,
                            reason=f"not pinned isostatic (pinned DOF {pinned_dof(g)})")
    if g.isolated_pins():
        pins = sorted(g.isolated_pins(), key=vkey)
        return AssurVerdict(None, None, None, None, overall=False,
                            disagreement=False,
                            reason=f"isolated pinned vertices {pins!r}")
    results = {"circuit": check_circuit_condition(g)}
    if "minimality" in chosen:
        results["minimality"] = check_minimality(g)
    if "vertex_deletion" in chosen:
        results["vertex_deletion"] = check_vertex_deletion(g, seed=seed, trials=trials)
    if "edge_deletion" in chosen:
        results["edge_deletion"] = check_edge_deletion(g, seed=seed, trials=trials)
    values = set(results.values())
    return AssurVerdict(
        minimality=results.get("minimality"),
        circuit=results["circuit"],
        vertex_deletion=results.get("vertex_deletion"),
        edge_deletion=results.get("edge_deletion"),
        overall=results["circuit"],
        disagreement=len(values) > 1,
    )


# -- decomposition ------------------------------------------------------------

@dataclass(frozen=True)
class AssurComponent:
    """One Assur component of a decomposition.

    `pin_map` sends each pin of the component graph to the vertex it attaches
    to: a ground vertex or an inner vertex of a lower-level component.  For
    schemes produced by `decompose` the map is the identity, since components
    keep the original vertex ids.
    """

    cid: str
    graph: PinnedGraph
    level: int
    pin_map: tuple  # ordered (pin, target) pairs

    def targets(self) -> dict:
        return dict(self.pin_map)


@dataclass(frozen=True)
class AssurScheme:
    """Partially ordered collection of Assur components plus the ground pins.

    The stored order is the cover relation "pins directly onto an inner vertex
    of"; `leq` answers the transitive closure.  Validation checks levels,
    dangling targets, and acyclicity at construction.
    """

    components: tuple
    ground: frozenset
    covers: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "covers", tuple(self._compute_covers()))
        self._validate()

    def _compute_covers(self):
        inner_owner = {}
        for comp in self.components:
            for v in comp.graph.inner:
                inner_owner[v] = comp.cid
        pairs = set()
        for comp in self.components:
            for _, target in comp.pin_map:
                owner = inner_owner.get(target)
                if owner is not None and owner != comp.cid:
                    pairs.add((owner, comp.cid))
        return sorted(pairs)

    def _validate(self):
        by_id = {c.cid: c for c in self.components}
        if len(by_id) != len(self.components):
            raise GraphError("component ids must be unique")
        inner_level = {}
        for comp in self.components:
            if comp.level < 1:
                raise GraphError(f"component {comp.cid} has level {comp.level} < 1")
            for v in comp.graph.inner:
                inner_level[v] = comp.level
        for comp in self.components:
            mapped = {p for p, _ in comp.pin_map}
            if mapped != comp.graph.pins:
                raise GraphError(f"component {comp.cid}: pin map must cover its pins")
            for pin, target in comp.pin_map:
                if target in self.ground:
                    continue
                lvl = inner_level.get(target)
                if lvl is None:
                    raise GraphError(
                        f"component {comp.cid}: dangling pin identification "
                        f"{pin!r} -> {target!r}")
                if lvl >= comp.level:
                    raise GraphError(
                        f"component {comp.cid}: pin {pin!r} targets level {lvl}, "
                        f"not below its own level {comp.level}")

    def component(self, cid: str) -> AssurComponent:
        return next(c for c in self.components if c.cid == cid)

    def leq(self, a: str, b: str) -> bool:
        """Partial order: reflexive transitive closure of the cover relation."""
        if a == b:
            return True
        succ = {}
        for x, y in self.covers:
            succ.setdefault(x, set()).add(y)
        seen = set()
        stack = [a]
        while stack:
            x = stack.pop()
            for y in succ.get(x, ()):
                if y == b:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    @property
    def levels(self) -> int:
        return max((c.level for c in self.components), default=0)


def _component_key(graph: PinnedGraph):
    # deterministic, id-based; avoids canonicalization cost on large parts
    return (len(graph.inner), graph.m, tuple(ekey(e) for e in graph.edges))


def decompose(g: PinnedGraph, seed: Optional[int] = None) -> AssurScheme:
    """Decompose a pinned isostatic graph into its Assur components.

    Level by level: contract the current ground to a single vertex, run the
    pebble game, and read off the fundamental circuits of the rejected edges;
    each circuit, re-split onto the ground vertices its edges touch, is one
    component.  Extracted inner vertices join the ground and the process
    repeats until no inner vertex remains.  `seed` shuffles edge insertion
    order (the component multiset and partial order do not depend on it).
    """
    if len(g.pins) < 2:
        raise NotIsostaticError("decomposition needs at least two pins")
    if not pinned_isostatic(g):
        raise NotIsostaticError("decomposition is undefined for non-isostatic input",
                                dof=pinned_dof(g))
    rng = random.Random(seed) if seed is not None else None
    ground = set(g.pins)
    inner = set(g.inner)
    active = list(g.edges)
    components = []
    level = 0
    while inner:
        level += 1
        star = "p*"
        while star in inner:
            star += "*"
        medges = [((star if u in ground else u), (star if v in ground else v))
                  for u, v in active]
        m = Multigraph(inner | {star}, medges)
        order = list(range(len(medges)))
        if rng is not None:
            rng.shuffle(order)
        rep = pebble_rank(m, order)
        if not rep.rejected:
            raise NotIsostaticError(
                "decomposition stalled: contraction has no dependent edge")
        used = set()
        level_comps = []
        for ridx in rep.rejected:
            idxs = circuit_indices(rep, ridx)
            if idxs & used:
                raise GraphError("internal error: overlapping circuits in contraction")
            used |= idxs
            comp_edges = [active[i] for i in sorted(idxs)]
            comp_inner = {x for e in comp_edges for x in e} - ground
            comp_pins = {x for e in comp_edges for x in e} & ground
            if len(comp_pins) < 2:
                raise GraphError("internal error: component with fewer than two pins")
            graph = PinnedGraph(comp_inner, comp_pins, comp_edges)
            level_comps.append(graph)
        level_comps.sort(key=_component_key)
        for graph in level_comps:
            cid = f"c{len(components) + 1}"
            pin_map = tuple((p, p) for p in sorted(graph.pins, key=vkey))
            components.append(AssurComponent(cid=cid, graph=graph,
                                             level=level, pin_map=pin_map))
            inner -= graph.inner
            ground |= graph.inner
        active = [active[i] for i in range(len(active)) if i not in used]
        if len(active) != 2 * len(inner):
            raise GraphError("internal error: level extraction broke the edge count")
    return AssurScheme(components=tuple(components), ground=frozenset(g.pins))


def recompose(scheme: AssurScheme) -> PinnedGraph:
    """Fold the components bottom-up into one pinned graph.

    Inverse of `decompose` (up to isomorphism; exactly, for schemes whose
    components kept the original vertex ids).
    """
    acc = PinnedGraph((), scheme.ground, ())
    for comp in sorted(scheme.components, key=lambda c: (c.level, c.cid)):
        try:
            acc = compose(comp.graph, acc, comp.targets())
        except GraphError as exc:
            raise GraphError(f"component {comp.cid}: {exc}") from None
    return acc
