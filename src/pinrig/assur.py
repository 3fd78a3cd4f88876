"""Assur graph characterizations and the unique decomposition of pinned
isostatic graphs into a partially ordered scheme of Assur components.

A pinned isostatic graph is Assur when it is minimal as such; equivalently its
pin contraction is a rigidity circuit; equivalently deleting any vertex (or
any edge) leaves a motion of all remaining inner vertices.  `is_assur` runs
any subset of the four checks and flags disagreement (which, the equivalence
being a theorem, signals a bug or an unlucky random sample rather than a
property of the graph).  It validates its input once, through `assur_gate`,
whose game on the pin contraction decides the circuit check (and is the
state `certify` reduces).  The two deletion checks share their samples in
`numeric.deletion_verdicts`.  Each `check_*` function is `is_assur` run on
its one method, through the same gate.

The decomposition and the minimality check come from the orientation of
the gate's own game (`pebble.pinned_game`), which on pinned isostatic input
gives every inner vertex out degree 2 and sends no edge of the graph out of
a pin.  The strongly connected components of the inner vertices under any
such orientation are the Assur components (Shai, Sljoka & Whiteley,
"Directed graphs, decompositions, and spatial linkages", Discrete Appl.
Math. 161, 2013).  The graph is minimal exactly when there is one component
and no pin is isolated.

Graphs with an isolated pinned vertex fail every check: the contraction
erases such pins, so the combinatorial and motion checks stop talking about
the same object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import GraphError, NotIsostaticError
from .graphs import PinnedGraph, compose, contract_pins, ekey, vkey
from .numeric import DEFAULT_TRIALS, deletion_verdicts
from .pebble import circuit_state, pinned_gate


def check_minimality(g: PinnedGraph) -> bool:
    """No proper pinned subgraph is itself isostatic: the decomposition has
    one component and no pin is isolated."""
    return _check(g, "minimality")


def minimality_violation(g: PinnedGraph, scheme: Optional["AssurScheme"] = None):
    """A proper pinned subgraph with 2|I'| edges, as (inner, pins), or None.

    With two or more Assur components the witness is component c1; with one
    component and isolated pins it is the whole graph without them.
    `scheme` is the decomposition of `g` when it is already at hand.
    """
    components = (decompose(g) if scheme is None else scheme).components
    if len(components) > 1:
        sub = components[0].graph
    elif g.isolated_pins():
        sub = g.induced(g.inner, g.pins - g.isolated_pins())
    else:
        return None
    return tuple(sorted(sub.inner, key=vkey)), tuple(sorted(sub.pins, key=vkey))


def check_circuit_condition(g: PinnedGraph) -> bool:
    """The pin contraction is a rigidity circuit (one pebble game)."""
    return _check(g, "circuit")


def check_vertex_deletion(g: PinnedGraph, seed: int = 0,
                          trials: int = DEFAULT_TRIALS) -> bool:
    """Deleting any vertex, inner or pinned, leaves a motion of all remaining
    inner vertices.  True is certain, and False is certain when certified
    by a rigid block; an uncertified False is wrong with probability at
    most about ((2|I| + 1)/p)^trials (`numeric.deletion_verdicts` says
    how)."""
    return _check(g, "vertex_deletion", seed, trials)


def check_edge_deletion(g: PinnedGraph, seed: int = 0,
                        trials: int = DEFAULT_TRIALS) -> bool:
    """Deleting any edge leaves a motion of all inner vertices.  True is
    certain, and False is certain when certified by a rigid block; an
    uncertified False is wrong with probability at most about
    ((2|I| + 1)/p)^trials (`numeric.deletion_verdicts` says how)."""
    return _check(g, "edge_deletion", seed, trials)


def _check(g, method, seed=0, trials=DEFAULT_TRIALS) -> bool:
    """`is_assur`'s value for `method` alone: input that is not pinned
    isostatic raises NotIsostaticError, with the pinned DOF, and isolated
    pins fail."""
    return bool(getattr(_verdict(g, (method,), seed, trials), method))


def assur_gate(g: PinnedGraph):
    """(reason, held, orientation): the checks every Assur test starts with.

    Input that is not pinned isostatic raises the NotIsostaticError of
    `pebble.pinned_gate`; otherwise `orientation` is its game's, from which
    `_decompose` reads the components.  `reason` says why a pinned
    isostatic `g` cannot be Assur before any circuit is sought: isolated
    pins.  Otherwise `held` is `pebble.circuit_state` of the pin
    contraction: its live game when the contraction is a circuit, which
    `certify` goes on to reduce, else None.
    """
    refusal, out = pinned_gate(g)
    if refusal:
        raise refusal
    if g.isolated_pins():
        pins = sorted(g.isolated_pins(), key=vkey)
        return f"isolated pinned vertices {pins!r}", None, out
    return None, circuit_state(contract_pins(g)), out


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
    `disagreement` is False all evaluated booleans are equal.  `pinned_dof`
    is set when the input is not pinned isostatic.  `scheme` is the
    decomposition, kept when minimality was evaluated or the circuit
    condition failed (its first component is then the failure's witness).
    """

    minimality: Optional[bool]
    circuit: Optional[bool]
    vertex_deletion: Optional[bool]
    edge_deletion: Optional[bool]
    overall: bool
    disagreement: bool
    reason: Optional[str] = None
    pinned_dof: Optional[int] = None
    scheme: Optional["AssurScheme"] = field(default=None, compare=False, repr=False)

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
    try:
        return _verdict(g, methods, seed, trials)
    except NotIsostaticError as exc:
        return AssurVerdict(None, None, None, None, overall=False,
                            disagreement=False, reason=str(exc), pinned_dof=exc.dof)


def _verdict(g, methods, seed, trials):
    """`is_assur` on input that passes `pebble.pinned_gate`; raises its
    NotIsostaticError otherwise."""
    chosen = set()
    for m in methods:
        try:
            chosen.add(_METHOD_ALIASES[m])
        except KeyError:
            raise GraphError(f"unknown method {m!r}") from None
    reason, held, out = assur_gate(g)
    if reason:
        return AssurVerdict(None, None, None, None, overall=False,
                            disagreement=False, reason=reason)
    results = {"circuit": held is not None}
    scheme = _decompose(g, out) if "minimality" in chosen or held is None else None
    if "minimality" in chosen:
        results["minimality"] = minimality_violation(g, scheme) is None
    motion_checks = ("vertex_deletion", "edge_deletion")
    if chosen.intersection(motion_checks):
        verdicts = zip(motion_checks, deletion_verdicts(g, seed=seed, trials=trials))
        results.update((name, ok) for name, ok in verdicts if name in chosen)
    values = set(results.values())
    return AssurVerdict(
        minimality=results.get("minimality"),
        circuit=results["circuit"],
        vertex_deletion=results.get("vertex_deletion"),
        edge_deletion=results.get("edge_deletion"),
        overall=results["circuit"],
        disagreement=len(values) > 1,
        scheme=scheme,
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
    covers: tuple = field(init=False)

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


def _strong_components(inner, out):
    """Strongly connected components of the inner vertices under `out`
    (vertex -> out-neighbours), sinks first: iterative Tarjan."""
    index, low, stack, comps = {}, {}, [], []
    for root in inner:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, heads = work[-1]
            for w in heads:
                if w in inner and w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if w in low:  # on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    comps.append(comp)
                    for w in comp:
                        del low[w]
    return comps


def decompose(g: PinnedGraph, seed: Optional[int] = None) -> AssurScheme:
    """Decompose a pinned isostatic graph into its Assur components.

    The game of `pebble.pinned_gate` orients every edge so that each inner
    vertex has out degree 2 and no edge leaves a pin.  Each strongly
    connected component of the inner vertices, with its out-edges, is one
    component; the heads of those edges outside it are its pins (Shai,
    Sljoka & Whiteley, Discrete Appl. Math. 161, 2013).  A component's level
    is one more than the highest level among its pins, ground pins having
    level 0.  `seed` shuffles the order in which the gate inserts the edges
    (the components and their order do not depend on it).  Input that is
    not pinned isostatic raises the NotIsostaticError of that gate.
    """
    edges = list(g.edges)
    if seed is not None:
        random.Random(seed).shuffle(edges)
    refusal, out = pinned_gate(g, edges)
    if refusal:
        raise refusal
    return _decompose(g, out)


def _decompose(g, out):
    """The scheme of pinned isostatic `g` from the orientation `out` of
    its gate's game."""
    level = dict.fromkeys(g.pins, 0)
    parts = []
    for scc in _strong_components(g.inner, out):
        comp_edges = [(x, y) for x in scc for y in out[x]]
        pins = {y for _, y in comp_edges} - scc
        lvl = 1 + max(level[p] for p in pins)
        level.update(dict.fromkeys(scc, lvl))
        parts.append((lvl, PinnedGraph(scc, pins, comp_edges)))
    parts.sort(key=lambda part: (part[0], _component_key(part[1])))
    components = tuple(
        AssurComponent(cid=f"c{i}", graph=graph, level=lvl,
                       pin_map=tuple((p, p) for p in sorted(graph.pins, key=vkey)))
        for i, (lvl, graph) in enumerate(parts, 1))
    return AssurScheme(components=components, ground=frozenset(g.pins))


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
