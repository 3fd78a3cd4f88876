"""The (2,3)-pebble game: rank, independence, pinned isostatic tests, circuits.

Every query plays one game on one `_PebbleState`, and every game runs
through the state's one insertion loop, `rejections`, which inserts edges
in order and yields each rejected edge with its reach set as it is
rejected: `pebble_rank` reads every rejection, `circuit_state` (whose live
state `certify` goes on to edit) stops at its first rejection that rules
out a circuit, and `pinned_game` plays the pin scaffold and the graph
through it, then one trial bar.
`pinned_gate` owns the pinned isostatic rule that every Assur test, the
decomposition and `check --mode pinned` start with, and hands on the
orientation of its game, from which `assur` reads the decomposition.

Each vertex starts with two pebbles.  An edge is accepted when four pebbles
can be gathered on its endpoints (two each); accepting orients the edge away
from the vertex that pays a pebble.  The invariant pebbles(v) + outdeg(v) == 2
holds throughout.  The number of accepted edges equals the generic rigidity
rank of the input, independent of insertion order.

When an edge (u, v) is rejected, the set R of vertices reachable from {u, v}
along the current orientation carries exactly three pebbles and spans exactly
2|R| - 3 accepted edges, so with the rejected edge it spans 2|R| - 2 and
breaks the Laman count.  That reach set is the witness of the rejection:
`RankReport.reach` records it for each rejected edge, `pinned_game` reports
it for the first, and `circuit_state` accepts an edge set as a circuit when
it is the whole support.

Accepted edges are (2,3)-sparse, so no vertex pair is accepted twice.  The
orientation is a plain dict per vertex, head -> 1, edited only by dict item
writes and deletions; a dict rather than a set, because the search follows
out-neighbours in the order their edges were oriented.
That order shapes the orientation but no result: the accepted edges are the
greedy basis in insertion order, and a rejected edge's reach set is the
smallest (2,3)-tight vertex set containing both endpoints, whichever paths
the search took.  So the whole report depends only on the edge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError, NotIsostaticError
from .graphs import Multigraph, PinnedGraph, fresh_id, vkey


class _PebbleState:
    """Mutable game state; `pebbles` maps each vertex to its starting
    pebbles and `out` each vertex to {head: 1} of its oriented edges.
    Edges are inserted by `rejections` or `try_insert` and deleted by
    `remove_edge`."""

    def __init__(self, pebbles):
        self.pebbles = pebbles
        self.out = {v: {} for v in pebbles}

    def _pull_pebble(self, root, other):
        """Try to move one pebble to `root`, not stealing from `other`:
        search the orientation depth first from `root` for a pebbled
        vertex, then reverse the path to it.

        Returns None once moved, else the out-closure of `root`."""
        out, peb = self.out, self.pebbles
        pred = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in pred:
                    continue
                pred[y] = x
                if y != other and peb[y] > 0:
                    # reverse the path root -> ... -> y, so the pebble walks
                    # back to root; the loop over out[x] ends here, so the
                    # reversal may edit it
                    peb[y] -= 1
                    peb[root] += 1
                    while x is not None:
                        del out[x][y]
                        out[y][x] = 1
                        y, x = x, pred[x]
                    return None
                stack.append(y)
        return set(pred)

    def try_insert(self, u, v):
        """Attempt to accept edge (u, v) once four pebbles sit on its ends,
        two on each, so that u pays for it.

        Returns (True, None) on acceptance or (False, reach) on rejection,
        where reach is the out-closure of {u, v} at the moment of failure.
        """
        peb = self.pebbles
        while peb[u] + peb[v] < 4:
            reach_u = self._pull_pebble(u, v) if peb[u] < 2 else {u}
            if reach_u is None:
                continue
            reach_v = self._pull_pebble(v, u) if peb[v] < 2 else {v}
            if reach_v is None:
                continue
            return False, frozenset(reach_u | reach_v)
        peb[u] -= 1
        self.out[u][v] = 1
        return True, None

    def rejections(self, edges):
        """Insert `edges` in order, yielding (index, reach) for each one
        `try_insert` rejects, as it is rejected.

        The loop is lazy: a caller that stops reading stops the insertion,
        and the state holds the edges up to the last rejection read.
        """
        for i, (u, v) in enumerate(edges):
            ok, reach = self.try_insert(u, v)
            if not ok:
                yield i, reach

    def remove_edge(self, u, v):
        """Delete accepted edge (u, v).

        The vertex the edge leaves gets back the pebble that paid for it, so
        the invariant holds and the state is the game on the remaining edges.
        """
        if v not in self.out[u]:
            u, v = v, u
        del self.out[u][v]
        self.pebbles[u] += 1


@dataclass(frozen=True)
class RankReport:
    """Outcome of a pebble-game run over a multigraph.

    `independent` and `rejected` hold edge indices into ``graph.edges`` (the
    accepted set is a basis of the input's span; rejected edges are the
    dependent ones relative to the insertion order).  `reach` maps each
    rejected index to the vertex set recorded at its rejection.
    """

    graph: Multigraph | PinnedGraph
    rank: int
    independent: tuple
    rejected: tuple
    reach: dict = field(repr=False)

    @property
    def rejected_edges(self) -> tuple:
        return tuple(self.graph.edges[i] for i in self.rejected)


def pebble_rank(m: Multigraph | PinnedGraph) -> RankReport:
    """Run the (2,3)-pebble game over all edges of `m`, read as a multigraph,
    in construction order.  The rank is order-independent; the
    accepted/rejected split is not.
    """
    reach = dict(_PebbleState(dict.fromkeys(m.vertices, 2)).rejections(m.edges))
    return RankReport(graph=m, rank=m.m - len(reach),
                      independent=tuple(i for i in range(m.m) if i not in reach),
                      rejected=tuple(reach), reach=reach)


def circuit_state(m: Multigraph):
    """One (2,3) game over the edges of `m` in order: (`m.adjacency()`,
    state, r) when the edges form a rigidity circuit, else None.

    With |E| = 2|V(E)| - 2 and exactly one rejected edge r the edge set has
    nullity 1, so it holds a single circuit: the fundamental circuit of r,
    which spans r's reach set.  The edge set is a circuit exactly when that
    reach set is all of V(E), so the game stops at the first rejection
    that is a second one or whose reach set falls short.  On a circuit the
    state holds every edge but r and stays
    live for a caller that goes on to delete edges (`remove_edge`) and
    insert them (`try_insert`), as `certify` does, editing the adjacency
    alongside.
    """
    support = m.support()
    if m.m == 0 or m.m != 2 * len(support) - 2:
        return None
    state = _PebbleState(dict.fromkeys(m.vertices, 2))
    held = None
    for i, reach in state.rejections(m.edges):
        if held is not None or len(reach) != len(support):
            return None
        held = state, m.edges[i]
    return held and (m.adjacency(), *held)


def is_circuit(m: Multigraph) -> bool:
    """The edges of `m` form a rigidity circuit on their support."""
    return circuit_state(m) is not None


def _scaffold(pins, apex):
    """Isostatic pin scaffold: a path over the pins plus an apex joined to all."""
    path = list(zip(pins, pins[1:]))
    return path + [(apex, p) for p in pins]


def pinned_game(g: PinnedGraph, edges=None):
    """(pinned DOF, witness, orientation) from one (2,3) game: the pin
    scaffold first, then `edges` (default the edges of `g`), then a trial
    bar from the scaffold's apex to a pin.

    The scaffold is independent, so every rejected edge is an edge of `g`,
    the pinned rank is the number of edges of `g` accepted and the DOF is
    2|I| minus it.  The witness is (inner, pins) of the reach set, minus
    the apex, of the first rejected edge, or None when no edge is
    rejected; its induced subgraph spans 2|R| - 2 scaffolded edges, which
    breaks the pinned counts.

    The trial bar doubles a scaffold bar, so it is rejected, and its failed
    search leaves no free pebble in its reach set but on its two ends.  On
    pinned isostatic input the scaffolded graph is isostatic and holds
    just those three, so in the orientation ({vertex: {head: 1}}) every
    other vertex has out degree 2: the 2|I| edges of `g` leave inner
    vertices and the scaffold's bars leave the pins and the apex.
    """
    apex = fresh_id(g.vertices, "p0")
    pins = sorted(g.pins, key=vkey)
    edges = g.edges if edges is None else edges
    state = _PebbleState(dict.fromkeys(g.vertices | {apex}, 2))
    reach = [r for _, r in state.rejections([*_scaffold(pins, apex), *edges])]
    if pins:
        state.try_insert(apex, pins[0])
    dof = 2 * len(g.inner) - len(edges) + len(reach)
    if not reach:
        return dof, None, state.out
    return dof, (tuple(sorted(reach[0] & g.inner, key=vkey)),
                 tuple(sorted(reach[0] & g.pins, key=vkey))), state.out


def pinned_gate(g: PinnedGraph, edges=None):
    """(refusal, orientation): why `g` is not pinned isostatic, as the
    error to raise, or None, and the orientation of the game that decided.

    The one test of the rule: at least two pins, and one `pinned_game` over
    `edges` (default the edges of `g`) with DOF 0 and no rejected edge, so
    |E| = 2|I| and the pin-scaffolded graph is generically rigid (the
    scaffold is itself isostatic).  The error carries that game's DOF and
    witness; for fewer than two pins both are None and no game is played,
    so the orientation is None.  With no refusal the orientation is the
    one `pinned_game` describes, which `assur` decomposes.
    """
    if len(g.pins) < 2:
        return NotIsostaticError("fewer than two pins"), None
    dof, witness, out = pinned_game(g, edges)
    if dof or witness:
        return NotIsostaticError(f"not pinned isostatic (pinned DOF {dof})",
                                 dof=dof, witness=witness), out
    return None, out


def pinned_isostatic(g: PinnedGraph) -> bool:
    """`g` passes `pinned_gate`; GraphError for fewer than two pins."""
    refusal, _ = pinned_gate(g)
    if refusal and refusal.dof is None:
        raise GraphError("pinned isostatic test needs at least two pins")
    return refusal is None
