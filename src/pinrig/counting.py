"""Mobility counting and exhaustive counting oracles.

The engineering-level mobility count for linkage schemas lives here; its
overbrace caveat comes from one game of the :mod:`pinrig.pebble` engine at
every size.  The rest are brute-force oracles meant to cross-check the fast
paths on small inputs: they are exponential by design and refuse inputs above
ORACLE_MAX_VERTICES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GraphError, SizeLimitError
from .graphs import Multigraph, PinnedGraph, vkey
from .pebble import pebble_rank

ORACLE_MAX_VERTICES = 12


@dataclass(frozen=True)
class LinkageSchema:
    """Links-and-joints description of a planar linkage.

    `joints` holds one frozenset of incident link ids per revolute joint; a
    joint pinning k links counts (k-1)-fold in the mobility formula.  The
    ground is an ordinary link that must be present.  `drivers` marks actuated
    links, each of which must sit between exactly two joints.
    """

    links: frozenset
    joints: tuple
    ground: object
    drivers: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))
        object.__setattr__(self, "joints", tuple(frozenset(j) for j in self.joints))
        object.__setattr__(self, "drivers", frozenset(self.drivers))
        if self.ground not in self.links:
            raise GraphError(f"ground link {self.ground!r} is not among the links")
        if self.ground in self.drivers:
            raise GraphError("the ground link cannot be a driver")
        if not self.drivers <= self.links:
            raise GraphError("drivers must be links")
        for j in self.joints:
            if len(j) < 2:
                raise GraphError(f"joint {sorted(j, key=vkey)!r} pins fewer than two links")
            if not j <= self.links:
                raise GraphError(f"joint {sorted(j, key=vkey)!r} references unknown links")


@dataclass(frozen=True)
class DofReport:
    """Mobility prediction F = 3(L-1) - 2*sum(i-1)J_i with its breakdown.

    `overbraced` is True when some sub-collection of links has a negative
    count of its own (the prediction is then only a lower bound in a way the
    global number cannot show), and False when none exists.  The witness is
    one such sub-collection, not necessarily the smallest, or None.
    """

    dof: int
    link_count: int
    constraint_sum: int
    overbraced: bool
    overbraced_witness: Optional[tuple] = None


def _joint_sum(joints):
    return sum(len(j) - 1 for j in joints)


def _overbraced(schema):
    """(overbraced, witness) from one (2,3) pebble game.

    Each link with d >= 2 joints becomes 2d - 3 bars on its joints (a rigid
    body), the joints being the game's vertices.  A sub-collection S of links
    with joint set V' gives 2|V'| - 3 - F(S) bars, so F(S) < 0 exactly when
    its bars are dependent.  The reach set R of the first rejected bar spans
    2|R| - 2 bars, each link at most 2|J ∩ R| - 3 of them, so the links with
    two or more joints in R have F <= -1: they are the witness.
    """
    joints_of = {}
    for i, j in enumerate(schema.joints):
        for link in j:
            joints_of.setdefault(link, []).append(i)
    bars = []
    for link in sorted(joints_of, key=vkey):
        js = joints_of[link]
        if len(js) >= 2:
            bars.append((js[0], js[1]))
            bars += [(k, j) for k in js[2:] for j in js[:2]]
    rep = pebble_rank(Multigraph(range(len(schema.joints)), bars))
    if not rep.rejected:
        return False, None
    reach = rep.reach[rep.rejected[0]]
    witness = [link for link, js in joints_of.items()
               if len(reach.intersection(js)) >= 2]
    return True, tuple(sorted(witness, key=vkey))


def grubler_dof(schema: LinkageSchema) -> DofReport:
    """Planar mobility count for a linkage schema.

    The result is exact as an integer but only a lower bound on the actual
    degree of freedom; an overbraced sub-collection, found by one pebble game
    at any size, is flagged because it makes the global count undershoot.
    """
    l = len(schema.links)
    s = _joint_sum(schema.joints)
    over, witness = _overbraced(schema)
    return DofReport(dof=3 * (l - 1) - 2 * s, link_count=l, constraint_sum=s,
                     overbraced=over, overbraced_witness=witness)


def remove_drivers(schema: LinkageSchema) -> LinkageSchema:
    """Contract every driver link, identifying its two end joints.

    Each driver must be incident to exactly two joints.  The merged joint
    keeps the union of the remaining links; joints left with fewer than two
    links are dropped.
    """
    joints = [set(j) for j in schema.joints]
    for d in sorted(schema.drivers, key=vkey):
        idxs = [i for i, j in enumerate(joints) if d in j]
        if len(idxs) != 2:
            raise GraphError(
                f"driver {d!r} is incident to {len(idxs)} joints; exactly 2 required")
        i1, i2 = idxs
        merged = (joints[i1] | joints[i2]) - {d}
        joints[i1] = merged
        del joints[i2]
    joints = [j for j in joints if len(j) >= 2]
    return LinkageSchema(links=schema.links - schema.drivers,
                         joints=tuple(joints),
                         ground=schema.ground,
                         drivers=frozenset())


def _edge_masks(vertices, edges):
    index = {v: i for i, v in enumerate(vertices)}
    return [(1 << index[u]) | (1 << index[v]) for u, v in edges]


def _laman_masks(n, emasks):
    """Laman check on a bitmask edge list: every vertex subset of size >= 2
    induces at most 2k-3 edges."""
    for mask in range(3, 1 << n):
        k = mask.bit_count()
        if k < 2:
            continue
        induced = sum(1 for em in emasks if em & mask == em)
        if induced > 2 * k - 3:
            return False
    return True


def laman_independent_oracle(g: Multigraph) -> bool:
    """Exhaustive Laman independence test (vertex-subset form)."""
    if g.n > ORACLE_MAX_VERTICES:
        raise SizeLimitError(f"laman oracle bound exceeded: {g.n} vertices")
    verts = sorted(g.vertices, key=vkey)
    return _laman_masks(len(verts), _edge_masks(verts, g.edges))


def circuit_oracle(g: Multigraph) -> bool:
    """True iff the edge set is a rigidity circuit: |E| = 2|V(E)| - 2 and every
    proper nonempty edge subset is independent (equivalently, dropping any one
    edge leaves an independent set).  Computed over the support of the edges."""
    support = g.support()
    nv = len(support)
    if nv > ORACLE_MAX_VERTICES:
        raise SizeLimitError(f"circuit oracle bound exceeded: {nv} vertices")
    if g.m == 0 or g.m != 2 * nv - 2:
        return False
    verts = sorted(support, key=vkey)
    emasks = _edge_masks(verts, g.edges)
    n = len(verts)
    for skip in range(len(emasks)):
        rest = emasks[:skip] + emasks[skip + 1:]
        if not _laman_masks(n, rest):
            return False
    return True


def pinned_conditions_oracle(g: PinnedGraph) -> bool:
    """Exhaustive check of the pinned counting conditions.

    Requires |E| = 2|I| and, for every induced subgraph with inner set I',
    pin set P' and at least one edge:

      |E'| <= 2|I'|      if |P'| >= 2
      |E'| <= 2|I'| - 1  if |P'| == 1
      |E'| <= 2|I'| - 3  if P' is empty
    """
    if g.n > ORACLE_MAX_VERTICES:
        raise SizeLimitError(f"pinned conditions oracle bound exceeded: {g.n} vertices")
    if g.m != 2 * len(g.inner):
        return False
    return _pinned_subgraph_violation(g) is None


def _pinned_subgraph_violation(g: PinnedGraph):
    """First violating induced subgraph, as (inner_subset, pin_subset, edges,
    bound), or None."""
    verts = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
    ni = len(g.inner)
    n = len(verts)
    emasks = _edge_masks(verts, g.edges)
    inner_mask = (1 << ni) - 1
    for mask in range(1, 1 << n):
        induced = sum(1 for em in emasks if em & mask == em)
        if induced == 0:
            continue
        ki = (mask & inner_mask).bit_count()
        kp = mask.bit_count() - ki
        bound = 2 * ki if kp >= 2 else (2 * ki - 1 if kp == 1 else 2 * ki - 3)
        if induced > bound:
            sub_i = tuple(verts[i] for i in range(ni) if mask >> i & 1)
            sub_p = tuple(verts[i] for i in range(ni, n) if mask >> i & 1)
            return sub_i, sub_p, induced, bound
    return None
