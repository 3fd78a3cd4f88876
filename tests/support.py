"""Shared builders and brute-force oracles for the test suite.

Everything here is deliberately independent of the library's fast paths:
isomorphism by permutation search, graph sweeps by direct enumeration of edge
subsets.  These are the second route that the implementation is checked
against.
"""

import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from operator import mul

from pinrig import generate
from pinrig.errors import CertificateError, ConditioningWarning, GraphError
from pinrig.generate import (Certificate, edge_split, pin_rearrangement, step,
                             two_sum, vertex_addition, vertex_split)
from pinrig.graphs import (Multigraph, PinnedGraph, complete_graph, norm_edge,
                           split_contracted_vertex, vkey)
from pinrig import numeric
from pinrig.numeric import (FLOAT_PIVOT_RTOL, FLOAT_WARN_RTOL, PRIME, all_inner_move,
                            build_rigidity_matrix, random_configuration)
from pinrig.pebble import is_circuit

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


def edge_split_assur(rng, splits):
    """basic_5 grown by pinned edge-splits with at most one pinned attachment:
    an Assur graph with 3 + `splits` inner vertices and 2 pins."""
    g = basic_5()
    for k in range(splits):
        while True:
            u, w = g.edges[rng.randrange(g.m)]
            cands = [x for x in sorted(g.vertices, key=vkey)
                     if x not in (u, w) and sum(t in g.pins for t in (u, w, x)) <= 1]
            if cands:
                break
        g = edge_split(g, (u, w), rng.choice(cands), new_vertex=f"s{k}")
    return g


def stack(rng, parts, ground, choose=None):
    """Pin each part, in order, onto distinct vertices placed before it.

    `choose(pins, pool)` picks the targets of a part's sorted pins (default:
    a random sample).  Every ground vertex stays a pin, targeted or not.
    Returns the stacked graph and its known decomposition: the set of
    (level, edge set) pairs, one per part, where a part's level is one more
    than the highest level it pins onto and the ground has level 0.
    """
    level = dict.fromkeys(ground, 0)
    inner, edges, expected = [], [], set()
    for k, part in enumerate(parts):
        part = part.relabeled({v: f"{k}.{v}" for v in part.vertices})
        pins = sorted(part.pins, key=vkey)
        pool = list(ground) + inner
        targets = choose(pins, pool) if choose else rng.sample(pool, len(pins))
        lvl = 1 + max(level[t] for t in targets)
        to = dict(zip(pins, targets))
        part_edges = [norm_edge(to.get(a, a), to.get(b, b)) for a, b in part.edges]
        level.update(dict.fromkeys(part.inner, lvl))
        inner += sorted(part.inner, key=vkey)
        edges += part_edges
        expected.add((lvl, frozenset(part_edges)))
    return PinnedGraph(inner, ground, edges), expected


def dyad_chain(rng, levels):
    """Dyad k pins onto dyad k-1 and onto the ground or an older dyad."""
    def choose(pins, pool):
        if len(pool) == 3:
            return rng.sample(pool, 2)
        return [pool[-1], rng.choice(pool[:-1])]

    return stack(rng, [dyad()] * levels, ["G0", "G1", "G2"], choose)


# -- exhaustive oracles ----------------------------------------------------------


def minimality_oracle(g):
    """A proper vertex subset inducing a pinned subgraph with 2|I'| or more
    edges, as (inner, pins), or None: a scan of all 2^n vertex subsets."""
    verts = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
    ni, n = len(g.inner), len(verts)
    index = {v: i for i, v in enumerate(verts)}
    emasks = [(1 << index[u]) | (1 << index[v]) for u, v in g.edges]
    for mask in range(1, (1 << n) - 1):
        induced = sum(1 for em in emasks if em & mask == em)
        if induced and induced >= 2 * (mask & ((1 << ni) - 1)).bit_count():
            return (tuple(verts[i] for i in range(ni) if mask >> i & 1),
                    tuple(verts[i] for i in range(ni, n) if mask >> i & 1))
    return None


def reverse_edge_split_oracle(m):
    """First reverse edge-split of circuit `m` that leaves a circuit, as
    (smaller circuit, step), or None: each vertex of degree 3 with three
    distinct neighbours in vkey order, each non-adjacent neighbour pair in
    order, two graphs built and a whole circuit game played per pair."""
    for v in sorted(m.vertices, key=vkey):
        if m.degree(v) != 3:
            continue
        nbrs = sorted(m.neighbors(v), key=vkey)
        if len(nbrs) != 3:
            continue
        for a, b in combinations(nbrs, 2):
            if m.has_edge(a, b):
                continue
            smaller = m.without_vertex(v).with_edge(a, b)
            if is_circuit(smaller):
                third = next(x for x in nbrs if x not in (a, b))
                return smaller, step("edge-split", u=a, w=b, x=third, v=v)
    return None


class _CounterPebbleState:
    """The pebble-game state that `pebble._PebbleState` replaced: the same
    game with each vertex's out-edges in a `Counter`, a `_hunt` that builds
    a forbidden set on every call, and `Counter` arithmetic on every path
    reversal.  It also still plays the (2,0) game (`need=1`), which may
    accept a vertex pair more than once."""

    def __init__(self, pebbles):
        self.pebbles = pebbles
        self.out = {v: Counter() for v in pebbles}

    def _hunt(self, root, forbidden):
        pred = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self.out[x]:
                if y in pred:
                    continue
                pred[y] = x
                if y not in forbidden and self.pebbles[y] > 0:
                    return y, pred
                stack.append(y)
        return None, pred

    def _pull_pebble(self, root, other):
        target, pred = self._hunt(root, forbidden={root, other})
        if target is None:
            return set(pred)
        x = target
        while pred[x] is not None:
            p = pred[x]
            self.out[p][x] -= 1
            if not self.out[p][x]:
                del self.out[p][x]
            self.out[x][p] += 1
            x = p
        self.pebbles[target] -= 1
        self.pebbles[root] += 1
        return None

    def try_insert(self, u, v, need=4):
        peb = self.pebbles
        while peb[u] + peb[v] < need:
            reach_u = self._pull_pebble(u, v) if peb[u] < 2 else {u}
            if reach_u is None:
                continue
            reach_v = self._pull_pebble(v, u) if peb[v] < 2 else {v}
            if reach_v is None:
                continue
            return False, frozenset(reach_u | reach_v)
        if not peb[u]:
            u, v = v, u
        peb[u] -= 1
        self.out[u][v] += 1
        return True, None

    def remove_edge(self, u, v):
        if not self.out[u][v]:
            u, v = v, u
        self.out[u][v] -= 1
        if not self.out[u][v]:
            del self.out[u][v]
        self.pebbles[u] += 1


def pebble_state_reference(pebbles):
    """A `Counter`-based pebble state, the reference for `_PebbleState`."""
    return _CounterPebbleState(pebbles)


def pinned_orientation_reference(g, edges):
    """The orientation `assur.decompose` read before it read the gate's:
    the (2,0) game of Lee & Streinu (Discrete Math. 308, 2008) over `edges`
    in order, on the `Counter` reference.  Inner vertices start with two
    pebbles and pins with none, and one pebble on either end pays for an
    edge.  Returns each vertex's out-neighbours as {head: multiplicity}; on
    a pinned isostatic graph each inner vertex has out degree 2 and each pin
    0."""
    state = pebble_state_reference({**dict.fromkeys(g.pins, 0),
                                    **dict.fromkeys(g.inner, 2)})
    for u, v in edges:
        state.try_insert(u, v, need=1)
    return state.out


def first_separating_pair_reference(adj):
    """The pair scan that `generate._separating_pair` replaced: one graph
    search of M - {a, b} per pair in `combinations` order.  ((a, b), the
    component of M - {a, b} that holds its first other vertex) for the
    first pair that disconnects M, or None."""
    order = sorted(adj, key=vkey)
    for a, b in combinations(order, 2):
        start = next(x for x in order if x != a and x != b)
        side = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != a and y != b and y not in side:
                    side.add(y)
                    stack.append(y)
        if len(side) < len(order) - 2:
            return (a, b), side
    return None


def _reference_base(cert):
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


def _reference_two_sum(g, a, b, operand):
    if not (isinstance(operand, Certificate) and operand.base_kind == "k4"
            and isinstance(other := replay_reference(operand), Multigraph)):
        raise CertificateError("two-sum operand must be a k4-base certificate "
                               "that builds a multigraph")
    return two_sum(g, other, (a, b), (a, b), flip=False)


# step kind -> immutable operation taking the graph and the step's parameters
_REFERENCE_MOVES = {
    "vertex-addition": vertex_addition,
    "edge-split": lambda g, u, w, x, v: edge_split(g, (u, w), x, new_vertex=v),
    "two-sum": _reference_two_sum,
    "vertex-split": vertex_split,
    "pin-split": split_contracted_vertex,
    "pin-rearrange": pin_rearrangement,
}


def replay_reference(cert):
    """The per-step replay that `generate.replay_certificate` replaced: the
    same step grammar, with every step building a whole new graph from the
    last one through the immutable public operations."""
    g = _reference_base(cert)
    pinned = cert.base_kind == "dyad"
    for st in cert.steps:
        if pinned:
            if st.kind not in generate._PINNED_STEPS:
                raise CertificateError(f"step {st.kind!r} not allowed after pinning")
        elif st.kind == "pin-split" and cert.base_kind == "k4":
            pinned = True
        elif st.kind not in generate._MULTI_STEPS[cert.base_kind]:
            raise CertificateError(
                f"step {st.kind!r} not allowed from base {cert.base_kind!r}")
        build = _REFERENCE_MOVES[st.kind]
        try:
            g = build(g, *map(st.get, generate.STEPS[st.kind][0]))
        except GraphError as exc:
            raise CertificateError(f"step {st.kind!r} failed: {exc}") from None
    return g


def overbraced_oracle(schema):
    """(overbraced, smallest witness) for a linkage schema: a scan of all
    2^L link subsets S for a negative count 3(|S|-1) - 2*sum(t_j - 1)+,
    where t_j is the number of links of S at joint j."""
    links = sorted(schema.links, key=vkey)
    n = len(links)
    best = None
    for mask in range(3, 1 << n):
        size = mask.bit_count()
        if size < 2:
            continue
        subset = frozenset(links[i] for i in range(n) if mask >> i & 1)
        f = 3 * (size - 1) - 2 * subset_joint_sum(schema.joints, subset)
        if f < 0 and (best is None or size < len(best)):
            best = subset
    if best is None:
        return False, None
    return True, tuple(sorted(best, key=vkey))


def subset_joint_sum(joints, subset):
    """sum over joints of (t_j - 1)+, counting only the links in `subset`."""
    return sum(max(len(j & subset) - 1, 0) for j in joints)


def deletion_oracle(g, seed=0, trials=8):
    """(vertex, edge) deletion verdicts one deletion at a time: build the
    graph without each vertex (inner first, then pins) or each edge and ask
    `all_inner_move` of it with a seed drawn from `seed`.  Deleting the only
    inner vertex is skipped."""
    rng = random.Random(seed)
    deleted = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
    vertex = all(not h.inner
                 or all_inner_move(h, seed=rng.randrange(2 ** 32), trials=trials)
                 for h in map(g.without_vertex, deleted))
    rng = random.Random(seed)
    edge = all(all_inner_move(g.without_edge(u, v), seed=rng.randrange(2 ** 32),
                              trials=trials)
               for u, v in g.edges)
    return vertex, edge


def _deletion_targets(g):
    """The deletion targets of `numeric.deletion_verdicts`, in its order:
    (is a vertex, edge indices spanning its motions, dropped block);
    deleting the only inner vertex is skipped."""
    if not g.inner or g.m != 2 * len(g.inner):
        raise GraphError("deletion checks need inner vertices and 2|I| edges")
    inner = sorted(g.inner, key=vkey)
    block = {v: i for i, v in enumerate(inner)}
    targets = [(True, [j for j, e in enumerate(g.edges) if v in e], block.get(v))
               for v in inner + sorted(g.pins, key=vkey)
               if len(inner) > 1 or v not in block]
    return targets + [(False, [j], None) for j in range(g.m)]


def _combine(vectors, rng, size):
    """A random GF(p) combination of `vectors`, each of length `size`; the
    zero vector when there are none.  A lone vector is returned as it is:
    a nonzero multiple is zero where it is."""
    lams = [rng.randrange(1, PRIME) for _ in vectors]
    if len(vectors) == 1:
        return vectors[0]
    return [sum(map(mul, lams, row)) % PRIME for row in zip(*vectors)] or [0] * size


def _still(vec):
    """The inner 2x1 blocks that `vec` leaves at zero."""
    return {i for i in range(len(vec) // 2) if not (vec[2 * i] or vec[2 * i + 1])}


def deletion_inverse_oracle(g, seed=0, trials=8):
    """(vertex, edge) deletion verdicts with one full GF(p) inverse per
    sample: every target still fixed takes a random combination of its
    columns of R^-1 at each of `trials` samples (a singular one uses up a
    trial).  The inverse-per-sample route that `numeric.deletion_verdicts`
    replaced."""
    targets = _deletion_targets(g)
    rng = random.Random(seed)
    for _ in range(trials):
        if not targets:
            break
        mat = build_rigidity_matrix(g, random_configuration(g, rng), field="mod")
        inv = solve_reference(dense_rows(mat), [[int(i == k) for k in range(g.m)]
                                         for i in range(g.m)])
        if inv is None:
            continue
        cols = list(zip(*inv))
        targets = [t for t in targets
                   if _still(_combine([cols[j] for j in t[1]], rng, g.m)) - {t[2]}]
    fixed = {t[0] for t in targets}
    return True not in fixed, False not in fixed


def dense_rows(mat):
    """The rows of the RigidityMatrix `mat` as dense tuples, 0 wherever its
    dict row has no entry."""
    return [tuple(entry.get(c, 0) for c in range(mat.shape[1])) for entry in mat.entries]


def sparse_rows(rows, p=PRIME):
    """Dict rows {column: nonzero entry} of the dense `rows`, reduced mod p,
    or as Fractions when `p` is None: the input of `numeric._factor`."""
    if p:
        return [{k: y for k, x in enumerate(r) if (y := x % p)} for r in rows]
    return [{k: Fraction(x) for k, x in enumerate(r) if x} for r in rows]


def rref_mod_reference(rows, p=PRIME):
    """Reduced row echelon form (Gauss-Jordan) over GF(p), or over the
    rationals when `p` is None (entries become Fractions): the dense loop
    that the sparse `numeric._factor` replaced, kept as its reference.

    Returns (pivot column list, reduced rows).  Columns left of the pivot
    are already zero in the pivot row, so each update touches only the
    pivot row's nonzero columns."""
    rows = [list(r) if p else list(map(Fraction, r)) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = pow(prow[c], -1, p) if p else 1 / prow[c]
        nonzero = [k for k in range(c, ncols) if prow[k]]
        for k in nonzero:
            prow[k] = prow[k] * inv % p if p else prow[k] * inv
        entries = [(k, prow[k]) for k in nonzero]
        for i in range(m):
            ri = rows[i]
            f = ri[c]
            if f and i != r:
                if p:
                    for k, b in entries:
                        ri[k] = (ri[k] - f * b) % p
                else:
                    for k, b in entries:
                        ri[k] -= f * b
        pivots.append(c)
        if len(pivots) == m:
            break
    return pivots, rows[:len(pivots)]


def factor_float_reference(entries, ncols):
    """Forward elimination of copies of the float dict rows `entries`, in
    natural column order, in `_factor`'s step format: the float loop that
    `numeric._factor` took over, kept as its reference.

    Each row is first scaled to unit length (by its largest entry first, so
    that its length cannot overflow).  Column c pivots on the live row
    whose entry there is largest, and is skipped when that entry is at most
    FLOAT_PIVOT_RTOL.  A largest entry within three decades of that cutoff
    either way, in (FLOAT_PIVOT_RTOL**2 / FLOAT_WARN_RTOL, FLOAT_WARN_RTOL),
    raises a ConditioningWarning at the caller of `motion_space`."""
    rows = []
    for entry in entries:
        big = max(map(abs, entry.values()), default=1.0)
        length = math.hypot(*(x / big for x in entry.values()))
        rows.append({k: x / big / length for k, x in entry.items()})
    live = set(range(len(rows)))
    steps = []
    for c in range(ncols):
        hits = [i for i in live if c in rows[i]]
        if not hits:
            continue
        r = max(hits, key=lambda i: (abs(rows[i][c]), -i))
        best = abs(rows[r][c])
        if FLOAT_PIVOT_RTOL ** 2 / FLOAT_WARN_RTOL < best < FLOAT_WARN_RTOL:
            warnings.warn(f"pivot {best:.3e} is close to the zero threshold; rank decisions "
                          "may be unreliable", ConditioningWarning, stacklevel=5)
        if best <= FLOAT_PIVOT_RTOL:
            continue
        live.remove(r)
        prow = rows[r]
        inv = 1 / prow.pop(c)
        for i in hits:
            if i != r:
                ri = rows[i]
                f = ri.pop(c) * inv
                for k, b in prow.items():
                    if x := ri.get(k, 0) - f * b:
                        ri[k] = x
                    else:
                        del ri[k]
        steps.append((r, c, inv, prow))
    return steps


def solve_reference(rows, rhs, p=PRIME):
    """Rows of X with R X = B for the square dense R and B (one row of B per
    row of R), or None when R is singular, read off the Gauss-Jordan
    reduction of [R | B]."""
    n = len(rows)
    pivots, reduced = rref_mod_reference([list(r) + list(b) for r, b in zip(rows, rhs)], p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def kernel_reference(rows, ncols, p=PRIME):
    """(pivot columns, kernel basis) read off `rref_mod_reference`: one
    vector per free column, over GF(p) or, when `p` is None, over the
    rationals."""
    pivots, reduced = rref_mod_reference(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f] % p if p else -reduced[r][f]
        basis.append(vec)
    return pivots, basis


def deletion_verdicts_reference(g, seed=0, trials=8):
    """`numeric.deletion_verdicts` on dense rows through the Gauss-Jordan
    reference: the same targets, random draws, transposed block solves and
    rigid-block certificates, so its verdicts are the same sample for
    sample.  Configurations come from `numeric.random_configuration`,
    looked up at each call."""
    targets = _deletion_targets(g)
    inner = sorted(g.inner, key=vkey)
    rng = random.Random(seed)
    held = set()
    for _ in range(trials):
        config = numeric.random_configuration(g, rng)
        transposed = list(zip(*dense_rows(build_rigidity_matrix(g, config, field="mod"))))
        draws = [(rng.randrange(1, PRIME), rng.randrange(1, PRIME)) for _ in inner]
        rhs = [[draws[i][c % 2] if c // 2 == i else 0 for i in range(len(inner))]
               for c in range(g.m)]
        y = solve_reference(transposed, rhs)
        if y is None:
            continue
        still = []
        for kind, own, dropped in targets:
            if kind not in held:
                z = {i for i in range(len(inner))
                     if i != dropped and all(y[j][i] == 0 for j in own)}
                in_z = [j for j, e in enumerate(g.edges)
                        if all(w in g.pins or inner.index(w) in z for w in e)]
                if z and len(in_z) == 2 * len(z) and not set(own) & set(in_z):
                    held.add(kind)
                elif z:
                    still.append((kind, own, dropped))
        targets = [t for t in still if t[0] not in held]
        if not targets:
            break
    fixed = held | {t[0] for t in targets}
    return True not in fixed, False not in fixed


def rank_mod_reference(rows, p=PRIME):
    """Row echelon rank over GF(p) by forward elimination only, destroying
    `rows`: a second reference, next to `rref_mod_reference`."""
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    m = len(rows)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow[c:] = [(x * inv) % p for x in prow[c:]]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                ri = rows[i]
                ri[c:] = [(a - f * b) % p for a, b in zip(ri[c:], prow[c:])]
        r += 1
        if r == m:
            break
    return r


def generic_configuration(g, seed=0):
    """Integer coordinates below 10^9 for every vertex: a generic position
    for exact rational motion checks, but for an event of tiny probability."""
    rng = random.Random(seed)
    return {v: (rng.randrange(10 ** 9), rng.randrange(10 ** 9))
            for v in sorted(g.vertices, key=vkey)}


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


def nested_k4(depth):
    """K4 with a K4 2-summed onto edge (0, 1), then `depth` - 1 more rounds
    of 2-sums with K4 onto every edge at vertex 0 the last round made: a
    rigidity circuit on 2^(depth+1) + 2 vertices with a large automorphism
    group."""
    edges = list(combinations(range(4), 2))
    frontier, n = [(0, 1)], 4
    for _ in range(depth):
        grown = []
        for u, w in frontier:
            edges.remove((u, w))
            edges += [(u, n), (u, n + 1), (w, n), (w, n + 1), (n, n + 1)]
            grown += [(u, n), (u, n + 1)]
            n += 2
        frontier = grown
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


def henneberg_graph(rng, n):
    """A random Laman graph on n >= 2 vertices by Henneberg steps: a new
    vertex on two old ones, or on three with one old edge between them
    removed."""
    edges = [(0, 1)]
    for v in range(2, n):
        if v >= 3 and rng.random() < 0.5:
            u, w = edges.pop(rng.randrange(len(edges)))
            x = rng.choice([y for y in range(v) if y not in (u, w)])
            edges += [(v, u), (v, w), (v, x)]
        else:
            edges += [(v, u) for u in rng.sample(range(v), 2)]
    return Multigraph(range(n), edges)


def random_linkage(rng, max_links=12):
    """A random linkage schema with at most max_links links, from one of three
    families: random k-ary joints; the bar linkage of a Henneberg graph, with
    or without one extra bar; and such a bar linkage with two or three bars
    merged into one link "m" and up to three other bars dropped."""
    from pinrig.counting import LinkageSchema
    kind = rng.randrange(3)
    if kind == 0:
        links = [f"l{i}" for i in range(rng.randint(2, max_links))]
        joints = [frozenset(rng.sample(links, rng.randint(2, min(4, len(links)))))
                  for _ in range(rng.randint(1, len(links) + 1))]
        return LinkageSchema(links=links, joints=joints, ground=links[0])
    # 2n - 3 bars plus an extra one must stay within max_links
    g = henneberg_graph(rng, rng.randint(3, (max_links + 2) // 2))
    if rng.random() < 0.5 and g.m < max_links:
        u, w = rng.sample(sorted(g.vertices), 2)
        g = Multigraph(g.vertices, g.edges + ((u, w),))
    schema = bar_schema_from_graph(g)
    if kind == 1:
        return schema
    bars = sorted(schema.links, key=vkey)
    rng.shuffle(bars)
    k = rng.randint(2, 3)
    merged, dropped = set(bars[:k]), set(bars[k:k + rng.randint(0, 3)])
    joints = [frozenset("m" if b in merged else b for b in j if b not in dropped)
              for j in schema.joints]
    joints = [j for j in joints if len(j) >= 2]
    return LinkageSchema(links=frozenset({"m"}).union(*joints), joints=joints,
                         ground="m")
