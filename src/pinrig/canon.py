"""Canonical codes for colored multigraphs.

Isomorphism-invariant string codes for multigraphs and pinned graphs, used to
deduplicate enumeration output and to compare decomposition results.  Pins
and inner vertices form separate color classes; parallel-edge multiplicities
are part of the code.

The search refines an ordered partition to an equitable one and branches on
each vertex of its first non-singleton cell; the least code of a leaf is
canonical (McKay, Congr. Numer. 30, 1981).  One rule prunes it.  When the
position-by-position map onto a node from the first path's node at its
depth (or onto a leaf from the best leaf) is an automorphism, it is stored
and the search returns to where the two paths part; and a node skips each
child in the orbit of an explored sibling under the stored automorphisms
that fix its path.  Neither step can lose the least leaf, so every code is
the unpruned search's.  The search stays exponential in the worst case,
e.g. on Cai-Fuerer-Immerman graphs (Combinatorica 12, 1992), so the public
functions refuse graphs above `max_vertices` (default 12).
"""

from __future__ import annotations

from .errors import SizeLimitError
from .graphs import Multigraph, PinnedGraph, vkey

DEFAULT_MAX_VERTICES = 12

CanonicalCode = str


def _as_colored(g):
    """Normalize either graph type to (kind, verts, colors, adjacency)."""
    if isinstance(g, PinnedGraph):
        kind = "P"
        verts = sorted(g.inner, key=vkey) + sorted(g.pins, key=vkey)
        colors = [0] * len(g.inner) + [1] * len(g.pins)
    elif isinstance(g, Multigraph):
        kind = "M"
        verts = sorted(g.vertices, key=vkey)
        colors = [0] * len(verts)
    else:
        raise TypeError(f"cannot canonicalize {type(g).__name__}")
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [{} for _ in range(n)]  # sparse rows: neighbor -> multiplicity
    for u, v in g.edges:
        i, j = index[u], index[v]
        adj[i][j] = adj[i].get(j, 0) + 1
        adj[j][i] = adj[j].get(i, 0) + 1
    return kind, verts, colors, adj


def _refine(cells, adj):
    """Equitable refinement of an ordered partition.

    Splits every cell by the multiset of edge multiplicities into each cell,
    keeping a deterministic cell order (parent position, then signature).
    """
    while True:
        # cell index per vertex for signature computation
        where = {v: ci for ci, cell in enumerate(cells) for v in cell}
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sigs = {}
            for v in cell:
                counts = [0] * len(cells)
                for w, mult in adj[v].items():
                    counts[where[w]] += mult
                sigs.setdefault(tuple(counts), []).append(v)
            out.extend(sigs[key] for key in sorted(sigs))
        if len(out) == len(cells):
            return cells
        cells = out


def _split_cell(cells, v):
    out = []
    for cell in cells:
        if v in cell:
            out.append([v])
            out.append([w for w in cell if w != v])
        else:
            out.append(cell)
    return out


def _leaf_code(kind, order, colors, adj):
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    color_part = "".join(str(colors[v]) for v in order)
    entries = []
    for v in range(n):
        for w, mult in adj[v].items():
            if w > v:
                entries.append((*sorted((pos[v], pos[w])), mult))
    entries.sort()
    edge_part = ",".join(f"{a}-{b}x{m}" for a, b, m in entries)
    return f"{kind}{n}|{color_part}|{edge_part}"


def _join(orbit, g):
    """Merge the orbits, held as vertex -> label, under automorphism `g`."""
    for v in orbit:
        a, b = orbit[v], orbit[g[v]]
        if a != b:
            orbit.update({w: a for w in orbit if orbit[w] == b})


def _automorphism(known, cells, adj):
    """The map from partition `known` onto `cells`, position by position, when
    their cell sizes agree and it is an automorphism; else None."""
    if [len(c) for c in known] != [len(c) for c in cells]:
        return None
    g = [0] * len(adj)
    for a, b in zip([v for c in known for v in c], [v for c in cells for v in c]):
        g[a] = b
    if all(adj[g[v]].get(g[w]) == mult
           for v, row in enumerate(adj) for w, mult in row.items()):
        return g
    return None


def _search(kind, cells, colors, adj):
    """(code, order) of the minimum leaf, pruned by automorphisms."""
    first = []  # (partition, path) of each node on the first path
    best = []   # [code, order, partition, path] of the best leaf
    autos = []  # automorphisms found so far, as lists v -> image

    def visit(cells, path):
        """Search below one node; returns the depth the search goes on at."""
        cells = _refine(cells, adj)
        target = next((c for c in cells if len(c) > 1), None)
        if not best:
            first.append((cells, path))
        else:
            known = first[len(path):len(path) + 1]
            if target is None and best[2] is not first[-1][0]:
                known.append(best[2:])
            for partition, known_path in known:
                g = _automorphism(partition, cells, adj)
                if g is not None:
                    autos.append(g)
                    return next(i for i, (a, b) in enumerate(zip(path, known_path))
                                if a != b)
        if target is None:
            order = [c[0] for c in cells]
            code = _leaf_code(kind, order, colors, adj)
            if not best or code < best[0]:
                best[:] = [code, order, cells, path]
            return len(path)
        orbit, done, used, back = {v: v for v in target}, [], 0, len(path)
        for v in target:
            for g in autos[used:]:
                if all(g[x] == x for x in path):
                    _join(orbit, g)
            used = len(autos)
            if any(orbit[u] == orbit[v] for u in done):
                continue
            done.append(v)
            back = visit(_split_cell(cells, v), path + [v])
            if back < len(path):
                break
        return min(back, len(path))

    visit(cells, [])
    return best[:2]


def canonical_form(g, max_vertices: int = DEFAULT_MAX_VERTICES):
    """Return ``(code, labeling)`` where labeling maps vertex -> canonical index."""
    kind, verts, colors, adj = _as_colored(g)
    n = len(verts)
    if n > max_vertices:
        raise SizeLimitError(
            f"canonicalization bound exceeded: {n} vertices > {max_vertices}")
    start = [[i for i in range(n) if colors[i] == c] for c in sorted(set(colors))]
    code, order = _search(kind, start, colors, adj)
    return code, {verts[v]: i for i, v in enumerate(order)}


def canonical_code(g, max_vertices: int = DEFAULT_MAX_VERTICES) -> CanonicalCode:
    """Isomorphism-invariant code; equal codes iff graphs are isomorphic
    respecting vertex kinds and edge multiplicities."""
    return canonical_form(g, max_vertices)[0]
