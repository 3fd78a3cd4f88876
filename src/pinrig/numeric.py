"""Rigidity matrices, exact ranks, and first-order motion spaces.

The row for edge (i, j) at configuration p carries (p_i - p_j) in the two
columns of i and (p_j - p_i) in the columns of j; a first-order motion is a
velocity assignment annihilating every row.  For pinned graphs only inner
vertices get columns, so the kernel of the pinned matrix is exactly the space
of motions fixing the pins.

Three coordinate domains are supported:

* ``mod``      -- integers modulo the Mersenne prime 2**61 - 1; used for all
                  randomized generic queries (rank at a random configuration
                  equals the generic rank up to a Schwartz-Zippel failure
                  probability of at most degree/p per trial, so no tolerances
                  are involved);
* ``rational`` -- exact Fraction arithmetic for user-supplied int/rational
                  geometry, through the same elimination as ``mod``;
* ``float``    -- elimination with a relative pivot threshold of 1e-9 for
                  binary-float geometry.  Pivots close to the threshold raise
                  a ConditioningWarning instead of silently deciding.

Over GF(p) and the rationals every exact answer comes from one sparse
elimination, `_factor`, on the matrix's dict rows {column: nonzero entry}:
elimination runs forward only (never above a pivot), and every pivot is a
nonzero value, since entries that cancel are deleted.  Ranks are its pivot
counts; kernels and `_solve` back-substitute through its steps.  Ranks and
kernels pivot in natural column order, so the pivot columns, and with them
the kernel basis, are those of the reduced row echelon form; a square solve
takes the columns with fewest nonzeros first (after Markowitz, Management
Sci. 3, 1957), which keeps the factors of a rigidity matrix sparse.

`deletion_verdicts` decides the vertex- and edge-deletion checks of the
Assur characterization from one solve of the transposed matrix per sample,
with one right-hand side per inner vertex, and makes a False certain with a
rigid block of the matrix; its docstring gives the whole algorithm.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul

from .errors import ConditioningWarning, GraphError
from .graphs import PinnedGraph, vkey

PRIME = (1 << 61) - 1
FLOAT_PIVOT_RTOL = 1e-9
FLOAT_WARN_RTOL = 1e-6
DEFAULT_TRIALS = 8

Configuration = dict


@dataclass(frozen=True)
class RigidityMatrix:
    """Edge-by-coordinate matrix of the first-order length constraints.

    `entries` holds one dict {column: nonzero entry} per edge; `rows` is
    the same matrix as dense tuples.  `columns` lists the vertices owning
    columns (two consecutive columns per vertex, x then y); pinned input
    graphs contribute columns for inner vertices only.  `field` is one of
    ``mod``, ``rational``, ``float``.
    """

    entries: tuple
    edges: tuple
    columns: tuple
    field: str

    @property
    def shape(self):
        return (len(self.entries), 2 * len(self.columns))

    @cached_property
    def rows(self):
        dense = []
        for entry in self.entries:
            row = [0] * self.shape[1]
            for c, x in entry.items():
                row[c] = x
            dense.append(tuple(row))
        return tuple(dense)

    def as_lists(self):
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class MotionBasis:
    """Basis of the first-order motion space of a pinned framework.

    Each vector maps every inner vertex to a velocity pair; pins are fixed.
    """

    vectors: tuple
    field: str

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _field_of(config, field):
    if field != "auto":
        return field
    values = [c for xy in config.values() for c in xy]
    if any(isinstance(c, float) for c in values):
        return "float"
    if all(isinstance(c, (int, Fraction)) for c in values):
        return "rational"
    raise GraphError("cannot infer coordinate field from configuration values")


def build_rigidity_matrix(g, config: Configuration, field: str = "auto") -> RigidityMatrix:
    """Assemble the rigidity matrix of `g` at configuration `config`.

    `config` must give coordinates for every vertex; adjacent vertices must
    sit at distinct points.  Coordinates must convert to the field (the
    ``mod`` field takes integers only), and a float row must be finite.
    For a PinnedGraph, columns exist only for inner vertices (pin
    coordinates still shape the rows).
    """
    if isinstance(g, PinnedGraph):
        col_vertices = sorted(g.inner, key=vkey)
    else:
        col_vertices = sorted(g.vertices, key=vkey)
    missing = [v for v in g.vertices if v not in config]
    if missing:
        raise GraphError(f"configuration misses vertices {sorted(missing, key=vkey)!r}")
    field = _field_of(config, field)

    def coords(v):
        x, y = config[v]
        if field == "mod":
            if not (isinstance(x, int) and isinstance(y, int)):
                raise GraphError(f"coordinates of {v!r} are not integers, "
                                 f"as the mod field needs")
            return x % PRIME, y % PRIME
        try:
            if field == "rational":
                return Fraction(x), Fraction(y)
            return float(x), float(y)
        except (OverflowError, ValueError):
            raise GraphError(f"coordinates of {v!r} do not convert to {field}") from None

    pos = {v: coords(v) for v in g.vertices}
    col_of = {v: 2 * i for i, v in enumerate(col_vertices)}
    entries = []
    for u, v in g.edges:
        (xu, yu), (xv, yv) = pos[u], pos[v]
        dx, dy = xu - xv, yu - yv
        if field == "mod":
            dx, dy = dx % PRIME, dy % PRIME
        elif field == "float" and not (math.isfinite(dx) and math.isfinite(dy)):
            raise GraphError(f"edge {u!r}-{v!r} has a non-finite rigidity row")
        if dx == 0 and dy == 0:
            raise GraphError(f"adjacent vertices {u!r}, {v!r} share a location")
        entry = {}
        for w, a, b in ((u, dx, dy), (v, -dx, -dy)):
            if w in col_of:
                if field == "mod":
                    a, b = a % PRIME, b % PRIME
                if a:
                    entry[col_of[w]] = a
                if b:
                    entry[col_of[w] + 1] = b
        entries.append(entry)
    return RigidityMatrix(entries=tuple(entries), edges=tuple(g.edges),
                          columns=tuple(col_vertices), field=field)


# -- the exact elimination kernel -------------------------------------------

def _factor(rows, cols, p=PRIME):
    """Forward elimination, in place, of the dict rows `rows` (column ->
    nonzero entry) over GF(p), or over the rationals when `p` is None.

    Pivots lie in the columns `cols`, taken in that order: each pivots on
    the sparsest live row that is nonzero there, and a column zero in every
    live row is skipped.  An entry that cancels is deleted, so a pivot is
    always a nonzero value, never a merely structural one.  A live row is
    updated on the pivot row's entries only, and a row that has pivoted is
    never touched again.  Columns outside `cols` (right-hand sides) ride
    along.  Returns the steps (row, column, inverse of the pivot, pivot row
    without its pivot entry)."""
    live = set(range(len(rows)))
    steps = []
    for c in cols:
        hits = [i for i in live if c in rows[i]]
        if not hits:
            continue
        r = min(hits, key=lambda i: (len(rows[i]), i))
        live.remove(r)
        prow = rows[r]
        inv = pow(prow.pop(c), -1, p) if p else 1 / prow.pop(c)
        entries = list(prow.items())
        for i in hits:
            if i == r:
                continue
            ri = rows[i]
            f = ri.pop(c)
            if p:
                f = f * inv % p
                for k, b in entries:
                    if x := (ri.get(k, 0) - f * b) % p:
                        ri[k] = x
                    else:
                        del ri[k]
            else:
                f *= inv
                for k, b in entries:
                    if x := ri.get(k, 0) - f * b:
                        ri[k] = x
                    else:
                        del ri[k]
        steps.append((r, c, inv, prow))
    return steps


def _back_substitute(steps, right, p=PRIME):
    """Back substitution through the steps of `_factor`: per pivot column c
    of pivot row r, x_c = (right[r] - sum of a_k x_k) / pivot over the
    row's entries a_k at pivot columns k, where `right[r]` lists what the
    row holds at the other columns wanted (right-hand sides, or free
    columns).  It runs from the last step back: a pivot row's other pivot
    columns all pivoted after it."""
    solved = {}
    for r, c, inv, prow in reversed(steps):
        acc = right[r]
        for k, a in prow.items():
            if (xk := solved.get(k)) is not None:
                acc = [x - a * y for x, y in zip(acc, xk)]
        solved[c] = [x * inv % p for x in acc] if p else [x * inv for x in acc]
    return solved


def _solve(rows, rhs, p=PRIME):
    """Columns of X with R X = B, for the square R given by the dict rows
    `rows` (eliminated in place) and B by the dict columns `rhs` (row ->
    nonzero entry), or None when R is singular.  Columns are tried by
    fewest nonzeros, and R is invertible exactly when every one pivots."""
    n = len(rows)
    count = Counter(k for r in rows for k in r)
    for j, col in enumerate(rhs, n):
        for i, x in col.items():
            rows[i][j] = x
    steps = _factor(rows, sorted(range(n), key=count.__getitem__), p)
    if len(steps) < n:
        return None
    js = range(n, n + len(rhs))
    right = {r: [prow.get(j, 0) for j in js] for r, _, _, prow in steps}
    solved = _back_substitute(steps, right, p)
    return list(zip(*(solved[c] for c in range(n))))


def _rref_float(rows, rtol=FLOAT_PIVOT_RTOL):
    rows = [list(map(float, r)) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    scale = max((abs(x) for r in rows for x in r), default=0.0) or 1.0
    cutoff = rtol * scale
    gray = FLOAT_WARN_RTOL * scale
    pivots = []
    r = 0
    for c in range(ncols):
        piv = max(range(r, m), key=lambda i: abs(rows[i][c]), default=None)
        if piv is None or abs(rows[piv][c]) <= cutoff:
            continue
        if abs(rows[piv][c]) < gray:
            warnings.warn(
                f"pivot {rows[piv][c]:.3e} is close to the zero threshold; "
                f"rank decisions may be unreliable", ConditioningWarning,
                stacklevel=4)
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        fac = 1.0 / prow[c]
        rows[r] = prow = [fac * x for x in prow]
        for i in range(m):
            if i != r and rows[i][c] != 0.0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, rows[:r]


def _kernel_basis(solved, free, ncols, p):
    """Kernel basis over GF(p), or over the rationals or floats when `p` is
    None, from the reduced rows: `solved[c]` lists the entries of pivot
    column c's row at the `free` columns.  One vector per free column."""
    basis = []
    for i, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = 1
        for c, row in solved.items():
            vec[c] = -row[i] % p if p else -row[i]
        basis.append(vec)
    return basis


def _exact_kernel(rows, ncols, p=PRIME):
    """Kernel basis of the dict rows `rows` (eliminated in place) over
    GF(p), or over the rationals when `p` is None: `_factor` in natural
    column order, whose pivot columns are those of the RREF, then back
    substitution at the free columns."""
    steps = _factor(rows, range(ncols), p)
    pivots = {step[1] for step in steps}
    free = [f for f in range(ncols) if f not in pivots]
    right = {r: [prow.get(f, 0) for f in free] for r, _, _, prow in steps}
    return _kernel_basis(_back_substitute(steps, right, p), free, ncols, p)


def _exact_rows(mat):
    """Copies of the dict rows of the ``mod`` or ``rational`` matrix `mat`,
    for `_factor` to eliminate, and the prime of its field (None for the
    rationals)."""
    return [dict(r) for r in mat.entries], PRIME if mat.field == "mod" else None


def matrix_rank(mat: RigidityMatrix) -> int:
    if mat.field == "float":
        return len(_rref_float(mat.as_lists())[0])
    rows, p = _exact_rows(mat)
    return len(_factor(rows, range(mat.shape[1]), p))


def matrix_kernel(mat: RigidityMatrix):
    """Kernel basis vectors as flat coordinate lists."""
    ncols = mat.shape[1]
    if mat.field != "float":
        rows, p = _exact_rows(mat)
        return _exact_kernel(rows, ncols, p)
    pivots, rows = _rref_float(mat.as_lists())
    free = [f for f in range(ncols) if f not in pivots]
    solved = {c: [row[f] for f in free] for c, row in zip(pivots, rows)}
    return _kernel_basis(solved, free, ncols, None)


# -- randomized generic queries ---------------------------------------------

def random_configuration(g, rng: random.Random) -> Configuration:
    """Uniform random coordinates over GF(p) for every vertex, resampled until
    no adjacent pair collides (collision probability is ~ |E|/p)."""
    while True:
        config = {v: (rng.randrange(PRIME), rng.randrange(PRIME))
                  for v in g.vertices}
        if all(config[u] != config[v] for u, v in g.edges):
            return config


def generic_rank_randomized(g, seed: int = 0, trials: int = 3) -> int:
    """Generic rank of the (pinned) rigidity matrix via random prime-field
    configurations; the maximum over `trials` samples."""
    if trials < 1:
        raise GraphError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        config = random_configuration(g, rng)
        mat = build_rigidity_matrix(g, config, field="mod")
        best = max(best, matrix_rank(mat))
    return best


def motion_space(g: PinnedGraph, config: Configuration, field: str = "auto") -> MotionBasis:
    """Kernel basis of the pinned rigidity matrix at `config`.

    An empty basis means the framework is pinned-rigid at this configuration.
    """
    mat = build_rigidity_matrix(g, config, field=field)
    flat = matrix_kernel(mat)
    cols = mat.columns
    vectors = []
    for vec in flat:
        vectors.append({v: (vec[2 * i], vec[2 * i + 1]) for i, v in enumerate(cols)})
    return MotionBasis(vectors=tuple(vectors), field=mat.field)


def all_inner_move(g: PinnedGraph, seed: int = 0, trials: int = DEFAULT_TRIALS) -> bool:
    """Decide whether some first-order motion moves every inner vertex.

    Samples random prime-field configurations and a random combination of the
    motion basis per trial; True as soon as one combination moves all inner
    vertices (which then holds generically).  False after all trials means
    some inner vertex is generically fixed, or there is no motion at all, up
    to the sampling error bound.
    """
    if not g.inner:
        raise GraphError("graph has no inner vertices")
    if trials < 1:
        raise GraphError("trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        mat = build_rigidity_matrix(g, random_configuration(g, rng), field="mod")
        if not _still(_combine(matrix_kernel(mat), rng, mat.shape[1])):
            return True
    return False


def deletion_verdicts(g: PinnedGraph, seed: int = 0, trials: int = DEFAULT_TRIALS):
    """Whether deleting any vertex, and any edge, of a graph with 2|I| edges
    leaves a motion of every remaining inner vertex.

    At a random GF(p) configuration the square pinned rigidity matrix R is
    invertible.  Deleting edge j leaves the motions spanned by column j of
    R^-1; deleting a pin removes only the rows of its edges, so their
    columns span what is left; deleting inner vertex v also drops v's two
    coordinates from the span of its edges' columns.  So a target leaves
    inner 2x1 block i still exactly when block (i, j) of R^-1 is zero for
    each of its bars j.  Each sample reads every such block off one `_solve`
    of R^T with one right-hand side per inner block i, a_i e_2i + b_i e_2i+1
    for a_i, b_i uniform in [1, p): its solution y_i = a_i (row 2i of R^-1)
    + b_i (row 2i+1) is zero at edge j where block (i, j) is, but for an
    accident of probability at most 1/p (p = 2^61 - 1).  Edge j leaves still
    the blocks Z zero at j; a vertex, those zero at every one of its bars,
    its own block excepted (every block, when it has no bars).

    A target whose Z is empty moves generically: each block is nonzero in
    the column of R^-1 of one of its bars at this sample, so generically
    too, and a generic combination of those columns moves every block; True
    is certain.  Otherwise, when the bars whose inner ends all lie in Z
    number 2|Z|, and none of them is the target's, the target's kind is
    False with certainty: at an invertible R at most 2|Z| rows are
    supported on Z's columns, so those bars are all of them, R is block
    triangular with the square block R_Z, and det R_Z is nonzero here and
    so generically.  Those bars remain once the target is gone and hold
    Z still (a rigid pinned subgraph survives the deletion; Shai, Sljoka &
    Whiteley, Discrete Appl. Math. 161, 2013), however Z was read.  Another
    sample is drawn only while some still target is uncertified, which a
    generic sample leaves only after an accidental zero; a singular sample
    uses up a trial and tests nothing.  A kind with a still target left
    uncertified after `trials` samples is False, wrong with probability at
    most about ((2|I| + 1)/p)^trials for a given target (Schwartz-Zippel).
    Every vertex is deleted, inner and pinned; deleting the only inner
    vertex leaves nothing to move and is skipped.  Returns (vertex verdict,
    edge verdict).
    """
    if not g.inner or g.m != 2 * len(g.inner):
        raise GraphError("deletion checks need inner vertices and 2|I| edges")
    if trials < 1:
        raise GraphError("trials must be >= 1")
    inner = sorted(g.inner, key=vkey)
    block = {v: i for i, v in enumerate(inner)}
    # (is a vertex, its bars, dropped block)
    targets = [(True, [j for j, e in enumerate(g.edges) if v in e], block.get(v))
               for v in inner + sorted(g.pins, key=vkey)
               if len(inner) > 1 or v not in block]
    targets += [(False, [j], None) for j in range(g.m)]
    ends = [{block[w] for w in e if w in block} for e in g.edges]
    rng = random.Random(seed)
    held = set()  # kinds certified False
    for _ in range(trials):
        mat = build_rigidity_matrix(g, random_configuration(g, rng), "mod")
        transposed = [{} for _ in range(g.m)]
        for j, entry in enumerate(mat.entries):
            for c, x in entry.items():
                transposed[c][j] = x
        rhs = [{2 * i: rng.randrange(1, PRIME), 2 * i + 1: rng.randrange(1, PRIME)}
               for i in range(len(inner))]
        ys = _solve(transposed, rhs)
        if ys is None:
            continue
        zero = [{i for i, y in enumerate(at) if not y} for at in zip(*ys)]
        still = []
        for kind, own, dropped in targets:
            if kind in held:
                continue
            z = set.intersection(*(zero[j] for j in own)) if own else set(range(len(inner)))
            z.discard(dropped)
            if not z:
                continue  # it moves
            if _rigid_block(ends, z, own):
                held.add(kind)
            else:
                still.append((kind, own, dropped))
        targets = [t for t in still if t[0] not in held]
        if not targets:
            break
    fixed = held | {t[0] for t in targets}
    return True not in fixed, False not in fixed


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


def _rigid_block(ends, blocks, own):
    """The bars whose inner ends (`ends[j]`, a set of blocks) all lie in
    `blocks` number twice the blocks, and none of them is among the bars
    `own` of the deleted target: at an invertible sample they are a square
    invertible block of R, generically too, and the deletion leaves them."""
    inside = [j for j, e in enumerate(ends) if e <= blocks]
    return len(inside) == 2 * len(blocks) and not set(own).intersection(inside)
