"""Rigidity matrices, exact ranks, and first-order motion spaces.

The row for edge (i, j) at configuration p carries (p_i - p_j) in the two
columns of i and (p_j - p_i) in the columns of j; a first-order motion is a
velocity assignment annihilating every row.  For pinned graphs only inner
vertices get columns, so the kernel of the pinned matrix is exactly the space
of motions fixing the pins.

Three coordinate domains are supported:

* ``mod``      -- integers modulo PRIME = 2**30 - 35, the largest prime
                  below 2**30; used for all randomized generic queries.
                  CPython stores ints in 30-bit digits
                  (sys.int_info.bits_per_digit), so every reduced value is
                  one digit, a product two, and each reduction divides by a
                  one-digit divisor.  A rank at a random configuration
                  equals the generic rank but for a Schwartz-Zippel failure
                  of probability at most degree/p per trial: a `motion`
                  sample, whose minors have degree at most 2|I|, fails
                  with probability at most about 2|I|/p, and no tolerances
                  are involved;
* ``rational`` -- exact Fraction arithmetic for user-supplied int/rational
                  geometry, through the same elimination as ``mod``;
* ``float``    -- binary-float geometry, each row scaled to unit length, so
                  that bar lengths do not enter the zero threshold of 1e-9,
                  which each pivot of the unit rows is compared with.  At a
                  dyad the first pivot is a bar's direction cosine c with
                  the first column's axis and the second is the sine of the
                  angle between the bars over c, so the threshold bounds
                  that sine only while c is near 1.  A decision within three
                  decades of the threshold raises a ConditioningWarning
                  instead of silently deciding.

Every rank and kernel, in every field, comes from one forward elimination
of the matrix's dict rows {column: nonzero entry}: it never works above a
pivot, and every pivot is a nonzero value, since entries that cancel are
deleted.  `_factor` is that one elimination, over GF(p), the rationals
and floats alike; on float rows it pivots on the largest entry of each
column and puts a column within the cutoff back once, after the last.
Ranks are its pivot counts; kernels and `_solve` back-substitute through
its steps.  Ranks and kernels pivot in natural column order, so over an
exact field the pivot columns, and with them the kernel basis, are those
of the reduced row echelon form; a square solve takes the columns with
fewest nonzeros first (after Markowitz, Management Sci. 3, 1957), which
keeps the factors of a rigidity matrix sparse.

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
from fractions import Fraction
from itertools import chain

from .errors import ConditioningWarning, GraphError
from .graphs import PinnedGraph, vkey

PRIME = (1 << 30) - 35
FLOAT_PIVOT_RTOL = 1e-9
FLOAT_WARN_RTOL = 1e-6
DEFAULT_TRIALS = 8

Configuration = dict


@dataclass(frozen=True)
class RigidityMatrix:
    """Edge-by-coordinate matrix of the first-order length constraints.

    `entries` holds one dict {column: nonzero entry} per edge.  `columns`
    lists the vertices owning columns (two consecutive columns per vertex,
    x then y); pinned input graphs contribute columns for inner vertices
    only.  `field` is one of ``mod``, ``rational``, ``float``.
    """

    entries: tuple
    columns: tuple
    field: str

    @property
    def shape(self):
        return (len(self.entries), 2 * len(self.columns))


@dataclass(frozen=True)
class MotionBasis:
    """Basis of the first-order motion space of a pinned framework.

    Each vector maps every inner vertex to a velocity pair; pins are fixed.
    `moving` holds the inner vertices that some vector moves, reading a
    float entry within FLOAT_PIVOT_RTOL of zero as 0.
    """

    vectors: tuple
    field: str

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def moving(self):
        tol = FLOAT_PIVOT_RTOL if self.field == "float" else 0
        return {v for vec in self.vectors for v, xy in vec.items()
                if max(map(abs, xy)) > tol}


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
    return RigidityMatrix(entries=tuple(entries), columns=tuple(col_vertices),
                          field=field)


# -- the elimination kernel -------------------------------------------------

def _factor(rows, cols, p=PRIME, tol=None):
    """Forward elimination, in place, of the dict rows `rows` (column ->
    nonzero entry) over GF(p), or over the rationals or floats when `p` is
    None.

    Pivots lie in the columns `cols`, taken in that order: each pivots on
    the sparsest live row that is nonzero there, and a column zero in every
    live row is skipped.  An entry that cancels is deleted, so a pivot is
    always a nonzero value, never a merely structural one.  A live row is
    updated on the pivot row's entries only, and a row that has pivoted is
    never touched again.  Columns outside `cols` (right-hand sides) ride
    along.  Returns the steps (row, column, inverse of the pivot, pivot row
    without its pivot entry).

    With a cutoff `tol` (floats), a column pivots instead on the live row
    whose entry there is largest.  When that entry is at most `tol` the
    column is put back once, after the last of `cols`, since later pivots
    may lift it; a column at most `tol` on its second turn is skipped.  A
    largest entry within three decades of the cutoff either way, in
    (tol**2 / FLOAT_WARN_RTOL, FLOAT_WARN_RTOL), raises a
    ConditioningWarning at the caller of `motion_space`."""
    live = set(range(len(rows)))
    steps = []
    retry = []
    for c in chain(cols, retry):
        hits = [i for i in live if c in rows[i]]
        if not hits:
            continue
        if tol is None:
            r = min(hits, key=lambda i: (len(rows[i]), i))
        else:
            r = max(hits, key=lambda i: (abs(rows[i][c]), -i))
            best = abs(rows[r][c])
            if tol ** 2 / FLOAT_WARN_RTOL < best < FLOAT_WARN_RTOL:
                warnings.warn(f"pivot {best:.3e} is close to the zero threshold; rank "
                              "decisions may be unreliable", ConditioningWarning,
                              stacklevel=5)
            if best <= tol:
                if c not in retry:
                    retry.append(c)
                continue
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
    """Back substitution through the steps of `_factor`, over GF(p), or
    over the rationals or floats when `p` is None: per pivot column c of
    pivot row r, x_c = (right[r] - sum of a_k x_k) / pivot over the row's
    entries a_k at pivot columns k, where `right[r]` lists what the row
    holds at the other columns wanted (right-hand sides, or free
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


def _kernel(steps, ncols, p=PRIME):
    """Kernel basis over GF(p), or over the rationals or floats when `p` is
    None, from the `steps` of a forward elimination of `ncols` columns in
    natural order: one vector per free column f, 1 at f and 0 at the other
    free columns, the pivot columns by back substitution.  Over an exact
    field the pivot columns are those of the RREF; a float column put back
    pivots after the last, which back substitution allows, since each pivot
    row's other pivot columns still pivot after it."""
    pivots = {step[1] for step in steps}
    free = [f for f in range(ncols) if f not in pivots]
    right = {r: [prow.get(f, 0) for f in free] for r, _, _, prow in steps}
    solved = _back_substitute(steps, right, p)
    basis = [[int(k == f) for k in range(ncols)] for f in free]
    for c, row in solved.items():
        for vec, x in zip(basis, row):
            vec[c] = -x % p if p else -x
    return basis


def _eliminate(mat):
    """The steps of the forward elimination of `mat` in natural column
    order, on copies of its dict rows, and the prime of its field (None for
    the rationals and floats).  Float rows are scaled to unit length and
    eliminated with the cutoff FLOAT_PIVOT_RTOL."""
    p = PRIME if mat.field == "mod" else None
    tol = FLOAT_PIVOT_RTOL if mat.field == "float" else None
    rows = [_unit(entry) if tol else dict(entry) for entry in mat.entries]
    return _factor(rows, range(mat.shape[1]), p, tol), p


def _unit(entry):
    """A copy of the float dict row `entry` scaled to unit length, by its
    largest entry first, so that its length cannot overflow."""
    big = max(map(abs, entry.values()), default=1.0)
    length = math.hypot(*(x / big for x in entry.values()))
    return {k: x / big / length for k, x in entry.items()}


def matrix_rank(mat: RigidityMatrix) -> int:
    return len(_eliminate(mat)[0])


def matrix_kernel(mat: RigidityMatrix):
    """Kernel basis vectors as flat coordinate lists."""
    steps, p = _eliminate(mat)
    return _kernel(steps, mat.shape[1], p)


# -- randomized generic queries ---------------------------------------------

def random_configuration(g, rng: random.Random) -> Configuration:
    """Uniform random coordinates over GF(p) for every vertex, resampled until
    no adjacent pair collides; two endpoints collide only in both
    coordinates, so a resample has probability about |E|/p^2.

    The configuration does not carry its field: pass ``field="mod"`` to
    whatever reads it, since ``"auto"`` reads its ints as rationals, whose
    elimination is exact over Q and far slower.
    """
    while True:
        config = {v: (rng.randrange(PRIME), rng.randrange(PRIME))
                  for v in g.vertices}
        if all(config[u] != config[v] for u, v in g.edges):
            return config


def motion_space(g: PinnedGraph, config: Configuration, field: str = "auto") -> MotionBasis:
    """Kernel basis of the pinned rigidity matrix at `config`.

    An empty basis means the framework is pinned-rigid at this configuration.
    `field` ``"auto"`` reads int coordinates as rationals, so a sample of
    `random_configuration` needs ``field="mod"``.
    """
    mat = build_rigidity_matrix(g, config, field=field)
    flat = matrix_kernel(mat)
    cols = mat.columns
    vectors = []
    for vec in flat:
        vectors.append({v: (vec[2 * i], vec[2 * i + 1]) for i, v in enumerate(cols)})
    return MotionBasis(vectors=tuple(vectors), field=mat.field)


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
    accident of probability at most 1/p (p = PRIME = 2^30 - 35, so about
    10^-9 per block).  Edge j leaves still the blocks Z zero at j; a
    vertex, those zero at every one of its bars, its own block excepted
    (every block, when it has no bars).

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
    most about ((2|I| + 1)/p)^trials for a given target (Schwartz-Zippel),
    about 10^-46 at 1,000 inner vertices with 8 trials.  True and a
    certified False stay certain whatever p is.
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
    bars = {v: [] for v in g.vertices}
    for j, e in enumerate(g.edges):
        for v in e:
            bars[v].append(j)
    # (is a vertex, its bars, dropped block)
    targets = [(True, bars[v], block.get(v)) for v in inner + sorted(g.pins, key=vkey)
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


def _rigid_block(ends, blocks, own):
    """The bars whose inner ends (`ends[j]`, a set of blocks) all lie in
    `blocks` number twice the blocks, and none of them is among the bars
    `own` of the deleted target: at an invertible sample they are a square
    invertible block of R, generically too, and the deletion leaves them."""
    inside = [j for j, e in enumerate(ends) if e <= blocks]
    return len(inside) == 2 * len(blocks) and not set(own).intersection(inside)
