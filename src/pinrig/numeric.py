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
                  geometry, through the same Gauss-Jordan loop as ``mod``;
* ``float``    -- elimination with a relative pivot threshold of 1e-9 for
                  binary-float geometry.  Pivots close to the threshold raise
                  a ConditioningWarning instead of silently deciding.

Over GF(p) and the rationals every exact answer is one call of that loop,
`_rref_mod`: ranks are its pivot counts, kernels are read off its reduced
rows, and `_solve` reads X with R X = B off the reduction of [R | B].

The vertex- and edge-deletion checks of the Assur characterization read
every deletion off one GF(p) inverse of the square pinned rigidity matrix at
the first invertible sample; a target still fixed is then confirmed on its
own, one witness per check, by solving for its motion at each later sample
(`deletion_verdicts`).
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
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

    `columns` lists the vertices owning columns (two consecutive columns per
    vertex, x then y); pinned input graphs contribute columns for inner
    vertices only.  `field` is one of ``mod``, ``rational``, ``float``.
    """

    rows: tuple
    edges: tuple
    columns: tuple
    field: str

    @property
    def shape(self):
        return (len(self.rows), 2 * len(self.columns))

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
    sit at distinct points.  Coordinates must convert to the field, and a
    float row must be finite.  For a PinnedGraph, columns exist only for
    inner vertices (pin coordinates still shape the rows).
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
            return x % PRIME, y % PRIME
        try:
            if field == "rational":
                return Fraction(x), Fraction(y)
            return float(x), float(y)
        except (OverflowError, ValueError):
            raise GraphError(f"coordinates of {v!r} do not convert to {field}") from None

    pos = {v: coords(v) for v in g.vertices}
    col_of = {v: 2 * i for i, v in enumerate(col_vertices)}
    ncols = 2 * len(col_vertices)
    rows = []
    for u, v in g.edges:
        (xu, yu), (xv, yv) = pos[u], pos[v]
        dx, dy = xu - xv, yu - yv
        if field == "mod":
            dx, dy = dx % PRIME, dy % PRIME
        elif field == "float" and not (math.isfinite(dx) and math.isfinite(dy)):
            raise GraphError(f"edge {u!r}-{v!r} has a non-finite rigidity row")
        if dx == 0 and dy == 0:
            raise GraphError(f"adjacent vertices {u!r}, {v!r} share a location")
        row = [0] * ncols
        if u in col_of:
            row[col_of[u]], row[col_of[u] + 1] = dx, dy
        if v in col_of:
            ndx, ndy = -dx, -dy
            if field == "mod":
                ndx, ndy = ndx % PRIME, ndy % PRIME
            row[col_of[v]], row[col_of[v] + 1] = ndx, ndy
        rows.append(tuple(row))
    return RigidityMatrix(rows=tuple(rows), edges=tuple(g.edges),
                          columns=tuple(col_vertices), field=field)


# -- elimination kernels ----------------------------------------------------

def _rref_mod(rows, p=PRIME):
    """Reduced row echelon form (Gauss-Jordan) over GF(p), or over the
    rationals when `p` is None (entries become Fractions).

    Returns (pivot column list, reduced rows).  Columns left of the pivot
    are already zero in the pivot row, so each update touches only the
    pivot row's nonzero columns; rigidity matrices stay sparse for long."""
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


def _solve(rows, rhs):
    """Rows of X with R X = B over GF(p), for the square R given by `rows`
    and B by `rhs` (one row of B per row of R), or None when R is singular:
    `_rref_mod` of [R | B] pivots on every column of R exactly when R is
    invertible."""
    n = len(rows)
    pivots, reduced = _rref_mod([list(r) + list(b) for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


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


def _kernel_basis(pivots, reduced, ncols, p):
    """Kernel basis from an RREF over GF(p), or over the rationals or floats
    when `p` is None: one vector per free column."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            x = reduced[r][f]
            vec[c] = -x % p if p else -x
        basis.append(vec)
    return basis


def _reduce(mat: RigidityMatrix):
    """(pivots, reduced rows, p) of `mat` over its own field; p is the
    prime for ``mod`` and None otherwise."""
    rows = mat.as_lists()
    if mat.field == "float":
        return (*_rref_float(rows), None)
    p = PRIME if mat.field == "mod" else None
    return (*_rref_mod(rows, p), p)


def matrix_rank(mat: RigidityMatrix) -> int:
    return len(_reduce(mat)[0])


def matrix_kernel(mat: RigidityMatrix):
    """Kernel basis vectors as flat coordinate lists."""
    pivots, reduced, p = _reduce(mat)
    return _kernel_basis(pivots, reduced, mat.shape[1], p)


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
        if _moves(matrix_kernel(mat), rng):
            return True
    return False


def deletion_verdicts(g: PinnedGraph, seed: int = 0, trials: int = DEFAULT_TRIALS,
                      include_pins: bool = True):
    """Whether deleting any vertex, and any edge, of a graph with 2|I| edges
    leaves a motion of every remaining inner vertex.

    Each sample draws a random GF(p) configuration and its square pinned
    rigidity matrix R.  Deleting edge j leaves the motions spanned by column
    j of R^-1; deleting a pin removes only the rows of its edges, so their
    columns span what is left; deleting inner vertex v also drops v's two
    coordinates from the span of its edges' columns.  A target moves at a
    sample when a random combination x of its columns moves every remaining
    inner 2x1 block.  Every target is tested up to the first invertible
    sample, which inverts R once.  After it, each kind (vertex, edge) with a
    target still fixed tests only its first one, its witness: one `_solve`
    per sample, one column of B per kind, solves R x = b, with b a random
    combination of the unit vectors of the witness's edges.  A witness that
    moves is dropped and the next fixed target of its kind takes over, with
    the samples it was tested at so far (one, unless singular samples came
    first).  A target seen to move once moves generically: at an invertible
    sample x is a rational function of the configuration that is nonzero
    there, so True is certain.  A kind is False when its witness stayed
    fixed at `trials` samples; that is wrong only if the witness moves
    generically, with probability at most about (2|I|/p)^trials for a given
    target (Schwartz-Zippel, p = 2^61 - 1).  A singular sample counts as a
    fixed sample for every target it tests.  Deleting the only inner vertex
    leaves nothing to move and is skipped.  `include_pins=False` deletes
    inner vertices only.  Returns (vertex verdict, edge verdict).
    """
    if not g.inner or g.m != 2 * len(g.inner):
        raise GraphError("deletion checks need inner vertices and 2|I| edges")
    if trials < 1:
        raise GraphError("trials must be >= 1")
    inner = sorted(g.inner, key=vkey)
    block = {v: i for i, v in enumerate(inner)}
    deleted = inner + sorted(g.pins, key=vkey) if include_pins else inner
    # (is a vertex, edge indices spanning its motions, dropped block)
    targets = [(True, [j for j, e in enumerate(g.edges) if v in e], block.get(v))
               for v in deleted if len(inner) > 1 or v not in block]
    targets += [(False, [j], None) for j in range(g.m)]
    rng = random.Random(seed)

    def sample():
        return build_rigidity_matrix(g, random_configuration(g, rng), field="mod").rows

    n = g.m
    identity = [[int(i == k) for k in range(n)] for i in range(n)]
    shared = 0  # samples that tested every target
    while targets and shared < trials:
        shared += 1
        inv = _solve(sample(), identity)
        if inv is not None:
            cols = list(zip(*inv))
            targets = [t for t in targets
                       if not _moves([cols[j] for j in t[1]], rng, t[2])]
            break
    fixed = {kind: [t for t in targets if t[0] is kind] for kind in (True, False)}
    count = dict.fromkeys(fixed, shared)
    while active := [k for k in fixed if fixed[k] and count[k] < trials]:
        rows = sample()
        rhs = [[0] * len(active) for _ in range(n)]
        for c, k in enumerate(active):
            for j in fixed[k][0][1]:
                rhs[j][c] = rng.randrange(1, PRIME)
        x = _solve(rows, rhs)
        for c, k in enumerate(active):
            if x is not None and _all_move([row[c] for row in x], fixed[k][0][2]):
                fixed[k].pop(0)
                count[k] = shared
            else:
                count[k] += 1
    return not fixed[True], not fixed[False]


def _moves(vectors, rng, dropped=None):
    """A random combination of `vectors` moves every inner 2x1 block except
    block `dropped` (no vectors, no motion)."""
    lams = [rng.randrange(1, PRIME) for _ in vectors]
    return _all_move([sum(map(mul, lams, row)) % PRIME for row in zip(*vectors)],
                     dropped)


def _all_move(vec, dropped=None):
    """`vec` moves every inner 2x1 block except block `dropped` (an empty
    vector does not move)."""
    return bool(vec) and all(vec[2 * i] or vec[2 * i + 1]
                             for i in range(len(vec) // 2) if i != dropped)
