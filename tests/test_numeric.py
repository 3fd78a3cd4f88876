import math
import random
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from pinrig.errors import ConditioningWarning, GraphError
from pinrig.graphs import Multigraph, PinnedGraph, complete_graph
from pinrig import numeric
from pinrig.numeric import (PRIME, MotionBasis, all_inner_move,
                            build_rigidity_matrix, generic_rank_randomized,
                            matrix_kernel, matrix_rank, motion_space,
                            random_configuration)
from pinrig.pebble import pebble_rank


class TestMatrixLayout:
    def test_single_edge_row(self):
        m = build_rigidity_matrix(Multigraph(edges=[(1, 2)]),
                                  {1: (0, 0), 2: (1, 0)})
        assert m.shape == (1, 4)
        assert [int(x) for x in support.dense_rows(m)[0]] == [-1, 0, 1, 0]

    def test_k4_matrix_matches_displayed_pattern(self):
        # unit square placement; rows in edge order (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
        config = {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
        m = build_rigidity_matrix(complete_graph([1, 2, 3, 4]), config)
        assert m.shape == (6, 8)
        expected = [
            [-1, 0, 1, 0, 0, 0, 0, 0],    # (1,2)
            [0, -1, 0, 0, 0, 1, 0, 0],    # (1,3)
            [-1, -1, 0, 0, 0, 0, 1, 1],   # (1,4)
            [0, 0, 1, -1, -1, 1, 0, 0],   # (2,3)
            [0, 0, 0, -1, 0, 0, 0, 1],    # (2,4)
            [0, 0, 0, 0, -1, 0, 1, 0],    # (3,4)
        ]
        rows = support.dense_rows(m)
        got = [[int(x) for x in row] for row in rows]
        assert got == expected
        # each row touches only the columns of its two endpoints, antisymmetrically
        for row, (u, v) in zip(rows, m.edges):
            iu, iv = m.columns.index(u), m.columns.index(v)
            assert row[2 * iu] == -row[2 * iv]
            assert row[2 * iu + 1] == -row[2 * iv + 1]

    def test_pinned_dyad_matrix_is_2x2(self, dyad):
        m = build_rigidity_matrix(dyad, {"v": (1, 1), "p1": (0, 0), "p2": (2, 0)})
        assert m.shape == (2, 2)
        assert m.columns == ("v",)

    def test_coincident_adjacent_points_rejected(self):
        with pytest.raises(GraphError):
            build_rigidity_matrix(Multigraph(edges=[(0, 1)]),
                                  {0: (1, 1), 1: (1, 1)})

    def test_missing_coordinates_rejected(self, dyad):
        with pytest.raises(GraphError):
            build_rigidity_matrix(dyad, {"v": (0, 0), "p1": (1, 0)})


class TestGenericRank:
    def test_k4(self):
        assert generic_rank_randomized(complete_graph(4), seed=0) == 5

    def test_doubled_edge(self):
        assert generic_rank_randomized(support.doubled_edge(), seed=0) == 1

    def test_triad_full_pinned_rank(self, triad):
        assert generic_rank_randomized(triad, seed=0) == 6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0))
    def test_matches_pebble_rank(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = support.random_multigraph(rng, n, rng.randint(0, 2 * n + 2),
                                      allow_parallel=True)
        assert generic_rank_randomized(g, seed=seed) == pebble_rank(g).rank

    def test_unpinned_kernel_has_trivial_motions(self):
        # kernel dimension 2n - rank is always >= 3: translations + rotation
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = support.random_multigraph(rng, n, rng.randint(1, 2 * n))
            rank = generic_rank_randomized(g, seed=17)
            assert 2 * g.n - rank >= 3
            from pinrig.pebble import pebble_rank
            assert (2 * g.n - rank == 3) == (pebble_rank(g).rank == 2 * g.n - 3)


DYAD = PinnedGraph({"a"}, {"p", "q"}, [("a", "p"), ("a", "q")])


def _turned(config):
    """`config` turned by 90 degrees about the origin."""
    return {v: (-y, x) for v, (x, y) in config.items()}


def _dyad_sweep():
    """(float configuration, the same as Fractions, sine of the angle
    between the bars) for `DYAD` on pins p (0, 0) and q (Q, 0), over the
    seeded scales of the cross-scale sweep."""
    rng = random.Random(2024)
    for kq, ka, kt in product(range(8), range(-3, 8), range(-13, 0)):
        ax = rng.uniform(1, 10) * 10.0 ** ka
        config = {"p": (0.0, 0.0), "q": (rng.uniform(1, 10) * 10.0 ** kq, 0.0),
                  "a": (ax, ax * rng.uniform(1, 10) * 10.0 ** kt)}
        exact = {v: tuple(map(Fraction, xy)) for v, xy in config.items()}
        (ux, uy), (qx, _) = exact["a"], exact["q"]
        sine = abs(float(uy * qx)) / (math.hypot(ux, uy) * math.hypot(ux - qx, uy))
        yield config, exact, sine


class TestMotionSpace:
    def test_dyad_is_rigid(self, dyad):
        basis = motion_space(dyad, {"v": (1, 1), "p1": (0, 0), "p2": (2, 0)})
        assert basis.dim == 0

    def test_pendulum_velocity_perpendicular_to_bar(self):
        g = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        basis = motion_space(g, {"v": (3, 0), "p1": (0, 0), "p2": (9, 9)})
        assert basis.dim == 1
        vx, vy = basis.vectors[0]["v"]
        # bar along x: velocity must have no x component
        assert vx == 0 and vy != 0

    def test_four_bar_has_one_motion(self):
        g = PinnedGraph({"a", "b"}, {"q1", "q2"},
                        [("a", "q1"), ("a", "b"), ("b", "q2")])
        basis = motion_space(g, {"q1": (0, 0), "q2": (3, 0), "a": (1, 1), "b": (2, 1)})
        assert basis.dim == 1

    def test_mod_field_refuses_float_coordinates(self, dyad):
        with pytest.raises(GraphError, match="not integers"):
            motion_space(dyad, {"v": (0.5, 1), "p1": (0, 0), "p2": (2, 0)}, field="mod")

    def test_mod_field_refuses_fraction_coordinates(self, dyad):
        with pytest.raises(GraphError, match="not integers"):
            motion_space(dyad, {"v": (Fraction(1, 2), 1), "p1": (0, 0), "p2": (2, 0)},
                         field="mod")

    def test_rational_field_refuses_nan_and_infinity(self, dyad):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(GraphError):
                motion_space(dyad, {"v": (bad, 1), "p1": (0, 0), "p2": (2, 0)},
                             field="rational")

    def test_motions_annihilate_every_edge_exactly(self):
        rng = random.Random(5)
        for _ in range(25):
            ni, npins = rng.randint(1, 3), 2
            inner = list(range(ni))
            pins = ["P0", "P1"]
            pairs = ([(a, b) for a in inner for b in inner if a < b]
                     + [(a, p) for a in inner for p in pins])
            m = rng.randint(1, len(pairs) - 1)
            g = PinnedGraph(inner, pins, rng.sample(pairs, m))
            config = {v: (Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50)))
                      for v in g.vertices}
            if any(config[u] == config[v] for u, v in g.edges):
                continue
            basis = motion_space(g, config)
            assert basis.field == "rational"
            for vec in basis.vectors:
                for u, v in g.edges:
                    pu, pv = config[u], config[v]
                    vu = vec.get(u, (0, 0))
                    vv = vec.get(v, (0, 0))
                    dot = ((pu[0] - pv[0]) * (vu[0] - vv[0])
                           + (pu[1] - pv[1]) * (vu[1] - vv[1]))
                    assert dot == 0

    def test_float_path(self):
        g = PinnedGraph({"a", "b"}, {"q1", "q2"},
                        [("a", "q1"), ("a", "b"), ("b", "q2")])
        basis = motion_space(g, {"q1": (0.0, 0.0), "q2": (3.0, 0.0),
                                 "a": (1.0, 1.0), "b": (2.0, 1.0)})
        assert basis.field == "float"
        assert basis.dim == 1

    def test_float_conditioning_warning(self):
        g = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1"), ("v", "p2")])
        config = {"v": (1.0, 0.0), "p1": (0.0, 0.0), "p2": (0.0, -1e-8)}
        with pytest.warns(ConditioningWarning):
            motion_space(g, config)

    def test_float_conditioning_warning_points_at_the_caller(self, dyad):
        config = {"v": (1.0, 0.0), "p1": (0.0, 0.0), "p2": (0.0, -1e-8)}
        with pytest.warns(ConditioningWarning) as caught:
            motion_space(dyad, config)
        assert caught[0].filename == __file__

    def test_float_dyads_across_scales_match_the_rationals_or_warn(self):
        """Dyad a on pins p (0, 0) and q (Q, 0): Q at 10^0..10^7, a's x at
        10^-3..10^7 and its y at 10^-13..10^-1 of that, mantissas seeded;
        each dyad also turned by 90 degrees, which swaps the columns its
        rows meet first.  Where the bars meet at sine >= 1e-9 the float
        answer is the rational one, in both orientations; where the sine is
        in [1e-12, 1e-9) a ConditioningWarning is raised, and turned, the
        answer is the rational one or warns: there the first pivot is a
        bar's small x entry and the second the sine over it, which may lie
        above the warning band."""
        decided = warned_band = 0
        for config, exact, sine in _dyad_sweep():
            want = motion_space(DYAD, exact)
            for placed in (config, _turned(config)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    basis = motion_space(DYAD, placed)
                matches = (basis.dim, basis.moving) == (want.dim, want.moving)
                if sine >= 1e-9:
                    assert matches, placed
                    decided += 1
                elif sine >= 1e-12:
                    warned = any(w.category is ConditioningWarning for w in caught)
                    assert warned or (placed is not config and matches), placed
                    warned_band += 1
        assert decided > 2 * 600 and warned_band > 2 * 200

    def test_float_column_within_the_cutoff_is_tried_again_after_the_last(self):
        # both bars within 1e-9 of vertical but 1.8e-9 apart in sine: the x
        # column is within the cutoff until the y pivot lifts it
        upright = {"a": (0.0, 1.0), "p": (-9e-10, 0.0), "q": (9e-10, 0.0)}
        exact = {v: tuple(map(Fraction, xy)) for v, xy in upright.items()}
        assert motion_space(DYAD, exact).dim == 0
        for config in (upright, _turned(upright)):
            with pytest.warns(ConditioningWarning):
                assert motion_space(DYAD, config).dim == 0

    def test_float_rows_too_long_for_a_float_still_count(self, stacked_dyads):
        # the bar b-a spans 1.4e308, so its row's length, sqrt(2) times that,
        # is beyond the largest float
        config = {"a": (-7.0, 0.0), "b": (7.0, 0.0), "p1": (-7.0, 5.0),
                  "p2": (7.0, 5.0), "p3": (7.0, -5.0)}
        for scale in (1.0, 1e307):
            huge = {v: (x * scale, y * scale) for v, (x, y) in config.items()}
            assert motion_space(stacked_dyads, huge).dim == 0

    def test_collinear_pins_still_pin_an_isostatic_graph(self, triad):
        # any pin placement with two distinct locations works, even all on a line
        config = {"q1": (0, 0), "q2": (1, 0), "q3": (2, 0),
                  "a": (Fraction(1, 3), 2), "b": (Fraction(5, 3), 1),
                  "c": (Fraction(6, 7), 3)}
        assert motion_space(triad, config).dim == 0


def test_moving_reads_float_entries_within_the_threshold_as_zero():
    vec = {"a": (1e-10, -1e-9), "b": (0.0, -2e-9), "c": (0.0, 0.0)}
    assert MotionBasis((vec,), "float").moving == {"b"}
    exact = {v: tuple(map(Fraction, xy)) for v, xy in vec.items()}
    assert MotionBasis((exact,), "rational").moving == {"a", "b"}
    assert MotionBasis((), "mod").moving == set()


class TestAllInnerMove:
    def test_pendulum_swings(self):
        g = PinnedGraph({"v"}, {"p1", "p2"}, [("v", "p1")])
        assert all_inner_move(g, seed=0)

    def test_rigid_graph_has_no_motion(self, dyad):
        assert not all_inner_move(dyad, seed=0)

    def test_stacked_dyads_cases(self, stacked_dyads):
        # dropping a bottom edge leaves a four-bar: everything swings
        assert all_inner_move(stacked_dyads.without_edge("a", "p1"), seed=0)
        # dropping a top edge leaves the bottom dyad rigid: its vertex is stuck
        assert not all_inner_move(stacked_dyads.without_edge("b", "a"), seed=0)
        assert not all_inner_move(stacked_dyads.without_edge("b", "p3"), seed=0)

    def test_triad_minus_any_edge_moves_everything(self, triad):
        for u, v in triad.edges:
            assert all_inner_move(triad.without_edge(u, v), seed=0)

    def test_vertices_moved_by_different_basis_vectors_all_move(self):
        # two pendulums: each basis vector swings one, a combination both
        g = PinnedGraph({"a", "b"}, {"p1", "p2"}, [("a", "p1"), ("b", "p2")])
        basis = motion_space(g, random_configuration(g, random.Random(0)), field="mod")
        assert basis.moving == {"a", "b"}
        assert [sum(map(any, vec.values())) for vec in basis.vectors] == [1, 1]
        assert all_inner_move(g, seed=0)

    def test_no_inner_vertices_rejected(self):
        g = PinnedGraph((), {"p1", "p2"}, [])
        with pytest.raises(GraphError):
            all_inner_move(g, seed=0)

    def test_deterministic_given_seed(self, stacked_dyads):
        g = stacked_dyads.without_edge("a", "p1")
        runs = {all_inner_move(g, seed=42) for _ in range(3)}
        assert runs == {True}


def test_random_configuration_avoids_adjacent_collisions():
    rng = random.Random(0)
    g = complete_graph(5)
    for _ in range(5):
        config = random_configuration(g, rng)
        assert all(config[u] != config[v] for u, v in g.edges)


def test_matrix_rank_and_kernel_are_consistent():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = support.random_multigraph(rng, n, rng.randint(1, 2 * n))
        config = random_configuration(g, rng)
        mat = build_rigidity_matrix(g, config, field="mod")
        assert matrix_rank(mat) + len(matrix_kernel(mat)) == mat.shape[1]


def test_motion_dimension_matches_combinatorial_pinned_dof():
    # two independent routes: pin-scaffold pebble count vs kernel of the
    # columns-removed matrix at a random generic configuration
    from pinrig.pebble import pinned_game
    rng = random.Random(2718)
    checked = 0
    for _ in range(120):
        ni, npins = rng.randint(1, 4), rng.randint(2, 3)
        inner = list(range(ni))
        pins = [f"P{i}" for i in range(npins)]
        pairs = ([(a, b) for a in inner for b in inner if a < b]
                 + [(a, p) for a in inner for p in pins])
        m = rng.randint(1, len(pairs))
        g = PinnedGraph(inner, pins, rng.sample(pairs, m))
        basis = motion_space(g, random_configuration(g, rng), field="mod")
        assert basis.dim == pinned_game(g)[0], g
        checked += 1
    assert checked == 120


def test_gf_p_inverse_and_rref():
    from pinrig.numeric import PRIME, _solve
    rng = random.Random(61)
    for n in range(1, 9):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        units = [{j: 1} for j in range(n)]
        rows = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
        inv = [list(r) for r in zip(*_solve(support.sparse_rows(rows), units))]
        assert [[sum(a * b for a, b in zip(row, col)) % PRIME for col in zip(*inv)]
                for row in rows] == identity
        assert inv == support.solve_reference(rows, identity)
        rows[-1] = [2 * x % PRIME for x in rows[0]] if n > 1 else [0]
        assert _solve(support.sparse_rows(rows), units) is None
        assert support.solve_reference(rows, identity) is None
        pivots, reduced = support.rref_mod_reference(rows)
        assert (len(pivots) == len(reduced)
                == support.rank_mod_reference([list(r) for r in rows]) == n - 1)


def test_exact_kernel_vectors_annihilate_every_row():
    from pinrig.numeric import PRIME
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 7)
        g = support.random_multigraph(rng, n, rng.randint(1, 2 * n))
        if checked % 2:
            g = PinnedGraph(range(n - 2), (n - 2, n - 1),
                            [e for e in g.edges if min(e) < n - 2])
            if not g.m:
                continue
        # a small grid makes many configurations special
        config = {v: (rng.randint(0, 3), rng.randint(0, 3)) for v in g.vertices}
        if any(config[u] == config[v] for u, v in g.edges):
            continue
        for field, p in (("rational", None), ("mod", PRIME)):
            mat = build_rigidity_matrix(g, config, field=field)
            kernel = matrix_kernel(mat)
            for vec in kernel:
                for row in support.dense_rows(mat):
                    dot = sum(a * b for a, b in zip(row, vec))
                    assert (dot % p if p else dot) == 0
            assert matrix_rank(mat) + len(kernel) == mat.shape[1]
        # entries are small, so no minor is a multiple of p: the ranks agree
        assert matrix_rank(build_rigidity_matrix(g, config, field="rational")) \
            == matrix_rank(mat)
        checked += 1


# -- the sparse exact kernel against the Gauss-Jordan reference --------------

def _entry(rng, p):
    """A random entry, zero half the time: small ones over the rationals, so
    that fill cancels now and then."""
    if rng.random() < 0.5:
        return 0
    if p:
        return rng.randrange(1, p) if rng.random() < 0.8 else rng.randint(1, 3)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _columns(x):
    """The columns of the dense X, as `numeric._solve` returns them."""
    return None if x is None else [tuple(col) for col in zip(*x)]


def _assert_kernel_matches_reference(rows, ncols, p):
    factored = numeric._factor(support.sparse_rows(rows, p), range(ncols), p)
    pivots, expected = support.kernel_reference(rows, ncols, p)
    assert [step[1] for step in factored] == pivots
    kernel = numeric._kernel(factored, ncols, p)
    assert kernel == expected
    # the types as well: the CLI prints a Fraction as a string and an int as a number
    assert [list(map(type, v)) for v in kernel] == [list(map(type, v)) for v in expected]


def _assert_solve_matches_reference(rows, p, rng):
    n = len(rows)
    width = rng.randint(1, 3)
    dense = [[_entry(rng, p) for _ in range(width)] for _ in range(n)]
    rhs = [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(width)]
    x = numeric._solve(support.sparse_rows(rows, p), rhs, p=p)
    assert x == _columns(support.solve_reference(rows, dense, p))


@pytest.mark.parametrize("p", [PRIME, None])
def test_sparse_kernel_matches_reference_on_seeded_matrices(p):
    rng = random.Random(97 if p else 98)
    shapes = [(n, n) for n in range(1, 9)] + [(2, 5), (5, 2), (3, 7), (7, 3), (4, 6), (6, 1)]
    singular = 0
    for k in range(300):
        m, ncols = shapes[k % len(shapes)]
        rows = [[_entry(rng, p) for _ in range(ncols)] for _ in range(m)]
        if m == ncols > 1 and k % 3 == 0:
            # a dependent row: a multiple of one plus a multiple of another
            a, b = rng.sample(range(m), 2)
            s, t = _entry(rng, p) or 1, _entry(rng, p)
            rows[k % m] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
            if p:
                rows[k % m] = [x % p for x in rows[k % m]]
        _assert_kernel_matches_reference(rows, ncols, p)
        if m == ncols:
            _assert_solve_matches_reference(rows, p, rng)
            singular += support.solve_reference(rows, [[1]] * m, p) is None
    assert singular > 20


def test_sparse_kernel_matches_reference_on_all_small_pinned_graphs():
    # at a random GF(p) configuration, and over the rationals on a 4 x 4
    # grid, where many positions are special and much fill cancels
    rng = random.Random(6)
    checked = singular = 0
    for n_inner in range(1, 7):
        for n_pins in range(7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                mats = [(build_rigidity_matrix(g, random_configuration(g, rng), field="mod"),
                         PRIME)]
                grid = {v: (rng.randint(0, 3), rng.randint(0, 3)) for v in g.vertices}
                if all(grid[u] != grid[v] for u, v in g.edges):
                    mats.append((build_rigidity_matrix(g, grid, field="rational"), None))
                    singular += matrix_rank(mats[1][0]) < g.m
                for mat, p in mats:
                    rows = [list(r) for r in support.dense_rows(mat)]
                    _assert_kernel_matches_reference(rows, mat.shape[1], p)
                    # the matrix's own dict rows, as the library reads them
                    expected = support.kernel_reference(rows, mat.shape[1], p)[1]
                    assert matrix_kernel(mat) == expected
                    _assert_solve_matches_reference(rows, p, rng)
                checked += len(mats)
    assert checked > 12000 and singular > 3000


# -- the float elimination against the loop it replaced ---------------------

def _seeded_float_matrices(rng):
    """Float rigidity matrices, 2,000 and more: random pinned graphs at
    random positions, and at near-degenerate ones (within 1e-9 of the y
    axis, or on a small grid moved by 10^-13..10^-7); random dict rows
    over 13 decades, a third with a row that is nearly a combination of two
    others; and the dyads of the cross-scale sweep in both orientations."""
    for k in range(800):
        n_inner = rng.randint(1, 4)
        inner = list(range(n_inner))
        pins = [f"P{i}" for i in range(rng.randint(2, 3))]
        pairs = ([(a, b) for a in inner for b in inner if a < b]
                 + [(a, p) for a in inner for p in pins])
        g = PinnedGraph(inner, pins, rng.sample(pairs, rng.randint(1, len(pairs))))
        vertices = sorted(g.vertices, key=str)
        noise = 10.0 ** rng.randint(-13, -7)
        if k % 3 == 0:
            config = {v: (rng.uniform(-5, 5), rng.uniform(-5, 5)) for v in vertices}
        elif k % 3 == 1:
            # within the cutoff of vertical, so the x columns wait for the y pivots
            config = {v: (rng.uniform(-1e-9, 1e-9), rng.uniform(-5, 5)) for v in vertices}
        else:
            config = {v: (rng.randint(0, 2) + rng.uniform(-noise, noise),
                          rng.randint(0, 2) + rng.uniform(-noise, noise))
                      for v in vertices}
        if all(config[u] != config[v] for u, v in g.edges):
            yield build_rigidity_matrix(g, config, field="float")
    for k in range(800):
        m, ncols = rng.randint(1, 6), 2 * rng.randint(1, 4)
        rows = [{c: rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** -rng.randint(0, 12)
                 for c in range(ncols) if rng.random() < 0.6} for _ in range(m)]
        if m > 2 and k % 3 == 0:
            (a, b), s = rng.sample(range(m), 2), rng.uniform(-3, 3)
            rows[0] = {c: rows[a].get(c, 0) + s * rows[b].get(c, 0)
                       + rng.uniform(-1e-10, 1e-10) for c in range(ncols)}
        yield numeric.RigidityMatrix(entries=tuple(rows), edges=(),
                                     columns=tuple(range(ncols // 2)), field="float")
    for config, _, _ in _dyad_sweep():
        for placed in (config, _turned(config)):
            yield build_rigidity_matrix(DYAD, placed)


def test_float_steps_extend_the_replaced_loop_on_seeded_matrices():
    """The steps of the float loop `_factor` replaced are a prefix of
    `_eliminate`'s, and each step after them pivots a column that loop
    skipped, on an entry above the cutoff."""
    checked = extended = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for mat in _seeded_float_matrices(random.Random(1957)):
            reference = support.factor_float_reference(mat.entries, mat.shape[1])
            steps, p = numeric._eliminate(mat)
            assert p is None and steps[:len(reference)] == reference, mat
            pivoted = {c for _, c, _, _ in reference}
            for _, c, inv, _ in steps[len(reference):]:
                assert c < mat.shape[1] and c not in pivoted, mat
                assert abs(1 / inv) > numeric.FLOAT_PIVOT_RTOL, mat
                pivoted.add(c)
            checked += 1
            extended += len(steps) > len(reference)
    assert checked > 2000 and extended > 15
