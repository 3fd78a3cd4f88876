"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Budgets are asserted against the wall clock; every numeric target
is pinned here, nothing is deferred to later calibration.
"""

import random
import time
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import support
from conftest import SAMPLES
from support import all_inner_move, generic_rank_randomized
from pinrig.assur import (check_circuit_condition, check_edge_deletion,
                          check_minimality, check_vertex_deletion, decompose,
                          is_assur, recompose)
from pinrig.canon import canonical_code
from pinrig.counting import (circuit_oracle, grubler_dof,
                             laman_independent_oracle,
                             pinned_conditions_oracle, remove_drivers)
from pinrig.fileio import load_linkage
from pinrig.generate import (assur_catalog, certify, circuit_catalog,
                             edge_split, enumerate_assur, pin_rearrangement,
                             step, two_sum, verify_certificate, vertex_split,
                             _set_partitions)
from pinrig.graphs import (Multigraph, PinnedGraph, complete_graph, compose, fresh_id,
                           vkey)
from pinrig.pebble import pebble_rank

SEED = 20260810


def _report(number, ok, detail, started):
    elapsed = time.monotonic() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {verdict} - {detail} ({elapsed:.1f}s)")


def _simple_graph_corpus():
    """All labeled simple graphs on 2..6 vertices plus 200 seeded 7-8 vertex
    random graphs."""
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield Multigraph(range(n), edges)
    rng = random.Random(SEED)
    for k in range(200):
        n = 7 + (k % 2)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, 2 * n + 3)
        yield Multigraph(range(n), rng.sample(pairs, m))


@lru_cache(maxsize=None)
def _pinned_isostatic_classes():
    """One representative per isomorphism class of pinned isostatic graphs on
    at most 6 total vertices, skipping graphs with isolated pins (the
    contraction erases those, so the characterizations stop being comparable)."""
    reps = {}
    for n_inner in range(1, 5):
        for n_pins in range(2, 7 - n_inner):
            for g in support.all_pinned_graphs(n_inner, n_pins):
                if g.isolated_pins():
                    continue
                if not pinned_conditions_oracle(g):
                    continue
                reps.setdefault(canonical_code(g), g)
    return tuple(reps[c] for c in sorted(reps))


@lru_cache(maxsize=None)
def _assur_catalog_6():
    return assur_catalog(6)


def test_criterion_01_grubler_reproduction():
    started = time.monotonic()
    schema = load_linkage(SAMPLES / "excavator.json")
    before = grubler_dof(schema)
    after = grubler_dof(remove_drivers(schema))
    ok = (before.dof == 2 and before.link_count == 9
          and before.constraint_sum == 11
          and after.dof == 0 and after.link_count == 7
          and after.constraint_sum == 9)
    _report(1, ok, f"excavator F={before.dof}, after driver removal F={after.dof}",
            started)
    assert ok
    assert time.monotonic() - started < 1.0


def test_criterion_02_laman_equivalence():
    started = time.monotonic()
    mismatches = 0
    total = 0
    for g in _simple_graph_corpus():
        total += 1
        if laman_independent_oracle(g) != (not pebble_rank(g).rejected):
            mismatches += 1
    ok = mismatches == 0
    _report(2, ok, f"{total} graphs, {mismatches} mismatches", started)
    assert ok
    assert time.monotonic() - started < 60.0


def test_criterion_03_rank_consistency():
    started = time.monotonic()
    mismatches = 0
    total = 0
    for i, g in enumerate(_simple_graph_corpus()):
        total += 1
        if generic_rank_randomized(g, seed=SEED + i, trials=3) != pebble_rank(g).rank:
            mismatches += 1
    ok = mismatches == 0
    _report(3, ok, f"{total} graphs, {mismatches} mismatches", started)
    assert ok
    assert time.monotonic() - started < 60.0


def test_criterion_04_circuit_facts():
    started = time.monotonic()
    catalog = circuit_catalog(6)
    even = all(g.m % 2 == 0 for graphs in catalog.values() for g in graphs)

    enum4 = {canonical_code(g) for g in catalog[4]}
    ok4 = enum4 == {canonical_code(complete_graph(4))}

    sweep5 = {canonical_code(g) for g in support.all_simple_graphs(5, m=8)
              if circuit_oracle(g)}
    enum5 = {canonical_code(g) for g in catalog[5]}
    ok5 = enum5 == sweep5 and len(enum5) == 1

    sweep6 = {canonical_code(g) for g in support.all_simple_graphs(6, m=10)
              if circuit_oracle(g)}
    enum6 = {canonical_code(g) for g in catalog[6]}
    ok6 = enum6 == sweep6

    oracle_all = all(circuit_oracle(g)
                     for graphs in catalog.values() for g in graphs)
    ok = even and ok4 and ok5 and ok6 and oracle_all
    _report(4, ok, f"classes by size {({n: len(v) for n, v in catalog.items()})}, "
                   f"sweep(6)={len(sweep6)}", started)
    assert even and ok4 and ok5 and ok6 and oracle_all
    assert time.monotonic() - started < 300.0


def test_criterion_05_assur_counts():
    started = time.monotonic()
    catalog = _assur_catalog_6()
    ok3 = len(catalog.get(3, ())) == 1
    ok4 = 4 not in catalog

    sweep = set()
    for g in _pinned_isostatic_classes():
        if check_minimality(g):
            sweep.add(canonical_code(g))
    # graphs with isolated pins are excluded from the class list already;
    # they can never be minimal, so the sweep is unaffected
    enum = enumerate_assur(6)
    ok_sweep = enum == sweep
    ok = ok3 and ok4 and ok_sweep
    _report(5, ok, f"classes {({n: len(v) for n, v in catalog.items()})}, "
                   f"sweep total {len(sweep)}", started)
    assert ok3 and ok4 and ok_sweep
    assert time.monotonic() - started < 300.0


def test_criterion_06_characterization_equivalence():
    started = time.monotonic()
    disagreements = 0
    classes = _pinned_isostatic_classes()
    for i, g in enumerate(classes):
        results = {
            "minimality": check_minimality(g),
            "circuit": check_circuit_condition(g),
            "vertex_deletion": check_vertex_deletion(g, seed=SEED + i, trials=8),
            "edge_deletion": check_edge_deletion(g, seed=SEED - i, trials=8),
        }
        if len(set(results.values())) > 1:
            disagreements += 1
    ok = disagreements == 0
    _report(6, ok, f"{len(classes)} pinned isostatic classes, "
                   f"{disagreements} disagreements", started)
    assert ok
    assert time.monotonic() - started < 300.0


def _random_composition(rng, max_inner=12):
    library = (support.dyad, support.triad, support.basic_5)
    g = PinnedGraph((), {"G1", "G2", "G3"}, [])
    budget = rng.randint(1, max_inner)
    tag = 0
    while len(g.inner) < budget:
        part = library[rng.randrange(len(library))]()
        if len(g.inner) + len(part.inner) > max_inner:
            part = support.dyad()
        tagged = part.relabeled({v: f"{tag}.{v}" for v in part.vertices})
        tag += 1
        pool = sorted(g.inner | g.pins, key=str)
        targets = rng.sample(pool, len(tagged.pins))
        g = compose(tagged, g, dict(zip(sorted(tagged.pins, key=str), targets)))
    return g


def _partition_signature(scheme):
    parts = sorted((c.level, tuple(sorted(c.graph.edges, key=str)))
                   for c in scheme.components)
    covers = sorted(
        (tuple(sorted(scheme.component(a).graph.edges, key=str)),
         tuple(sorted(scheme.component(b).graph.edges, key=str)))
        for a, b in scheme.covers)
    return parts, covers


def test_criterion_07_decomposition():
    started = time.monotonic()
    rng = random.Random(SEED)
    failures = 0
    for trial in range(100):
        g = _random_composition(rng)
        scheme = decompose(g)
        for comp in scheme.components:
            if not is_assur(comp.graph, seed=SEED + trial).overall:
                failures += 1
        signature = _partition_signature(scheme)
        for shuffle in range(20):
            other = decompose(g, seed=rng.randrange(2 ** 32))
            if _partition_signature(other) != signature:
                failures += 1
        back = recompose(scheme)
        if back != g:
            failures += 1
        bound = max(12, g.n)
        if canonical_code(back, bound) != canonical_code(g, bound):
            failures += 1
    ok = failures == 0
    _report(7, ok, f"100 compositions x 20 shuffles, {failures} failures", started)
    assert ok
    assert time.monotonic() - started < 120.0


def test_criterion_08_operation_closure():
    started = time.monotonic()
    rng = random.Random(SEED)
    failures = 0
    current = complete_graph(4)
    applied = 0
    while applied < 500:
        if current.n > 7:
            current = complete_graph(4)
        op = rng.choice(("edge-split", "vertex-split", "two-sum"))
        if op == "edge-split":
            e = current.edges[rng.randrange(current.m)]
            pool = sorted(current.vertices - set(e), key=str)
            current = edge_split(current, e, pool[rng.randrange(len(pool))])
        elif op == "vertex-split":
            v = sorted(current.vertices, key=str)[rng.randrange(current.n)]
            nbrs = sorted(current.neighbors(v).elements(), key=str)
            if len(set(nbrs)) < 3:
                continue
            shared = nbrs[rng.randrange(len(nbrs))]
            rest = [x for x in nbrs if x != shared]
            k = rng.randint(1, len(rest) - 1)
            current = vertex_split(current, v, shared, rest[:k])
        else:
            other = complete_graph(4).relabeled(
                {i: f"t{applied}.{i}" for i in range(4)})
            e1 = current.edges[rng.randrange(current.m)]
            current = two_sum(current, other, e1,
                              (f"t{applied}.0", f"t{applied}.1"),
                              flip=rng.random() < 0.5)
        applied += 1
        if not circuit_oracle(current):
            failures += 1

    splits = rearrangements = 0
    for n, graphs in _assur_catalog_6().items():
        for g in graphs:
            if g.n >= 4:
                for e in g.edges:
                    for x in sorted(g.vertices - set(e), key=str):
                        if sum(1 for t in (e[0], e[1], x) if t in g.pins) > 1:
                            continue  # refused: no circuit-level counterpart
                        grown = edge_split(g, e, x)
                        splits += 1
                        if not is_assur(grown, seed=SEED).overall:
                            failures += 1
            slots = [(u, v) if v in g.pins else (v, u)
                     for u, v in g.edges if u in g.pins or v in g.pins]
            inners = [i for i, _ in slots]
            for blocks in _set_partitions(inners):
                if len(blocks) < 2:
                    continue
                assignment = [(x, f"r{bi}") for bi, block in enumerate(blocks)
                              for x in block]
                moved = pin_rearrangement(g, assignment)
                rearrangements += 1
                if not is_assur(moved, seed=SEED).overall:
                    failures += 1
    ok = failures == 0
    _report(8, ok, f"500 circuit ops, {splits} pinned edge-splits, "
                   f"{rearrangements} pin rearrangements, {failures} failures",
            started)
    assert ok
    assert time.monotonic() - started < 120.0


def _one_edge_moved(g):
    """`g` with its first edge's inner end joined to a vertex it misses (a
    new pin when it misses none) in place of the edge's other end."""
    (u, v), *rest = g.edges
    x = u if u in g.inner else v
    missed = sorted(g.vertices - g.neighbors(x) - {x}, key=vkey)
    w = missed[0] if missed else fresh_id(g.vertices, "p")
    return PinnedGraph(g.inner, g.pins | ({w} - g.vertices), rest + [(x, w)])


def test_criterion_09_certificates():
    started = time.monotonic()
    failures = 0
    certified = 0
    for n, graphs in _assur_catalog_6().items():
        for g in graphs:
            cert = certify(g)
            certified += 1
            if not verify_certificate(cert):
                failures += 1
            if cert.claimed != g:
                failures += 1
            # single-step tampering must be rejected
            moved = _one_edge_moved(g)
            if moved == g or verify_certificate(replace(cert, claimed=moved)):
                failures += 1
            if cert.steps:
                broken = replace(cert, steps=cert.steps[:-1])
                if verify_certificate(broken):
                    failures += 1
                last = cert.steps[-1]
                if last.kind == "pin-split":
                    mangled = step("pin-split", vertex=last.get("vertex"),
                                   assignment=last.get("assignment")[:-1])
                    if verify_certificate(replace(cert, steps=cert.steps[:-1] + (mangled,))):
                        failures += 1
    ok = failures == 0
    _report(9, ok, f"{certified} certificates round-tripped, tampering rejected, "
                   f"{failures} failures", started)
    assert ok
    assert time.monotonic() - started < 120.0


def test_criterion_10_motion_semantics():
    started = time.monotonic()
    failures = 0
    assur_codes = set()
    checked_edges = 0
    for n, graphs in _assur_catalog_6().items():
        for g in graphs:
            assur_codes.add(canonical_code(g))
            for i, (u, v) in enumerate(g.edges):
                checked_edges += 1
                if not all_inner_move(g.without_edge(u, v),
                                      seed=SEED + i, trials=8):
                    failures += 1
    non_assur = [g for g in _pinned_isostatic_classes()
                 if canonical_code(g) not in assur_codes]
    for g in non_assur:
        if all(all_inner_move(g.without_edge(u, v), seed=SEED, trials=8)
               for u, v in g.edges):
            failures += 1
    ok = failures == 0
    _report(10, ok, f"{checked_edges} edge deletions on Assur classes, "
                    f"{len(non_assur)} non-Assur classes each pin a vertex, "
                    f"{failures} failures", started)
    assert ok
    assert time.monotonic() - started < 120.0
