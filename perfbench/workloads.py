"""Known-answer inputs for the benchmark workloads.

Every input is built by operations whose effect on the verdict is a theorem
about pinned graphs, so its expected answer comes from how it was built and
never from pinrig:

* a pinned edge-split (at most one pinned attachment) and a pin
  rearrangement take an Assur graph to an Assur graph;
* stacking Assur parts onto ground pins and onto each other's inner vertices
  gives a pinned isostatic graph whose Assur decomposition is exactly the
  stacked parts; a part's level is one more than the highest level it pins
  onto, and two or more parts make the whole non-Assur;
* deleting one edge of an Assur graph leaves exactly one pinned motion;
* edge-splits and 2-sums take rigidity circuits to circuits, and splitting
  one circuit vertex into two or more pins gives an Assur graph.

Sizes inside a round are stratified over the workload's range, so every
round has the same size mix whatever the seed; the seed only picks the
structure.  A size is a count of inner vertices, and the number of pins
goes with the size's place in the round, not with the seed: the cost of a
query grows steeply with its inner vertices, and the exhaustive oracles run
or not by the total count.  This keeps medians and percentiles comparable
across seeds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

# -- graphs under construction ------------------------------------------------


class Names:
    """Fresh vertex ids, unique within one generated input."""

    def __init__(self):
        self.count = 0

    def __call__(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"


@dataclass
class Pinned:
    inner: list
    pins: list
    edges: list

    @property
    def n(self):
        return len(self.inner) + len(self.pins)

    def doc(self):
        return {"vertices": [{"id": v, "kind": "inner"} for v in self.inner]
                + [{"id": p, "kind": "pinned"} for p in self.pins],
                "edges": [list(e) for e in self.edges]}

    def isolated_pins(self):
        touched = {x for e in self.edges for x in e}
        return [p for p in self.pins if p not in touched]


def dyad(new):
    v, p, q = new("v"), new("P"), new("P")
    return Pinned([v], [p, q], [(v, p), (v, q)])


def triad(new):
    a, b, c = new("v"), new("v"), new("v")
    q1, q2, q3 = new("P"), new("P"), new("P")
    return Pinned([a, b, c], [q1, q2, q3],
                  [(a, b), (b, c), (a, c), (a, q1), (b, q2), (c, q3)])


def basic5(new):
    """K4 with one vertex split into two pins."""
    a, b, c = new("v"), new("v"), new("v")
    pa, pb = new("P"), new("P")
    return Pinned([a, b, c], [pa, pb],
                  [(a, b), (a, c), (b, c), (a, pa), (b, pa), (c, pb)])


def edge_split(rng, g, new):
    """Replace an edge (u, w) by a new inner vertex joined to u, w and x."""
    pins = set(g.pins)
    everything = g.inner + g.pins
    while True:
        u, w = g.edges[rng.randrange(len(g.edges))]
        pinned = (u in pins) + (w in pins)
        cands = [x for x in everything
                 if x != u and x != w and pinned + (x in pins) <= 1]
        if cands:
            break
    x = cands[rng.randrange(len(cands))]
    v = new("v")
    g.edges.remove((u, w))
    g.edges += [(v, u), (v, w), (v, x)]
    g.inner.append(v)


def _pin_slots(g):
    pins = set(g.pins)
    return [a if b in pins else b for a, b in g.edges if a in pins or b in pins]


def pin_rearrange(rng, g, k, new):
    """Hand the pin-incident edges to k fresh pins, none empty, none doubled."""
    pins = set(g.pins)
    slots = _pin_slots(g)
    rng.shuffle(slots)
    fresh = [new("P") for _ in range(k)]
    used = {}
    pin_edges = []
    for i, v in enumerate(slots):
        taken = used.setdefault(v, set())
        if i < k:
            label = i
        else:
            free = [lab for lab in range(k) if lab not in taken]
            label = free[rng.randrange(len(free))]
        taken.add(label)
        pin_edges.append((v, fresh[label]))
    g.edges = [e for e in g.edges if e[0] not in pins and e[1] not in pins]
    g.edges += pin_edges
    g.pins = fresh


def grow_assur(rng, inner, pins, new):
    """An Assur graph with `inner` inner vertices (1, or 3 and more) and
    `pins` pins (2 for the dyad, 2 or 3 otherwise)."""
    if inner == 1:
        return dyad(new)
    g = (triad, basic5)[rng.randrange(2)](new)
    while len(g.inner) < inner:
        if rng.random() < 0.3:
            slots = _pin_slots(g)
            kmin = max(2, max(Counter(slots).values()))
            pin_rearrange(rng, g, rng.randint(kmin, min(4, len(slots))), new)
        else:
            edge_split(rng, g, new)
    # every vertex has at most one pin edge and there are at least 3 of
    # them, so any final pin count of 2 or 3 can be dealt
    pin_rearrange(rng, g, pins, new)
    return g


def stack(rng, parts, ground, choose=None):
    """Pin each part, in order, onto distinct vertices placed before it.

    Returns the stacked graph with untargeted ground pins dropped, and the
    expected decomposition: one (level, edge set) pair per part.
    """
    level = dict.fromkeys(ground, 0)
    inner, edges, expected = [], [], []
    for part in parts:
        pool = ground + inner
        targets = (choose(part, pool) if choose
                   else rng.sample(pool, len(part.pins)))
        to = dict(zip(part.pins, targets))
        lvl = 1 + max(level[t] for t in targets)
        pe = [(to.get(a, a), to.get(b, b)) for a, b in part.edges]
        for v in part.inner:
            level[v] = lvl
        inner += part.inner
        edges += pe
        expected.append((lvl, frozenset(frozenset(e) for e in pe)))
    touched = {x for e in edges for x in e}
    return Pinned(inner, [p for p in ground if p in touched], edges), expected


def composition(rng, inner, new):
    """Two or more Assur parts stacked on 3 ground pins, `inner` (2 or more)
    inner vertices in all."""
    parts, placed = [], 0
    while placed < inner:
        # the first part leaves room for a second
        room = inner - placed - (0 if parts else 1)
        r = rng.random()
        if room >= 4 and r < 0.3:
            part = grow_assur(rng, rng.randint(4, min(7, room)), rng.randint(2, 3), new)
        elif room >= 3 and r < 0.8:
            part = (triad, basic5)[rng.randrange(2)](new)
        else:
            part = dyad(new)
        parts.append(part)
        placed += len(part.inner)
    return stack(rng, parts, [new("G") for _ in range(3)])


def dyad_chain(rng, levels, new):
    """Dyad k pins onto dyad k-1 and onto the ground or an older dyad."""
    ground = [new("G") for _ in range(3)]
    parts = [dyad(new) for _ in range(levels)]

    def choose(part, pool):
        if len(pool) == len(ground):
            return rng.sample(ground, 2)
        below = pool[:-1]
        return [pool[-1], below[rng.randrange(len(below))]]

    return stack(rng, parts, ground, choose)


def layered(rng, inner_target, new):
    """Dyads, triads and basic 5-vertex parts pinned onto random vertices."""
    ground = [new("G") for _ in range(3)]
    parts, inner = [], 0
    while inner < inner_target:
        part = (dyad, triad, basic5)[rng.randrange(3)](new)
        parts.append(part)
        inner += len(part.inner)
    return stack(rng, parts, ground)


def circuit(rng, nv, two_sums, names):
    """A rigidity circuit on nv vertices: K4, then `two_sums` 2-sums with K4
    (two new vertices each) and edge-splits (one each), in random order.
    Returns (vertices, edges)."""
    verts = [names("c") for _ in range(4)]
    edges = [(verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)]
    ops = [True] * two_sums + [False] * (nv - 4 - 2 * two_sums)
    rng.shuffle(ops)
    for two_sum in ops:
        u, w = edges.pop(rng.randrange(len(edges)))
        if two_sum:
            c, d = names("c"), names("c")
            edges += [(u, c), (u, d), (w, c), (w, d), (c, d)]
            verts += [c, d]
        else:
            x = rng.choice([v for v in verts if v != u and v != w])
            v = names("c")
            edges += [(v, u), (v, w), (v, x)]
            verts.append(v)
    return verts, edges


def pin_split(rng, verts, edges, names, k):
    """Split one circuit vertex into k pins (2 or 3; circuit vertices have
    degree 3 or more): an Assur graph."""
    star = verts[rng.randrange(len(verts))]
    nbrs = [b if a == star else a for a, b in edges if star in (a, b)]
    rng.shuffle(nbrs)
    pins = [names("P") for _ in range(k)]
    pin_edges = [(v, pins[i if i < k else rng.randrange(k)])
                 for i, v in enumerate(nbrs)]
    rest = [e for e in edges if star not in e]
    return Pinned([v for v in verts if v != star], pins, rest + pin_edges)


def split_certificate(rng, nv, names, claimed):
    """A certificate document in pinrig's format: K4, edge-splits, pin-split.

    The steps replay; `claimed` is put in as given.
    """
    base = [names("c") for _ in range(4)]
    verts = list(base)
    edges = [(base[i], base[j]) for i in range(4) for j in range(i + 1, 4)]
    steps = []
    while len(verts) < nv:
        u, w = edges.pop(rng.randrange(len(edges)))
        x = rng.choice([v for v in verts if v != u and v != w])
        v = names("c")
        edges += [(v, u), (v, w), (v, x)]
        verts.append(v)
        steps.append({"kind": "edge-split", "u": u, "w": w, "x": x, "v": v})
    star = verts[rng.randrange(len(verts))]
    nbrs = [b if a == star else a for a, b in edges if star in (a, b)]
    assignment = [[v, names("P")] for v in nbrs]
    steps.append({"kind": "pin-split", "vertex": star, "assignment": assignment})
    return {"base": {"kind": "k4", "vertices": base}, "steps": steps,
            "claimed": claimed}


# -- queries and known answers ---------------------------------------------------


@dataclass
class Query:
    """One closed-loop query: its input files and its known answer.

    `argvs` are pinrig command lines with ``{in}`` and ``{cert}`` standing for
    the query's files; a later command runs only after the previous one
    exited 0.
    """

    kind: str
    files: dict
    argvs: list
    expect: dict

    def materialize(self, path_of):
        """Write the input files; `path_of(name)` gives each file's path."""
        paths = {name: path_of(name) for name in ("in", "cert")}
        for name, doc in self.files.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
        self.argvs = [[a.format_map(paths) for a in argv] for argv in self.argvs]
        self.files = {}


def _van_der_corput(i):
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


def stratified(lo, hi, k, r, log=False):
    """k sizes in [lo, hi] for round r, one from each of k equal slices of
    the range (of its logarithm with `log`).

    The offset inside the slices follows a van der Corput sequence over the
    rounds, so the first R rounds cover every slice evenly for any R, and the
    sizes are the same for every seed.
    """
    u = _van_der_corput(r + 1)
    out = []
    for i in range(k):
        q = (i + u) / k
        out.append(round(lo * (hi / lo) ** q) if log
                   else lo + int(q * (hi - lo + 1)))
    return out


def _check_argv(seed):
    return ["check", "{in}", "--mode", "assur", "--method", "all",
            "--seed", str(seed)]


def assur_query(rng, inner, pins):
    g = grow_assur(rng, inner, pins, Names())
    return Query("assur", {"in": g.doc()}, [_check_argv(rng.randrange(1000))],
                 {"exit": 0, "assur": True, "conditions": True})


def composition_query(rng, inner):
    """Two or more stacked Assur parts: pinned isostatic, not Assur."""
    g, _ = composition(rng, inner, Names())
    return Query("composition", {"in": g.doc()},
                 [_check_argv(rng.randrange(1000))],
                 {"exit": 1, "assur": False, "conditions": False})


def edge_deleted_query(rng, inner, pins):
    g = grow_assur(rng, inner, pins, Names())
    g.edges.pop(rng.randrange(len(g.edges)))
    return Query("edge_deleted", {"in": g.doc()},
                 [_check_argv(rng.randrange(1000))],
                 {"exit": 1, "assur": False, "pinned_dof": 1})


def malformed_queries():
    """Inputs whose known answer is exit code 2 (input error)."""
    boolean_ids = {"vertices": [{"id": True, "kind": "inner"},
                                {"id": 1, "kind": "inner"},
                                {"id": "p", "kind": "pinned"},
                                {"id": "q", "kind": "pinned"}],
                   "edges": [[True, "p"], [True, "q"], [1, "p"], [1, "q"]]}
    argv = ["check", "{in}", "--mode", "assur"]
    return [Query("malformed_vertices_int", {"in": {"vertices": 5, "edges": []}},
                  [argv], {"exit": 2}),
            Query("malformed_boolean_ids", {"in": boolean_ids}, [argv],
                  {"exit": 2})]


def decompose_query(kind, g, parts):
    return Query(kind, {"in": g.doc()}, [["decompose", "{in}"]],
                 {"exit": 0, "levels": max(lvl for lvl, _ in parts),
                  "components": frozenset(parts)})


def certify_query(rng, inner, pins, two_sum_share):
    """Round trip on a split into `pins` pins of a circuit on inner + 1
    vertices, with `two_sum_share` of the vertices added to K4 coming from
    2-sums."""
    names = Names()
    nv = inner + 1
    verts, edges = circuit(rng, nv, round(two_sum_share * (nv - 4) / 2), names)
    g = pin_split(rng, verts, edges, names, pins)
    return Query("roundtrip", {"in": g.doc()},
                 [["certify", "{in}", "--out", "{cert}"], ["verify", "{cert}"]],
                 {"exit": 0})


def tampered_queries(rng):
    """Certificates that replay but claim a wrong code (exit 1), and one
    whose edge-split step lacks its third attachment (exit 2)."""
    names = Names()
    claimed = split_certificate(rng, rng.randint(6, 10), names,
                                "tampered: not a canonical code")
    missing = split_certificate(rng, rng.randint(6, 10), names, "P0||")
    first = missing["steps"][0]
    missing["steps"][0] = {k: v for k, v in first.items() if k != "x"}
    return [Query("tampered_claimed", {"cert": claimed}, [["verify", "{cert}"]],
                  {"exit": 1, "valid": False}),
            Query("missing_param", {"cert": missing}, [["verify", "{cert}"]],
                  {"exit": 2})]


def check(q, outcomes):
    """Classify a query's outcome against its known answer.

    `outcomes` lists (exit code, stdout) per command run; the exit code is
    None when an exception escaped ``cli.main``.  Returns ``"ok"``,
    ``"failed"`` (crash, exit 2 where a verdict was due, or a certificate
    search that gave up) or ``"wrong"``.
    """
    codes = [c for c, _ in outcomes]
    if None in codes:
        return "failed"
    want = q.expect["exit"]
    if want != 2 and 2 in codes:
        return "failed"
    if q.kind == "roundtrip":
        return _check_roundtrip(outcomes)
    if codes[-1] != want:
        return "wrong"
    if want == 2:
        return "ok"
    doc = json.loads(outcomes[-1][1])
    if "levels" in q.expect:
        return "ok" if _decomposition_matches(q.expect, doc) else "wrong"
    if "valid" in q.expect:
        return "ok" if doc.get("valid") is q.expect["valid"] else "wrong"
    return "ok" if _assur_matches(q.expect, doc) else "wrong"


def _assur_matches(expect, doc):
    if doc.get("assur") is not expect["assur"] or doc.get("disagreement"):
        return False
    if "conditions" in expect:
        conds = doc.get("conditions") or {}
        if not conds or any(v is not expect["conditions"] for v in conds.values()):
            return False
    if "pinned_dof" in expect and doc.get("pinned_dof") != expect["pinned_dof"]:
        return False
    return True


def _decomposition_matches(expect, doc):
    if doc.get("decomposable") is not True or doc.get("levels") != expect["levels"]:
        return False
    got = frozenset((c["level"], frozenset(frozenset(e) for e in c["edges"]))
                    for c in doc.get("components", ()))
    return got == expect["components"] and len(doc["components"]) == len(got)


def _check_roundtrip(outcomes):
    (c1, out1), *rest = outcomes
    if c1 != 0:
        # the input is Assur: a search that gave up is a failure, a refusal
        # to certify is a wrong verdict
        reason = json.loads(out1).get("reason", "")
        return "failed" if "search" in reason else "wrong"
    (c2, out2), = rest
    cert, verdict = json.loads(out1), json.loads(out2)
    if c2 == 0 and verdict.get("valid") is True and \
            verdict.get("claimed") == cert.get("claimed"):
        return "ok"
    return "wrong"


# -- workloads ---------------------------------------------------------------------


def _pins(i):
    """Pins of the i-th size of a round: 2 and 3 in turn."""
    return 2 + i % 2


def assur_check_round(rng, r):
    """24 queries: 10 Assur (a dyad and 3-20 inner vertices), 10
    compositions (2-21 inner), 2 edge-deleted (3-20 inner), 2 malformed;
    3-24 vertices in all."""
    qs = [assur_query(rng, 1, 2)]
    qs += [assur_query(rng, n, _pins(i)) for i, n in enumerate(stratified(3, 20, 9, r))]
    qs += [composition_query(rng, n) for n in stratified(2, 21, 10, r)]
    qs += [edge_deleted_query(rng, n, _pins(i))
           for i, n in enumerate(stratified(3, 20, 2, r))]
    qs += malformed_queries()
    rng.shuffle(qs)
    return qs


def decompose_round(rng, r):
    """12 queries: 3 serial dyad chains of 50-300 levels (log scale), 9
    layered compositions of 100-400 inner vertices."""
    qs = [decompose_query("chain", *dyad_chain(rng, lv, Names()))
          for lv in stratified(50, 300, 3, r, log=True)]
    qs += [decompose_query("layered", *layered(rng, n, Names()))
           for n in stratified(100, 400, 9, r)]
    rng.shuffle(qs)
    return qs


CERTIFY_TWO_SUM_SHARE = 0.3


def certify_round(rng, r):
    """12 queries: 10 certify+verify round trips on 6-32 inner vertices, 2
    tampered certificates.

    Sizes are spread linearly: on a log scale the median query fell among
    10-12 inner vertices, where the canonical-code memo of the search makes
    latency jump with size and structure.
    """
    qs = [certify_query(rng, n, _pins(i), CERTIFY_TWO_SUM_SHARE)
          for i, n in enumerate(stratified(6, 32, 10, r))]
    qs += tampered_queries(rng)
    rng.shuffle(qs)
    return qs


@dataclass(frozen=True)
class Workload:
    make_round: object
    warmup: object


WORKLOADS = {
    "assur_check": Workload(assur_check_round,
                            lambda rng: assur_query(rng, 6, 2)),
    "decompose_deep": Workload(decompose_round,
                               lambda rng: decompose_query(
                                   "chain", *dyad_chain(rng, 20, Names()))),
    "certify_roundtrip": Workload(certify_round,
                                  lambda rng: certify_query(rng, 8, 2, 0.0)),
}
