"""Command-line interface.

Exit codes: 0 when the queried property holds, 1 when it fails (the report
carries a machine-readable witness), 2 on input errors.  Randomized commands
take an explicit --seed and echo it in the report, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import assur as assur_mod
from . import counting, fileio, generate, numeric, pebble
from .errors import GraphError, NotIsostaticError, PinrigError
from .graphs import PinnedGraph, vkey

PASS, FAIL, ERROR = 0, 1, 2


def _emit(doc, path=None):
    """Print `doc` as JSON, after writing the same text to `path` if given."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _fail_input(msg):
    print(f"error: {msg}", file=sys.stderr)
    return ERROR


def _vertex_names(g):
    """The vertices of `g` by their string forms, the one way the CLI names
    a vertex; `_resolve_vertex` takes a name of exactly one."""
    names = {}
    for v in g.vertices:
        names.setdefault(str(v), []).append(v)
    return names


def _resolve_vertex(names, token):
    hits = names.get(token, ())
    if len(hits) != 1:
        raise GraphError(f"vertex {token!r} does not name exactly one vertex")
    return hits[0]


# -- dof -----------------------------------------------------------------------

def cmd_dof(args):
    schema = fileio.load_linkage(args.linkage)
    before = counting.grubler_dof(schema)
    reduced = counting.remove_drivers(schema)
    after = counting.grubler_dof(reduced)
    doc = {
        "F": before.dof,
        "link_count": before.link_count,
        "constraint_sum": before.constraint_sum,
        "lower_bound_caveat": before.overbraced,
        "after_driver_removal": {
            "F": after.dof,
            "link_count": after.link_count,
            "constraint_sum": after.constraint_sum,
            "lower_bound_caveat": after.overbraced,
        },
    }
    if before.overbraced:
        doc["overbraced_subcollection"] = list(before.overbraced_witness)
    if after.overbraced:
        doc["after_driver_removal"]["overbraced_subcollection"] = \
            list(after.overbraced_witness)
    _emit(doc)
    return PASS


# -- check ---------------------------------------------------------------------

def _check_laman(g):
    m = g.to_multigraph()
    report = pebble.pebble_rank(m)
    ok = not report.rejected
    doc = {"mode": "laman", "independent": ok, "rank": report.rank,
           "edges": m.m}
    if not ok:
        doc["rejected_edges"] = [list(e) for e in report.rejected_edges]
        witness = sorted(report.reach[report.rejected[0]], key=vkey)
        doc["witness_subgraph"] = {"vertices": witness,
                                   "bound": 2 * len(witness) - 3}
    return ok, doc


def _check_pinned(g):
    refusal, _ = pebble.pinned_gate(g)
    doc = {"mode": "pinned", "isostatic": refusal is None}
    if refusal and refusal.dof is None:
        doc["reason"] = str(refusal)
    elif refusal:
        doc["pinned_dof"] = refusal.dof
        if g.m != 2 * len(g.inner):
            doc["witness_count"] = {"edges": g.m, "required": 2 * len(g.inner)}
        else:
            sub_i, sub_p = refusal.witness
            bound = 2 * len(sub_i) - (0 if len(sub_p) >= 2 else 1 if sub_p else 3)
            doc["witness_subgraph"] = {"inner": list(sub_i), "pins": list(sub_p),
                                       "edges": g.induced(sub_i, sub_p).m,
                                       "bound": bound}
    return refusal is None, doc


def _assur_witness(verdict, doc):
    """Attach the culprit of a failing verdict from its decomposition, which
    has two or more components: component c1 is a proper pinned isostatic
    subgraph, and as a level-1 Assur component on ground pins its edges
    contract to a proper circuit of the pin contraction."""
    c1 = verdict.scheme.components[0].graph
    doc["witness_subgraph"] = {"inner": sorted(c1.inner, key=vkey),
                               "pins": sorted(c1.pins, key=vkey)}
    doc["witness_extra_circuit"] = [list(e) for e in c1.edges]


def cmd_check(args):
    g, _ = fileio.load_graph(args.graph)
    if args.mode == "laman":
        ok, doc = _check_laman(g)
    elif args.mode == "pinned":
        ok, doc = _check_pinned(g)
    else:
        methods = _parse_methods(args.method)
        verdict = assur_mod.is_assur(g, methods=methods, seed=args.seed)
        ok = verdict.overall
        doc = {"mode": "assur", "assur": ok, "seed": args.seed,
               "conditions": verdict.evaluated(),
               "disagreement": verdict.disagreement}
        if verdict.reason:
            doc["reason"] = verdict.reason
        if not ok and verdict.reason is None:
            _assur_witness(verdict, doc)
        if verdict.pinned_dof is not None:
            doc["pinned_dof"] = verdict.pinned_dof
    _emit(doc)
    return PASS if ok else FAIL


def _parse_methods(method):
    if method == "all":
        return assur_mod.ALL_METHODS
    return (method,)


# -- decompose -------------------------------------------------------------------

def cmd_decompose(args):
    g, _ = fileio.load_graph(args.graph)
    try:
        scheme = assur_mod.decompose(g, seed=args.seed)
    except NotIsostaticError as exc:
        _emit({"decomposable": False, "reason": str(exc),
               "pinned_dof": exc.dof})
        return FAIL
    # files first: an unwritable path exits 2 before any report is printed
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(fileio.scheme_to_dot(scheme))
    if args.json:
        fileio.write_json(fileio.scheme_to_dict(scheme), args.json)
    doc = scheme_report(scheme)
    if args.seed is not None:
        doc["seed"] = args.seed
    _emit(doc)
    return PASS


def scheme_report(scheme):
    """The scheme document of `fileio.scheme_to_dict` without ground pins and
    pin maps (identities here), with the component and level counts."""
    doc = fileio.scheme_to_dict(scheme)
    for c in doc["components"]:
        del c["pin_map"]
    return {"decomposable": True, "component_count": len(scheme.components),
            "levels": scheme.levels, "components": doc["components"],
            "covers": doc["covers"]}


# -- motion ----------------------------------------------------------------------

def _match_positions(names, raw):
    """Config files name each vertex by its string form, read by
    `_resolve_vertex`: a key naming two vertices is refused."""
    out = {}
    for name in names:
        if name not in raw:
            raise GraphError(f"configuration misses vertex {name!r}")
        out[_resolve_vertex(names, name)] = raw[name]
    return out


def cmd_motion(args):
    g, inline_pos = fileio.load_graph(args.graph)
    if not g.inner:
        return _fail_input("graph has no inner vertices")
    names = _vertex_names(g)
    if args.remove_edge:
        try:
            u_tok, w_tok = args.remove_edge.split(",")
        except ValueError:
            return _fail_input("--remove-edge expects 'u,w'")
        u = _resolve_vertex(names, u_tok.strip())
        w = _resolve_vertex(names, w_tok.strip())
        g = g.without_edge(u, w)

    doc = {"inner": sorted(g.inner, key=vkey), "edges": g.m}
    if args.config:
        config, source = _match_positions(names, fileio.load_positions(args.config)), "config"
    elif inline_pos and all(v in inline_pos for v in g.vertices):
        config, source = inline_pos, "inline positions"
    else:
        config = None
    if config is None:
        config = numeric.random_configuration(g, random.Random(args.seed))
        basis = numeric.motion_space(g, config, field="mod")
        doc.update({"source": "random generic configuration", "seed": args.seed,
                    "dim": basis.dim})
    else:
        basis = numeric.motion_space(g, config)
        doc.update({"source": source, "field": basis.field, "dim": basis.dim,
                    "basis": [{str(v): _velocity(xy, basis.field) for v, xy in vec.items()}
                              for vec in basis.vectors]})
    doc["moving"] = sorted(basis.moving, key=vkey)
    doc["fixed"] = sorted(set(g.inner) - basis.moving, key=vkey)
    doc["rigid"] = basis.dim == 0
    _emit(doc)
    return PASS


def _velocity(xy, field):
    """One vertex's entries of a basis vector as printed.  A float velocity
    whose entries both lie within FLOAT_PIVOT_RTOL of zero prints as
    [0.0, 0.0], the rule of `MotionBasis.moving`, so a fixed vertex shows
    no velocity; no entry prints as -0.0."""
    if field == "float" and max(map(abs, xy)) <= numeric.FLOAT_PIVOT_RTOL:
        return [0.0, 0.0]
    return [_pretty(x) for x in xy]


def _pretty(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return round(x, 12) + 0.0  # + 0.0 turns -0.0 into 0.0
    return x


# -- generate --------------------------------------------------------------------

def cmd_generate(args):
    if args.circuits == args.assur:
        return _fail_input("choose exactly one of --circuits / --assur")
    if args.circuits:
        classes = generate.circuit_classes(args.max_vertices)
        kind = "circuit"

        def to_doc(g):
            # circuits are plain graphs; store them with every vertex inner
            return fileio.graph_to_dict(PinnedGraph(g.vertices, (), g.edges))
    else:
        classes = generate.assur_classes(args.max_vertices)
        kind = "assur"
        to_doc = fileio.graph_to_dict
    counts = {str(n): len(reps) for n, reps in classes.items()}
    codes = {str(n): list(reps) for n, reps in classes.items()}
    # files first: an unwritable path exits 2 before any report is printed
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for n, reps in classes.items():
            for i, g in enumerate(reps.values()):
                path = os.path.join(args.out, f"{kind}_n{n}_{i}.json")
                fileio.write_json(to_doc(g), path)
    _emit({"kind": kind, "max_vertices": args.max_vertices,
           "counts": counts, "codes": codes})
    return PASS


# -- certify / verify --------------------------------------------------------------

def cmd_certify(args):
    g, _ = fileio.load_graph(args.graph)
    try:
        cert = generate.certify(g)
    except GraphError as exc:
        _emit({"certified": False, "reason": str(exc)})
        return FAIL
    _emit(fileio.certificate_to_dict(cert), args.out)
    return PASS


def cmd_verify(args):
    cert = fileio.load_certificate(args.certificate)
    ok = generate.verify_certificate(cert)
    _emit({"valid": ok, "claimed": fileio.claim_to_dict(cert.claimed)})
    return PASS if ok else FAIL


# -- entry point --------------------------------------------------------------------

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pinrig",
        description="Combinatorial rigidity analysis of pinned bar-and-joint graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dof", help="Grubler mobility count for a linkage file")
    p.add_argument("linkage")
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("check", help="check a graph property")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("laman", "pinned", "assur"), default="assur")
    p.add_argument("--method",
                   choices=("all", "i", "ii", "iii", "iv"), default="all",
                   help="which of the equivalent characterizations to run (assur mode)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="decompose into Assur components")
    p.add_argument("graph")
    p.add_argument("--dot", help="write the scheme DAG in DOT format")
    p.add_argument("--json", help="write the scheme as JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle edge insertion order (result is invariant)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("motion", help="first-order motion report")
    p.add_argument("graph")
    p.add_argument("--remove-edge", metavar="U,W")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file mapping vertex ids to [x, y]")
    p.set_defaults(func=cmd_motion)

    p = sub.add_parser("generate", help="enumerate circuit or Assur classes")
    p.add_argument("--circuits", action="store_true")
    p.add_argument("--assur", action="store_true")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--out", help="directory for one graph file per class")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("certify", help="construction certificate for an Assur graph")
    p.add_argument("graph")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="replay and check a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # input or output path alike: the message names the reason and the path
        return _fail_input(str(exc))
    except PinrigError as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
