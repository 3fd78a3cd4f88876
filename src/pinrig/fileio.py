"""File formats (JSON) and DOT emission for the command-line surface.

Graph files::

    {"vertices": [{"id": "a", "kind": "inner", "pos": [0, 1]}, ...],
     "edges": [["a", "p1"], ...]}

`kind` is ``inner`` or ``pinned``; `pos` is optional.  Edges between two
pinned vertices are irrelevant to the analysis and are dropped with a warning
rather than rejected (engineering inputs often include ground bracing).

Linkage files::

    {"links": ["ground", "2", {"id": "1", "driver": true}, ...],
     "ground": "ground",
     "joints": [{"incident": ["ground", "1"]}, ...]}

A ``driver`` marker is ``true`` or ``false``.

Scheme and certificate documents round-trip the corresponding in-memory
objects; vertex ids keep their JSON types (ints stay ints).  A scheme
component's pins are the vertex ids it attaches to; the identity
``pin_map`` that earlier scheme files carry is accepted and ignored.  A
certificate's ``claimed`` is a graph document; a 2-sum operand has none.
"""

from __future__ import annotations

import json
import math
import warnings

from .assur import AssurComponent, AssurScheme
from .counting import LinkageSchema
from .errors import GraphError, PinrigWarning
from .generate import STEPS, Certificate, ConstructionStep
from .graphs import PinnedGraph, vkey


def _as_pairs(edges):
    return [[u, v] for u, v in edges]


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise GraphError(f"invalid JSON in {path}: {exc}") from None


def _point(value, what):
    """An [x, y] pair of finite numbers, as a tuple (JSON files may hold
    NaN and Infinity)."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(c, int) and not isinstance(c, bool)
                    or isinstance(c, float) and math.isfinite(c) for c in value)):
        raise GraphError(f"{what} must be [x, y] of finite numbers, got {value!r}")
    return value[0], value[1]


def _json_id(x, what="vertex"):
    # JSON true would collide with 1 (and false with 0) in sets and dicts;
    # NaN is unequal to itself, and neither it nor Infinity is valid JSON out
    if isinstance(x, (list, dict, bool)) or isinstance(x, float) and not math.isfinite(x):
        raise GraphError(f"{what} id must be a string or finite number, got {x!r}")
    return x


def _list(value, what):
    if not isinstance(value, list):
        raise GraphError(f"{what} must be a list, got {value!r}")
    return value


def _id_list(value, what):
    return [_json_id(x) for x in _list(value, what)]


def _pair(value, what):
    """A two-element list of ids, as a tuple."""
    if not (isinstance(value, list) and len(value) == 2):
        raise GraphError(f"bad {what} entry {value!r}")
    return _json_id(value[0]), _json_id(value[1])


def _pairs(value, what):
    return [_pair(x, what) for x in _list(value, f"{what} list")]


# -- graphs -------------------------------------------------------------------

def graph_from_dict(doc: dict) -> tuple:
    """Parse a graph document; returns (PinnedGraph, positions or None)."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphError("graph document needs 'vertices' and 'edges'")
    if not (isinstance(doc["vertices"], list) and isinstance(doc["edges"], list)):
        raise GraphError("graph 'vertices' and 'edges' must be lists")
    inner, pins = [], []
    positions = {}
    seen = set()
    for entry in doc["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphError(f"bad vertex entry {entry!r}")
        vid = _json_id(entry["id"])
        if vid in seen:
            raise GraphError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
        kind = entry.get("kind", "inner")
        if kind == "inner":
            inner.append(vid)
        elif kind == "pinned":
            pins.append(vid)
        else:
            raise GraphError(f"vertex kind must be 'inner' or 'pinned', got {kind!r}")
        if "pos" in entry:
            positions[vid] = _point(entry["pos"], "pos")
    pin_set = set(pins)
    edges = []
    for pair in doc["edges"]:
        u, v = _pair(pair, "edge")
        if u in pin_set and v in pin_set:
            warnings.warn(f"dropping edge {u!r}-{v!r} between pinned vertices",
                          PinrigWarning, stacklevel=2)
            continue
        edges.append((u, v))
    graph = PinnedGraph(inner, pins, edges)
    return graph, (positions or None)


def graph_to_dict(g: PinnedGraph, positions=None) -> dict:
    verts = []
    for kind, vs in (("inner", g.inner), ("pinned", g.pins)):
        for v in sorted(vs, key=vkey):
            entry = {"id": v, "kind": kind}
            if positions and v in positions:
                entry["pos"] = list(positions[v])
            verts.append(entry)
    return {"vertices": verts, "edges": _as_pairs(g.edges)}


def write_json(doc, path):
    """Write `doc` to `path` as indented JSON and a final newline, encoded
    whole and written at once (`json.dump` writes each encoder chunk)."""
    text = json.dumps(doc, indent=2, default=str) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_graph(path):
    return graph_from_dict(_load_json(path))


def load_positions(path) -> dict:
    """A configuration file mapping vertex ids (as strings) to [x, y]."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise GraphError("config file must map vertex ids to [x, y]")
    return {k: _point(v, f"position of {k!r}") for k, v in doc.items()}


# -- linkages -----------------------------------------------------------------

def linkage_from_dict(doc: dict) -> LinkageSchema:
    if not isinstance(doc, dict) or "links" not in doc or "joints" not in doc:
        raise GraphError("linkage document needs 'links' and 'joints'")
    if not (isinstance(doc["links"], list) and isinstance(doc["joints"], list)):
        raise GraphError("linkage 'links' and 'joints' must be lists")
    links, drivers = set(), []
    for entry in doc["links"]:
        if isinstance(entry, dict):
            if "id" not in entry:
                raise GraphError(f"bad link entry {entry!r}")
            lid = _json_id(entry["id"], "link")
            driver = entry.get("driver", False)
            if not isinstance(driver, bool):
                raise GraphError(f"link {lid!r}: driver must be true or false, "
                                 f"got {driver!r}")
            if driver:
                drivers.append(lid)
        else:
            lid = _json_id(entry, "link")
        if lid in links:
            raise GraphError(f"duplicate link id {lid!r}")
        links.add(lid)
    if "ground" not in doc:
        raise GraphError("linkage document needs a 'ground' link id")
    joints = []
    for entry in doc["joints"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("incident"), list)):
            raise GraphError(f"bad joint entry {entry!r}")
        joints.append(frozenset(_json_id(x, "link") for x in entry["incident"]))
    return LinkageSchema(links=frozenset(links), joints=tuple(joints),
                         ground=_json_id(doc["ground"], "link"),
                         drivers=frozenset(drivers))


def linkage_to_dict(s: LinkageSchema) -> dict:
    links = []
    for lid in sorted(s.links, key=vkey):
        if lid in s.drivers:
            links.append({"id": lid, "driver": True})
        else:
            links.append(lid)
    return {"links": links, "ground": s.ground,
            "joints": [{"incident": sorted(j, key=vkey)} for j in s.joints]}


def load_linkage(path) -> LinkageSchema:
    return linkage_from_dict(_load_json(path))


# -- schemes --------------------------------------------------------------------

def scheme_to_dict(s: AssurScheme) -> dict:
    comps = []
    for c in s.components:
        comps.append({
            "id": c.cid,
            "level": c.level,
            "inner": sorted(c.graph.inner, key=vkey),
            "pins": sorted(c.graph.pins, key=vkey),
            "edges": _as_pairs(c.graph.edges),
        })
    return {"ground": sorted(s.ground, key=vkey), "components": comps,
            "covers": [list(pair) for pair in s.covers]}


def _component_from_dict(entry) -> AssurComponent:
    keys = ("id", "level", "inner", "pins", "edges")
    if not (isinstance(entry, dict) and all(k in entry for k in keys)):
        raise GraphError(f"component entry needs {', '.join(keys)}: {entry!r}")
    cid, level = _json_id(entry["id"], "component"), entry["level"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise GraphError(f"component level must be an integer, got {level!r}")
    graph = PinnedGraph(_id_list(entry["inner"], "component inner"),
                        _id_list(entry["pins"], "component pins"),
                        _pairs(entry["edges"], "edge"))
    # files of earlier versions carry a pin map, always the identity
    if "pin_map" in entry and set(_pairs(entry["pin_map"], "pin_map")) != {
            (p, p) for p in graph.pins}:
        raise GraphError(f"component {cid}: a pin map must send each pin to itself; "
                         f"name each pin by the vertex it attaches to")
    return AssurComponent(cid=cid, graph=graph, level=level)


def scheme_from_dict(doc: dict) -> AssurScheme:
    if not isinstance(doc, dict) or "ground" not in doc or "components" not in doc:
        raise GraphError("scheme document needs 'ground' and 'components'")
    comps = [_component_from_dict(c) for c in _list(doc["components"], "components")]
    return AssurScheme(components=tuple(comps),
                       ground=frozenset(_id_list(doc["ground"], "ground")))


def scheme_to_dot(s: AssurScheme) -> str:
    """DOT digraph whose edges are exactly the cover relation, bottom to top."""
    lines = ["digraph assur_scheme {", "  rankdir=BT;", "  node [shape=box];"]
    for c in s.components:
        label = (f"{c.cid} (level {c.level})\\n"
                 f"{len(c.graph.inner)} inner / {len(c.graph.pins)} pins")
        lines.append(f'  "{c.cid}" [label="{label}"];')
    for a, b in s.covers:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- certificates ----------------------------------------------------------------

def _param_to_dict(key, value):
    if key == "other":
        return certificate_to_dict(value)
    if key == "assignment":
        return [[a, b] for a, b in value]
    if key == "moved":
        return list(value)
    return value


def _step_to_dict(st: ConstructionStep) -> dict:
    return {"kind": st.kind, **{k: _param_to_dict(k, v) for k, v in st.params}}


def _step_param(key, value):
    if key == "other":
        return certificate_from_dict(value)
    if key == "assignment":
        return tuple(_pairs(value, "assignment"))
    if key == "moved":
        return tuple(_id_list(value, "moved"))
    return _json_id(value)


def _step_from_dict(doc: dict) -> ConstructionStep:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise GraphError("certificate step needs a 'kind'")
    names = STEPS[doc["kind"]][0] if doc["kind"] in STEPS else ()
    missing = [k for k in names if k not in doc]
    if missing:
        raise GraphError(f"{doc['kind']!r} step lacks {', '.join(missing)}")
    params = {k: _step_param(k, v) for k, v in doc.items() if k != "kind"}
    return ConstructionStep(doc["kind"], tuple(sorted(params.items())))


def claim_to_dict(claim):
    """A certificate's claim as a graph document; a claim that is not a
    graph stays as it is."""
    return graph_to_dict(claim) if isinstance(claim, PinnedGraph) else claim


def _claim_from_dict(doc):
    """The claimed graph; a claim that is not a graph document, such as a
    canonical-code string, stays as it is (None when there is no claim),
    and no replay equals it."""
    try:
        return graph_from_dict(doc)[0]
    except GraphError:
        return doc


def certificate_to_dict(cert: Certificate) -> dict:
    doc = {"base": {"kind": cert.base_kind, "vertices": list(cert.base_vertices)},
           "steps": [_step_to_dict(s) for s in cert.steps]}
    return doc if cert.claimed is None else dict(doc, claimed=claim_to_dict(cert.claimed))


def certificate_from_dict(doc: dict) -> Certificate:
    try:
        base = doc["base"]
        return Certificate(base_kind=base["kind"],
                           base_vertices=tuple(_id_list(base["vertices"], "base vertices")),
                           steps=tuple(map(_step_from_dict, _list(doc["steps"], "steps"))),
                           claimed=_claim_from_dict(doc.get("claimed")))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise GraphError(f"bad certificate document: {exc}") from None


def load_certificate(path) -> Certificate:
    return certificate_from_dict(_load_json(path))
