import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from conftest import SAMPLES
from pinrig.assur import decompose, recompose
from pinrig.canon import canonical_code
from pinrig.cli import main
from pinrig.fileio import (certificate_from_dict, certificate_to_dict,
                           graph_from_dict, graph_to_dict, load_graph,
                           scheme_from_dict, scheme_to_dict, scheme_to_dot)
from pinrig.errors import CertificateError, GraphError, PinrigWarning
from pinrig.generate import STEPS, certify, replay_certificate, verify_certificate
from pinrig.graphs import PinnedGraph
from pinrig.numeric import motion_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDof:
    def test_excavator(self, capsys):
        code, out, _ = run(capsys, "dof", str(SAMPLES / "excavator.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["F"] == 2
        assert doc["after_driver_removal"]["F"] == 0
        assert doc["after_driver_removal"]["link_count"] == 7

    def test_pendulum(self, capsys):
        code, out, _ = run(capsys, "dof", str(SAMPLES / "pendulum_linkage.json"))
        assert code == 0
        assert json.loads(out)["F"] == 1

    def test_overbraced_flag(self, capsys):
        code, out, _ = run(capsys, "dof", str(SAMPLES / "overbraced_linkage.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["F"] == 1
        assert doc["lower_bound_caveat"] is True
        assert "overbraced_subcollection" in doc

    def test_caveat_is_decided_above_12_links(self, tmp_path, capsys):
        # the pairwise joined b1..b4 (3*3 - 2*6 < 0) are overbraced inside a
        # 13-link linkage, past the size the old exhaustive scan reached
        bars, tail = ["b1", "b2", "b3", "b4"], [f"d{i}" for i in range(1, 8)]
        joints = ([["ground", "c"], ["c", "b1"], ["b4", "d1"]]
                  + [[a, b] for i, a in enumerate(bars) for b in bars[i + 1:]]
                  + [[a, b] for a, b in zip(tail, tail[1:])])
        doc = {"links": ["ground", "c"] + bars + tail, "ground": "ground",
               "joints": [{"incident": j} for j in joints]}
        code, out, _ = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 0
        doc = json.loads(out)
        assert doc["link_count"] == 13
        for level in (doc, doc["after_driver_removal"]):
            assert level["lower_bound_caveat"] is True
            assert level["overbraced_subcollection"] == bars

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "dof", "no_such_file.json")
        assert code == 2 and err

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "dof", str(bad))
        assert code == 2 and err


class TestCheck:
    def test_dyad_assur_passes(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "dyad.json"),
                           "--mode", "assur", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["assur"] is True
        assert doc["seed"] == 5
        assert doc["disagreement"] is False

    def test_stacked_dyads_fail_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "stacked_dyads.json"),
                           "--mode", "assur")
        assert code == 1
        doc = json.loads(out)
        assert doc["assur"] is False
        assert "witness_subgraph" in doc or "witness_extra_circuit" in doc

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "triad.json"),
                           "--mode", "assur", "--method", "iii")
        assert code == 0
        doc = json.loads(out)
        assert doc["conditions"]["vertex_deletion"] is True
        assert "minimality" not in doc["conditions"]

    def test_laman_mode(self, tmp_path, capsys):
        k4 = {"vertices": [{"id": i, "kind": "inner"} for i in range(4)],
              "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(k4))
        code, out, _ = run(capsys, "check", str(path), "--mode", "laman")
        assert code == 1
        doc = json.loads(out)
        assert doc["independent"] is False
        assert doc["witness_subgraph"]["vertices"] == [0, 1, 2, 3]

    def test_pinned_mode(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "triad.json"),
                           "--mode", "pinned")
        assert code == 0
        assert json.loads(out)["isostatic"] is True

    def test_pinned_mode_failure_reports_dof(self, tmp_path, capsys):
        doc = {"vertices": [{"id": "v", "kind": "inner"},
                            {"id": "p1", "kind": "pinned"},
                            {"id": "p2", "kind": "pinned"}],
               "edges": [["v", "p1"]]}
        path = tmp_path / "pendulum.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--mode", "pinned")
        assert code == 1
        assert json.loads(out)["pinned_dof"] == 1

    def test_pinned_mode_with_one_pin_fails_with_a_reason(self, tmp_path, capsys):
        g = PinnedGraph({"a", "b"}, {"p"}, [("a", "b"), ("a", "p"), ("b", "p")])
        code, out, _ = run(capsys, "check", _write_json(tmp_path, "g.json", graph_to_dict(g)),
                           "--mode", "pinned")
        assert code == 1
        assert json.loads(out) == {"mode": "pinned", "isostatic": False,
                                   "reason": "fewer than two pins"}

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"vertices": [{"id": "a"}],
                                    "edges": [["a", "zzz"]]}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and err


class TestDecompose:
    def test_stacked_dyads_scheme_and_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "scheme.dot"
        code, out, _ = run(capsys, "decompose",
                           str(SAMPLES / "stacked_dyads.json"),
                           "--dot", str(dot_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["component_count"] == 2
        assert doc["covers"] == [["c1", "c2"]]
        dot = dot_path.read_text()
        assert '"c1" -> "c2";' in dot
        assert dot.startswith("digraph")

    def test_dyad_single_node(self, capsys):
        code, out, _ = run(capsys, "decompose", str(SAMPLES / "dyad.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["component_count"] == 1 and doc["covers"] == []

    def test_three_dyad_chain_decomposes_in_order(self, capsys):
        code, out, _ = run(capsys, "decompose",
                           str(SAMPLES / "three_dyad_chain.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["component_count"] == 3 and doc["levels"] == 3
        assert doc["covers"] == [["c1", "c2"], ["c1", "c3"], ["c2", "c3"]]
        for comp in doc["components"]:
            assert len(comp["inner"]) == 1 and len(comp["edges"]) == 2

    def test_non_isostatic_exits_1_with_dof(self, tmp_path, capsys):
        doc = {"vertices": [{"id": "v", "kind": "inner"},
                            {"id": "p1", "kind": "pinned"},
                            {"id": "p2", "kind": "pinned"}],
               "edges": [["v", "p1"]]}
        path = tmp_path / "pendulum.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["decomposable"] is False and report["pinned_dof"] == 1

    def test_json_round_trip_recomposes_to_input(self, tmp_path, capsys):
        json_path = tmp_path / "scheme.json"
        code, _, _ = run(capsys, "decompose", str(SAMPLES / "stacked_dyads.json"),
                         "--json", str(json_path))
        assert code == 0
        scheme = scheme_from_dict(json.loads(json_path.read_text()))
        g, _ = load_graph(SAMPLES / "stacked_dyads.json")
        assert canonical_code(recompose(scheme)) == canonical_code(g)


class TestMotion:
    def test_dyad_minus_edge_moves(self, capsys):
        code, out, _ = run(capsys, "motion", str(SAMPLES / "dyad.json"),
                           "--remove-edge", "v,p1", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 1 and doc["moving"] == ["v"] and doc["seed"] == 2

    def test_rigid_input_reports_no_motion(self, capsys):
        code, out, _ = run(capsys, "motion", str(SAMPLES / "triad.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["rigid"] is True and doc["dim"] == 0

    def test_triad_minus_any_edge_all_move(self, capsys):
        g, _ = load_graph(SAMPLES / "triad.json")
        for u, v in g.edges:
            code, out, _ = run(capsys, "motion", str(SAMPLES / "triad.json"),
                               "--remove-edge", f"{u},{v}")
            assert code == 0
            doc = json.loads(out)
            assert doc["fixed"] == []

    def test_config_file_path(self, tmp_path, capsys):
        config = {"v": [1.0, 1.0], "p1": [0.0, 0.0], "p2": [2.0, 0.0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "motion", str(SAMPLES / "dyad.json"),
                           "--remove-edge", "v,p2", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "config" and doc["dim"] == 1

    def test_unknown_edge_is_input_error(self, capsys):
        code, _, err = run(capsys, "motion", str(SAMPLES / "dyad.json"),
                           "--remove-edge", "v,zzz")
        assert code == 2 and err

    def test_graph_without_inner_vertices_is_input_error(self, tmp_path, capsys):
        path = _write_json(tmp_path, "g.json", graph_to_dict(PinnedGraph((), {"p", "q"}, [])))
        code, out, err = run(capsys, "motion", path)
        assert code == 2 and not out and "no inner vertices" in err

    def test_remove_edge_without_a_comma_is_input_error(self, capsys):
        code, out, err = run(capsys, "motion", str(SAMPLES / "dyad.json"),
                             "--remove-edge", "v")
        assert code == 2 and not out and "'u,w'" in err

    def test_config_missing_a_vertex_is_input_error(self, tmp_path, capsys):
        cfg = _write_json(tmp_path, "cfg.json", {"v": [1, 1], "p1": [0, 0]})
        code, out, err = run(capsys, "motion", str(SAMPLES / "dyad.json"), "--config", cfg)
        assert code == 2 and not out and "misses vertex 'p2'" in err

    def test_rational_basis_prints_every_entry_as_a_fraction_string(self, tmp_path, capsys):
        # the float four-bar on integer positions: one motion, over Q
        g, _ = load_graph(SAMPLES / "float_four_bar.json")
        config = {"a": (1, 2), "b": (3, 3), "c": (5, 1),
                  "q1": (0, 0), "q2": (2, 0), "q3": (5, -1)}
        code, out, _ = run(capsys, "motion", _write_json(tmp_path, "g.json",
                                                         graph_to_dict(g, config)))
        doc = json.loads(out)
        assert code == 0 and doc["field"] == "rational" and doc["dim"] == 1
        entries = [x for vec in doc["basis"] for xy in vec.values() for x in xy]
        assert len(entries) == 6 and all(isinstance(x, str) for x in entries)
        assert any([Fraction(x) for x in entries])  # each parses; the motion is not zero

    def test_config_key_naming_two_vertices_is_an_input_error(self, tmp_path, capsys):
        # vertices 1 and "1" print alike: the config key "1" names both, as
        # the token 1 of --remove-edge does
        g = PinnedGraph({1}, {"1", "a", "b"}, [(1, "a"), (1, "b")])
        path = _write_json(tmp_path, "g.json", graph_to_dict(g))
        cfg = _write_json(tmp_path, "cfg.json", {"1": [0, 0], "a": [1, 0], "b": [0, 1]})
        for argv in (["--config", cfg], ["--remove-edge", "1,a"]):
            code, out, err = run(capsys, "motion", path, *argv)
            assert code == 2 and not out
            assert "'1' does not name exactly one vertex" in err

    def test_float_round_off_prints_as_zero_without_a_sign(self, capsys, monkeypatch):
        # the kernel holds a of the four-bar still; give it round-off of about
        # 1e-10, and b an entry of -1e-14, which rounds to -0.0 at 12 decimals
        from pinrig import numeric
        real = numeric.motion_space

        def noisy(g, config, **kwargs):
            basis = real(g, config, **kwargs)
            vectors = tuple({**vec, "a": (1.1e-10, -0.9e-10), "b": (vec["b"][0], -1e-14)}
                            for vec in basis.vectors)
            return dataclasses.replace(basis, vectors=vectors)

        monkeypatch.setattr(numeric, "motion_space", noisy)
        code, out, _ = run(capsys, "motion", str(SAMPLES / "float_four_bar.json"))
        doc = json.loads(out)
        assert code == 0 and doc["field"] == "float" and doc["dim"] == 1
        assert doc["fixed"] == ["a"] and doc["moving"] == ["b", "c"]
        assert doc["basis"][0]["a"] == [0.0, 0.0] and doc["basis"][0]["b"][1] == 0.0
        assert "-0.0" not in out

    @pytest.mark.parametrize("far", [1e7, 1e6])
    def test_far_pin_leaves_a_dyad_rigid_without_a_warning(self, tmp_path, capsys, far):
        # the bars meet at 45 degrees; only their lengths differ by 10 decades
        config = {"a": (0.001, 0.001), "p": (0.0, 0.0), "q": (far, 0.0)}
        g = support.dyad().relabeled({"v": "a", "p1": "p", "p2": "q"})
        path = _write_json(tmp_path, "g.json", graph_to_dict(g, config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "motion", path)
        doc = json.loads(out)
        assert code == 0 and doc["field"] == "float"
        assert doc["rigid"] is True and doc["dim"] == 0 and doc["fixed"] == ["a"]
        exact = {v: tuple(map(Fraction, xy)) for v, xy in config.items()}
        assert motion_space(g, exact).dim == 0


class TestGenerate:
    def test_assur_counts(self, capsys):
        code, out, _ = run(capsys, "generate", "--assur", "--max-vertices", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"3": 1, "5": 1}

    def test_circuit_counts(self, capsys):
        code, out, _ = run(capsys, "generate", "--circuits", "--max-vertices", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"4": 1, "5": 1}

    def test_output_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "catalog"
        code, _, _ = run(capsys, "generate", "--assur", "--max-vertices", "5",
                         "--out", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["assur_n3_0.json", "assur_n5_0.json"]
        g, _ = load_graph(out_dir / "assur_n3_0.json")
        assert canonical_code(g) == canonical_code(support.dyad())

    def test_requires_exactly_one_kind(self, capsys):
        code, _, err = run(capsys, "generate", "--max-vertices", "5")
        assert code == 2 and err

    def test_report_searches_no_code_the_catalog_found(self, capsys, monkeypatch):
        from pinrig import canon, generate
        calls = []
        real = canon.canonical_form

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(canon, "canonical_form", counted)
        monkeypatch.setattr(generate, "canonical_form", counted)
        golden = json.loads(Path(__file__).with_name("canon_codes_8.json").read_text())
        for flag, catalog, enumerate_codes in (
                ("--circuits", generate.circuit_catalog,
                 lambda n: {c for reps in generate.circuit_classes(n).values() for c in reps}),
                ("--assur", generate.assur_catalog, generate.enumerate_assur)):
            calls.clear()
            catalog(7)
            searches = len(calls)
            calls.clear()
            code, out, _ = run(capsys, "generate", flag, "--max-vertices", "7")
            assert code == 0 and len(calls) == searches
            codes = json.loads(out)["codes"]
            assert codes == {n: c for n, c in golden[catalog.__name__].items()
                             if int(n) <= 7}
            calls.clear()
            assert enumerate_codes(7) == {c for cs in codes.values() for c in cs}
            assert len(calls) == searches


class TestCertifyVerify:
    def test_round_trip(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", str(SAMPLES / "triad.json"),
                           "--out", str(cert_path))
        assert code == 0
        # one text for the file and stdout; the claim is the input's document
        assert cert_path.read_text(encoding="utf-8") == out
        claimed = graph_to_dict(load_graph(SAMPLES / "triad.json")[0])
        assert json.loads(out)["claimed"] == claimed
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0
        assert json.loads(out) == {"valid": True, "claimed": claimed}

    def test_tampered_file_fails(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run(capsys, "certify", str(SAMPLES / "triad.json"), "--out", str(cert_path))
        moved = json.loads(cert_path.read_text())
        edges = moved["claimed"]["edges"]
        assert ["a", "q1"] in edges and ["a", "q2"] not in edges
        edges[edges.index(["a", "q1"])] = ["a", "q2"]
        # a code string in place of the graph, and the graph with one edge moved
        for doc in (dict(moved, claimed="tampered"), moved):
            code, out, _ = run(capsys, "verify", _write_json(tmp_path, "bad.json", doc))
            assert code == 1
            assert json.loads(out) == {"valid": False, "claimed": doc["claimed"]}

    @staticmethod
    def _nested_k4_split(depth):
        """Three-pin split of vertex 0 of `support.nested_k4(depth)`."""
        from pinrig.graphs import split_contracted_vertex
        m = support.nested_k4(depth)
        nbrs = sorted(m.neighbors(0).elements())
        return split_contracted_vertex(m, 0, [(x, f"P{i % 3}") for i, x in enumerate(nbrs)])

    def test_round_trip_on_a_66_vertex_symmetric_circuit(self, tmp_path, capsys):
        g = self._nested_k4_split(5)
        assert g.n == 68
        path = _write_json(tmp_path, "g.json", graph_to_dict(g))
        cert_path = str(tmp_path / "cert.json")
        assert run(capsys, "certify", path, "--out", cert_path)[0] == 0
        code, out, _ = run(capsys, "verify", cert_path)
        assert code == 0 and json.loads(out)["valid"] is True

    _OPERAND_RULE = "two-sum operand must be a k4-base certificate that builds a multigraph"

    def test_edge_base_operand_fails_at_every_level(self, tmp_path, capsys):
        doc = certificate_to_dict(certify(self._nested_k4_split(2)))

        def operands(cert, level):
            for st in cert["steps"]:
                if st["kind"] == "two-sum":
                    yield st, level
                    yield from operands(st["other"], level + 1)

        levels = []
        for st, level in operands(doc, 1):
            # an independent graph on four vertices that holds the glue edge
            kept, a, b = st["other"], st["a"], st["b"]
            st["other"] = {"base": {"kind": "edge", "vertices": [a, b]},
                           "steps": [{"kind": "vertex-addition", "u": a, "w": b, "v": "x"},
                                     {"kind": "edge-split", "u": a, "w": "x", "x": b,
                                      "v": "y"}]}
            code, out, _ = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
            assert code == 1 and json.loads(out)["valid"] is False, level
            with pytest.raises(CertificateError, match=self._OPERAND_RULE):
                replay_certificate(certificate_from_dict(doc))
            st["other"] = kept
            levels.append(level)
        assert levels == [1, 2, 2]
        assert run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))[0] == 0

    # the graph that K4 on 0-3, 2-summed at (0, 1) with the operand's graph,
    # then pin-split at vertex 2, replays to
    _SUMMED = PinnedGraph({0, 1, 3, 4, 5}, {"p", "q"},
                          [(0, 3), (1, 3), (0, 5), (1, 4), (1, 5), (4, 5),
                           (0, "p"), (1, "q"), (3, "q")])

    @classmethod
    def _operand_certificate(cls, operand):
        return {"base": {"kind": "k4", "vertices": [0, 1, 2, 3]},
                "steps": [{"kind": "two-sum", "a": 0, "b": 1, "other": operand},
                          {"kind": "pin-split", "vertex": 2,
                           "assignment": [[0, "p"], [1, "q"], [3, "q"]]}],
                "claimed": graph_to_dict(cls._SUMMED)}

    def test_independent_operand_fails(self, tmp_path, capsys):
        # a 4-vertex, 5-edge operand from an edge base: the result claims its
        # replay exactly, but has pinned DOF 1, so it is not Assur
        from pinrig.pebble import pinned_game
        assert pinned_game(self._SUMMED)[0] == 1
        operand = {"base": {"kind": "edge", "vertices": [0, 1]},
                   "steps": [{"kind": "vertex-addition", "u": 0, "w": 1, "v": 4},
                             {"kind": "edge-split", "u": 0, "w": 4, "x": 1, "v": 5}]}
        doc = self._operand_certificate(operand)
        code, out, _ = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 1 and json.loads(out) == {"valid": False, "claimed": doc["claimed"]}

    def test_pinned_operand_fails(self, tmp_path, capsys):
        operand = {"base": {"kind": "k4", "vertices": [0, 1, 4, 5]},
                   "steps": [{"kind": "pin-split", "vertex": 5,
                              "assignment": [[0, "r"], [1, "s"], [4, "s"]]}]}
        doc = self._operand_certificate(operand)
        code, out, _ = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 1 and json.loads(out)["valid"] is False
        with pytest.raises(CertificateError, match=self._OPERAND_RULE):
            replay_certificate(certificate_from_dict(doc))

    def test_pin_split_from_edge_base_fails(self, tmp_path, capsys):
        # a split of an independent graph: pinned DOF 1, not even isostatic
        doc = {"base": {"kind": "edge", "vertices": [0, 1]},
               "steps": [{"kind": "vertex-addition", "u": 0, "w": 1, "v": 2},
                         {"kind": "edge-split", "u": 0, "w": 1, "x": 2, "v": 3},
                         {"kind": "pin-split", "vertex": 0,
                          "assignment": [[2, "p"], [3, "q"]]}],
               "claimed": graph_to_dict(PinnedGraph({1, 2, 3}, {"p", "q"},
                                                    [(1, 2), (1, 3), (2, 3),
                                                     (2, "p"), (3, "q")]))}
        code, out, _ = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 1 and json.loads(out)["valid"] is False

    # K4 with vertex a split (b shared, c moved to the new vertex e), then e
    # split into the pins P and Q
    _VERTEX_SPLIT = {"base": {"kind": "k4", "vertices": ["a", "b", "c", "d"]},
                     "steps": [{"kind": "vertex-split", "v": "a", "shared": "b",
                                "moved": ["c"], "v2": "e"},
                               {"kind": "pin-split", "vertex": "e",
                                "assignment": [["a", "P"], ["b", "Q"], ["c", "Q"]]}],
                     "claimed": graph_to_dict(PinnedGraph(
                         "abcd", "PQ", [("a", "b"), ("a", "d"), ("b", "c"), ("b", "d"),
                                        ("c", "d"), ("a", "P"), ("b", "Q"), ("c", "Q")]))}

    def test_vertex_split_certificate_round_trips_and_verifies(self, tmp_path, capsys):
        doc = self._VERTEX_SPLIT
        assert certificate_to_dict(certificate_from_dict(doc)) == doc
        code, out, _ = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 0 and json.loads(out) == {"valid": True, "claimed": doc["claimed"]}

    def test_moved_that_is_not_a_list_is_input_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self._VERTEX_SPLIT))
        doc["steps"][0]["moved"] = "c"
        code, out, err = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 2 and not out and "moved must be a list" in err

    def test_base_vertices_that_are_not_a_list_is_input_error(self, tmp_path, capsys):
        doc = dict(self._VERTEX_SPLIT, base={"kind": "k4", "vertices": "abcd"})
        code, out, err = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 2 and not out and "base vertices must be a list" in err

    def test_assignment_entry_that_is_not_a_pair_is_input_error(self, tmp_path, capsys):
        # the triad's certificate with the pin q2 renamed Q and its entry
        # ["b", "Q"] written as the string "bQ"
        cert_path = tmp_path / "cert.json"
        run(capsys, "certify", str(SAMPLES / "triad.json"), "--out", str(cert_path))
        doc = json.loads(cert_path.read_text().replace('"q2"', '"Q"'))
        (step,) = doc["steps"]
        step["assignment"][step["assignment"].index(["b", "Q"])] = "bQ"
        code, out, err = run(capsys, "verify", _write_json(tmp_path, "bad.json", doc))
        assert code == 2 and not out and "bad assignment entry 'bQ'" in err

    def test_certify_and_verify_run_no_canonical_search(self, tmp_path, capsys,
                                                        monkeypatch):
        import random

        from pinrig import canon
        from pinrig.graphs import split_contracted_vertex
        searches = []
        real = canon._search

        def counted(*args):
            searches.append(1)
            return real(*args)

        monkeypatch.setattr(canon, "_search", counted)
        c = support.random_circuit(random.Random(200), 201, 59)
        nbrs = sorted(c.neighbors(0).elements())
        split = split_contracted_vertex(c, 0, [(x, f"P{i % 3}") for i, x in enumerate(nbrs)])
        cycle = PinnedGraph(range(400), [f"p{i}" for i in range(400)],
                            [(i, (i + 1) % 400) for i in range(400)]
                            + [(i, f"p{i}") for i in range(400)])
        for g in (split, cycle):
            path = _write_json(tmp_path, "g.json", graph_to_dict(g))
            cert_path = str(tmp_path / "cert.json")
            assert run(capsys, "certify", path, "--out", cert_path)[0] == 0
            code, out, _ = run(capsys, "verify", cert_path)
            assert code == 0 and json.loads(out)["valid"] is True
        assert len(split.inner) == 200 and searches == []

    def test_non_assur_input_fails(self, capsys):
        code, out, _ = run(capsys, "certify", str(SAMPLES / "stacked_dyads.json"))
        assert code == 1
        assert json.loads(out)["certified"] is False

    # one case per step kind in generate's table and parameter dropped; an
    # id names the kind and the dropped parameter
    @pytest.mark.parametrize("kind, missing", [
        pytest.param(kind, name, id=f"{kind}-{name}")
        for kind, (names, _) in STEPS.items() for name in names])
    def test_step_missing_a_parameter_is_input_error(self, tmp_path, capsys,
                                                     kind, missing):
        params = {name: 0 for name in STEPS[kind][0] if name != missing}
        doc = {"base": {"kind": "k4", "vertices": [0, 1, 2, 3]},
               "steps": [dict(params, kind=kind)], "claimed": ""}
        code, _, err = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 2
        assert err == f"error: {kind!r} step lacks {missing}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, vertices", [("dyad", ["v", "p1", "p2", "v"]),
                                                ("k4", [0, 1, 2, 3, 0])],
                             ids=["dyad", "k4"])
    def test_base_listing_a_vertex_twice_fails(self, tmp_path, capsys, kind, vertices):
        # the base's own refusal, not a crash on unpacking or a loop edge
        doc = {"base": {"kind": kind, "vertices": vertices}, "steps": [], "claimed": ""}
        with pytest.raises(CertificateError, match=f"{kind} base needs"):
            replay_certificate(certificate_from_dict(doc))
        code, out, err = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 1 and json.loads(out) == {"valid": False, "claimed": ""}
        assert err == ""

    @pytest.mark.parametrize("params", [{"u": 0, "w": 1}, {"u": 0, "v": 1, "w": 4}],
                             ids=["missing-v", "complete"])
    def test_vertex_addition_is_an_unknown_step_kind(self, tmp_path, capsys, params):
        # not a step kind, so the reader asks for no parameters and the replay
        # refuses the kind, as it does any unknown one: exit 1, not 2
        doc = {"base": {"kind": "k4", "vertices": [0, 1, 2, 3]},
               "steps": [dict(kind="vertex-addition", **params)], "claimed": ""}
        code, out, err = run(capsys, "verify", _write_json(tmp_path, "cert.json", doc))
        assert code == 1 and json.loads(out) == {"valid": False, "claimed": ""}
        assert err == ""

    @pytest.mark.parametrize("steps", ["", {}, 0, None],
                             ids=["string", "object", "number", "null"])
    def test_steps_that_are_not_a_list_is_input_error(self, tmp_path, capsys, steps):
        # the dyad's certificate has no steps, and a 2-sum operand here none
        cert_path = tmp_path / "cert.json"
        run(capsys, "certify", str(SAMPLES / "dyad.json"), "--out", str(cert_path))
        dyad = json.loads(cert_path.read_text())
        summed = _two_sum_certificate_doc()
        assert dyad["steps"] == summed["steps"][0]["other"]["steps"] == []
        summed["steps"][0]["other"]["steps"] = steps
        for doc in (dict(dyad, steps=steps), summed):
            code, out, err = run(capsys, "verify", _write_json(tmp_path, "bad.json", doc))
            assert code == 2 and not out and "steps must be a list" in err


class TestInputValidation:
    @pytest.mark.parametrize("field", ["vertices", "edges"])
    def test_fields_must_be_lists(self, tmp_path, capsys, field):
        doc = dict({"vertices": [], "edges": []}, **{field: 5})
        code, _, err = run(capsys, "check", _write_json(tmp_path, "g.json", doc))
        assert code == 2 and "must be lists" in err
        assert "Traceback" not in err

    def test_boolean_vertex_id_rejected(self, tmp_path, capsys):
        doc = {"vertices": [{"id": True}, {"id": 1}], "edges": []}
        code, _, err = run(capsys, "check", _write_json(tmp_path, "g.json", doc))
        assert code == 2 and "vertex id" in err and "duplicate" not in err
        assert "Traceback" not in err

    def test_nan_vertex_id_is_input_error(self, tmp_path, capsys):
        doc = {"vertices": [{"id": math.nan}, {"id": "p1", "kind": "pinned"},
                            {"id": "p2", "kind": "pinned"}],
               "edges": [[math.nan, "p1"], [math.nan, "p2"]]}
        code, out, err = run(capsys, "check", _write_json(tmp_path, "g.json", doc))
        assert code == 2 and out == "" and "finite" in err
        assert "Traceback" not in err

    def test_infinite_link_id_is_input_error(self, tmp_path, capsys):
        doc = {"links": ["ground", math.inf], "ground": "ground",
               "joints": [{"incident": ["ground", math.inf]}]}
        code, out, err = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 2 and out == "" and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"links": 5, "ground": "g", "joints": []},
        {"links": ["g", "a"], "ground": "g", "joints": [{"incident": [["g"], "a"]}]},
        {"links": ["g", "a"], "ground": ["g"], "joints": []},
    ])
    def test_malformed_linkage_is_input_error(self, tmp_path, capsys, doc):
        code, _, err = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 2 and err.startswith("error:")
        assert "Traceback" not in err

    @staticmethod
    def _four_bar(marker):
        """A four-bar whose crank carries the given driver marker."""
        return {"links": ["ground", {"id": "crank", "driver": marker}, "coupler",
                          "rocker"],
                "ground": "ground",
                "joints": [{"incident": pair} for pair in (["ground", "crank"],
                                                           ["crank", "coupler"],
                                                           ["coupler", "rocker"],
                                                           ["rocker", "ground"])]}

    @pytest.mark.parametrize("marker", ["false", "true", 0, 1, None],
                             ids=["string-false", "string-true", "zero", "one",
                                  "null"])
    def test_driver_marker_must_be_a_boolean(self, tmp_path, capsys, marker):
        doc = self._four_bar(marker)
        code, out, err = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 2 and not out
        assert err == f"error: link 'crank': driver must be true or false, got {marker!r}\n"

    @pytest.mark.parametrize("marker", [True, False], ids=["true", "false"])
    def test_boolean_driver_marker_is_accepted(self, tmp_path, capsys, marker):
        doc = self._four_bar(marker)
        code, out, _ = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 0
        assert json.loads(out)["after_driver_removal"]["link_count"] == 4 - marker

    @pytest.mark.parametrize("value", [5, [1.0], [1.0, 2.0, 3.0], ["a", 1.0],
                                       [True, 0], {"x": 1}])
    def test_config_values_must_be_points(self, tmp_path, capsys, value):
        config = {"v": value, "p1": [0.0, 0.0], "p2": [2.0, 0.0]}
        code, _, err = run(capsys, "motion", str(SAMPLES / "dyad.json"),
                           "--config", _write_json(tmp_path, "cfg.json", config))
        assert code == 2 and "[x, y]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"v": [math.nan, 0], "p1": [0, 0], "p2": [2, 0]},
        {"v": [math.inf, 1], "p1": [0, 0], "p2": [2, 0]},
        {"v": [1e308, 1], "p1": [-1e308, 0], "p2": [2, 0]},  # difference overflows
        {"v": [2 * 10 ** 308, 0.5], "p1": [0, 0], "p2": [2, 0]},  # no such float
    ], ids=["nan", "infinity", "overflowing-difference", "huge-integer"])
    def test_non_finite_coordinates_are_input_errors(self, tmp_path, capsys, config):
        g, _ = load_graph(SAMPLES / "dyad.json")
        with pytest.raises(GraphError):
            motion_space(g, {v: tuple(xy) for v, xy in config.items()})
        inline = _write_json(tmp_path, "g.json", graph_to_dict(g, config))
        for argv in ([str(SAMPLES / "dyad.json"), "--config",
                      _write_json(tmp_path, "cfg.json", config)], [inline]):
            code, out, err = run(capsys, "motion", *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv
            assert "Traceback" not in err

    def test_directory_as_input_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path))
        assert code == 2 and str(tmp_path) in err and "directory" in err.lower()

    def test_directory_as_certificate_output_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "certify", str(SAMPLES / "triad.json"),
                           "--out", str(tmp_path))
        assert code == 2 and str(tmp_path) in err and "directory" in err.lower()

    def test_file_as_generate_output_directory_is_input_error(self, tmp_path, capsys):
        taken = tmp_path / "triad.json"
        taken.write_text("{}")
        code, _, err = run(capsys, "generate", "--assur", "--max-vertices", "5",
                           "--out", str(taken))
        assert code == 2 and str(taken) in err and "exists" in err

    def test_unwritable_generate_output_prints_no_report(self, tmp_path, capsys):
        taken = tmp_path / "taken.json"
        taken.write_text("{}")
        code, out, _ = run(capsys, "generate", "--assur", "--max-vertices", "4",
                           "--out", str(taken))
        assert code == 2 and out == ""

    def test_unwritable_decompose_output_prints_no_report(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "decompose", str(SAMPLES / "triad.json"),
                             "--json", str(target))
        assert code == 2 and out == "" and str(target) in err

    def test_duplicate_link_id_is_input_error(self, tmp_path, capsys):
        doc = {"links": ["g", "a", "a", "b"], "ground": "g",
               "joints": [{"incident": ["g", "a"]}, {"incident": ["a", "b"]},
                          {"incident": ["b", "g"]}]}
        code, out, err = run(capsys, "dof", _write_json(tmp_path, "l.json", doc))
        assert code == 2 and out == ""
        assert "duplicate link id 'a'" in err

    def test_undecodable_bytes_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and err.startswith("error:") and "invalid JSON" in err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("[" * 200_000)
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and err.startswith("error:") and "invalid JSON" in err

    @pytest.mark.parametrize("depth, want", [(120, 1), (250, 2)])
    def test_deeply_nested_two_sum_operands(self, tmp_path, capsys, depth, want):
        # the certificate claims no graph, so one that parses is invalid
        base = '"base": {"kind": "k4", "vertices": [0, 1, 2, 3]}'
        doc = '{%s, "steps": [], "claimed": ""}' % base
        for _ in range(depth):
            doc = ('{%s, "steps": [{"kind": "two-sum", "a": 0, "b": 1, "other": %s}], '
                   '"claimed": ""}' % (base, doc))
        path = tmp_path / "cert.json"
        path.write_text(doc)
        code, _, err = run(capsys, "verify", str(path))
        assert code == want
        if want == 2:
            assert "bad certificate document" in err


# Arbitrary JSON documents, plus graph-shaped ones whose ids come from a small
# pool so that many of them reach the analysis instead of the input checks.
_JSON_LEAVES = (st.booleans() | st.integers(-2, 4) | st.text(max_size=3)
                | st.sampled_from(["inner", "pinned", "a", "b"]))
_JSON_KEYS = st.sampled_from(["vertices", "edges", "id", "kind", "pos"]) | st.text(max_size=3)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_KEYS, kids, max_size=4),
    max_leaves=16)
_IDS = st.sampled_from(["a", "b", "c", "d", 0, 1, 2])
_GRAPH_DOCS = st.fixed_dictionaries({
    "vertices": st.lists(st.tuples(_IDS, st.sampled_from(["inner", "pinned"])),
                         unique_by=lambda t: t[0], max_size=7).map(
        lambda vs: [{"id": v, "kind": k} for v, k in vs]) | _JSON_DOCS,
    "edges": st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=12) | _JSON_DOCS,
})

# Linkage-shaped documents: links from a small id pool, some of them drivers,
# and k-ary joints over those links, so that many of them reach the count.
_LINK_IDS = st.sampled_from(["g", "a", "b", "c", "d", "e", "f", 1, 2])


@st.composite
def _linkage_docs(draw):
    links = draw(st.lists(_LINK_IDS, min_size=2, max_size=9, unique=True))
    drivers = draw(st.sets(st.sampled_from(links), max_size=1))
    joints = draw(st.lists(st.lists(st.sampled_from(links), min_size=2, max_size=4,
                                    unique=True), max_size=14))
    return {"links": [{"id": x, "driver": True} if x in drivers else x for x in links],
            "ground": draw(st.sampled_from(links) | _JSON_DOCS),
            "joints": [{"incident": j} for j in joints]}


def _mutated(doc, data):
    """`doc` with one nested value deleted or replaced by arbitrary JSON."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return doc
        else:
            node[key] = data.draw(_JSON_DOCS)
            return doc


def _two_sum_certificate_doc():
    from pinrig.generate import two_sum
    from pinrig.graphs import complete_graph, split_contracted_vertex
    k4 = complete_graph(4)
    glued = two_sum(k4, k4.relabeled({i: i + 4 for i in range(4)}), (0, 1), (4, 5))
    nbrs = sorted(glued.neighbors(2).elements())
    g = split_contracted_vertex(glued, 2, [(x, f"P{i % 2}") for i, x in enumerate(nbrs)])
    return certificate_to_dict(certify(g))


def _leaves(doc):
    """The scalars nested anywhere in `doc`."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for child in doc for x in _leaves(child)]
    return [doc]


def _mutate(doc, rng):
    """A copy of `doc` with one nested value changed: a key or list entry
    dropped, a value set to junk (None, a bool, [], {} or a scalar of the
    document, so an id repeated) or a list entry duplicated."""
    doc = json.loads(json.dumps(doc))
    junk = [None, True, False, [], {}, rng.choice(_leaves(doc) or [None])]
    node = doc
    while node:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
            node = child
            continue
        op = rng.randrange(3)
        if op == 0:
            del node[key]
        elif op == 1 or isinstance(node, dict):
            node[key] = rng.choice(junk)
        else:
            node.insert(key, json.loads(json.dumps(child)))
        break
    return doc


def _mutation_subjects():
    """(document, commands reading it) for the sample graphs, linkages and
    certificates."""
    graphs = ["dyad", "triad", "stacked_dyads", "three_dyad_chain", "float_four_bar"]
    graph_commands = [["check"], ["check", "--mode", "laman"], ["check", "--mode", "pinned"],
                      ["decompose"], ["motion"], ["certify"]]
    subjects = [(json.loads((SAMPLES / f"{name}.json").read_text()), graph_commands)
                for name in graphs]
    subjects += [(json.loads((SAMPLES / f"{name}.json").read_text()), [["dof"]])
                 for name in ("excavator", "overbraced_linkage", "pendulum_linkage")]
    certificates = [certificate_to_dict(certify(load_graph(SAMPLES / f"{name}.json")[0]))
                    for name in ("dyad", "triad")] + [_two_sum_certificate_doc()]
    subjects += [(doc, [["verify"]]) for doc in certificates]
    return subjects


class TestExitCodeContract:
    def test_every_command_exits_0_1_or_2_on_mutated_documents(self, tmp_path):
        # seeded: 2,000 documents, one to three mutations each, every command
        # that reads the document run on it
        rng = random.Random(34)
        subjects = _mutation_subjects()
        path = tmp_path / "doc.json"
        for k in range(2000):
            doc, commands = rng.choice(subjects)
            for _ in range(rng.randint(1, 3)):
                doc = _mutate(doc, rng)
            path.write_text(json.dumps(doc))
            for command in commands:
                with (redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()),
                      warnings.catch_warnings()):
                    warnings.simplefilter("ignore", PinrigWarning)
                    code = main([*command, str(path)])
                assert code in (0, 1, 2), (k, command, doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS | _GRAPH_DOCS, mode=st.sampled_from(["assur", "laman", "pinned"]))
    def test_check_exits_0_1_or_2_on_any_json(self, tmp_path_factory, doc, mode):
        path = tmp_path_factory.mktemp("fuzz") / "g.json"
        path.write_text(json.dumps(doc))
        with (redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()),
              warnings.catch_warnings()):
            warnings.simplefilter("ignore", PinrigWarning)
            code = main(["check", str(path), "--mode", mode])
        assert code in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_verify_exits_0_1_or_2_on_mutated_certificates(self, tmp_path_factory, data):
        doc = _mutated(_two_sum_certificate_doc(), data)
        path = tmp_path_factory.mktemp("fuzz") / "cert.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["verify", str(path)])
        assert code in (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS | _linkage_docs())
    def test_dof_exits_0_or_2_and_always_decides_the_caveat(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "l.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["dof", str(path)])
        assert code in (0, 2)
        if code == 0:
            report = json.loads(out.getvalue())
            for level in (report, report["after_driver_removal"]):
                assert isinstance(level["lower_bound_caveat"], bool)

    def test_python_dash_m_runs_the_cli(self):
        src = str(SAMPLES.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "pinrig", "check",
                               str(SAMPLES / "dyad.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and json.loads(proc.stdout)["assur"] is True


class TestFileFormats:
    def test_pin_pin_edges_dropped_with_warning(self):
        doc = {"vertices": [{"id": "v", "kind": "inner"},
                            {"id": "p", "kind": "pinned"},
                            {"id": "q", "kind": "pinned"}],
               "edges": [["v", "p"], ["p", "q"], ["v", "q"]]}
        with pytest.warns(PinrigWarning):
            g, _ = graph_from_dict(doc)
        assert g.m == 2

    def test_graph_round_trip(self, triad):
        doc = graph_to_dict(triad)
        back, _ = graph_from_dict(doc)
        assert back == triad

    def test_positions_round_trip(self, dyad):
        pos = {"v": (1, 2), "p1": (0, 0), "p2": (2, 0)}
        doc = graph_to_dict(dyad, positions=pos)
        back, got = graph_from_dict(doc)
        assert got == pos

    def test_scheme_round_trip(self, stacked_dyads):
        scheme = decompose(stacked_dyads)
        back = scheme_from_dict(scheme_to_dict(scheme))
        assert back.covers == scheme.covers
        assert recompose(back) == stacked_dyads

    def test_dot_encodes_exactly_the_cover_relation(self, triad, stacked_dyads):
        from pinrig.graphs import compose
        mid = compose(triad, stacked_dyads, {"q1": "a", "q2": "b", "q3": "p1"})
        scheme = decompose(mid)
        dot = scheme_to_dot(scheme)
        arrows = {line.strip().rstrip(";") for line in dot.splitlines()
                  if "->" in line}
        want = {f'"{a}" -> "{b}"' for a, b in scheme.covers}
        assert arrows == want

    def test_certificate_document_round_trip(self, triad):
        cert = certify(triad)
        back = certificate_from_dict(certificate_to_dict(cert))
        assert back == cert
        assert verify_certificate(back)

    def test_nested_two_sum_certificate_round_trips(self):
        from pinrig.graphs import complete_graph, split_contracted_vertex
        from pinrig.generate import two_sum
        k4 = complete_graph(4)
        other = k4.relabeled({i: i + 4 for i in range(4)})
        glued = two_sum(k4, other, (0, 1), (4, 5))
        nbrs = sorted(glued.neighbors(2).elements())
        g = split_contracted_vertex(glued, 2, [(x, f"P{i % 2}")
                                               for i, x in enumerate(nbrs)])
        cert = certify(g)
        back = certificate_from_dict(certificate_to_dict(cert))
        assert verify_certificate(back)


class TestWitnessesAtAnySize:
    """Witnesses come from pebble reach sets and the decomposition, so they
    are reported above the exhaustive oracles' 12-vertex bound too."""

    @staticmethod
    def _k4_with_tail(tail):
        # K4 on 0..3 spans 6 > 2*4 - 3 edges; 2-valent vertices hang below it
        edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        for k in range(4, 4 + tail):
            edges += [[k, k - 1], [k, k - 2]]
        return edges

    def test_laman_witness_on_14_vertices(self, tmp_path, capsys):
        edges = self._k4_with_tail(10)
        doc = {"vertices": [{"id": i} for i in range(14)], "edges": edges}
        code, out, _ = run(capsys, "check", _write_json(tmp_path, "g.json", doc),
                           "--mode", "laman")
        assert code == 1
        witness = json.loads(out)["witness_subgraph"]
        verts = set(witness["vertices"])
        induced = sum(1 for u, v in edges if u in verts and v in verts)
        assert induced > witness["bound"] == 2 * len(verts) - 3

    def test_pinned_witness_on_14_vertices(self, tmp_path, capsys):
        edges = self._k4_with_tail(8) + [[0, "p1"], [1, "p2"]]
        doc = {"vertices": [{"id": i} for i in range(12)]
               + [{"id": p, "kind": "pinned"} for p in ("p1", "p2")],
               "edges": edges}
        code, out, _ = run(capsys, "check", _write_json(tmp_path, "g.json", doc),
                           "--mode", "pinned")
        assert code == 1
        witness = json.loads(out)["witness_subgraph"]
        assert witness["edges"] > witness["bound"]
        verts = set(witness["inner"]) | set(witness["pins"])
        assert witness["edges"] == sum(1 for u, v in edges
                                       if u in verts and v in verts)

    def test_pinned_count_witness_kept(self, tmp_path, capsys):
        doc = {"vertices": [{"id": "v"}, {"id": "p1", "kind": "pinned"},
                            {"id": "p2", "kind": "pinned"}],
               "edges": [["v", "p1"]]}
        code, out, _ = run(capsys, "check", _write_json(tmp_path, "g.json", doc),
                           "--mode", "pinned")
        assert code == 1
        assert json.loads(out)["witness_count"] == {"edges": 1, "required": 2}

    def test_assur_witness_on_a_large_composition(self, tmp_path, capsys):
        import random
        g, _ = support.stack(random.Random(4), [support.dyad()] * 11, ["G0", "G1"])
        code, out, _ = run(capsys, "check",
                           _write_json(tmp_path, "g.json", graph_to_dict(g)),
                           "--mode", "assur", "--method", "ii")
        assert code == 1
        witness = json.loads(out)["witness_subgraph"]
        assert g.n > 12 and len(witness["inner"]) == 1
        assert g.induced(witness["inner"], witness["pins"]).m == 2


def test_assur_check_validates_and_decomposes_once(tmp_path, capsys, monkeypatch):
    import random

    from pinrig import pebble
    calls = {"pinned_game": 0, "pebble_rank": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pebble, "pinned_game", counted("pinned_game", pebble.pinned_game))
    monkeypatch.setattr(pebble, "pebble_rank", counted("pebble_rank", pebble.pebble_rank))
    parts = [support.triad(), support.dyad(), support.basic_5(), support.dyad()]
    g, _ = support.stack(random.Random(6), parts, ["G0", "G1", "G2"])
    path = _write_json(tmp_path, "g.json", graph_to_dict(g))
    for method in ("all", "ii", "iii"):
        calls.update(pinned_game=0, pebble_rank=0)
        code, out, _ = run(capsys, "check", path, "--mode", "assur", "--method", method)
        doc = json.loads(out)
        assert code == 1 and set(doc["conditions"].values()) == {False}
        assert "witness_subgraph" in doc and "witness_extra_circuit" in doc
        assert calls["pinned_game"] == 1
        assert calls["pebble_rank"] <= 3


class TestSchemeDocumentTypes:
    @staticmethod
    def _doc(stacked_dyads):
        return scheme_to_dict(decompose(stacked_dyads))

    def _rejects(self, doc):
        with pytest.raises(GraphError):
            scheme_from_dict(doc)

    def test_components_not_a_list(self, stacked_dyads):
        self._rejects(dict(self._doc(stacked_dyads), components=5))

    def test_ground_not_a_list(self, stacked_dyads):
        self._rejects(dict(self._doc(stacked_dyads), ground=7))

    def test_level_not_an_integer(self, stacked_dyads):
        doc = self._doc(stacked_dyads)
        doc["components"][0]["level"] = "x"
        self._rejects(doc)

    def test_list_id(self, stacked_dyads):
        doc = self._doc(stacked_dyads)
        doc["components"][0]["inner"] = [["a"]]
        self._rejects(doc)
        doc = self._doc(stacked_dyads)
        doc["components"][0]["id"] = ["c1"]
        self._rejects(doc)

    def test_boolean_id(self, stacked_dyads):
        doc = self._doc(stacked_dyads)
        doc["ground"] = doc["ground"] + [True]
        self._rejects(doc)


def _failing_stacks(count, seed):
    """Seeded stacks of 2-6 Assur parts with no isolated pin: pinned
    isostatic, not Assur."""
    import random
    rng = random.Random(seed)
    parts = (support.dyad, support.triad, support.basic_5)
    out = []
    while len(out) < count:
        chosen = [parts[rng.randrange(3)]() for _ in range(rng.randint(2, 6))]
        g, _ = support.stack(rng, chosen, ["G0", "G1", "G2"])
        if not g.isolated_pins():
            out.append(g)
    return out


def _count_pebble_states(monkeypatch):
    """A list that gains one entry per `_PebbleState` built."""
    from pinrig import pebble
    games = []
    real = pebble._PebbleState.__init__

    def counted(self, pebbles):
        games.append(1)
        real(self, pebbles)

    monkeypatch.setattr(pebble._PebbleState, "__init__", counted)
    return games


def test_assur_extra_circuit_is_a_proper_circuit_from_two_games(tmp_path, capsys,
                                                                monkeypatch):
    from pinrig.counting import circuit_oracle
    from pinrig.graphs import contract_pins
    from pinrig.pebble import is_circuit
    games = _count_pebble_states(monkeypatch)
    for g in _failing_stacks(40, seed=12):
        path = _write_json(tmp_path, "g.json", graph_to_dict(g))
        games.clear()
        code, out, _ = run(capsys, "check", path, "--mode", "assur", "--method", "ii")
        # the scaffolded game, whose orientation gives the decomposition,
        # and the circuit game on the contraction
        assert code == 1 and len(games) == 2
        edges = [tuple(e) for e in json.loads(out)["witness_extra_circuit"]]
        assert set(edges) < set(g.edges) and len(set(edges)) == len(edges)
        inner = {x for e in edges for x in e} & g.inner
        sub = g.induced(inner, {x for e in edges for x in e} & g.pins)
        assert sorted(sub.edges) == sorted(edges)
        assert is_circuit(contract_pins(sub))
        if g.n <= 12:
            assert circuit_oracle(contract_pins(sub))


def test_decompose_plays_one_game_and_an_assur_check_two(tmp_path, capsys, monkeypatch):
    import random
    games = _count_pebble_states(monkeypatch)
    assur_graph = support.edge_split_assur(random.Random(5), 6)
    for g, assur in [(assur_graph, True), *((g, False) for g in _failing_stacks(5, seed=3))]:
        path = _write_json(tmp_path, "g.json", graph_to_dict(g))
        games.clear()
        assert run(capsys, "decompose", path, "--seed", "4")[0] == 0
        assert len(games) == 1
        games.clear()
        code = run(capsys, "check", path, "--mode", "assur", "--method", "all")[0]
        assert code == (0 if assur else 1) and len(games) == 2


def test_scaffolded_game_is_played_once_per_command(tmp_path, capsys, monkeypatch):
    import random

    from pinrig import pebble
    from pinrig.graphs import PinnedGraph
    from pinrig.pebble import pinned_isostatic
    builds = []
    real = pebble._scaffold
    monkeypatch.setattr(pebble, "_scaffold",
                        lambda pins, apex: builds.append(pins) or real(pins, apex))
    assur_graph = support.edge_split_assur(random.Random(5), 6)
    edge_deleted = assur_graph.without_edge(*assur_graph.edges[0])
    # 2|I| edges, not pinned isostatic: a triad with a dangling bar at a
    # and a redundant bar from a to a ground pin
    bottom = PinnedGraph({"a", "b", "c", "d"}, {"q1", "q2", "q3"},
                         [("a", "b"), ("b", "c"), ("a", "c"), ("a", "q1"),
                          ("b", "q2"), ("c", "q3"), ("d", "a"), ("a", "q2")])
    assert not pinned_isostatic(bottom) and bottom.m == 2 * len(bottom.inner)
    cases = [(assur_graph, ("check", "decompose", "certify")),
             (edge_deleted, ("check", "check-pinned", "decompose", "certify")),
             (bottom, ("check", "check-pinned", "decompose", "certify"))]
    for g, commands in cases:
        path = _write_json(tmp_path, "g.json", graph_to_dict(g))
        for command in commands:
            argv = ["check", path, "--mode", "pinned"] if command == "check-pinned" \
                else [command, path]
            builds.clear()
            run(capsys, *argv)
            assert len(builds) == 1, (command, g)


def test_parser_is_built_once(tmp_path, capsys):
    from pinrig import cli
    cli.build_parser.cache_clear()
    assert run(capsys, "check", str(SAMPLES / "triad.json"))[0] == 0
    assert run(capsys, "check", str(SAMPLES / "stacked_dyads.json"))[0] == 1
    assert run(capsys, "check", str(tmp_path / "missing.json"))[0] == 2
    with pytest.raises(SystemExit) as info:
        main(["check", str(SAMPLES / "triad.json"), "--mode", "nonsense"])
    assert info.value.code == 2
    assert run(capsys, "check", str(SAMPLES / "triad.json"), "--mode", "laman")[0] == 0
    info = cli.build_parser.cache_info()
    assert info.misses == 1 and info.hits == 4
