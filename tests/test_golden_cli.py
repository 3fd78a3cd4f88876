"""Golden CLI fixture: every sample through the commands that read it.

`cli_golden.json` records, for each case, the exit code and parsed stdout
of each command and the text of every file the case wrote.  Refactors must
leave all of it unchanged.  Regenerate it only for an intended change of
output, from the root of the checkout::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import SAMPLES
from pinrig.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _samples(key):
    return sorted(p.name for p in SAMPLES.glob("*.json")
                  if key in json.loads(p.read_text()))


def cases():
    """{case name: list of argv templates run in order in one directory}."""
    out = {}
    for name in _samples("vertices"):
        g = "{samples}/" + name
        for mode in ("laman", "pinned", "assur"):
            for method in ("all", "i", "ii", "iii", "iv"):
                out[f"check {name} {mode} {method}"] = [
                    ["check", g, "--mode", mode, "--method", method]]
        out[f"decompose {name}"] = [["decompose", g, "--json", "{out}/scheme.json"]]
        out[f"decompose {name} seed 3"] = [
            ["decompose", g, "--seed", "3", "--json", "{out}/scheme.json",
             "--dot", "{out}/scheme.dot"]]
        out[f"certify {name}"] = [["certify", g, "--out", "{out}/cert.json"],
                                  ["verify", "{out}/cert.json"]]
        out[f"motion {name}"] = [["motion", g, "--seed", "0"]]
    for name in _samples("links"):
        out[f"dof {name}"] = [["dof", "{samples}/" + name]]
    for kind in ("circuits", "assur"):
        out[f"generate {kind}"] = [["generate", f"--{kind}", "--max-vertices", "6",
                                    "--out", "{out}/catalog"]]
    return out


def record(argvs, workdir):
    runs = []
    for argv in argvs:
        argv = [a.format(samples=SAMPLES, out=workdir) for a in argv]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        text = stdout.getvalue()
        runs.append({"code": code, "stdout": json.loads(text) if text else None})
    files = {p.relative_to(workdir).as_posix(): p.read_text(encoding="utf-8")
             for p in sorted(Path(workdir).rglob("*")) if p.is_file()}
    return {"runs": runs, "files": files}


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_fixture(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    assert record(CASES[name], tmp_path) == golden[name]


if __name__ == "__main__":
    doc = {}
    for name, argvs in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            doc[name] = record(argvs, workdir)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
