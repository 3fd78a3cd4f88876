"""Golden CLI fixture: every sample through the commands that read it.

`cli_golden.json` records, for each case, the exit code and parsed stdout
of each command and the text of every file the case wrote.  Refactors must
leave all of it unchanged.  From the root of the checkout::

    python tests/golden.py             # replay every case
    python tests/golden.py --record    # rewrite the fixture

The replay exits 1 and names each case whose output differs; record only
for an intended change of output.  Standard library only, so the replay
runs on every supported interpreter, with or without pytest.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pinrig import cli  # noqa: E402

SAMPLES = ROOT / "samples"
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
            code = cli.main(argv)
        text = stdout.getvalue()
        runs.append({"code": code, "stdout": json.loads(text) if text else None})
    files = {p.relative_to(workdir).as_posix(): p.read_text(encoding="utf-8")
             for p in sorted(Path(workdir).rglob("*")) if p.is_file()}
    return {"runs": runs, "files": files}


CASES = cases()


def main(argv):
    if argv not in ([], ["--record"]):
        sys.exit("usage: python tests/golden.py [--record]")
    got = {}
    for name, argvs in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            got[name] = record(argvs, workdir)
    if argv:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    names = got.keys() | want.keys()
    bad = sorted(name for name in names if got.get(name) != want.get(name))
    for name in bad:
        print(f"mismatch: {name}")
    print(f"{len(bad)} of {len(names)} cases differ from the fixture")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
