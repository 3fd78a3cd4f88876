"""One benchmark process; started by run.py, which reads its last stdout line.

Roles:

* ``setup``   -- import pinrig, generate and write the first round of
  inputs, run the untimed warm-up query, report when it was ready, and exit;
* ``measure`` -- the same set-up, then the untraced closed loop: one client,
  one query at a time, whole rounds until ``--seconds`` have passed.
  Between rounds, spread evenly over the loop, it starts ``setup`` workers
  one at a time and times their set-up, with the loop's clock running but
  no query in flight;
* ``trace``   -- the same set-up, then each query of the first rounds once
  untraced and once with every layer wrapped in spans (see spans.py).

Queries call ``pinrig.cli.main(argv)`` in this process with stdout and
stderr captured.  After timing, every answer has been checked against the
known answer of its input, and a small sample of the generators' inputs is
checked against pinrig's exhaustive oracles.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORK_DIR = ".perfbench_work"
# at least ten queries beyond the 90th percentile
MIN_QUERIES = 100
# rounds of a traced run: a fixed set, so that its counts repeat exactly
TRACE_ROUNDS = 2
# set-up samples taken by a measure worker, besides its own set-up
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 30


def run_query(cli, q):
    """Run a query's commands; a command runs only if the previous exited 0.

    Returns (exit code or None when an exception escaped, stdout) per command.
    """
    outcomes = []
    for argv in q.argvs:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            code = None
        outcomes.append((code, out.getvalue()))
        if code != 0:
            break
    return outcomes


class Tally:
    """Latencies and outcome counts of one pass over queries."""

    def __init__(self):
        self.latency = []
        self.outcome = Counter()
        self.by_kind = Counter()

    def add(self, q, seconds, outcome):
        self.latency.append(seconds)
        self.outcome[outcome] += 1
        self.by_kind[f"{q.kind}:{outcome}"] += 1

    @property
    def attempted(self):
        return len(self.latency)

    def summary(self):
        lat = self.latency
        n = len(lat)
        return {"attempted": n, "failed": self.outcome["failed"],
                "wrong": self.outcome["wrong"],
                "latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
                "throughput_qps": n / sum(lat),
                "by_kind": dict(sorted(self.by_kind.items()))}


def timed_query(cli, q, tally, tracer=None, qid=0):
    t0 = time.perf_counter()
    if tracer is None:
        outcomes = run_query(cli, q)
    else:
        root = tracer.begin_query(qid)
        outcomes = run_query(cli, q)
        tracer.close(root)
    tally.add(q, time.perf_counter() - t0, wl.check(q, outcomes))


def run_pass(cli, queries, tally):
    for q in queries:
        timed_query(cli, q, tally)


def timed_loop(cli, rounds, seconds, between):
    """Whole rounds until `seconds` have passed and at least MIN_QUERIES
    queries have run.  Each round is written just before it runs, outside
    the timed queries; `between(elapsed seconds)` is called before each."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while tally.attempted < MIN_QUERIES or time.perf_counter() - start < seconds:
        between(time.perf_counter() - start)
        run_pass(cli, next(rounds), tally)
        r += 1
    return tally, r


def setup_sample(args):
    """Seconds from starting a ``setup`` worker to its being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", "setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - started


# -- oracle cross-check --------------------------------------------------------


def _oracle_verdict(g):
    """(pinned isostatic, Assur) of a generated graph, by the exhaustive
    counting oracles."""
    from pinrig.counting import circuit_oracle, pinned_conditions_oracle
    from pinrig.graphs import PinnedGraph, contract_pins
    pg = PinnedGraph(g.inner, g.pins, g.edges)
    iso = pinned_conditions_oracle(pg)
    assur = iso and not g.isolated_pins() and circuit_oracle(contract_pins(pg))
    return iso, assur


def oracle_crosscheck(workload, seed):
    """Check a seeded sample of inputs of at most 12 vertices against the
    oracles.  Returns a list of mismatch descriptions."""
    rng = random.Random(f"oracle-{workload}-{seed}")
    names = wl.Names
    cases = []  # (description, generated pinned graph, isostatic, assur)
    if workload == "assur_check":
        for inner, pins in ((1, 2), (3, 2), (5, 3), (7, 3), (9, 3)):
            cases.append((f"assur inner={inner} pins={pins}",
                          wl.grow_assur(rng, inner, pins, names()), True, True))
        for inner in (4, 6, 9):
            g, _ = wl.composition(rng, inner, names())
            cases.append((f"composition inner={inner}", g, True, False))
        g = wl.grow_assur(rng, 8, 3, names())
        g.edges.pop(rng.randrange(len(g.edges)))
        cases.append(("edge-deleted inner=8", g, False, False))
    elif workload == "decompose_deep":
        for g, parts in (wl.dyad_chain(rng, 4, names()),
                         wl.layered(rng, 6, names())):
            cases.append(("stacked", g, True, False))
            placed = set(g.pins)
            for lvl, edges in parts:
                verts = {x for e in edges for x in e}
                part = wl.Pinned(sorted(verts - placed), sorted(verts & placed),
                                 [tuple(e) for e in edges])
                placed |= verts
                cases.append((f"level-{lvl} part", part, True, True))
    else:
        for nv in (5, 7, 9, 10):
            n = names()
            verts, edges = wl.circuit(rng, nv, (nv - 4) // 3, n)
            cases.append((f"pin split of circuit n~{nv}",
                          wl.pin_split(rng, verts, edges, n, 2 + nv % 2), True, True))
    bad = []
    for desc, g, iso, assur in cases:
        if g.n > 12:
            bad.append(f"{desc}: sample has {g.n} > 12 vertices")
        elif _oracle_verdict(g) != (iso, assur):
            bad.append(f"{desc}: oracle says {_oracle_verdict(g)}, "
                       f"construction says {(iso, assur)}")
    return bad


# -- roles ---------------------------------------------------------------------------


def written_rounds(make_round, rng, workdir):
    """Rounds 0, 1, 2, ... of a workload, each written to `workdir` when it
    is taken.  Every round is new, so no input is run twice."""
    for r in itertools.count():
        qs = make_round(rng, r)
        for k, q in enumerate(qs):
            q.materialize(lambda name, k=k: os.path.join(workdir, f"r{r}q{k}.{name}.json"))
        yield qs


def prepare(args):
    """Import pinrig, write the first round and the warm-up query, run the
    warm-up; returns (cli module, iterator over the rounds, work directory,
    monotonic time when ready)."""
    sys.path.insert(0, os.path.abspath("src"))
    from pinrig import cli

    spec = wl.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    rounds = written_rounds(spec.make_round, random.Random(args.seed), workdir)
    rounds = itertools.chain([next(rounds)], rounds)
    warm = spec.warmup(random.Random(0))
    warm.materialize(lambda name: os.path.join(workdir, f"warmup.{name}.json"))
    run_query(cli, warm)
    return cli, rounds, workdir, time.monotonic()


def role_setup(args):
    _, _, workdir, ready = prepare(args)
    shutil.rmtree(workdir)
    return {"ready": ready}


def role_measure(args):
    cli, rounds, workdir, ready = prepare(args)
    setups = []

    def between(elapsed):
        # sample k is due once k / SETUP_SAMPLES of the loop has passed
        while (len(setups) < SETUP_SAMPLES
               and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(setup_sample(args))

    tally, n_rounds = timed_loop(cli, rounds, args.seconds, between)
    shutil.rmtree(workdir)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    out = tally.summary()
    out.update(ready=ready, rounds=n_rounds, setups=setups,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               oracle_mismatches=oracle_crosscheck(args.workload, args.seed))
    return out


def role_trace(args):
    cli, rounds, workdir, _ = prepare(args)
    rounds = list(itertools.islice(rounds, TRACE_ROUNDS))
    # each query runs once untraced and once traced, in alternating order, so
    # that drift in machine speed does not enter the overhead estimate
    plain, traced, tracer = Tally(), Tally(), spans.Tracer()
    for qid, q in enumerate(q for rnd in rounds for q in rnd):
        for with_spans in ((False, True) if qid % 2 == 0 else (True, False)):
            if not with_spans:
                timed_query(cli, q, plain)
                continue
            tracer.install()
            try:
                timed_query(cli, q, traced, tracer, qid)
            finally:
                tracer.uninstall()
    shutil.rmtree(workdir)
    path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed})

    total = tracer.query_s()
    layer_self = tracer.layer_self_s()
    metrics = {}
    for name in ("pebble.games", "pebble.edges_offered", "pebble.is_circuit_calls",
                 "assur.levels", "numeric.kernels", "numeric.elim_cells",
                 "counting.oracle_calls", "canon.calls", "canon.vertices",
                 "generate.time_box_hits"):
        metrics[name] = (tracer.counts[name], "count")
    for layer, sec in layer_self.items():
        metrics[f"{layer}.self_s"] = (sec, "s")
        metrics[f"{layer}.self_share"] = (sec / total, "frac")
    minimality_ns = (tracer.self_ns["assur.check_minimality"]
                     + tracer.self_ns["assur.minimality_violation"])
    metrics["assur.minimality_self_s"] = (minimality_ns / 1e9, "s")
    metrics["generate.verify_self_s"] = (tracer.verify_self_ns / 1e9, "s")
    overhead = 1 - sum(plain.latency) / sum(traced.latency)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    summary = traced.summary()
    summary.update(metrics=metrics, spans=len(tracer.span_name),
                   traced_query_s=total, span_file=path,
                   untraced=plain.summary(),
                   oracle_mismatches=oracle_crosscheck(args.workload, args.seed))
    return summary


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args()
    role = {"setup": role_setup, "measure": role_measure, "trace": role_trace}
    print(json.dumps(role[args.role](args)))


if __name__ == "__main__":
    main()
