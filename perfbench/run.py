"""pinrig benchmark: known-answer workloads driven through ``pinrig.cli.main``.

Usage, from the root of a pinrig checkout (standard library only; pinrig is
imported from ``src``, it need not be installed)::

    python3 perfbench/run.py --workload assur_check --seed 1 --seconds 60 --trace 0

Workloads: ``assur_check``, ``decompose_deep``, ``certify_roundtrip`` (see
README.md).  With ``--trace 0`` it reports the end-to-end metrics of an
untraced closed-loop run; with ``--trace 1`` the per-layer metrics of a
traced run.  Every metric is printed by name with its unit, and the last
line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when any answer disagrees with the known answer of its
input or the oracle cross-check fails.  ``failed`` counts queries where an
exception escaped ``cli.main``, exit code 2 came where a verdict was due, or
a certificate search gave up.

Set-up time is measured from just before a worker process is started to the
moment it is ready for its first timed query.  It is taken for the worker
that runs the timed loop and for the set-up workers that one starts between
its rounds, spread evenly over the loop, and the median is reported: the
host's speed drifts over tens of seconds, and samples taken back to back
share one phase of that drift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# time allowed beyond --seconds for set-up, the last round, the oracle
# cross-check and a traced run
DEADLINE_MARGIN_S = 100

END_TO_END = (("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("throughput_qps", "1/s"), ("answered_frac", "frac"),
              ("peak_rss_mb", "MB"))


def run_worker(role, args, deadline):
    """Start one worker; returns (its result dict, monotonic start time)."""
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def machine_facts():
    load = os.getloadavg()
    return [f"nproc: {os.cpu_count()}",
            f"python: {platform.python_version()}",
            f"load average at start: {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}",
            "cpu pinning: none"]


def end_to_end(args, deadline):
    res, started = run_worker("measure", args, deadline)
    setups = [res["ready"] - started] + res["setups"]
    n = res["attempted"]
    values = {"setup_s": statistics.median(setups),
              "latency_p50_ms": res["latency_p50_ms"],
              "latency_p90_ms": res["latency_p90_ms"],
              "throughput_qps": res["throughput_qps"],
              "answered_frac": (n - res["wrong"] - res["failed"]) / n,
              "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = [f"queries: {n} in {res['rounds']} rounds",
             f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
             f"wrong_frac: {res['wrong'] / n:.6f}",
             f"failed_frac: {res['failed'] / n:.6f}",
             f"outcomes by query kind: {res['by_kind']}"]
    return res, metrics, notes


def per_layer(args, deadline):
    res, _ = run_worker("trace", args, deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(res["metrics"].items())}
    plain = res["untraced"]
    notes = [f"traced queries: {res['attempted']} (each also ran untraced, "
             "in alternating order)",
             f"untraced throughput_qps: {plain['throughput_qps']:.4f}, "
             f"traced: {res['throughput_qps']:.4f}",
             f"spans: {res['spans']}, traced query time: {res['traced_query_s']:.4f} s, "
             f"written to {res['span_file']}",
             "pinrig.graphs is not wrapped: graph construction counts in the "
             "self time of its callers",
             f"wrong_frac: {res['wrong'] / res['attempted']:.6f}",
             f"failed_frac: {res['failed'] / res['attempted']:.6f}",
             f"outcomes by query kind: {res['by_kind']}"]
    return res, metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pinrig", "cli.py")):
        print("perfbench: src/pinrig not found; run from the root of a pinrig "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    facts = machine_facts()
    try:
        res, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    mismatches = res["oracle_mismatches"]
    for line in facts + notes:
        print(line)
    for line in mismatches:
        print(f"oracle cross-check mismatch: {line}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["wrong"] == 0 and not mismatches,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
