"""Benchmark entry point for the superschrod kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(``child.py``) with ``src`` on its path and PYTHONHASHSEED fixed, one
process at a time.  ``--trace 0`` measures the end-to-end metrics: set-up
time (median of several cold starts) and a closed loop of whole case
cycles for ``--seconds``.  ``--trace 1`` replays a fixed case list three
times: untraced, with spans, and with scalar counters, and prints the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is the JSON result; a failing case makes it
``"correct": false``.  A missing kernel source tree or a crashed pass
exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import PROBE_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 11
BUDGET_S = 170.0

# Per-layer metric name -> key in the counting pass or the span pass.
COUNT_METRICS = {
    "scalars.qi_ops": "scalars.qi_ops",
    "scalars.gs_ops": "scalars.gs_ops",
}
SPAN_COUNT_METRICS = {
    "verma.act_calls": "verma.act.calls",
    "verma.cache_entries": "verma.cache_entries",
    "singular.find_calls": "singular.find.calls",
    "singular.elim_calls": "singular.elim.calls",
    "singular.elim_entries": "singular.elim_entries",
    "singular.elim_rank": "singular.elim_rank",
    "singular.kernel_dim": "singular.kernel_dim",
    "quotient.gram_calls": "quotient.gram.calls",
    "quotient.gram_entries": "quotient.gram_entries",
    "quotient.reduce_calls": "quotient.reduce.calls",
    "quotient.rules": "quotient.rules",
    "realization.apply_calls": "realization.apply.calls",
    "realization.terms_out": "realization.terms_out",
    "superalgebra.verify_calls": "superalgebra.verify.calls",
    "cli.requests": "cli.calls",
    "cli.stdout_bytes": "cli.stdout_bytes",
}
# Self time of each span name, as a share of the traced wall time.
SELF_METRICS = {
    "verma.act_frac": "verma.act",
    "verma.closure_frac": "verma.closure",
    "singular.find_frac": "singular.find",
    "singular.elim_frac": "singular.elim",
    "quotient.gram_frac": "quotient.gram",
    "quotient.classify_frac": "quotient.classify",
    "quotient.reduce_frac": "quotient.reduce",
    "realization.apply_frac": "realization.apply",
    "realization.verify_frac": "realization.verify",
    "superalgebra.verify_frac": "superalgebra.verify",
    "cli.self_frac": "cli",
}
MICRO_METRICS = ("scalars.qi_mul_ns", "scalars.gs_mul_ns",
                 "scalars.fraction_mul_ns")


class PassFailed(Exception):
    pass


class Runner:
    def __init__(self):
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def child(self, *args):
        """Run one pass in a fresh interpreter and return its JSON."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("time budget spent before pass %s" % args[0])
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py")]
                + [str(a) for a in args],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise PassFailed("pass %s exceeded the time budget" % args[0])
        if proc.returncode != 0:
            raise PassFailed("pass %s exited %d:\n%s"
                             % (args[0], proc.returncode, proc.stderr[-3000:]))
        return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(runner, workload, seed, seconds, lines):
    runner.child("setup", workload)  # writes bytecode caches; not timed
    setups = [runner.child("setup", workload) for _ in range(SETUP_RUNS)]
    out = runner.child("timed", workload, seed, seconds)
    times = sorted(out["times"])
    n = len(times)
    # highest percentile with at least ten cases beyond it (nearest rank)
    tail_rank = max(n - 11, 0)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "cases_per_s": n / sum(times),
        "case_p50_ms": statistics.median(times) * 1e3,
        "case_tail_ms": times[tail_rank] * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    raw = sorted(out["raw_times"])
    nfail = len(out["failures"])
    lines.append("%s seed %d: %d cases; failed_frac %.4f (%d/%d)"
                 % (workload, seed, n, nfail / n, nfail, n))
    lines.append("case_tail_ms is p%.1f of %d cases (%d beyond it)"
                 % (100.0 * (tail_rank + 1) / n, n, n - tail_rank - 1))
    lines.append("raw wall time: %.3f cases/s, p50 %.2f ms, tail %.2f ms, "
                 "setup %.4f s; probe median %.3f ms (reference %.3f ms)"
                 % (n / sum(raw), statistics.median(raw) * 1e3,
                    raw[tail_rank] * 1e3,
                    statistics.median(s["raw_setup_s"] for s in setups),
                    out["probe_median_s"] * 1e3, PROBE_REFERENCE_S * 1e3))
    for name in MICRO_METRICS:
        lines.append("%s = %.1f ns" % (name, out[name]))
    lines.extend("FAILED %s" % f for f in out["failures"])
    return metrics, n, nfail


def per_layer(runner, workload, seed, lines):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, "spans-%s-seed%d.json.gz"
                              % (workload, seed))
    plain = runner.child("plain", workload, seed)
    spans = runner.child("spans", workload, seed, spans_path)
    counts = runner.child("counts", workload, seed)
    metrics = {name: counts["counts"].get(key, 0)
               for name, key in COUNT_METRICS.items()}
    metrics.update({name: spans["counts"].get(key, 0)
                    for name, key in SPAN_COUNT_METRICS.items()})
    wall = spans["wall_s"]
    metrics.update({name: spans["self_s"].get(key, 0.0) / wall
                    for name, key in SELF_METRICS.items()})
    metrics.update({name: plain[name] for name in MICRO_METRICS})
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = (wall - spans["roots_s"]) / wall
    metrics["trace.slowdown_frac"] = wall / plain["wall_s"] - 1.0
    failed = sorted(set(plain["failed"]) | set(spans["failed"])
                    | set(counts["failed"]))
    lines.append("%s seed %d traced: %d cases, %d spans written to %s"
                 % (workload, seed, plain["cases"], spans["spans"],
                    os.path.relpath(spans_path, ROOT)))
    lines.append("untraced %.3f s, traced %.3f s (reference speed); raw "
                 "traced wall %.3f s" % (plain["wall_s"], wall,
                                         spans["raw_wall_s"]))
    for key, seconds in sorted(spans["self_s"].items()):
        lines.append("self time %-20s %.4f s" % (key, seconds))
    lines.extend("FAILED traced case %d" % idx for idx in failed)
    return metrics, plain["cases"], len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "superschrod",
                                       "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root; "
                         "src/superschrod is missing\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %r\n" % args.workload)
        return 2

    runner = Runner()
    lines = []
    try:
        if args.trace:
            values, attempted, failed = per_layer(runner, args.workload,
                                                  args.seed, lines)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = end_to_end(
                runner, args.workload, args.seed, args.seconds, lines)
            wanted = spec["end_to_end"]
    except PassFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, entry in metrics.items():
        lines.append("%-28s %s %s" % (name, entry["value"], entry["unit"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    sys.stdout.write("\n".join(lines) + "\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
