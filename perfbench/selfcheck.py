"""Self-check of the benchmark itself (not part of the repo's test suite).

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Run from the repository root.  Confirms that

* one seed yields an identical case list in two fresh interpreters, and
  another seed a different one;
* two traced runs of every workload give identical counts;
* every metric named in BENCHMARK.json is printed with its unit, and the
  layers' self-time shares add up to 1 within the reported
  ``trace.overhead_frac``;
* every case passes its known-answer check;
* without the kernel sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join(HERE, "run.py")


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN] + [str(a) for a in args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d: %s"
                             % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def _case_list(workload, seed):
    code = ("import workloads\n"
            "for case in workloads.case_list(%r, %d, 3):\n"
            "    print(workloads.describe(case))\n" % (workload, seed))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


def _check_metrics(result, wanted, where):
    problems = []
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("%s: metric names differ from BENCHMARK.json" % where)
    for m in wanted:
        entry = result["metrics"].get(m["name"])
        if entry is None or entry.get("unit") != m["unit"] or \
                not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: %s not printed with unit %s"
                            % (where, m["name"], m["unit"]))
    if not result["correct"] or result["failed"]:
        problems.append("%s: %d of %d cases failed"
                        % (where, result["failed"], result["attempted"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        first = _case_list(workload, args.seed)
        if first != _case_list(workload, args.seed):
            problems.append("%s: seed %d gave two case lists"
                            % (workload, args.seed))
        if first == _case_list(workload, args.seed + 1):
            problems.append("%s: seeds %d and %d gave one case list"
                            % (workload, args.seed, args.seed + 1))

        timed = _result(_run(["--workload", workload, "--seed", args.seed,
                              "--seconds", args.seconds, "--trace", 0]))
        problems += _check_metrics(timed, spec["end_to_end"],
                                   "%s trace 0" % workload)
        traced = [_result(_run(["--workload", workload, "--seed", args.seed,
                                "--seconds", args.seconds, "--trace", 1]))
                  for _ in range(2)]
        for result in traced:
            problems += _check_metrics(result, spec["per_layer"],
                                       "%s trace 1" % workload)
        values = [{k: v["value"] for k, v in r["metrics"].items()}
                  for r in traced]
        for name in exact:
            if values[0][name] != values[1][name]:
                problems.append("%s: %s differs between traced runs: %s, %s"
                                % (workload, name, values[0][name],
                                   values[1][name]))
        for v in values:
            shares = sum(v[m["name"]] for m in spec["per_layer"]
                         if m["name"].endswith("_frac")
                         and not m["name"].startswith("trace."))
            if abs(1.0 - shares) > v["trace.overhead_frac"] + 1e-9:
                problems.append("%s: self times cover %.4f of the traced "
                                "wall time, overhead %.4f"
                                % (workload, shares, v["trace.overhead_frac"]))
        print("%s: checked" % workload, flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", spec["workloads"][0]["name"], "--seed", 1,
                     "--seconds", 1, "--trace", 0], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("without sources: exit %d, stdout %r"
                            % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("PROBLEM " + problem)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
