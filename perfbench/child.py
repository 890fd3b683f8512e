"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py setup  WORKLOAD
    python3 perfbench/child.py timed  WORKLOAD SEED SECONDS
    python3 perfbench/child.py plain  WORKLOAD SEED
    python3 perfbench/child.py spans  WORKLOAD SEED SPANS_PATH
    python3 perfbench/child.py counts WORKLOAD SEED

``run.py`` starts these with ``src`` and ``perfbench`` on PYTHONPATH and a
fixed PYTHONHASHSEED.  The kernel is imported only inside the passes, so
that the ``setup`` pass times its import from a cold interpreter.

Reported times are at reference speed.  The processor's speed for Python
code drifts by up to a factor of two over seconds to minutes when other
tenants share the machine, and the drift moves every timing alike.  A fixed
pure-Python probe (stdlib only, garbage collector off) therefore runs before
every case; a case's wall time is multiplied by PROBE_REFERENCE_S over the
median of the probes taken within PROBE_WINDOW_S of it.  Raw wall times are
returned too.
"""

import gc
import json
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# Cycles of the seed's case stream that a traced run replays in each pass.
TRACE_CYCLES = 2
# The probe's time at reference speed: about its median on the 2-core
# x86-64 sandbox the benchmark was sized on.
PROBE_REFERENCE_S = 0.002
# Half-width of the window of probes that sets a case's speed factor: short
# against the drift, long enough to average the probes' own jitter.
PROBE_WINDOW_S = 0.5


def probe():
    """Wall seconds of a fixed stdlib workload (Fraction sums, dict stores)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 400):
            total += Fraction(1, i) * Fraction(i, i + 1)
            table[(i, i % 7)] = total
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factors(probes):
    """Per-case factor to reference speed from ``(start, probe s)`` pairs:
    the reference over the median probe within PROBE_WINDOW_S."""
    factors = []
    lo = hi = 0
    for stamp, _ in probes:
        while probes[lo][0] < stamp - PROBE_WINDOW_S:
            lo += 1
        while hi < len(probes) and probes[hi][0] <= stamp + PROBE_WINDOW_S:
            hi += 1
        window = [p for _, p in probes[lo:hi]]
        factors.append(PROBE_REFERENCE_S / statistics.median(window))
    return factors


def _setup(workload):
    t0 = perf_counter()
    import workloads
    workloads.setup(workload)
    wall = perf_counter() - t0
    factor = PROBE_REFERENCE_S / statistics.median(probe() for _ in range(5))
    return {"setup_s": wall * factor, "raw_setup_s": wall}


def _microbench():
    """Median ns per multiply at fixed operand sizes, at reference speed.

    Operands have 3- and 4-digit numerators and denominators.  QI operands
    are real, as every module coefficient is; GradedScalar operands carry
    both an even and a chi part, so the product takes its full path.
    """
    import timeit
    from superschrod.scalars import QI, ScalarRing

    a = Fraction(1234, 567)
    b = Fraction(-891, 2345)
    x, y = QI(a), QI(b)
    ring = ScalarRing(Fraction(3, 2))
    g, h = ring.scalar(x, y), ring.scalar(y, x)
    out = {}
    for name, stmt, env in (("scalars.fraction_mul_ns", "a * b", {"a": a, "b": b}),
                            ("scalars.qi_mul_ns", "x * y", {"x": x, "y": y}),
                            ("scalars.gs_mul_ns", "g * h", {"g": g, "h": h})):
        number = 2000
        probes, runs = [], []
        for _ in range(9):
            probes.append(probe())
            runs.append(timeit.timeit(stmt, globals=env, number=number))
        factor = PROBE_REFERENCE_S / statistics.median(probes)
        out[name] = statistics.median(runs) / number * 1e9 * factor
    return out


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_one(workloads, case, before=None, after=None):
    """((start, probe s), case wall s, failure reason or None)."""
    p = (perf_counter(), probe())
    if before:
        before()
    result, reason = None, None
    t0 = perf_counter()
    try:
        result = workloads.run_case(case)
    except Exception as exc:  # a raising case is a failed case
        reason = "raised %r" % (exc,)
    wall = perf_counter() - t0
    if after:
        after(result)
    if reason is None:
        reason = workloads.check_case(case, result)
    return p, wall, reason


def _timed(workload, seed, seconds):
    """Closed loop, one client: whole cycles until ``seconds`` have passed."""
    import random
    import workloads

    rng = random.Random(seed)
    probes, raw, failures = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        for case in workloads.make_cycle(workload, rng):
            p, wall, reason = _run_one(workloads, case)
            probes.append(p)
            raw.append(wall)
            if reason:
                failures.append("%s: %s" % (workloads.describe(case), reason))
    factors = speed_factors(probes)
    out = {"times": [t * f for t, f in zip(raw, factors)], "raw_times": raw,
           "probe_median_s": statistics.median(p for _, p in probes),
           "failures": failures, "peak_rss_mb": _peak_rss_mb()}
    out.update(_microbench())
    return out


def _replay(workload, seed, before=None, after=None):
    """Run the traced case list.

    ``before(idx)`` and ``after(idx, result)`` bracket the timed call, so
    probes and known-answer checks run with tracing and counting off.
    """
    import workloads

    cases = workloads.case_list(workload, seed, TRACE_CYCLES)
    probes, raw, failed = [], [], []
    for idx, case in enumerate(cases):
        p, wall, reason = _run_one(
            workloads, case,
            before and (lambda: before(idx)),
            after and (lambda result: after(idx, result)))
        probes.append(p)
        raw.append(wall)
        if reason:
            failed.append(idx)
    factors = speed_factors(probes)
    return {"cases": len(cases), "failed": failed, "factors": factors,
            "wall_s": sum(t * f for t, f in zip(raw, factors)),
            "raw_wall_s": sum(raw)}


def _plain(workload, seed):
    out = _replay(workload, seed)
    out.update(_microbench())
    return out


def _spans(workload, seed, path):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()

    def before(idx):
        tracer.current_case = idx
        tracer.active = True

    def after(idx, result):
        tracer.active = False
        tracer.end_case()
        if workload == "cli" and result is not None:
            tracer.counts["cli.stdout_bytes"] += len(result[1])

    out = _replay(workload, seed, before, after)
    self_s, roots = tracer.self_times(out["factors"])
    tracer.write(path)
    out.update({"self_s": self_s, "roots_s": roots, "counts": tracer.counts,
                "spans": len(tracer.start)})
    return out


def _counts(workload, seed):
    from tracing import ScalarCounter

    counter = ScalarCounter()
    counter.install()

    def before(idx):
        counter.active = True

    def after(idx, result):
        counter.active = False

    out = _replay(workload, seed, before, after)
    out["counts"] = counter.counts
    return out


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        out = _setup(workload)
    elif mode == "timed":
        out = _timed(workload, int(argv[2]), float(argv[3]))
    elif mode == "plain":
        out = _plain(workload, int(argv[2]))
    elif mode == "spans":
        out = _spans(workload, int(argv[2]), argv[3])
    elif mode == "counts":
        out = _counts(workload, int(argv[2]))
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
