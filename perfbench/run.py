"""Run one varlam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every workload is a closed loop with one caller in one thread:
the next query starts after the previous verdict.  After one untimed warm-up
pass the workload runs whole passes, at least one, until ``--seconds`` have
passed, with calibration units interrupting the queries (see
``calibration.py``).  Every answer is compared with its known answer, and
the machine-independent counts of every pass must equal those of the
warm-up.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracing.py``), which alternates untraced and traced passes to report the
tracing overhead.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_UNIT_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 9
# Set-up seconds, then the mean seconds of a calibration unit run right after.
SETUP_CODE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import varlam
varlam.standard_env()
setup = time.perf_counter() - t0
from calibration import unit
import gc
gc.disable()
unit()
units = []
for _ in range(20):
    t0 = time.perf_counter()
    unit()
    units.append(time.perf_counter() - t0)
print(setup, statistics.fmean(units))
"""
# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_QUERIES = 100
CROSS_CHECKS = 8
CROSS_CHECK_MAX_STEPS = 300
# Calibration units that calibrate a single query.
LOCAL_UNITS = 5


def load_program():
    """Import varlam from this checkout's sources, or stop with an error."""
    package = SRC / "varlam"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no varlam sources at {package}")
    sys.path.insert(0, str(SRC))
    import varlam

    if Path(varlam.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported varlam from {varlam.__file__}, not {package}")
    return varlam


def measure_setup() -> list[tuple[float, float]]:
    """(seconds to import varlam and build standard_env(), mean seconds of a
    calibration unit right after) in each of several fresh processes."""
    here = str(Path(__file__).resolve().parent)
    runs = []
    for _ in range(SETUP_PROCESSES):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), here],
                             capture_output=True, text=True, timeout=120, check=True)
        setup, unit_s = map(float, out.stdout.split()[-2:])
        runs.append((setup, unit_s))
    return runs


@dataclasses.dataclass
class Pass:
    latencies: list  # seconds, one per query, calibration ticks taken out
    failures: list   # one line per query that raised or answered wrongly
    decided: int
    signature: list  # (label, answer, *counts) per query
    local: list = dataclasses.field(default_factory=list)  # per query: mean unit during it
    cal_unit: float = 0.0  # mean seconds of a calibration unit during the pass
    cal_units: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def latencies_cal(self) -> list[float]:
        """Latencies in calibration units: divided by the mean of the units
        that ran during the query, or of the latest LOCAL_UNITS units when
        fewer ran during it, else by the mean unit of the pass."""
        return [x / (u or self.cal_unit) for x, u in zip(self.latencies, self.local)]


def run_pass(queries, calibrate: bool = True) -> Pass:
    clock = time.perf_counter
    p = Pass([], [], 0, [])
    with Calibrator(calibrate) as cal:
        for q in queries:
            spent, ticks, t0 = cal.spent, len(cal.units), clock()
            try:
                r, error = q.run(), None
            except Exception as e:  # a query that raises is a failed query
                r, error = None, e
            p.latencies.append(clock() - t0 - (cal.spent - spent))
            during = cal.units[ticks:]
            if len(during) < LOCAL_UNITS:  # a short query: the machine's latest speed
                during = cal.units[-LOCAL_UNITS:]
            p.local.append(statistics.fmean(during) if len(during) >= LOCAL_UNITS else None)
            if error is not None:
                p.failures.append(f"{q.label}: raised {type(error).__name__}: {error}")
                p.signature.append((q.label, "raised"))
                continue
            try:
                got, decided, counts = q.answer(r), q.decided(r), q.counts(r)
            except Exception as e:
                p.failures.append(f"{q.label}: result unreadable: {type(e).__name__}: {e}")
                p.signature.append((q.label, "unreadable"))
                continue
            del r
            if got != q.expect:
                p.failures.append(f"{q.label}: expected {q.expect!r}, got {got!r}")
            p.decided += bool(decided)
            p.signature.append((q.label, got, *counts))
    if calibrate:
        p.cal_unit, p.cal_units = cal.unit_s(), len(cal.units)
    return p


def run_passes(queries, seconds: float) -> list[Pass]:
    """Whole passes, at least one, until ``seconds`` have passed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(run_pass(queries))
    return passes


def repeat_mismatches(reference: list, others: list) -> list[str]:
    """Labels whose answer or counts differ between repeats."""
    bad = []
    for sig in others:
        bad.extend(a[0] for a, b in zip(reference, sig) if a != b)
    return sorted(set(bad))


def digest(signature: list) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]


def tail(latencies: list) -> tuple[float, float, int] | None:
    """(percentile, seconds, samples beyond): the highest ladder percentile
    with at least ten samples beyond it."""
    xs = sorted(latencies)
    for pct in TAIL_LADDER:
        idx = int(len(xs) * pct / 100)
        beyond = len(xs) - 1 - idx
        if beyond >= 10:
            return pct, xs[idx], beyond
    return None


def cross_check(V, queries, env, seed: int) -> tuple[int, list[str]]:
    """Hold a seeded sample of beta-normal forms to engine.trace, the naive
    reference reducer; returns (terms checked, disagreements)."""
    cands = [q for q in queries if q.term is not None]
    random.Random(f"cross-check:{seed}").shuffle(cands)
    no_eta = V.ReductionConfig(eta=False)
    problems, checked = [], 0
    for q in cands:
        if checked == CROSS_CHECKS:
            break
        out = V.normalize(q.term, env, no_eta)
        if out.status is not V.Status.NORMAL_FORM or out.steps > CROSS_CHECK_MAX_STEPS:
            continue
        seq = V.trace(q.term, env, V.ReductionConfig(fuel=out.steps + 1, eta=False))
        checked += 1
        if len(seq) - 1 != out.steps or not V.alpha_eq(seq[-1], out.result):
            problems.append(f"{q.label}: normalize and trace disagree")
    return checked, problems


def interquartile_mean(values: list) -> float:
    """Mean of the middle half of the sorted values (all of them below 4)."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def metric(value, unit):
    return {"value": value, "unit": unit}


def show(name, value, unit, note=""):
    text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    print(f"  {name:<34} {text:>14} {unit:<6} {note}")


def end_to_end(V, W, args) -> dict:
    setup = measure_setup()
    env = V.standard_env()
    queries = W.build(args.workload, args.seed, env)
    warm = run_pass(queries)
    passes = run_passes(queries, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked, problems = cross_check(V, queries, env, args.seed) if args.workload == "normalize" else (0, [])

    lat = [x for p in passes for x in p.latencies]
    lat_cal = [x for p in passes for x in p.latencies_cal()]
    attempted = len(lat) + checked
    failures = [f for p in passes for f in p.failures] + problems
    mismatched = repeat_mismatches(warm.signature, [p.signature for p in passes])
    failed = len(failures)
    metrics = {
        "setup_s": metric(statistics.median(t / u for t, u in setup) * NOMINAL_UNIT_S, "s"),
        "wall_cal": metric(statistics.median(sum(p.latencies_cal()) for p in passes), "cal"),
        "query_iqm_cal": metric(interquartile_mean(lat_cal), "cal"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }

    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} timed passes of "
          f"{len(queries)} queries after one warm-up pass")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    show("setup_raw_s", statistics.median(t for t, _ in setup), "s", "not calibrated")
    show("wall_s", statistics.median(p.wall for p in passes), "s", "median pass, not calibrated")
    show("queries_per_s", len(lat) / sum(p.wall for p in passes), "1/s", "not calibrated")
    show("query_p50_ms", statistics.median(lat) * 1000, "ms", "not calibrated")
    if len(queries) >= TAIL_MIN_QUERIES:
        pct, value, beyond = tail(lat) or (100.0, max(lat), 0)
        show("query_tail_ms", value * 1000, "ms", f"p{pct:g} of {len(lat)} samples, {beyond} beyond")
    show("cal_unit_ms", statistics.median(p.cal_unit for p in passes) * 1000, "ms",
         f"median pass mean of {sum(p.cal_units for p in passes)} calibration units")
    show("decided_frac", sum(p.decided for p in passes) / len(lat), "1")
    show("failed_frac", failed / attempted, "1", f"{failed} of {attempted}, {checked} trace cross-checks")
    print(f"  counts digest {digest(warm.signature)}; repeats differ on: {mismatched or 'none'}")
    counted = {s[0]: list(s[2:]) for s in warm.signature if len(s) > 2}
    if counted:
        print("  item counts " + json.dumps(dict(sorted(counted.items()))))
    for line in failures[:20]:
        print("  FAILED " + line)
    return {"correct": failed == 0 and not mismatched, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def per_layer(V, W, args) -> dict:
    from tracing import SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    env = V.standard_env()
    setup_layers = tracer.layers()
    tracer.uninstall()

    queries = W.build(args.workload, args.seed, env)
    warm = run_pass(queries, calibrate=False)
    # Untraced and traced passes alternate, so both see the same machine.
    untraced, traced, marks, counts = [], [], [tracer.mark()], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        gc.collect()
        untraced.append(run_pass(queries, calibrate=False))
        gc.collect()
        tracer.install()
        try:
            traced.append(run_pass(queries, calibrate=False))
        finally:
            tracer.uninstall()
        marks.append(tracer.mark())
        counts.append(tracer.take_counts())

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    mismatched = repeat_mismatches(warm.signature, [p.signature for p in passes])
    per_pass = [tracer.layers(a, b) for a, b in zip(marks, marks[1:])]
    calls = [{name: row[0] for name, row in layers.items()} for layers in per_pass]
    if any(c != calls[0] for c in calls[1:]) or any(c != counts[0] for c in counts[1:]):
        mismatched.append("traced counts")

    n = len(traced)
    layers = tracer.layers(marks[0])
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    covered = sum(row[2] for row in layers.values()) / n
    c = counts[0]
    metrics = {"env.standard_env.self_s": metric(setup_layers["env.standard_env"][1], "s")}
    for name in SPANS:
        if name != "env.standard_env":
            metrics[f"{name}.calls"] = metric(calls[0][name], "count")
            metrics[f"{name}.self_s"] = metric(layers[name][1] / n, "s")
    for name, value in c.items():
        if not name.startswith("bracket.turner_nodes"):
            metrics[name] = metric(value, "count")
    metrics["engine.reach_new_ratio"] = metric(
        c["engine.reach_explored"] / c["engine.reducts_generated"] if c["engine.reducts_generated"] else 0.0,
        "ratio")
    metrics["bracket.size_ratio"] = metric(
        c["bracket.turner_nodes_out"] / c["bracket.turner_nodes_in"] if c["bracket.turner_nodes_in"] else 0.0,
        "ratio")
    metrics["bench.queries"] = metric(len(queries), "count")
    metrics["bench.unspanned_s"] = metric(sum(p.wall for p in traced) / n - covered, "s")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")

    print(f"workload {args.workload}  seed {args.seed}  traced run: {n} untraced and {n} traced "
          f"passes of {len(queries)} queries, alternating, after one warm-up pass")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    busiest = max((k for k in metrics if k.endswith(".self_s")), key=lambda k: metrics[k]["value"])
    print(f"  most self time: {busiest}; repeats differ on: {mismatched or 'none'}")
    for line in failures[:20]:
        print("  FAILED " + line)
    return {"correct": not failures and not mismatched,
            "attempted": sum(len(p.latencies) for p in passes),
            "failed": len(failures), "metrics": metrics}


def _wrong(expect):
    """A deliberately wrong known answer of the same kind."""
    if isinstance(expect, bool):
        return not expect
    if isinstance(expect, int):
        return expect + 1
    return {"EQUAL": "NOT-EQUAL", "NOT-EQUAL": "EQUAL", "no-normal-form": "normal-form"}.get(expect, f"{expect} I")


def self_test(V, W) -> int:
    """Tiny workloads: true answers pass, wrong ones and errors are caught."""
    env = V.standard_env()
    problems = []
    for name in W.WORKLOADS:
        queries = W.build(name, 0, env, tiny=True)
        good = run_pass(queries)
        if good.failures:
            problems.append(f"{name}: known answers rejected: {good.failures}")
        wrong = run_pass([dataclasses.replace(q, expect=_wrong(q.expect)) for q in queries])
        if len(wrong.failures) != len(queries):
            problems.append(f"{name}: a wrong expected answer was accepted")
        altered = [(s[0], "altered", *s[2:]) for s in good.signature]
        if repeat_mismatches(good.signature, [altered]) != sorted(q.label for q in queries):
            problems.append(f"{name}: differing repeats were not flagged")
        print(f"self-test {name}: {len(queries)} queries, {len(wrong.failures)} wrong answers caught")
    raising = W.Query("malformed", run=lambda: V.parse("\\x."), expect=True)
    if len(run_pass([raising]).failures) != 1:
        problems.append("a raising query was not counted as failed")
    for line in problems:
        print("SELF-TEST FAILED " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("reach", "diverge", "normalize", "syntax"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the harness on tiny workloads")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    V = load_program()
    import workloads as W  # after load_program: it imports varlam

    if args.self_test:
        return self_test(V, W)
    result = per_layer(V, W, args) if args.trace else end_to_end(V, W, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
