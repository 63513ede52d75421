"""liecap benchmark: one workload and one seed, measured on a single thread.

    python3 bench/run.py --workload catalog-tables --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports liecap from its ``src/``.
A run sets up the seeded inputs, runs one cold pass over every item, then
warm passes until ``--seconds`` have passed and enough latency samples are
pooled, and checks every answer against its oracle outside the timed
region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of the traced cold pass, whose spans go to ``bench/out/``.
See ``bench/README.md`` for what each metric means.
"""

import time

STARTED = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_SAMPLES = 110      # pooled item latencies: at least ten beyond p90
MIN_WARM_PASSES = 3
REFERENCE_S = 0.004    # nominal reference-kernel time: the scale of normalized seconds
CALIBRATE_EVERY_S = 0.2
COLD_CHILDREN = 4      # fresh processes that repeat the setup and the cold pass


def import_program():
    """Import liecap from this checkout's src/; returns the import time in s."""
    if not os.path.isfile(os.path.join(SRC, "liecap", "__init__.py")):
        raise SystemExit(f"error: no liecap sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # the default free-algebra word cap decides which items are beyond it
    os.environ.pop("LIECAP_RESOURCE_LIMIT", None)
    t0 = time.perf_counter()
    import liecap
    import liecap.cli  # noqa: F401  (not imported by the package itself)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(liecap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: liecap imported from {liecap.__file__}, not {SRC}")
    return elapsed


# -- measuring -----------------------------------------------------------------


def reference_kernel():
    """A fixed slice of exact integer and rational work; returns its seconds.

    It calls nothing in liecap, so no change to the program moves it; only
    the speed of the host does.
    """
    t0 = time.perf_counter()
    row = {}
    for i in range(7500):
        c = i % 61
        row[c] = row.get(c, 0) + (i * 7919) % 1009
        if not row[c] % 3:
            row.pop(c)
    acc = Fraction(0)
    for i in range(1, 750):
        acc += Fraction(i % 7 + 1, i % 37 + 1)
    return time.perf_counter() - t0


def calibrate():
    # the faster of two, since a burst only ever slows a kernel down
    return min(reference_kernel(), reference_kernel())


def normalized_setup_s(started):
    """Seconds since ``started``, host-normalized like the passes."""
    return (time.perf_counter() - started) * REFERENCE_S / calibrate()


def run_pass(items, tracer=None, normalize=True):
    """Call every item once; returns (seconds, summary, exception name) each.

    Untraced passes report host-normalized seconds: the reference kernel
    runs before the first item, whenever CALIBRATE_EVERY_S has passed, and
    after the last item, and each latency is scaled by REFERENCE_S over the
    mean of the kernel times just before and just after it.  With
    ``normalize=False`` the seconds are raw, as the traced run needs them.
    """
    records, refs, ref_index = [], [], []
    if normalize:
        refs.append(calibrate())
        last = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        if normalize and time.perf_counter() - last >= CALIBRATE_EVERY_S:
            refs.append(calibrate())
            last = time.perf_counter()
        ref_index.append(len(refs) - 1)
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # recorded and judged by the checks
            records.append((time.perf_counter() - t0, None, type(exc).__name__))
            continue
        elapsed = time.perf_counter() - t0
        records.append((elapsed, item.summarize(result), None))
    if not normalize:
        return records
    refs.append(calibrate())
    return [(elapsed * 2 * REFERENCE_S / (refs[k] + refs[k + 1]), summary, raised)
            for (elapsed, summary, raised), k in zip(records, ref_index)]


def typical_pass_s(passes, items, field=None):
    """A pass's time, as the sum over items of each item's median latency.

    Per-item medians drop the bursts of a shared host, which hit a few
    calls at a time, where the median of whole-pass sums would keep them.
    """
    return sum(statistics.median(p[i][0] for p in passes)
               for i, item in enumerate(items) if field is None or item.field == field)


def quantile(values, q):
    """Linearly interpolated quantile of one pass's item latencies.

    A failed item is infinitely slow; a quantile that touches one is infinite.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0:
        return ordered[lo]
    if math.isinf(ordered[lo + 1]):
        return math.inf
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def item_percentile_ms(passes, outcomes, q):
    """The median over warm passes of each pass's q-quantile item latency.

    Each pass ranks all its items, so an item never lands on a boundary
    between the clusters of repeated samples, as in one pooled ranking.
    """
    return statistics.median(quantile(lat, q) for lat in latencies_ms(passes, outcomes))


def latencies_ms(passes, outcomes):
    """Item latencies per pass; an item that did not answer counts as infinite."""
    from workloads import FAILED, REFUSED
    return [[math.inf if outcome in (FAILED, REFUSED) else elapsed * 1e3
             for (elapsed, _, _), outcome in zip(records, outcomes)]
            for records in passes]


def enough_passes(items, warm):
    return len(warm) >= max(MIN_WARM_PASSES, math.ceil(MIN_SAMPLES / len(items)))


# -- checking ------------------------------------------------------------------


def judge(items, passes):
    """Outcome per item (from the first pass) and a list of check failures.

    Every pass must give the same answers; items of one group (one algebra
    over Q and over GF(101)) must agree on dim M(L); multipliers small
    enough for the cover route must agree with it.
    """
    import workloads as w
    from liecap import covers

    problems = []
    first = passes[0]
    outcomes = []
    for item, (_, summary, raised) in zip(items, first):
        if raised is not None:
            refused = item.may_refuse and raised == "ResourceLimit"
            outcomes.append(w.REFUSED if refused else w.FAILED)
        else:
            outcomes.append(item.check(summary))
        if outcomes[-1] == w.FAILED:
            problems.append(f"{item.label}: {raised or summary}"[:300])
    for records in passes[1:]:
        for item, a, b in zip(items, first, records):
            if a[1:] != b[1:]:
                problems.append(f"{item.label}: answer changed between passes")
    groups = {}
    for item, (_, summary, raised), outcome in zip(items, first, outcomes):
        if item.group is None or outcome in (w.FAILED, w.REFUSED):
            continue
        dim = summary["multiplier_dim"] if item.kind == "report" else summary
        groups.setdefault(item.group, set()).add(dim)
    problems += [f"{g}: Q and GF(101) disagree {sorted(d)}"
                 for g, d in groups.items() if len(d) > 1]
    for item, (_, summary, _), outcome in zip(items, first, outcomes):
        if item.kind != "multiplier" or outcome == w.FAILED:
            continue
        if w.cover_words(item.algebra) <= w.COVER_CHECK_WORDS:
            cover_dim = covers.Cover(item.algebra).multiplier_dim
            if cover_dim != summary:
                problems.append(f"{item.label}: cover route {cover_dim}, homology {summary}")
    return outcomes, problems


def digest(items, records):
    blob = json.dumps([[item.label, r[1], r[2]] for item, r in zip(items, records)],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cold_child(workload, seed):
    """Set up and run one cold pass in a fresh process of this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--cold-child"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one run -------------------------------------------------------------------


def run(workload, seed, seconds, trace, started, import_s, tiny=False, children=True):
    """Set up, measure and check one workload; returns (result, detail).

    Without tracing, the setup and the cold pass are repeated in
    COLD_CHILDREN fresh processes, one at a time; ``children=False`` keeps
    everything in this process.
    """
    import workloads
    from tracer import COUNT_METRICS, Tracer, layer_metrics

    items = workloads.WORKLOADS[workload](seed, tiny=tiny)
    setup_s = normalized_setup_s(started)
    t_measure = time.perf_counter()
    detail = {"workload": workload, "seed": seed, "items_per_pass": len(items)}

    if not trace:
        passes = [run_pass(items)]
        colds = [cold_child(workload, seed) for _ in range(COLD_CHILDREN * children)]
        while time.perf_counter() - t_measure < seconds or not enough_passes(items, passes[1:]):
            passes.append(run_pass(items))
        warm = passes[1:]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            passes = [run_pass(items, tracer, normalize=False)]
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write_spans(span_file)
        detail["span_file"] = os.path.relpath(span_file, ROOT)
        detail["counts"] = {k: layers[k][0] for k in COUNT_METRICS}
        untraced, traced = [], []
        while time.perf_counter() - t_measure < seconds or len(traced) < 2:
            untraced.append(run_pass(items, normalize=False))
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(items, tracer, normalize=False))
            finally:
                tracer.uninstall()
        passes += untraced + traced
        warm = untraced

    outcomes, problems = judge(items, passes)
    samples = len(items) * len(warm)
    per_pass = {o: outcomes.count(o) for o in set(outcomes)}
    attempted = len(items) * len(passes)
    failed = per_pass.get(workloads.FAILED, 0) * len(passes)
    unanswered = failed + per_pass.get(workloads.REFUSED, 0) * len(passes)
    detail.update(
        passes=len(passes), latency_samples=samples,
        samples_beyond_p90=samples - math.ceil(0.9 * samples),
        failed_frac=unanswered / attempted,
        refused_per_pass=per_pass.get(workloads.REFUSED, 0),
        known_divergence=per_pass.get(workloads.DIVERGENCE, 0),
        output_digest=digest(items, passes[0]))

    if not trace:
        setups = [setup_s] + [c["setup_s"] for c in colds]
        if any(c["digest"] != detail["output_digest"] for c in colds):
            problems.append("a fresh process answered differently")
        cold = [passes[0]] + [[(t, None, None) for t in c["latencies"]] for c in colds]
        detail["setup_samples_s"] = setups
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "first_pass_s": (typical_pass_s(cold, items), "s"),
            "pass_s": (typical_pass_s(warm, items), "s"),
            "q_pass_s": (typical_pass_s(warm, items, "Q"), "s"),
            "fp_pass_s": (typical_pass_s(warm, items, "GF101"), "s"),
            "item_p50_ms": (item_percentile_ms(warm, outcomes, 0.5), "ms"),
            "item_p90_ms": (item_percentile_ms(warm, outcomes, 0.9), "ms"),
            "answered_frac": (1.0 - unanswered / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        overhead = typical_pass_s(traced, items) / typical_pass_s(untraced, items)
        metrics = dict(layers)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead"] = (overhead, "ratio")
        if digest(items, traced[0]) != digest(items, untraced[0]):
            problems.append("traced and untraced passes answered differently")

    detail["problems"] = problems[:20]
    # JSON has no infinity: a percentile that falls on an unanswered item
    # reads as the largest float
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": sys.float_info.max if value == math.inf else value,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog-tables", "homology-scale", "invariants-scale"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-child", action="store_true",
                        help="internal: set up, run one cold pass, print its latencies")
    args = parser.parse_args(argv)

    import_s = import_program()
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    if args.cold_child:
        import workloads
        items = workloads.WORKLOADS[args.workload](args.seed)
        setup_s = normalized_setup_s(STARTED)
        records = run_pass(items)
        print(json.dumps({"setup_s": setup_s, "latencies": [r[0] for r in records],
                          "digest": digest(items, records)}))
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, args.trace,
                         STARTED, import_s)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
