"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

IMPORT_S = run.import_program()

import workloads  # noqa: E402
from tracer import COUNT_METRICS, Tracer, liecap_modules  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_witt_values():
    assert [workloads.witt(2, n) for n in range(1, 8)] == [2, 1, 2, 3, 6, 9, 18]
    assert [workloads.witt(3, n) for n in range(1, 6)] == [3, 3, 8, 18, 48]
    assert workloads.witt(5, 6) == 2580
    assert workloads.free_words(6, 6) == 9695
    from liecap import covers, homology
    for d, c in [(2, 3), (3, 2), (2, 4)]:
        alg = covers.FreeNilpotent(d, c).algebra
        assert homology.schur_multiplier(alg).dim == workloads.witt(d, c + 1)


def test_closed_forms():
    assert [workloads.heisenberg_multiplier(m) for m in (1, 2, 3, 4)] == [2, 5, 14, 27]
    assert workloads.abelian_multiplier(8) == 28


def test_failure_counts_as_infinite_latency():
    outcomes = [workloads.OK, workloads.FAILED, workloads.REFUSED, workloads.DIVERGENCE]
    passes = [[(0.001, 1, None), (0.0001, None, "ValueError"),
               (0.0001, None, "ResourceLimit"), (0.002, "x", None)]] * 5
    per_pass = run.latencies_ms(passes, outcomes)
    assert len(per_pass) == 5
    assert all(sum(math.isinf(t) for t in lat) == 2 for lat in per_pass)
    assert run.item_percentile_ms(passes, outcomes, 0.25) == pytest.approx(1.75)
    assert math.isinf(run.item_percentile_ms(passes, outcomes, 0.5))
    # a fast failure never beats a slow answer
    assert run.quantile([5.0, 6.0, math.inf], 0.9) == math.inf
    assert run.quantile([5.0, 6.0, math.inf], 0.5) == 6.0
    assert run.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5


def _bindings():
    seen = {}
    for mod in liecap_modules():
        seen[mod.__name__] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("liecap"):
                seen[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return seen


def test_tracer_restores_every_rebinding():
    from liecap import cli, covers, homology, linalg
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # rebound where defined and where imported by name
        assert homology.schur_multiplier is not before["liecap.homology"]["schur_multiplier"]
        assert cli.schur_multiplier is homology.schur_multiplier
        assert cli.exterior_center is covers.exterior_center
        assert linalg.Echelon.__dict__["add"] is not before["liecap.linalg.Echelon"]["add"]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    for owner, names in before.items():
        for name, value in names.items():
            assert after[owner][name] is value, f"{owner}.{name} not restored"


def test_tracer_counts_and_nesting():
    from liecap import catalog, homology
    alg = catalog.heisenberg_algebra(2)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = 7
        homology.schur_multiplier(alg)
    finally:
        tracer.uninstall()
    assert tracer.calls("homology.schur_multiplier") == 1
    assert tracer.calls("linalg.Echelon.add") > 0
    (span,) = tracer.spans
    assert span["item"] == 7 and span["parent"] is None
    assert span["agg"]["linalg.Echelon.add"][0] == tracer.calls("linalg.Echelon.add")
    assert 0 <= span["self_s"] <= span["end"] - span["start"]


def _tiny(workload, trace):
    return run.run(workload, 3, 0.2, trace, time.perf_counter(), IMPORT_S,
                   tiny=True, children=False)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = _tiny(workload, trace)
        assert result["correct"], detail["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        json.loads(json.dumps(result, allow_nan=False))


def _tiny_fresh(workload, trace):
    """A tiny run in a new interpreter, so that no memo of liecap is warm."""
    code = ("import json, sys, time; sys.path.insert(0, sys.argv[1]); import run; "
            "imp = run.import_program(); "
            "r = run.run(sys.argv[2], 3, 0.2, int(sys.argv[3]), time.perf_counter(), imp, "
            "tiny=True, children=False); print(json.dumps(r))")
    proc = subprocess.run([sys.executable, "-c", code, BENCH_DIR, workload, str(trace)],
                          capture_output=True, text=True, check=True, timeout=170,
                          cwd=run.ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_outputs_match():
    first, d1 = _tiny_fresh("invariants-scale", 1)
    second, d2 = _tiny_fresh("invariants-scale", 1)
    plain, d0 = _tiny_fresh("invariants-scale", 0)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert d1["counts"] == d2["counts"]
    assert d1["output_digest"] == d2["output_digest"] == d0["output_digest"]
    refused = d1["refused_per_pass"]
    assert refused >= 1
    assert first["metrics"]["covers.ResourceLimit.count"]["value"] == refused
    # a cold pass builds free algebras, and a refused one is not a build
    assert d1["counts"]["covers.FreeNilpotent.builds"] > refused
    assert d1["counts"]["covers.hall_basis.words"] > 0


def test_same_seed_same_inputs():
    a = workloads.invariants_scale(5, tiny=True)
    b = workloads.invariants_scale(5, tiny=True)
    assert [i.label for i in a] == [i.label for i in b]
    assert [i.algebra.table_key() for i in a] == [i.algebra.table_key() for i in b]
