"""The names the benchmark binds in liecap still exist.

``bench/tracer.py`` rebinds liecap functions by name, and
``bench/workloads.py`` builds its inputs from liecap calls, so a refactor
that deletes or renames one of them breaks the benchmark while every
library test still passes.  These tests install and uninstall the tracer
and set up each workload at its tiny size; they time and run nothing.
"""

import sys
from pathlib import Path

import pytest

from liecap import cli, covers, homology

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
WORKLOADS = ["catalog-tables", "homology-scale", "invariants-scale"]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        import tracer
        import workloads
        yield tracer, workloads
    finally:
        sys.path.remove(BENCH)


def test_tracer_installs_and_uninstalls(bench):
    tracer, _ = bench
    originals = (homology.schur_multiplier, covers.exterior_center)
    t = tracer.Tracer()
    t.install()
    try:
        # rebound where defined and where cli imports them by name
        assert homology.schur_multiplier is not originals[0]
        assert cli.schur_multiplier is homology.schur_multiplier
        assert cli.exterior_center is covers.exterior_center is not originals[1]
    finally:
        t.uninstall()
    assert (cli.schur_multiplier, cli.exterior_center) == originals


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_setup(bench, workload):
    _, workloads = bench
    assert sorted(workloads.WORKLOADS) == WORKLOADS
    assert workloads.WORKLOADS[workload](1, tiny=True)
