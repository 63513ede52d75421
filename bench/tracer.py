"""Per-layer tracing by rebinding liecap's functions from outside.

``Tracer.install`` wraps each target in ``TARGETS``.  A module function is
rebound in its defining module and in every ``liecap`` module that imported
it by name; a method or property is replaced on its class.  ``uninstall``
puts every original object back.

Each wrapped call records its duration and self time (duration minus the
time of traced calls inside it) under the target's name.  Calls to the
*hot* targets, the ``linalg`` and ``algebra`` methods that run hundreds of
thousands of times a pass, are not spans of their own: their counts and
summed time are added to the nearest enclosing span.  Spans carry the id of
the item they belong to and stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name, hot)
TARGETS = [
    ("linalg", "Echelon.add", "linalg.Echelon.add", True),
    ("linalg", "Echelon.finalize", "linalg.Echelon.finalize", True),
    ("linalg", "Echelon.reduce", "linalg.Echelon.reduce", True),
    ("linalg", "Subspace.reduce", "linalg.Subspace.reduce", True),
    ("linalg", "Subspace.basis_vectors", "linalg.Subspace.basis_vectors", True),
    ("linalg", "kernel", "linalg.kernel", True),
    ("algebra", "center", "algebra.center", True),
    ("algebra", "subalgebra_on", "algebra.subalgebra_on", True),
    ("algebra", "quotient", "algebra.quotient", True),
    ("algebra", "transform", "algebra.transform", True),
    ("catalog", "build", "catalog.build", True),
    ("homology", "schur_multiplier", "homology.schur_multiplier", False),
    ("homology", "ce_d2", "homology.ce_d2", True),
    ("covers", "hall_basis", "covers.hall_basis", False),
    ("covers", "FreeNilpotent.__init__", "covers.FreeNilpotent", False),
    ("covers", "free_nilpotent", "covers.free_nilpotent", False),
    ("covers", "Cover.__init__", "covers.Cover.init", False),
    ("covers", "Cover.star", "covers.Cover.star", True),
    ("covers", "Cover.pi", "covers.Cover.star", True),
    ("covers", "exterior_square", "covers.exterior_square", False),
    ("covers", "exterior_center", "covers.exterior_center", False),
    ("covers", "tensor_square", "covers.tensor_square", False),
    ("recognize", "recognize", "recognize.recognize", False),
    ("recognize", "fingerprint", "recognize.fingerprint", False),
    ("capability", "theorem2_bound_check", "capability.theorem2_bound_check", False),
    ("capability", "noncapable_census", "capability.noncapable_census", False),
    ("cli", "run_suites", "cli.run_suites", False),
    ("cli", "invariant_report", "cli.invariant_report", False),
]


def _observe_add(tracer, args, result):
    if result:
        tracer.counts["linalg.Echelon.add.useful"] += 1


def _observe_multiplier(tracer, args, result):
    n = args[0].dim
    key = "homology.lambda2_dim.max"
    tracer.counts[key] = max(tracer.counts[key], n * (n - 1) // 2)
    tracer.counts["homology.rank_d3.sum"] += result.image.dim


def _observe_hall(tracer, args, result):
    tracer.counts["covers.hall_basis.words"] += len(result)


def _observe_cover(tracer, args, result):
    cover = args[0]
    tracer.counts["covers.Cover.span_rank.sum"] += cover.free.dim - cover.star_dim
    tracer.counts["covers.Cover.star_dim.sum"] += cover.star_dim


OBSERVERS = {
    "linalg.Echelon.add": _observe_add,
    "homology.schur_multiplier": _observe_multiplier,
    "covers.hall_basis": _observe_hall,
    "covers.Cover.init": _observe_cover,
}


def liecap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liecap" or name.startswith("liecap."))]


class Tracer:
    """Wraps liecap's layer entry points and accumulates spans and counters."""

    def __init__(self):
        self._saved = []          # (owner, attribute, original), in install order
        self.totals = defaultdict(lambda: [0, 0.0])   # name -> [calls, self s]
        self.counts = defaultdict(int)
        self.spans = []
        self.item = None
        self._frames = []         # per open call: [child seconds]
        self._open_spans = []     # span records of the open non-hot calls

    def reset(self):
        """Forget what was recorded; the installed wrappers keep recording."""
        for container in (self.totals, self.counts, self.spans, self._frames,
                          self._open_spans):
            container.clear()
        self.item = None

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        resource_limit = importlib.import_module("liecap.covers").ResourceLimit
        modules = liecap_modules()
        for mod_name, path, name, hot in TARGETS:
            module = importlib.import_module(f"liecap.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, name, hot, resource_limit))
                else:
                    wrapped = self._wrap(original, name, hot, resource_limit)
                self._rebind(cls, attr, original, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrap(original, name, hot, resource_limit)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, hot, resource_limit):
        tracer = self
        frames = self._frames
        totals = self.totals
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            span = None
            if not hot:
                span = tracer._open_span(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[name + ".raised"] += 1
                if isinstance(exc, resource_limit) and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts["covers.ResourceLimit.count"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                total = totals[name]
                total[0] += 1
                total[1] += elapsed - frame[0]
                if span is None:
                    tracer._add_hot(name, elapsed)
                else:
                    tracer._close_span(span, elapsed, elapsed - frame[0])
            if observe is not None:
                observe(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _open_span(self, name):
        parent = self._open_spans[-1]["id"] if self._open_spans else None
        span = {"id": len(self.spans), "parent": parent, "item": self.item,
                "name": name, "start": time.perf_counter(), "agg": {}}
        self.spans.append(span)
        self._open_spans.append(span)
        return span

    def _close_span(self, span, elapsed, self_s):
        span["end"] = span["start"] + elapsed
        span["self_s"] = self_s
        self._open_spans.pop()

    def _add_hot(self, name, elapsed):
        if self._open_spans:
            agg = self._open_spans[-1]["agg"]
            entry = agg.get(name)
            if entry is None:
                agg[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, *names):
        return sum(self.totals[n][1] for n in names if n in self.totals)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Counts and self times of one traced pass, keyed by metric name."""
    t, c = tracer, tracer.counts
    adds = t.calls("linalg.Echelon.add")
    attempts = t.calls("covers.FreeNilpotent")
    free_calls = t.calls("covers.free_nilpotent")
    return {
        "linalg.Echelon.add.calls": (adds, "count"),
        "linalg.Echelon.add.useful_ratio":
            (_ratio(c["linalg.Echelon.add.useful"], adds), "ratio"),
        "linalg.Echelon.self_s": (t.self_s("linalg.Echelon.add", "linalg.Echelon.finalize",
                                           "linalg.Echelon.reduce"), "s"),
        "linalg.Subspace.reduce.calls": (t.calls("linalg.Subspace.reduce"), "count"),
        "linalg.Subspace.reduce.self_s": (t.self_s("linalg.Subspace.reduce"), "s"),
        "linalg.kernel.self_s": (t.self_s("linalg.kernel"), "s"),
        "linalg.Subspace.basis_vectors.self_s":
            (t.self_s("linalg.Subspace.basis_vectors"), "s"),
        "homology.schur_multiplier.calls": (t.calls("homology.schur_multiplier"), "count"),
        "homology.schur_multiplier.self_s": (t.self_s("homology.schur_multiplier"), "s"),
        "homology.ce_d2.self_s": (t.self_s("homology.ce_d2"), "s"),
        "homology.lambda2_dim.max": (c["homology.lambda2_dim.max"], "count"),
        "homology.rank_d3.sum": (c["homology.rank_d3.sum"], "count"),
        # constructions that returned; one refused by the word cap is not a build
        "covers.FreeNilpotent.builds": (attempts - c["covers.FreeNilpotent.raised"], "count"),
        "covers.FreeNilpotent.self_s": (t.self_s("covers.FreeNilpotent"), "s"),
        # every construction during a pass happens inside free_nilpotent on a miss
        "covers.free_nilpotent.hit_ratio": (_ratio(free_calls - attempts, free_calls), "ratio"),
        "covers.hall_basis.words": (c["covers.hall_basis.words"], "count"),
        "covers.Cover.init.calls": (t.calls("covers.Cover.init"), "count"),
        "covers.Cover.init.self_s": (t.self_s("covers.Cover.init"), "s"),
        "covers.Cover.star.self_s": (t.self_s("covers.Cover.star"), "s"),
        "covers.Cover.span_rank.sum": (c["covers.Cover.span_rank.sum"], "count"),
        "covers.Cover.star_dim.sum": (c["covers.Cover.star_dim.sum"], "count"),
        "covers.exterior_square.self_s": (t.self_s("covers.exterior_square"), "s"),
        "covers.exterior_center.self_s": (t.self_s("covers.exterior_center"), "s"),
        "covers.tensor_square.self_s": (t.self_s("covers.tensor_square"), "s"),
        "covers.ResourceLimit.count": (c["covers.ResourceLimit.count"], "count"),
        "algebra.subalgebra_on.self_s": (t.self_s("algebra.subalgebra_on"), "s"),
        "algebra.center.self_s": (t.self_s("algebra.center"), "s"),
        "algebra.quotient.self_s": (t.self_s("algebra.quotient"), "s"),
        "algebra.transform.self_s": (t.self_s("algebra.transform"), "s"),
        "recognize.recognize.calls": (t.calls("recognize.recognize"), "count"),
        "recognize.recognize.self_s": (t.self_s("recognize.recognize"), "s"),
        "recognize.fingerprint.self_s": (t.self_s("recognize.fingerprint"), "s"),
        "capability.theorem2_bound_check.self_s":
            (t.self_s("capability.theorem2_bound_check"), "s"),
        "capability.noncapable_census.self_s":
            (t.self_s("capability.noncapable_census"), "s"),
        "catalog.build.calls": (t.calls("catalog.build"), "count"),
        "catalog.build.self_s": (t.self_s("catalog.build"), "s"),
        "cli.run_suites.self_s": (t.self_s("cli.run_suites"), "s"),
        "cli.invariant_report.self_s": (t.self_s("cli.invariant_report"), "s"),
    }


# counters that must repeat exactly between two traced runs of one seed
COUNT_METRICS = [
    "linalg.Echelon.add.calls", "linalg.Echelon.add.useful_ratio",
    "linalg.Subspace.reduce.calls",
    "homology.schur_multiplier.calls", "homology.lambda2_dim.max",
    "homology.rank_d3.sum", "covers.FreeNilpotent.builds",
    "covers.hall_basis.words", "covers.Cover.init.calls",
    "covers.Cover.span_rank.sum", "covers.Cover.star_dim.sum",
    "covers.ResourceLimit.count", "recognize.recognize.calls", "catalog.build.calls",
]
