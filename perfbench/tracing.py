"""Per-layer timing of koszulalg, taken from outside the library.

`Tracer.install()` replaces each public callable in `LAYERS` by a timing
wrapper, in the module that defines it and in every koszulalg namespace
that imported it (`from .linalg import rank_exact` binds a second name),
so calls made inside the library are timed too.  `uninstall()` puts the
originals back.  Nothing under `src/` changes.

Each call becomes a span: name, start, end, parent span, op id.  A
span's self time is its duration minus the time covered by its child
spans.  Scalar and polynomial arithmetic (`HOT`) runs millions of times
per pass, so those calls are kept as per-name totals (calls, self time)
instead of one record each; they still count as children of the span
that made them.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Every traced callable, named <module>.<attribute path>, with the
# per-layer metrics reported for it.  A class stands for its constructor.
LAYERS = {
    "ring.Polynomial.__mul__": ("calls", "self_s"),
    "ring.Polynomial.divide_exact": ("calls", "self_s"),
    "ring.Polynomial.evaluate": ("calls", "self_s"),
    "linalg.rank_exact": ("calls", "self_s", "input_terms"),
    "linalg.rank_probabilistic": ("calls", "self_s"),
    "linalg.GF2ExtOps.mul": ("calls", "self_s"),
    "linalg.GF2ExtOps.inv": ("calls", "self_s"),
    "linalg.GFPExtOps.mul": ("calls", "self_s"),
    "linalg.GFPExtOps.inv": ("calls", "self_s"),
    "linalg.evaluation_domain": ("self_s",),
    "linalg.rref": ("calls", "self_s", "cells"),
    "linalg.solve": ("calls", "self_s"),
    "linalg.PolyMatrix.__matmul__": ("calls", "self_s"),
    "complexes.tensor_quotient": ("calls", "self_s"),
    "complexes.HomologyData": ("calls", "self_s", "dim"),
    "complexes.min_generators_of_homology": ("self_s",),
    "complexes.koszul": ("self_s",),
    "chainmaps.random_homotopy": ("self_s",),
    "chainmaps.perturb": ("self_s",),
    "chainmaps.is_chain_map": ("calls", "self_s"),
    "chainmaps.rank_of_map": ("calls",),
    "minimal.minimal_model": ("calls", "self_s", "pairs_cancelled"),
    "minimal.MinimalModel.verify": ("self_s",),
    "minimal.lambda_length": ("calls", "self_s"),
    "filtration.compute_filtration": ("self_s",),
    "filtration.check_properties": ("self_s",),
    "filtration.bound_checks": ("self_s",),
    "lift.solve_boundary_equation": ("calls", "self_s"),
    "lift.lift_alpha": ("self_s",),
    "lift.lift_beta": ("self_s",),
    "lift.verify_bounds": ("self_s",),
    "lift.case0_improved_bound": ("self_s",),
    "fileio.read_complex": ("calls", "self_s"),
    "fileio.write_complex": ("self_s",),
    "cli.main": ("calls", "self_s", "nonzero_exit"),
}

HOT = {
    "ring.Polynomial.__mul__",
    "ring.Polynomial.divide_exact",
    "ring.Polynomial.evaluate",
    "linalg.GF2ExtOps.mul",
    "linalg.GF2ExtOps.inv",
    "linalg.GFPExtOps.mul",
    "linalg.GFPExtOps.inv",
}

UNITS = {"self_s": "s", "overhead_s": "s"}


def per_layer_names():
    """Names of all per-layer metrics, in report order."""
    names = [f"{layer}.{m}" for layer, metrics in LAYERS.items() for m in metrics]
    return names + ["lift.failures", "trace.overhead_s"]


def unit_of(metric):
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def _terms(M):
    return sum(len(p.terms) for p in M.entries.values())


def _cells(rows):
    return len(rows) * len(rows[0]) if rows else 0


# Size counters: name -> (counter, function of (args, result)).  They are
# evaluated outside the span's own interval.
BEFORE = {
    "linalg.rank_exact": ("input_terms", lambda args: _terms(args[0])),
    "linalg.rref": ("cells", lambda args: _cells(args[0])),
}
AFTER = {
    "complexes.HomologyData": ("dim", lambda args, result: args[0].total_dim),
    "minimal.minimal_model": (
        "pairs_cancelled",
        lambda args, result: (args[0].n - result.model.n) // 2,
    ),
    "cli.main": ("nonzero_exit", lambda args, result: int(result != 0)),
}


class Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {name: Stat() for name in LAYERS}
        self.names = list(self.stats)
        self.name_index = {name: k for k, name in enumerate(self.names)}
        self.spans = []  # (name index, start, end, parent span or -1, op id)
        self.stack = []  # open frames: [child time, span index]
        self.op = -1
        self.paused = False  # while set, wrapped calls are not recorded
        self.root_s = 0.0
        self.failures = set()  # LiftError instances seen by lift.* spans
        self.lift_error = package.lift.LiftError
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")
        ]
        for name in LAYERS:
            mod_name, path = name.split(".", 1)
            owner = getattr(self.package, mod_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            orig = getattr(owner, attr)
            if isinstance(orig, type):
                # a constructor: time __init__, report under the class name
                init = orig.__init__
                self._patch(orig, "__init__", self._wrap(name, init))
            elif len(parts) > 1:
                self._patch(owner, attr, self._wrap(name, orig))
            else:
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        spans = self.spans
        index = self.name_index[name]
        hot = name in HOT
        before = BEFORE.get(name)
        after = AFTER.get(name)
        lift_span = name.startswith("lift.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                key, size = before
                stat.counts[key] = stat.counts.get(key, 0) + size(args)
            parent = stack[-1] if stack else None
            if hot:
                frame = [0.0, -1]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.lift_error as exc:
                if lift_span:
                    tracer.failures.add(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if parent is None:
                    tracer.root_s += duration
                else:
                    parent[0] += duration
                if not hot:
                    spans[frame[1]] = (
                        index, start, end, -1 if parent is None else parent[1], tracer.op,
                    )
            if after is not None:
                key, size = after
                stat.counts[key] = stat.counts.get(key, 0) + size(args, result)
            return result

        return wrapper

    # -- reporting -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except trace.overhead_s, as {name: value}."""
        out = {}
        for layer, metrics in LAYERS.items():
            stat = self.stats[layer]
            for m in metrics:
                if m == "calls":
                    out[f"{layer}.calls"] = stat.calls
                elif m == "self_s":
                    out[f"{layer}.self_s"] = stat.self_s
                else:
                    out[f"{layer}.{m}"] = stat.counts.get(m, 0)
        out["lift.failures"] = len(self.failures)
        return out

    def self_total(self):
        return sum(stat.self_s for stat in self.stats.values())

    def table(self):
        """Rows (name, calls, self_s) of every called layer, by decreasing
        self time."""
        rows = [
            (name, stat.calls, stat.self_s)
            for name, stat in self.stats.items() if stat.calls
        ]
        return sorted(rows, key=lambda row: -row[2])

    def write_spans(self, path, op_labels):
        """Spans as JSON lines: a header with the span names and op labels,
        then one [name, start, end, parent, op] list per span; name and op
        index into the header lists, and op -1 is set-up."""
        header = {"names": self.names, "ops": op_labels, "hot_aggregated": sorted(HOT)}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
