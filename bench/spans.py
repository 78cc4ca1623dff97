"""Spans around the calls into cayleydeg's public functions.

A Tracer replaces each traced function at every module binding of it (for
example ``extremal.build_cayley`` as well as ``graphs.build_cayley``), records
one span per call as (id, parent, name, start, end) in memory, and puts the
original objects back when it is uninstalled.  The program itself is not
changed: nothing in ``src/`` knows it is being traced.

Exact work counts (subset masks, branch-and-bound nodes, search evaluations,
lift points, generating-set subsets walked) are derived from the traced
calls' arguments and results, so they repeat exactly for a given input.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict


def _exhaustive_masks(args, kwargs):
    """C(n-1, s-1) with vertex 0 fixed, else C(n, s); None when not exhaustive."""
    names = ("X", "s", "method", "budget", "contains_zero")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    if bound.get("method", "exhaustive") != "exhaustive":
        return None
    n, s = bound["X"].n, bound["s"]
    return math.comb(n - 1, s - 1) if bound.get("contains_zero", False) else math.comb(n, s)


def _count_units(G) -> int:
    """Involutions plus inverse pairs: the units the generating-set walk ranges over."""
    invs = sum(1 for x in range(1, G.order) if G.inv(x) == x)
    return invs + (G.order - 1 - invs) // 2


def _matrix_size(M) -> int:
    mat = getattr(M, "matrix", M)
    return int(mat.shape[0])


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _begin(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, name: str, token: tuple[int, int, float]) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def _wrap_call(self, fn, name: str, counts=None):
        """Span and call count for every call; `counts(args, kwargs, result)`
        returns further {suffix: amount} work counts."""
        tracer = self

        def traced(*args, **kwargs):
            token = tracer._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name, token)
            tracer.counts[name + ".calls"] += 1
            if counts is not None:
                for suffix, amount in counts(args, kwargs, result).items():
                    tracer.counts[f"{name}.{suffix}"] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            G = args[0] if args else kwargs["G"]
            tracer.counts[name + ".calls"] += 1
            tracer.counts[name + ".subsets_walked"] += (1 << _count_units(G)) - 1
            gen = fn(*args, **kwargs)
            while True:
                token = tracer._begin()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._end(name, token)
                tracer.counts[name + ".sets"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel_map(self, fn, name: str):
        """Time parallel_map itself, and each item call as a span of the layer
        that owns the item function, so the map's self time is its own loop."""
        tracer = self

        def traced(item_fn, items, *args, **kwargs):
            layer = item_fn.__module__.rsplit(".", 1)[-1]
            item_span = tracer._wrap_call(item_fn, f"{layer}.{item_fn.__name__}")
            token = tracer._begin()
            try:
                return fn(item_span, items, *args, **kwargs)
            finally:
                tracer._end(name, token)

        traced.__wrapped__ = fn
        return traced

    # -- what is traced ---------------------------------------------------

    def _targets(self):
        """(home module, attribute, wrapper factory) for every traced function."""

        def on_search(a, k, r):
            self.values["signing.signing_search.min_modulus"] = r.min_modulus
            return {"evals": r.evaluations}

        extra = {
            "graphs.build_cayley": lambda a, k, r: {"edges": r.graph.edge_count},
            "extremal.exhaustive": lambda a, k, r: {"masks": _exhaustive_masks(a, k)},
            "extremal.bnb": lambda a, k, r: {"nodes": r.nodes},
            "witness.make_lift": lambda a, k, r: {"points": r.source_size},
            "signing.verify_signing": lambda a, k, r: {"entries": _matrix_size(a[0]) ** 2},
            "signing.signing_search": on_search,
        }
        spans = {
            "groups": {"make_group": "groups.make_group",
                       "make_generating_set": "groups.make_generating_set"},
            "graphs": {"build_cayley": "graphs.build_cayley",
                       "induced_max_degree": "graphs.induced_max_degree"},
            "extremal": {"verify_conjecture": "extremal.verify_conjecture",
                         "scan": "extremal.scan",
                         "branch_and_bound": "extremal.bnb",
                         "heuristic_search": "extremal.heuristic"},
            "witness": {"abelian_witness": "witness.abelian_witness",
                        "make_lift": "witness.make_lift",
                        "cube_witness": "witness.cube_witness",
                        "cover_counts": "witness.cover_counts"},
            "signing": {"huang_signing": "signing.huang_signing",
                        "verify_signing": "signing.verify_signing",
                        "spectrum": "signing.spectrum",
                        "signing_search": "signing.signing_search"},
            "cli": {"main": "cli.main"},
        }
        targets = [
            (home, attr, lambda f, name=name: self._wrap_call(f, name, extra.get(name)))
            for home, attrs in spans.items() for attr, name in attrs.items()
        ]
        exhaustive = extra["extremal.exhaustive"]
        return targets + [
            ("groups", "enumerate_symmetric_generating_sets",
             lambda f: self._wrap_generator(f, "groups.enumerate")),
            ("extremal", "min_max_degree", lambda f: self._wrap_min_max_degree(f, exhaustive)),
            ("_parallel", "parallel_map", lambda f: self._wrap_parallel_map(f, "parallel.parallel_map")),
        ]

    def _wrap_min_max_degree(self, fn, counts):
        """min_max_degree is the exhaustive engine's public entry; its other
        methods are spans of the engine they delegate to."""
        exhaustive = self._wrap_call(fn, "extremal.exhaustive", counts)
        other = self._wrap_call(fn, "extremal.min_max_degree")

        def traced(*args, **kwargs):
            if _exhaustive_masks(args, kwargs) is None:
                return other(*args, **kwargs)
            return exhaustive(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced function in loaded cayleydeg modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        homes = {home: importlib.import_module(f"cayleydeg.{home}") for home, _, _ in targets}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cayleydeg" or name.startswith("cayleydeg."))]
        try:
            for home, attr, factory in targets:
                original = getattr(homes[home], attr)
                wrapper = factory(original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-span-name totals and self times, per-layer busy and waiting
        times, and every counter.

        A layer's self_s is the summed self time of its spans.  Its wait_s is
        the time inside its outermost spans during which another layer was
        running on its behalf, so nested spans of one layer count once.
        """
        by_id = {sid: (parent, name, end - start) for sid, parent, name, start, end in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for parent, _, duration in by_id.values():
            if parent in by_id:
                child_time[parent] += duration

        out: dict[str, float] = defaultdict(float)
        for sid, (parent, name, duration) in by_id.items():
            layer = layer_of(name)
            self_s = duration - child_time[sid]
            out[name + ".s"] += duration
            out[name + ".self_s"] += self_s
            out[layer + ".self_s"] += self_s
            out[layer + ".wait_s"] -= self_s
            while parent in by_id and layer_of(by_id[parent][1]) != layer:
                parent = by_id[parent][0]
            if parent not in by_id:
                out[layer + ".wait_s"] += duration
        out.update(self.counts)
        out.update(self.values)
        return dict(out)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
