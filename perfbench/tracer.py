"""Outside-in tracing of the dyckab layers.

`Tracer.install` wraps every public function of the seven layer modules
wherever it is bound: the module attribute, the names other dyckab modules
imported, the check functions listed in the oracle's suites, and the
DyckPath statistic methods and classmethod constructors.  Nothing under
src/ changes; `uninstall` puts every original back.

Inner calls (millions on `verify`) only update per-function counters and
self time in memory.  Spans with id, parent, name, start and end are kept
for the benchmark's own top-level calls (each table, query and check).
Self time of a function is its elapsed time minus the time of the wrapped
calls it made; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("paths", "ops", "bijection", "extremal", "qbell", "oracle", "cli")

STAT_METHODS = ("area", "bounce", "bounce_points", "column_heights", "bounce_composition")
OTHER_METHODS = (
    "area_sequence", "bounce_path", "ab", "is_minimal",
    "floating_cells", "floating_cell_count", "to_record",
)
CONSTRUCTORS = (
    "from_word", "from_row_starts", "from_area_sequence",
    "from_column_heights", "from_composition",
)
CELL_OPS = ("add_area_cell", "remove_area_cell", "add_column_cell", "remove_column_cell")
COMPOUND_OPS = ("shift", "unshift", "bounce_boost")
OPERATORS = CELL_OPS + COMPOUND_OPS + ("up", "down")
ENUMERATORS = ("paths.enumerate_paths", "paths.iter_area_bounce")
CLASSIFY_KINDS = ("both", "area-side", "bounce-side", "neither")


class Stat:
    """Counters of one wrapped function."""

    __slots__ = ("layer", "calls", "self_s", "incl_s", "active", "items", "bottoms")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not double counted
        self.active = 0
        self.items = 0  # values yielded, for generators
        self.bottoms = 0  # BOTTOM results, for operators


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"dyckab.{name}") for name in LAYERS}
        self.stats = {}
        # Each frame holds the time covered by its wrapped children.
        self.stack = [[0.0]]
        self.spans = []
        self.open_spans = []
        self.counters = {
            "ops.cell_calls_in_compound": 0,
            "bijection.candidates": 0,
            "qbell.max_coeff_bits": 0,
            "oracle.checks": 0,
            "oracle.failed": 0,
        }
        for kind in CLASSIFY_KINDS:
            self.counters[f"bijection.classify.{kind}"] = 0
        self.check_seconds = {}
        self.origin = time.perf_counter()
        self._undo = []

    # -- installing ------------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}.{name}"
                stat = self.stats[key] = Stat(layer)
                wrappers[id(obj)] = (obj, key, stat)
        built = {}
        for ident, (fn, key, stat) in wrappers.items():
            span = key.startswith("oracle.check_")
            built[ident] = self._wrap(fn, stat, self._post(key), span_name=key if span else None)

        for module in [importlib.import_module("dyckab"), *self.modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in built and obj is wrappers[id(obj)][0]:
                    self._set(module, name, built[id(obj)])
        suites = self.modules["oracle"].SUITES
        for suite, checks in suites.items():
            self._setitem(suites, suite, [
                (name, rng, built.get(id(fn), fn)) for name, rng, fn in checks
            ])
        path_cls = self.modules["paths"].DyckPath
        for name in STAT_METHODS + OTHER_METHODS + CONSTRUCTORS:
            stat = self.stats[f"paths.DyckPath.{name}"] = Stat("paths")
            raw = path_cls.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, stat, None))
            else:
                wrapped = self._wrap(raw, stat, None)
            self._set(path_cls, name, wrapped)
        return self

    def uninstall(self):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _set(self, owner, name, value):
        old = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _setitem(self, mapping, key, value):
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-function hooks ---------------------------------------------------

    def _post(self, key):
        """Counter update run on a wrapped call's result, or None."""
        counters = self.counters
        stats = self.stats
        name = key.split(".", 1)[1]
        if key.startswith("ops.") and name in OPERATORS:
            stat = stats[key]
            bottom = self.modules["ops"].BOTTOM
            if name in CELL_OPS:
                compound = [stats[f"ops.{c}"] for c in COMPOUND_OPS]

                def post(result):
                    if result is bottom:
                        stat.bottoms += 1
                    if compound[0].active or compound[1].active or compound[2].active:
                        counters["ops.cell_calls_in_compound"] += 1
            else:

                def post(result):
                    if result is bottom:
                        stat.bottoms += 1
            return post
        if key == "bijection.apply_bounce_map":
            generator = stats["bijection.iter_certificates"]

            def post(result):
                if generator.active:
                    counters["bijection.candidates"] += 1
            return post
        if key == "bijection.classify":

            def post(result):
                counters[f"bijection.classify.{result.kind}"] += 1
            return post
        if key == "qbell.q_bell":
            stat = stats[key]

            def post(result):
                if not stat.active:
                    bits = max((c.bit_length() for c in result), default=0)
                    counters["qbell.max_coeff_bits"] = max(counters["qbell.max_coeff_bits"], bits)
            return post
        if key == "oracle.run_suite":

            def post(reports):
                for report in reports:
                    counters["oracle.checks"] += 1
                    counters["oracle.failed"] += not report.passed
                    self.check_seconds[report.name] = report.seconds
            return post
        return None

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, stat, post, span_name=None):
        stack = self.stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    stat.active += 1
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - t0
                        stack.pop()
                        stat.active -= 1
                        stat.self_s += elapsed - frame[0]
                        if not stat.active:
                            stat.incl_s += elapsed
                        stack[-1][0] += elapsed
                    stat.items += 1
                    yield item

            return generator

        if span_name is not None:

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                stat.calls += 1
                with self.span(span_name, stat):
                    return fn(*args, **kwargs)

            return spanned

        @functools.wraps(fn)
        def call(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.calls += 1
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.self_s += elapsed - frame[0]
                if not stat.active:
                    stat.incl_s += elapsed
                stack[-1][0] += elapsed
            if post is not None:
                post(result)
            return result

        return call

    @contextmanager
    def span(self, name, stat=None):
        """A recorded span; its self time goes to ``stat`` (the benchmark's
        own "bench" layer when None)."""
        if stat is None:
            stat = self.stats.setdefault(f"bench.{name}", Stat("bench"))
        span_id = len(self.spans)
        parent = self.open_spans[-1] if self.open_spans else None
        frame = [0.0]
        self.stack.append(frame)
        self.open_spans.append(span_id)
        stat.active += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            elapsed = t1 - t0
            self.stack.pop()
            self.open_spans.pop()
            stat.active -= 1
            stat.self_s += elapsed - frame[0]
            if not stat.active:
                stat.incl_s += elapsed
            self.stack[-1][0] += elapsed
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": t0 - self.origin, "end": t1 - self.origin,
            })

    # -- reading out -------------------------------------------------------------

    def report(self) -> dict:
        """Exact counters, per-layer self time and per-function detail."""
        stats = self.stats
        counters = dict(self.counters)
        for key, stat in stats.items():
            if stat.layer != "bench":
                counters[f"{key}.calls"] = stat.calls
        for layer in LAYERS:
            counters[f"{layer}.calls"] = sum(
                s.calls for s in stats.values() if s.layer == layer
            )
        counters["paths.enumerated"] = sum(stats[k].items for k in ENUMERATORS)
        counters["paths.stat_calls"] = sum(
            stats[f"paths.DyckPath.{m}"].calls for m in STAT_METHODS
        )
        for op in OPERATORS:
            counters[f"ops.{op}.bottoms"] = stats[f"ops.{op}"].bottoms
        counters["bijection.certificates"] = stats["bijection.iter_certificates"].items
        counters["extremal.construct_calls"] = stats["extremal.construct_path"].calls
        counters["qbell.poly_mul_calls"] = stats["qbell.poly_mul"].calls
        for layer in ("extremal", "qbell"):
            module = self.modules[layer]
            for name, obj in vars(module).items():
                if not hasattr(obj, "cache_info"):  # installed wrapper, or uncached
                    obj = getattr(obj, "__wrapped__", None)
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    info = obj.cache_info()
                    counters[f"{layer}.{name}.hits"] = info.hits
                    counters[f"{layer}.{name}.misses"] = info.misses

        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for stat in stats.values():
            layer_self[stat.layer] += stat.self_s
        # Spans are appended as they close; span ids are assigned as they open.
        spans = sorted(self.spans, key=lambda s: s["id"])
        return {
            "counters": counters,
            "self_s": layer_self,
            "inclusive_s": {
                "paths.enumerate_s": sum(stats[k].incl_s for k in ENUMERATORS),
                "bijection.flip_sets_s": stats["bijection.flip_sets"].incl_s,
                "bijection.phi_s": stats["bijection.phi"].incl_s + stats["bijection.phi_inverse"].incl_s,
                "extremal.level_sets_s": stats["extremal.level_sets"].incl_s,
                "extremal.construct_s": stats["extremal.construct_path"].incl_s,
                "qbell.q_bell_s": stats["qbell.q_bell"].incl_s,
                "qbell.qt_catalan_s": stats["qbell.qt_catalan"].incl_s,
            },
            "check_seconds": dict(self.check_seconds),
            "spans": spans,
        }
