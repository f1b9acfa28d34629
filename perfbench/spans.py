"""In-memory spans and counters around the calls into polybloch's layers.

The wrappers are installed from outside the program: every public
module-level function of a layer module is replaced, in every namespace
that binds it (the defining module, importing modules such as
``polybloch.simple`` for ``assemble_block``, and the package namespace),
by a wrapper that records one span per call.  The eigensolver entry points
of numpy and scipy form one cross-cutting ``linalg`` layer.  Call counters
on hot methods are installed separately (``Counting``), in a replay
without spans.  ``uninstall`` puts every original binding back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1).  Self time is the duration minus the time covered
by direct children; calls are strictly nested on one thread, so the
children's durations sum to their coverage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

PACKAGE = "polybloch"
LAYER_MODULES = ("lattice", "potential", "oracle", "geometry", "series", "block",
                 "simple", "scanner", "config", "cli")

# Methods that do a layer's work but are not module-level functions.
SPAN_METHODS = (("lattice", "LatticeModel", "enumerate_ball"),
                ("lattice", "LatticeModel", "enumerate_shifted_ball"))
# Called millions of times per block: counted in a pass of their own
# (``Counting``), never spanned.
COUNT_METHODS = (("potential", "FourierPotential", "coefficient"),)

CLI_SUBCOMMANDS = ("params", "classify", "predict", "verify", "resonant-check", "simple-check",
                   "bloch", "bands", "gaps", "isoenergetic", "measure")

LINALG_ENTRY_POINTS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                       ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
                       ("scipy.sparse.linalg", "eigsh"))


class Tracer:
    """Spans, counters and max-gauges of one traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(float)
        self.gauges: dict = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = self.clock()

    def open_spans(self) -> list[int]:
        return self._stack

    def gauge_max(self, name: str, value) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def gauge_min(self, name: str, value) -> None:
        self.gauges[name] = min(self.gauges.get(name, value), value)

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def count(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped_by_perfbench__ = True
        return counted

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, call count)."""
        return aggregate(self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def aggregate(spans) -> dict[str, tuple[float, int]]:
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (end - start) - covered[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


# -- observers: counts and sizes read off arguments and results ----------------


def _obs_linalg(tr, args, kwargs, result):
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    shape = getattr(a, "shape", None)
    if not shape:
        return
    n = int(shape[-1])
    batch = math.prod(int(s) for s in shape[:-2]) if len(shape) > 2 else 1
    tr.counters["linalg.eigensolve_calls"] += batch
    tr.counters["linalg.eigensolve_n3"] += batch * float(n) ** 3
    tr.gauge_max("linalg.eigensolve_n_max", n)
    if any(tr.spans[i][0] == "scanner.band_functions" for i in tr.open_spans()):
        tr.gauge_max("scanner.basis_size", n)


def _obs_assemble(tr, args, kwargs, result):
    tr.gauge_max("oracle.basis_size", int(result.shape[0]))


def _obs_index_set(tr, args, kwargs, result):
    tr.gauge_max("block.size", int(result.size))


def _obs_evaluate_series(tr, args, kwargs, result):
    tr.counters["series.admissible_terms"] += sum(result.admissible_counts)
    tr.counters["series.contributing_terms"] += sum(result.term_counts)
    tr.gauge_min("series.denominator_floor", float(result.denominator_floor))


def _obs_check_simplicity(tr, args, kwargs, result):
    tr.counters["simple.competitors"] += len(result.entries)
    tr.counters["simple.block_competitors"] += sum(e.kind == "block" for e in result.entries)


def _obs_band_functions(tr, args, kwargs, result):
    tr.counters["scanner.grid_points"] += int(result.values.shape[0])


def _obs_enumerate(tr, args, kwargs, result):
    tr.counters["lattice.points_enumerated"] += len(result)


OBSERVERS = {
    "linalg": _obs_linalg,
    "oracle.assemble": _obs_assemble,
    "block.build_index_set": _obs_index_set,
    "series.evaluate_series": _obs_evaluate_series,
    "simple.check_simplicity": _obs_check_simplicity,
    "scanner.band_functions": _obs_band_functions,
    "lattice.enumerate_ball": _obs_enumerate,
    "lattice.enumerate_shifted_ball": _obs_enumerate,
}


# -- installation --------------------------------------------------------------


def public_functions(module) -> dict[str, object]:
    """Public functions defined (not merely imported) in a module."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def _layer_modules() -> list:
    return [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES]


def _method_owner(layer: str, cls_name: str):
    return getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)


class _Patches:
    """Attribute replacements that ``uninstall`` (or leaving the ``with``) undoes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []  # (namespace, attr, original)

    def install(self):
        raise NotImplementedError

    def _set(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc):
        self.uninstall()
        return False


class Installation(_Patches):
    """Span wrappers bound into every namespace that held an original."""

    def install(self) -> "Installation":
        replacements: dict[int, object] = {}  # id(original) -> wrapper
        modules = _layer_modules()
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in public_functions(mod).items():
                name = f"{layer}.{fname}"
                replacements[id(fn)] = self.tracer.wrap(fn, name, OBSERVERS.get(name))
        for mod_name, attr in LINALG_ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            name = f"linalg.{mod_name.replace('.', '_')}.{attr}"
            wrapper = self.tracer.wrap(fn, name, OBSERVERS["linalg"])
            replacements[id(fn)] = wrapper
            self._set(mod, attr, wrapper)
        for mod in [importlib.import_module(PACKAGE)] + modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for layer, cls_name, meth in SPAN_METHODS:
            cls = _method_owner(layer, cls_name)
            name = f"{layer}.{meth}"
            self._set(cls, meth, self.tracer.wrap(vars(cls)[meth], name, OBSERVERS.get(name)))
        return self


class Counting(_Patches):
    """Call counters on COUNT_METHODS and nothing else, so that no span's
    self time carries a counter's overhead."""

    def install(self) -> "Counting":
        for layer, cls_name, meth in COUNT_METHODS:
            cls = _method_owner(layer, cls_name)
            self._set(cls, meth, self.tracer.count(vars(cls)[meth], f"{layer}.{meth}_calls"))
        return self


def leftover_wrappers() -> list[str]:
    """Bindings that still hold a wrapper (empty after a clean uninstall)."""
    found = []
    spaces = [importlib.import_module(PACKAGE)] + _layer_modules()
    spaces += [importlib.import_module(m) for m, _ in LINALG_ENTRY_POINTS]
    spaces += [_method_owner(layer, cls_name) for layer, cls_name, _ in SPAN_METHODS + COUNT_METHODS]
    for ns in spaces:
        for attr, obj in list(vars(ns).items()):
            if getattr(obj, "__wrapped_by_perfbench__", False):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return found


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, except the CLI replay's."""
    st = tracer.self_times()

    def self_s(*names):
        return sum(st.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    linalg = [n for n in st if n.startswith("linalg.")]
    cnt, gauge = tracer.counters, tracer.gauges
    m = {
        "oracle.assemble_s": (self_s("oracle.assemble"), "s"),
        "oracle.assemble_calls": (calls("oracle.assemble"), "count"),
        "oracle.diagonalize_s": (self_s("oracle.diagonalize"), "s"),
        "oracle.bloch_solve_s": (self_s("oracle.bloch_solve"), "s"),
        "oracle.basis_size": (gauge.get("oracle.basis_size", 0), "count"),
        "potential.coefficient_calls": (cnt["potential.coefficient_calls"], "count"),
        "linalg.eigensolve_s": (self_s(*linalg), "s"),
        "linalg.eigensolve_calls": (cnt["linalg.eigensolve_calls"], "count"),
        "linalg.eigensolve_n_max": (gauge.get("linalg.eigensolve_n_max", 0), "count"),
        "linalg.eigensolve_n3": (cnt["linalg.eigensolve_n3"], "computed"),
        "block.assemble_block_s": (self_s("block.assemble_block"), "s"),
        "block.assemble_block_calls": (calls("block.assemble_block"), "count"),
        "block.build_index_set_s": (self_s("block.build_index_set"), "s"),
        "block.size": (gauge.get("block.size", 0), "count"),
        "simple.check_simplicity_s": (self_s("simple.check_simplicity"), "s"),
        "simple.k_set_s": (self_s("simple.k_set"), "s"),
        "simple.competitors": (cnt["simple.competitors"], "count"),
        "simple.block_competitors": (cnt["simple.block_competitors"], "count"),
        "series.known_part_sequence_s": (self_s("series.known_part_sequence"), "s"),
        "series.evaluate_series_s": (self_s("series.evaluate_series"), "s"),
        "series.evaluate_series_calls": (calls("series.evaluate_series"), "count"),
        "series.admissible_terms": (cnt["series.admissible_terms"], "count"),
        "series.contributing_terms": (cnt["series.contributing_terms"], "count"),
        # 0 when no series was evaluated
        "series.denominator_floor": (gauge.get("series.denominator_floor", 0.0), "1"),
        "scanner.certified_basis_radius_s": (self_s("scanner.certified_basis_radius"), "s"),
        "scanner.band_functions_s": (self_s("scanner.band_functions"), "s"),
        "scanner.stable_gap_report_s": (self_s("scanner.stable_gap_report"), "s"),
        "scanner.grid_points": (cnt["scanner.grid_points"], "count"),
        "scanner.basis_size": (gauge.get("scanner.basis_size", 0), "count"),
        "geometry.classify_s": (self_s("geometry.classify"), "s"),
        "geometry.classify_calls": (calls("geometry.classify"), "count"),
        "lattice.enumerate_s": (self_s("lattice.enumerate_ball", "lattice.enumerate_shifted_ball"), "s"),
        "lattice.points_enumerated": (cnt["lattice.points_enumerated"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def layer_shares(tracer) -> dict:
    """Self time per layer (the span-name prefix) as a share of all traced time."""
    by_layer = {}
    for name, (self_time, _) in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_time
    total = sum(by_layer.values()) or 1.0
    return {k: round(v / total, 4) for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}
