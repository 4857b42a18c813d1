"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions (each module's ``__all__``) of the
qudual layers and the constructors of the state types. Every module attribute
that is the same function object is rebound to the wrapper, so names imported
with ``from .x import y`` are traced too. A span records its name, start,
end and parent. Spans that have traced children are kept in memory; leaf
spans, the hot part, are aggregated per (parent, name). Self time is a
span's duration minus the time of its traced children.

A name the program no longer defines is reported as absent; the tracer
keeps working without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "verify", "duality", "uncertainty", "simultaneous", "linalg", "states", "montecarlo")

# Classes whose construction is traced through their __init__.
CONSTRUCTORS = ("states.DensityMatrix", "states.Observable")

# Spans whose allocation peak is taken from tracemalloc; tracing is switched
# on only inside them, so the rest of the run pays nothing for it. None of
# them calls another.
PEAK_SPANS = (
    "duality.visibility_oracle",
    "montecarlo.sample_sharp",
    "montecarlo.sample_simultaneous",
    "montecarlo.sample_fringe",
)


def _grid_points(bound: inspect.BoundArguments) -> int:
    shape = np.broadcast_shapes(np.shape(bound.arguments["phi"]), np.shape(bound.arguments["xi"]))
    return int(np.prod(shape))


# Work counters read from a call's arguments.
WORK = {
    "duality.fringe_probability": _grid_points,
    "montecarlo.sample_sharp": lambda b: int(b.arguments["n"]),
    "montecarlo.sample_simultaneous": lambda b: int(b.arguments["n"]),
    "montecarlo.sample_fringe": lambda b: int(b.arguments["n_per_point"]) * len(b.arguments["phi_grid"]),
}

STATE_CONSTRUCTION = ("states.DensityMatrix", "states.pure_state", "states.Observable", "states.complementary_observable")
VALIDATION = ("linalg.assert_hermitian", "linalg.assert_unitary")
SAMPLERS = ("montecarlo.sample_sharp", "montecarlo.sample_simultaneous", "montecarlo.sample_fringe")

# (metric, unit, kind, sources). Kinds: calls, self_s and work sum over the
# sources per operation; per divides the calls of sources[0] made directly
# by sources[1] by the calls of sources[1]; peak_mb is the largest
# allocation peak of one call; layer_s sums the self time of every traced
# name in the layer.
PER_LAYER = [
    ("duality.visibility_oracle.calls", "count", "calls", ("duality.visibility_oracle",)),
    ("duality.visibility_oracle.self_s", "s", "self_s", ("duality.visibility_oracle",)),
    ("duality.visibility_oracle.peak_alloc_mb", "MB", "peak_mb", ("duality.visibility_oracle",)),
    ("duality.fringe_probability.points", "count", "work", ("duality.fringe_probability",)),
    ("duality.fringe_probability.self_s", "s", "self_s", ("duality.fringe_probability",)),
    ("duality.duality_report.self_s", "s", "self_s", ("duality.duality_report",)),
    ("uncertainty.robertson.calls", "count", "calls", ("uncertainty.robertson",)),
    ("uncertainty.robertson.self_s", "s", "self_s", ("uncertainty.robertson",)),
    ("uncertainty.mean_var.calls", "count", "calls", ("uncertainty.mean_var",)),
    ("uncertainty.mean_var.self_s", "s", "self_s", ("uncertainty.mean_var",)),
    ("simultaneous.minimum_product_report.calls", "count", "calls", ("simultaneous.minimum_product_report",)),
    ("simultaneous.minimum_product_report.self_s", "s", "self_s", ("simultaneous.minimum_product_report",)),
    ("simultaneous.simultaneous_product.per_minimum", "ratio", "per",
     ("simultaneous.simultaneous_product", "simultaneous.minimum_product_report")),
    ("simultaneous.simultaneous_product.self_s", "s", "self_s", ("simultaneous.simultaneous_product",)),
    ("simultaneous.distinguishability.self_s", "s", "self_s", ("simultaneous.distinguishability",)),
    ("simultaneous.meter_projectors.calls", "count", "calls", ("simultaneous.meter_projectors",)),
    ("simultaneous.meter_projectors.self_s", "s", "self_s", ("simultaneous.meter_projectors",)),
    ("simultaneous.entangle.per_meter_projectors", "ratio", "per",
     ("simultaneous.entangle", "simultaneous.meter_projectors")),
    ("simultaneous.estimate_a.self_s", "s", "self_s", ("simultaneous.estimate_a",)),
    ("simultaneous.estimate_b.self_s", "s", "self_s", ("simultaneous.estimate_b",)),
    ("linalg.hermitian_eig.calls", "count", "calls", ("linalg.hermitian_eig",)),
    ("linalg.hermitian_eig.self_s", "s", "self_s", ("linalg.hermitian_eig",)),
    ("linalg.validation.calls", "count", "calls", VALIDATION),
    ("states.construct.calls", "count", "calls", STATE_CONSTRUCTION),
    ("states.construct.self_s", "s", "self_s", STATE_CONSTRUCTION),
    ("cli.main.self_s", "s", "self_s", ("cli.main",)),
    ("verify.run_suites.self_s", "s", "self_s", ("verify.run_suites",)),
    ("montecarlo.shots", "count", "work", SAMPLERS),
    ("montecarlo.sample_sharp.self_s", "s", "self_s", ("montecarlo.sample_sharp",)),
    ("montecarlo.sample_simultaneous.self_s", "s", "self_s", ("montecarlo.sample_simultaneous",)),
    ("montecarlo.sample_fringe.self_s", "s", "self_s", ("montecarlo.sample_fringe",)),
    ("montecarlo.peak_alloc_mb", "MB", "peak_mb", SAMPLERS),
] + [(f"layer.{layer}.self_s", "s", "layer_s", (layer,)) for layer in LAYERS]


class Tracer:
    """Wraps qudual's public functions and records spans while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.peak_bytes: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.leaves: dict[tuple[str, str], list] = {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.traced: list[str] = []
        self.absent: list[str] = []
        self.ops = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"qudual.{layer}")
            except ImportError:
                self.absent.append(f"qudual.{layer}")
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name in CONSTRUCTORS:
            layer, cls_name = name.split(".")
            cls = getattr(sys.modules.get(f"qudual.{layer}"), cls_name, None)
            if not inspect.isclass(cls):
                continue
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(name, cls.__init__)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qudual" or mod_name.startswith("qudual.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        wanted = {s for _, _, kind, sources in PER_LAYER if kind != "layer_s" for s in sources}
        self.absent += sorted(wanted - set(self.traced))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def op(self):
        """Root span of one operation; every span inside carries its index."""
        frame = self._open("op")
        try:
            yield
        finally:
            self._close(frame, time.perf_counter())
            self.ops += 1

    # ------------------------------------------------------------- spans

    def _wrap(self, name: str, fn):
        self.traced.append(name)
        counter = WORK.get(name)
        signature = inspect.signature(fn) if counter else None
        peak = name in PEAK_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    n = counter(signature.bind(*args, **kwargs))
                except (TypeError, KeyError, ValueError):
                    n = 0
                tracer.work[name] = tracer.work.get(name, 0) + n
            if peak:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    used = tracemalloc.get_traced_memory()[1] - base
                    tracer.peak_bytes[name] = max(tracer.peak_bytes.get(name, 0), used)
                    if started:
                        tracemalloc.stop()
                tracer._close(frame, end)

        return wrapper

    def _open(self, name: str) -> list:
        self._next_id += 1
        if self._stack:
            self._stack[-1][4] = True
        # name, id, start, time in traced children, has children
        frame = [name, self._next_id, 0.0, 0.0, False]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list, end: float) -> None:
        self._stack.pop()
        name, span_id, start, child_s, has_children = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        parent_name = parent[0] if parent else ""
        if parent is not None:
            parent[3] += duration
            key = (parent_name, name)
            self.edges[key] = self.edges.get(key, 0) + 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if has_children:
            self.spans.append((self.ops, span_id, parent[1] if parent else 0, name, start, end))
        else:
            leaf = self.leaves.setdefault((parent_name, name), [0, 0.0])
            leaf[0] += 1
            leaf[1] += duration

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced operation."""
        ops = max(self.ops, 1)
        out = {}
        for metric, unit, kind, sources in PER_LAYER:
            if kind == "calls":
                value = sum(self.calls.get(s, 0) for s in sources) / ops
            elif kind == "self_s":
                value = sum(self.self_s.get(s, 0.0) for s in sources) / ops
            elif kind == "work":
                value = sum(self.work.get(s, 0) for s in sources) / ops
            elif kind == "peak_mb":
                value = max(self.peak_bytes.get(s, 0) for s in sources) / 2**20
            elif kind == "per":
                child, parent = sources
                made = self.edges.get((parent, child), 0)
                value = made / self.calls[parent] if self.calls.get(parent) else 0.0
            else:
                value = sum(v for k, v in self.self_s.items() if k.startswith(sources[0] + "."))
                value /= ops
            out[metric] = (value, unit)
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out when the run ends."""
        return {
            "ops": self.ops,
            "absent": self.absent,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "work": self.work,
            "peak_bytes": self.peak_bytes,
            "leaves": [[p, n, c, t] for (p, n), (c, t) in sorted(self.leaves.items())],
            "spans_fields": ["op", "id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
