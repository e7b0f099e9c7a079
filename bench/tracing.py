"""In-memory span tracing of the probunitary layers, installed from outside.

The tracer replaces, in each layer module's namespace, every function that
module imports from another layer with a wrapper that records a span.  The
CLI reaches ``io`` and ``models`` through the module objects, so its two
references are swapped for proxies whose public functions are wrapped.  Two
calls inside a layer get spans too, because the per-layer metrics split them
out: ``models.integrate`` and ``decomposition.align_eigenframes``.
``linear_sum_assignment`` is counted per calling layer, without a span.
``uninstall`` restores every patched name; nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "models", "decomposition", "linalg", "montecarlo", "channel", "io")
INTRA_LAYER = (("models", "integrate"), ("decomposition", "align_eigenframes"))
COUNTED = "linear_sum_assignment"


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    prefix, _, layer = module.rpartition(".")
    return layer if prefix == "probunitary" and layer in LAYERS else None


class Tracer:
    """Spans as tuples (id, parent, request, name, start_ns, end_ns).

    ``request`` is the index of the CLI call that caused the span.  The
    most recent return value of each name in ``keep`` is held in ``kept``.
    """

    def __init__(self, keep=()):
        self.spans = []
        self.counts = Counter()
        self.keep = set(keep)
        self.kept = {}
        self.request = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def span(self, name, fn):
        """Call-through wrapper of ``fn`` recording one span per call."""

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, self.request, name, start, end))
            if name in self.keep:
                self.kept[name] = result
            return result

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"probunitary.{layer}")
            except ModuleNotFoundError:  # a layer merged away reads 0
                continue
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                owner = _layer_of(value)
                if inspect.isfunction(value) and owner not in (None, layer):
                    self._patch(module, attr, self.span(f"{owner}.{attr}", value))
                elif attr == COUNTED and callable(value):
                    self._patch(module, attr, self.counter(f"{layer}.assignment_calls", value))
                elif isinstance(value, types.ModuleType) and value in modules.values():
                    owner = value.__name__.rpartition(".")[2]
                    if owner != layer:
                        self._patch(module, attr, self._proxy(owner, value))
        for layer, attr in INTRA_LAYER:
            fn = getattr(modules.get(layer), attr, None)
            if inspect.isfunction(fn):
                self._patch(modules[layer], attr, self.span(f"{layer}.{attr}", fn))

    def _proxy(self, layer, module):
        """Namespace standing in for ``module`` with its public functions traced."""
        proxy = types.SimpleNamespace(**vars(module))
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr, None)
            if inspect.isfunction(value):
                setattr(proxy, attr, self.span(f"{layer}.{attr}", value))
        return proxy

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def summary(self):
        """Per-name totals and per-layer self times, all in seconds.

        Returns (total_s, self_s, calls, durations) keyed by span name, and
        layer_self_s keyed by layer.  A span's self time is its duration
        minus the durations of its direct children (spans nest strictly).
        """
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        durations = defaultdict(list)
        layer_self = Counter()
        for span_id, _, _, name, start, end in self.spans:
            dur = (end - start) * 1e-9
            self_s = dur - child_ns[span_id] * 1e-9
            total[name] += dur
            own[name] += self_s
            calls[name] += 1
            durations[name].append(dur)
            layer_self[name.partition(".")[0]] += self_s
        return total, own, calls, durations, layer_self

    def dump(self):
        return {
            "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
