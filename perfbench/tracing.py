"""Outside-in tracing of the ballot_lattice package.

The tracer wraps every public function of the layer modules and rebinds
the wrapper wherever a package module holds the original, so calls made
inside the package (``checks`` calling ``order.join``, ``representation``
calling ``relation_of``) are seen as well as calls from the benchmark.
No package file changes.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the durations of its direct
child spans.  ``order.join`` and ``order.meet`` are counted but not
spanned: they run tens of thousands of times a pass and a span each would
swamp what they measure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "ballot_lattice"
LAYERS = ("order", "checks", "representation", "enumeration", "election", "cli")
COUNT_ONLY = frozenset({"order.join", "order.meet"})


def public_functions() -> dict[str, object]:
    """``layer.function`` -> callable, for each layer's ``__all__``.

    Every callable that is not a class is taken, so a function behind
    ``functools.lru_cache`` or another wrapper stays traced.  A callable
    that several layers export is filed under the layer that defines it,
    or else under the first layer that exports it.
    """
    found: dict[int, tuple[str, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if not callable(fn) or inspect.isclass(fn):
                continue
            home = getattr(fn, "__module__", None) == module.__name__
            if id(fn) not in found or home:
                found[id(fn)] = (f"{layer}.{name}", fn)
    return dict(found.values())


def by_function(table) -> Counter:
    """Sum a ``(phase, function) -> value`` table over phases."""
    total: Counter = Counter()
    for (_, name), value in table.items():
        total[name] += value
    return total


class Tracer:
    """Call counts, self times and spans, grouped by the phase that was current.

    ``phase`` names the benchmark step running now; every span and count
    is filed under it.
    """

    def __init__(self):
        self.phase = "setup"
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # (span id, parent id or -1, name, phase, start, end)
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._next_id = 0
        self.originals = public_functions()
        self._wrappers = {
            name: self._wrap(name, fn) for name, fn in self.originals.items()
        }

    def set_phase(self, label: str) -> None:
        self.phase = label

    def _open(self) -> tuple[list, float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter()

    def _close(self, name: str, frame: list, start: float, count: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        key = (self.phase, name)
        if count:
            self.calls[key] += 1
        self.self_s[key] += duration - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else -1, name, self.phase, start, end)
        )

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[(self.phase, name)] += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            # One call per generator; one span per resume, so the work done
            # between yields is charged here and not to the consumer.
            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame, start = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(name, frame, start, count=first)
                        return
                    except BaseException:
                        self._close(name, frame, start, count=first)
                        raise
                    self._close(name, frame, start, count=first)
                    first = False
                    yield item

            return resumed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)

        return spanned

    def _rebind(self, old: dict, new: dict) -> None:
        swap = {id(fn): new[name] for name, fn in old.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = swap.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        self._rebind(self.originals, self._wrappers)

    def uninstall(self) -> None:
        self._rebind(self._wrappers, self.originals)

    def write(self, path: Path) -> None:
        """All spans as JSON: times in microseconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        names = sorted({s[2] for s in self.spans})
        phases = sorted({s[3] for s in self.spans})
        name_ids = {n: i for i, n in enumerate(names)}
        phase_ids = {p: i for i, p in enumerate(phases)}
        rows = [
            [sid, parent, name_ids[name], phase_ids[phase],
             round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1)]
            for sid, parent, name, phase, start, end in self.spans
        ]
        payload = {
            "columns": ["id", "parent", "name", "phase", "start_us", "duration_us"],
            "names": names,
            "phases": phases,
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
