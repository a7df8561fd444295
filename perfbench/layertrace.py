"""Per-layer call tracing for the mugl benchmark.

A layer is one module of the mugl package.  The tracer wraps every public
function a layer module defines (plain functions, no leading underscore) and
installs the wrapper at every module attribute that holds the original, so
``from .laplacian import validate_simplex`` bindings inside other modules are
traced as well as ``module.function`` lookups.

Calls are aggregated online, per function: call count, total time (outermost
frame only, so recursion is not counted twice) and self time (duration minus
the time of traced calls made inside it).  Calls of one chosen function
made directly by one chosen caller are counted as well (``pair_calls``).
No per-call record is kept: the headline workload makes over a
million traced calls.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "mugl"
LAYERS = (
    "laplacian",
    "moments",
    "objective",
    "solvers",
    "datagen",
    "evaluation",
    "harness",
    "serialize",
    "cli",
)


def patch_everywhere(original, replacement) -> list:
    """Point every attribute of every loaded mugl module that holds
    `original` at `replacement`; return (module, name, original) triples."""
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                patched.append((module, name, original))
    return patched


def unpatch(patched: list) -> None:
    for module, name, original in reversed(patched):
        setattr(module, name, original)


class LayerTracer:
    """Wraps the public functions of the mugl layer modules while installed.

    `pair` is a (caller, callee) pair of "layer.function" keys; calls of
    the callee made directly by the caller are counted in ``pair_calls``.
    """

    def __init__(self, pair: tuple[str, str]):
        # key "layer.function" -> [calls, total_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        self.pair = pair
        self.pair_calls = 0
        self._stack: list = []
        self._patched: list = []

    def functions(self) -> dict[str, object]:
        """Public functions defined in each layer module, keyed layer.name."""
        found = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not name.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    found[f"{layer}.{name}"] = value
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for key, fn in self.functions().items():
            self.stats.setdefault(key, [0, 0.0, 0.0, 0])
            self._patched += patch_everywhere(fn, self._wrap(key, fn))

    def uninstall(self) -> None:
        unpatch(self._patched)
        self._patched = []

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        caller = self.pair[0] if key == self.pair[1] else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame = [key, time spent in traced callees]
            if caller is not None and stack and stack[-1][0] == caller:
                self.pair_calls += 1
            frame = [key, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[1]
                if stat[3] == 0:
                    stat[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over each layer's functions."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_s, _) in self.stats.items():
            totals[key.split(".", 1)[0]] += self_s
        return totals
