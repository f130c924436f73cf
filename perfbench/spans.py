"""Spans around calls into paramagloss, recorded from the benchmark's side.

The tracer replaces each entry point listed in ``ENTRY_POINTS`` with a
wrapper on the name its callers look up (``paramagloss.cli.sweep`` is what
``cmd_sweep`` calls, ``paramagloss._kernels.lorentzian_mix`` is what the
ensemble layer calls).  A wrapper appends one span per call to an
in-memory list; nothing is written until the benchmark ends.  An entry
point that no longer exists is recorded as absent and skipped, so a
refactor that renames or removes it leaves the trace usable.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


def _kernel_line_points(args, kwargs, result) -> int:
    omega = args[0] if args else kwargs["omega"]
    centers = args[1] if len(args) > 1 else kwargs["centers"]
    return len(omega) * len(centers)


def _db_lines(args, kwargs, result) -> int:
    return sum(len(sp.lines) for sp in result)


# (layer, module, attribute, work counter).  Several entry points may feed
# one layer.  The work counter runs after the span has ended.
ENTRY_POINTS = [
    ("ensemble.load_species_db", "paramagloss.cli", "load_species_db", _db_lines),
    ("ensemble.sweep", "paramagloss.cli", "sweep", None),
    ("ensemble.species_loss", "paramagloss.cli", "species_loss", None),
    ("spin.line_coupling_sq", "paramagloss.ensemble", "line_coupling_sq", None),
    ("kernels.lorentzian_mix", "paramagloss._kernels", "lorentzian_mix", _kernel_line_points),
    ("lineshape", "paramagloss.cli", "temperature_factor", None),
    ("lineshape", "paramagloss.cli", "tanh_factor", None),
    ("lineshape", "paramagloss.ensemble", "temperature_factor", None),
    ("lineshape", "paramagloss.ensemble", "power_broadened_gamma", None),
    ("ioformat.write", "paramagloss.cli", "write_csv", None),
    ("ioformat.write", "paramagloss.cli", "write_json", None),
    ("emission", "paramagloss.cli", "read_emission_table", None),
    ("emission", "paramagloss.cli", "extraction_rows", None),
]

ROOT_LAYER = "cli"


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0


@dataclass
class Tracer:
    """Installs wrappers, records spans, and folds them into layer totals.

    A span is (layer index, parent span index or -1, start ns, end ns, work).
    """

    layers: list[str] = field(default_factory=lambda: [ROOT_LAYER])
    spans: list = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _originals: list = field(default_factory=list)

    def _layer_index(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def install(self, entry_points) -> None:
        self.absent.clear()
        for layer, module_name, attr, counter in entry_points:
            self._layer_index(layer)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(layer, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def wrap(self, layer: str, fn, counter=None):
        index = self._layer_index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = 0
                if counter is not None:
                    try:
                        work = counter(args, kwargs, result)
                    except (TypeError, AttributeError, KeyError, IndexError):
                        work = 0  # the call raised, or its signature changed
                spans[slot] = (index, parent, start, end, work)

        return traced

    def reset(self) -> None:
        self.spans.clear()

    def stats(self) -> dict[str, LayerStats]:
        """Per-layer calls, inclusive time, self time and work of the spans."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: LayerStats() for layer in self.layers}
        for i, (index, _, start, end, work) in enumerate(self.spans):
            st = out[self.layers[index]]
            st.calls += 1
            st.total_ns += end - start
            st.self_ns += end - start - child_ns[i]
            st.work += work
        return out

    def write(self, path) -> None:
        """Write the recorded spans as tab-separated text."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tparent\tstart_ns\tend_ns\twork\n")
            for i, (index, parent, start, end, work) in enumerate(self.spans):
                fh.write(f"{i}\t{self.layers[index]}\t{parent}\t{start}\t{end}\t{work}\n")
