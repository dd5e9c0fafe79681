"""Per-layer spans for the traced run, recorded from outside the program.

Each wrapper is installed in the namespace that *calls* the function,
because modules bind imported names at import time: ``dynamics.rewire``
is what the engine calls, not ``network.rewire``. A span is kept as
(name, start, end, parent); a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time

# (module, attribute path, span name). Several call sites may share a span.
WRAPPED = [
    ("config", "load_config", "config.load"),
    ("dynamics", "config_from_dict", "config.validate"),
    ("dynamics", "nearest_term", "linguistic.nearest_term"),
    ("baselines", "nearest_term", "linguistic.nearest_term"),
    ("dynamics", "step", "dynamics.step"),
    ("config", "random_network", "network.random_network"),
    ("dynamics", "rewire", "network.rewire"),
    ("dynamics", "TrajectoryRecord.from_states", "metrics.record"),
    ("baselines", "hk_step", "baselines.hk_step"),
    ("baselines", "degroot_run", "baselines.degroot"),
    ("outputs", "save_edge_list", "outputs.edges"),
    ("outputs", "write_trajectory", "outputs.write_trajectory"),
    ("cli", "write_trajectory", "outputs.write_trajectory"),
    ("outputs", "write_manifest", "outputs.manifest"),
    ("cli", "write_manifest", "outputs.manifest"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_metrics", "cli.reanalyse"),
]


class Tracer:
    """Installs the wrappers, collects spans, and restores every original."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                open_.pop()

        return traced

    def _owner(self, module: str, path: str):
        owner = getattr(self.package, module, None)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return None, attr
        return owner, attr

    def __enter__(self):
        for module, path, name in WRAPPED:
            owner, attr = self._owner(module, path)
            if owner is None:
                self.missing.append(f"{module}.{path}")
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self._installed)

    def take(self, scale: float = 1.0) -> dict[str, dict[str, float]]:
        """Total time, self time and calls per span name; clears the spans.

        Times are multiplied by ``scale``, the pass's host-normalising factor.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = summary.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["total"] += (end - start) * scale
            entry["self"] += (end - start - children) * scale
            entry["calls"] += 1
        self.spans.clear()
        return summary
