"""Per-layer tracing of drrkit from outside: wraps each layer's public
functions in every drrkit module namespace that binds them.

Spans are kept in memory: (name, thread, start, end, parent). A span opened on
a worker thread with no open span of its own takes the innermost open span of
the main thread as parent, so ``cmd_project``'s study threads nest under it.
Self time is a span's duration minus the union of the intervals its child
spans cover, which stays correct when children on two threads overlap.

Peak memory comes from a separate pass, ``Tracer(memory=True)``, which wraps
only the MEMORY_SPANS functions and runs tracemalloc while one of them is
open (when two overlap on threads, the peak covers both). tracemalloc slows
every allocation, so the timed pass runs without it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# The layers are drrkit's modules; each is timed through these functions.
FUNCTIONS = {
    "cli": ("cmd_project", "cmd_measure", "cmd_evaluate", "cmd_stats"),
    "io": ("load_volume", "load_label_volume", "load_mask", "save_mask", "save_projection"),
    "projection": ("attenuation_transform", "project_image", "project_mask",
                   "resample_and_orient", "normalize_to_8bit", "project_study"),
    "measurement": ("clean_mask", "cardiothoracic_ratio", "scoliosis_angle", "kyphosis_angle"),
    "metrics": ("evaluate_class_set", "evaluate_pair", "dice_iou",
                "boundary_distance_metrics", "component_detection"),
    "stats": ("bootstrap_ci", "wilcoxon_signed_rank", "effect_sizes",
              "pairwise_model_comparison", "weighted_kappa", "ordinal_metrics"),
}
MEMORY_SPANS = ("projection.project_study", "metrics.evaluate_class_set")
LOADS = ("io.load_volume", "io.load_label_volume", "io.load_mask")
GRADERS = ("measurement.cardiothoracic_ratio", "measurement.scoliosis_angle",
           "measurement.kyphosis_angle")
MB = float(1 << 20)


def _nbytes(obj) -> int:
    data = getattr(obj, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Installs span wrappers on enter, restores the originals on exit."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._memory_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            main = self._stacks[self._main]
            parent = stack[-1] if stack else (main[-1] if main else None)
            self.spans.append([name, tid, 0.0, 0.0, parent])
            stack.append(len(self.spans) - 1)
            return len(self.spans) - 1

    def _close(self, idx: int, start: float, end: float) -> None:
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.spans[idx][2:4] = start, end

    def _memory(self, name: str, entering: bool) -> None:
        with self._lock:
            if entering:
                if self._memory_depth == 0:
                    tracemalloc.start()
                self._memory_depth += 1
                return
            peak = tracemalloc.get_traced_memory()[1]
            self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            self._memory_depth -= 1
            if self._memory_depth == 0:
                tracemalloc.stop()

    def _count(self, name: str, args, result) -> None:
        if name in LOADS:
            self.counts["load_bytes"] += _nbytes(result)
        elif name == "projection.project_study":
            vol, labels = args[0], args[1]
            self.counts["voxels"] += vol.data.size + sum(lab.data.size for lab in labels)
        elif name.startswith("projection."):
            # Array bytes read and written at the call boundary; temporaries
            # inside the call are not counted.
            self.counts["bytes_moved"] += sum(map(_nbytes, args)) + _nbytes(result)
        elif name in GRADERS:
            self.counts["excluded"] += int(result.excluded)

    def _span(self, name: str, fn):
        track = self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if track:
                self._memory(name, True)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if track:
                    self._memory(name, False)
                self._close(idx, start, end)
            self._count(name, args, result)
            return result
        return wrapper

    def _boundary_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["boundary_px"] += int(np.count_nonzero(result))
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def _bind_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "drrkit" and not mod_name.startswith("drrkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"drrkit.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is not None and (name in MEMORY_SPANS or not self.memory):
                    self._bind_everywhere(original, self._span(name, original))
        metrics = sys.modules["drrkit.metrics"]
        if hasattr(metrics, "boundary_pixels") and not self.memory:
            self._bind_everywhere(metrics.boundary_pixels,
                                  self._boundary_counter(metrics.boundary_pixels))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        return [end - start - _covered(children[i], start, end)
                for i, (_, _, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self, peak_bytes: dict[str, int]) -> dict[str, tuple[float, str]]:
        """name -> (value, unit) for every traced function and layer counter;
        ``peak_bytes`` is the memory pass's ``Tracer.peak_bytes``."""
        self_ms, calls, total_s = defaultdict(float), defaultdict(int), defaultdict(float)
        for span, own in zip(self.spans, self.self_seconds()):
            self_ms[span[0]] += own * 1e3
            calls[span[0]] += 1
            total_s[span[0]] += span[3] - span[2]
        out = {}
        for layer, names in FUNCTIONS.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                out[f"{name}.self_ms"] = (self_ms[name], "ms")
                out[f"{name}.calls"] = (calls[name], "count")
        load_s = sum(self_ms[n] for n in LOADS) / 1e3
        study_s = total_s["projection.project_study"]
        out["io.read_mb_per_s"] = (self.counts["load_bytes"] / MB / load_s if load_s else 0.0,
                                   "MB/s")
        out["projection.mvoxels_per_s"] = (
            self.counts["voxels"] / 1e6 / study_s if study_s else 0.0, "Mvoxel/s")
        out["projection.bytes_moved_mb"] = (self.counts["bytes_moved"] / MB, "MB")
        for name in MEMORY_SPANS:
            out[f"{name}.peak_mb"] = (peak_bytes.get(name, 0) / MB, "MB")
        out["measurement.excluded"] = (self.counts["excluded"], "count")
        out["metrics.boundary_px"] = (self.counts["boundary_px"], "count")
        return out

    def span_records(self) -> list[dict]:
        t0 = min((s[2] for s in self.spans), default=0.0)
        return [{"name": name, "thread": tid, "start_ms": (start - t0) * 1e3,
                 "end_ms": (end - t0) * 1e3, "self_ms": own * 1e3, "parent": parent}
                for (name, tid, start, end, parent), own
                in zip(self.spans, self.self_seconds())]
