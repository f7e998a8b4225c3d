"""Spans around the public functions of each mereotop module.

The tracer replaces a function in every mereotop module namespace that
binds it (so ``mereotop.cli.check_eca`` and ``mereotop.algebra.check_eca``
are both wrapped), or on its class for a method, and puts the originals
back on ``uninstall``.  No file of the program changes.

``Tracer`` records a span (name, start, end, parent span, op id) per call in
memory, up to ``max_spans``; calls, errors and self time (span time minus
the time of child spans) are counted for every call, recorded or not.
``AllocPeaks`` is a separate pass over the same ops: it wraps only the
algebra checkers and records each one's peak traced allocation, with
tracemalloc running only inside the outermost checker call.  Keeping the
two apart keeps tracemalloc's cost out of the timed spans.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
import tracemalloc
from pathlib import Path

# layer (module of mereotop) -> wrapped functions; "Class.method" wraps a method.
LAYERS: dict[str, list[str]] = {
    "cli": ["main"],
    "topology": ["generate_topology", "rc_algebra", "rc_internally_connected"],
    "algebra": [
        "check_eca",
        "check_weca",
        "check_ca",
        "check_relative_contact_laws",
        "check_weca_consequences",
        "eca_from_rc",
        "covering_from_document",
        "internally_connected_algebraic",
    ],
    "frames": [
        "frame1_covering",
        "frame2_covering",
        "pframe_covering_antitone",
        "frame2_internally_connected",
        "ParametrizedFrame.relation",
    ],
    "representations": [
        "build_type1",
        "build_type2",
        "build_parametrized_frame",
        "verify_embedding",
        "verify_c_preservation",
        "verification_document",
    ],
}
ALLOC_TRACKED = {
    "algebra.check_eca",
    "algebra.check_weca",
    "algebra.check_ca",
    "algebra.check_relative_contact_laws",
    "algebra.check_weca_consequences",
}


# Work counts read off results: metric -> (functions, count of one result).
COUNTS = {
    "topology.opens": ({"topology.generate_topology"}, lambda topo: len(topo.opens)),
    "algebra.failed_checks": (ALLOC_TRACKED, lambda report: len(report.failures())),
    "representations.worlds": (
        {"representations.build_type1", "representations.build_type2", "representations.build_parametrized_frame"},
        lambda embedding: embedding.frame.world_count,
    ),
}


def patch(layers: dict[str, list[str]], register, make_wrapper) -> list[tuple[object, str, object]]:
    """Wrap each listed function wherever a mereotop module binds it;
    ``register(name)`` gives the token ``make_wrapper(token, name, fn)`` gets.
    Returns what ``unpatch`` needs to put the originals back."""
    package = importlib.import_module("mereotop")
    modules = [package] + [
        importlib.import_module(f"mereotop.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    restore: list[tuple[object, str, object]] = []

    def swap(owner: object, attr: str, original: object, wrapper: object) -> None:
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    for layer, functions in layers.items():
        home = importlib.import_module(f"mereotop.{layer}")
        for qualname in functions:
            name = f"{layer}.{qualname}"
            token = register(name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is not None:
                    swap(owner, attr, original, make_wrapper(token, name, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue  # gone from the program: reported as zero calls
            wrapper = make_wrapper(token, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        swap(module, key, original, wrapper)
    return restore


def unpatch(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
    restore.clear()


class Tracer:
    def __init__(self, max_spans: int) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_ns: list[int] = []
        self.counts = {name: 0 for name in COUNTS}
        self.spans: list[tuple | None] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list[int]] = []  # [start_ns, child_ns, span index]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self._restore = patch(LAYERS, self._register, self._wrap)

    def uninstall(self) -> None:
        unpatch(self._restore)

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, index: int, name: str, fn):
        stack = self._stack
        spans = self.spans
        calls, errors, self_ns = self.calls, self.errors, self.self_ns
        counters = [(metric, count) for metric, (names, count) in COUNTS.items() if name in names]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if len(spans) < self.max_spans:
                span = len(spans)
                spans.append(None)
            else:
                span = -1
                self.dropped += 1
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span >= 0:
                    spans[span] = (index, frame[0], end, parent, self.op_id)
            for metric, count in counters:
                self.counts[metric] += count(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_ms"] = (self.self_ns[i] / 1e6, "ms")
            out[f"{name}.errors"] = (self.errors[i], "count")
        for metric, value in self.counts.items():
            out[metric] = (value, "count")
        return out

    def write_spans(self, path: Path) -> int:
        """Write recorded spans as JSON lines; return how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                index, start, end, parent, op = span
                fh.write(json.dumps({"id": i, "name": self.names[index], "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")
                written += 1
        return written


class AllocPeaks:
    """Peak traced allocation of each algebra checker over the calls it
    sees; the outermost checker call runs tracemalloc."""

    def __init__(self) -> None:
        self.peak_bytes = {name: 0 for name in sorted(ALLOC_TRACKED)}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        layers = {
            layer: [f for f in functions if f"{layer}.{f}" in ALLOC_TRACKED]
            for layer, functions in LAYERS.items()
        }
        self._restore = patch(layers, lambda name: name, self._wrap)

    def uninstall(self) -> None:
        unpatch(self._restore)

    def _wrap(self, name: str, _: str, fn):
        peaks = self.peak_bytes

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {f"{name}.peak_alloc_mib": (peak / 2**20, "MiB") for name, peak in self.peak_bytes.items()}
