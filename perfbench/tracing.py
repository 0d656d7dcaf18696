"""In-memory span tracing installed around cascade-lab's public functions.

A span is recorded at each layer boundary by replacing a function at the
module (or class) attribute its callers resolve at call time, for example
both ``spectral.to_physical`` and ``integrators.to_physical``.  Spans are kept
in compact arrays (name id, parent index, start, end) and reduced to per-layer
self times only when the run ends, so a traced run allocates no per-call
Python objects beyond the call itself.

A target that no longer exists (a later refactor renamed or removed it) is
skipped and its layer reported as missing; the time it used to cover then
shows up as the root span's self time, ``bench.unattributed_s``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


def _largest_nbytes(*objs) -> int:
    """Bytes of the largest array among the objects or their ``values``/``coeffs``."""
    best = 0
    for obj in objs:
        for cand in (obj, getattr(obj, "values", None), getattr(obj, "coeffs", None)):
            best = max(best, getattr(cand, "nbytes", 0) or 0)
    return best


def _dst_bytes(counters, args, kwargs, result, exc):
    # One DST-I reads and writes a lattice-sized array; bytes are computed
    # from array sizes, not measured.
    counters["spectral.dst.bytes_computed"] += 2 * _largest_nbytes(result, *args)


def _csv_bytes(counters, args, kwargs, result, exc):
    if isinstance(result, str):
        counters["diagnostics.csv_write.bytes"] += len(result)


def _write_bytes(counters, args, kwargs, result, exc):
    data = args[1] if len(args) > 1 else kwargs.get("data", b"")
    counters["cli_io.write.bytes"] += len(data)


def _ensemble_aborts(counters, args, kwargs, result, exc):
    if exc is None:
        counters["experiments.ensemble.aborted"] += int(getattr(result[0], "aborts", 0))
    else:  # the whole ensemble was given up
        counters["experiments.ensemble.aborted"] += int(args[3] if len(args) > 3 else kwargs["M"])


_L = "cascade_lab."

# layer name -> (targets as (module, dotted attribute), counter hook or None)
LAYERS: dict[str, tuple[tuple[tuple[str, str], ...], object]] = {
    "forcing.normals": (((_L + "forcing", "RngStream.normals"),), None),
    "integrators.ou_step": (((_L + "integrators", "ou_exact_step"),), None),
    "integrators.phase_rotation": (((_L + "integrators", "phase_rotation_step"),), None),
    "integrators.step": (
        ((_L + "integrators", "strang_step"), (_L + "integrators", "em_step")),
        None,
    ),
    "integrators.driver": (((_L + "integrators", "continue_trajectory"),), None),
    "spectral.dst": (
        tuple((_L + mod, fn) for mod in ("spectral", "integrators")
              for fn in ("to_physical", "to_spectral")),
        _dst_bytes,
    ),
    "spectral.norms": (
        tuple((_L + mod, fn) for mod in ("spectral", "diagnostics", "integrators")
              for fn in ("sobolev_norm", "sup_norm")),
        None,
    ),
    "spectral.cm_norm": (((_L + "spectral", "cm_norm"), (_L + "diagnostics", "cm_norm")), None),
    "diagnostics.recorder": (((_L + "diagnostics", "NormRecorder.__call__"),), None),
    "diagnostics.csv_write": (
        ((_L + "diagnostics", "stream_csv_text"), (_L + "cli_io", "stream_csv_text")),
        _csv_bytes,
    ),
    "diagnostics.csv_read": (
        ((_L + "diagnostics", "read_stream_csv"), (_L + "cli_io", "read_stream_csv")),
        None,
    ),
    "diagnostics.checks": (
        ((_L + "diagnostics", "balance_check"), (_L + "diagnostics", "occupation_check"),
         (_L + "diagnostics", "stationary_check"), (_L + "experiments", "balance_check"),
         (_L + "cli_io", "occupation_check")),
        None,
    ),
    "experiments.ensemble": (
        ((_L + "experiments", "ensemble_run"), (_L + "cli_io", "ensemble_run")),
        _ensemble_aborts,
    ),
    "experiments.sweep": (
        ((_L + "experiments", "nu_sweep"), (_L + "experiments", "stationary_sweep"),
         (_L + "cli_io", "nu_sweep"), (_L + "cli_io", "stationary_sweep")),
        None,
    ),
    "cli_io.config": (((_L + "cli_io", "parse_config"),), None),
    "cli_io.write": (((_L + "cli_io", "atomic_write_bytes"),), _write_bytes),
    "cli_io.read": (((_L + "cli_io", "read_run_streams"),), None),
}

ROOT = "bench.root"


def _owner(module: str, dotted: str):
    """(object holding the attribute, attribute name), or None if either is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    return owner, attr


class Tracer:
    """Span recorder; ``install`` wraps the layer targets and ``remove`` restores them."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = [ROOT, *layers]
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.hook_errors = 0
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, fn, name_id: int, hook):
        # Inlined bookkeeping: every traced call pays this, so it stays minimal.
        stack, end = self.stack, self.end
        kind_append, parent_append = self.kind.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            kind_append(name_id)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    self._count(hook, args, kwargs, result, exc)

        return traced

    def _count(self, hook, args, kwargs, result, exc) -> None:
        try:
            hook(self.counters, args, kwargs, result, exc)
        except Exception:  # a changed signature must not stop the run
            self.hook_errors += 1

    @contextmanager
    def root(self):
        """The timed region; its self time is work no layer span covers."""
        idx = len(self.end)
        self.kind.append(0)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    # --- installation --------------------------------------------------------------

    def install(self) -> None:
        for name_id, (name, (targets, hook)) in enumerate(self.layers.items(), start=1):
            found = False
            for module, dotted in targets:
                loc = _owner(module, dotted)
                original = vars(loc[0]).get(loc[1]) if loc else None
                if not callable(original):
                    continue
                setattr(loc[0], loc[1], self._wrap(original, name_id, hook))
                self.installed.append((loc[0], loc[1], original))
                found = True
            if not found:
                self.missing.append(name)

    def remove(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    # --- reduction ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self and inclusive seconds, and counters; the root is ``bench.root``."""
        import numpy as np

        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        self_by_name = np.bincount(kind, weights=self_s, minlength=n)
        total_by_name = np.bincount(kind, weights=dur, minlength=n)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_by_name[i]) for i, name in enumerate(self.names)},
            "total_s": {name: float(total_by_name[i]) for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
            "missing": list(self.missing),
            "hook_errors": self.hook_errors,
        }

    def save(self, path) -> None:
        """Write the raw span table (name ids, parents, start and end times)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
