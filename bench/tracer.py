"""Spans around calls into framecalc's modules, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
module with timing wrappers and `uninstall()` puts the originals back;
nothing under `src/` changes. Most names reach their callers through
`from .x import y`, so a wrapper is rebound in every framecalc module that
holds the original (and in module-level dicts such as the suite table);
calls inside a module go through its globals and see the wrapper too.

A call made from inside a span of the same layer records no span of its
own (its time stays in the caller's self time), except for the functions
in ALWAYS, whose calls the waste counters and per-layer numbers need.
That keeps the wrappers off the hot inner helpers.

A span is (name id, start ns, end ns, parent span, request id). A request
is one `run_suite` call, or one top-level call (a library call, or one
`cli.main`). Spans stay in memory as flat int64 arrays until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("rng", "linalg", "frames", "identities", "sweeps", "frame_io", "cli")

# calls recorded even when nested in a span of their own layer
ALWAYS = frozenset({
    "linalg.hermitian_eig",
    "linalg.psd_apply",
    "frames.Frame.__post_init__",
    "frames.random_gaussian",
    "frames.random_parseval",
    "sweeps.run_suite",
    "sweeps._conditioned_gaussian",
    "cli._dump",
})
# private functions that are layer boundaries worth a span
_PRIVATE = {"sweeps": ("_conditioned_gaussian",), "cli": ("_dump",)}
# methods wrapped on classes defined in a layer module
_DUNDER = {"Frame": ("__post_init__",)}
REQUEST_SPANS = frozenset({"sweeps.run_suite"})
# spans of these functions resample until a draw is accepted
RESAMPLERS = ("frames.random_parseval", "sweeps._conditioned_gaussian")

_FIELDS = 5  # fid, t0, t1, parent, request


class _State:
    __slots__ = ("cur", "layer", "req", "next_req")

    def __init__(self):
        self.cur = -1
        self.layer = -1
        self.req = -1
        self.next_req = 0


class Tracer:
    """Records spans and the eigendecomposition repeat counter."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.buf = array("q")
        self.eig = array("q")  # (span index, matrix size, repeat flag) triples
        self._state = _State()
        self._seen: set = set()
        self._seen_req = -1
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("framecalc." + m) for m in LAYERS]
        holders = modules + [importlib.import_module("framecalc")]
        replace: dict[int, object] = {}
        for layer_idx, mod in enumerate(modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not name.startswith("_") or name in _PRIVATE.get(LAYERS[layer_idx], ())
                ):
                    replace[id(obj)] = self._wrap(obj, f"{LAYERS[layer_idx]}.{name}", layer_idx)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, LAYERS[layer_idx], layer_idx)
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if id(value) in replace:
                    self._undo.append((setattr, holder, name, value))
                    setattr(holder, name, replace[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            self._undo.append((dict.__setitem__, value, key, item))
                            value[key] = replace[id(item)]

    def _wrap_methods(self, cls, layer: str, layer_idx: int) -> None:
        extra = _DUNDER.get(cls.__name__, ())
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapped = self._wrap(attr, label, layer_idx)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(attr.__func__, label, layer_idx))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(attr.__func__, label, layer_idx))
            else:
                continue
            self._undo.append((setattr, cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            op, target, key, value = self._undo.pop()
            op(target, key, value)

    def _wrap(self, fn, label: str, layer_idx: int):
        fid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer_idx)
        buf = self.buf
        state = self._state
        clock = time.perf_counter_ns
        always = label in ALWAYS
        opens_request = label in REQUEST_SPANS
        eig_hook = self._eig_hook if label == "linalg.hermitian_eig" else None

        def wrapper(*args, **kwargs):
            if state.layer == layer_idx and not always:
                return fn(*args, **kwargs)
            idx = len(buf) // _FIELDS
            buf.extend((fid, 0, 0, -1, -1))
            parent, parent_layer, parent_req = state.cur, state.layer, state.req
            if parent < 0 or opens_request:
                state.req = state.next_req
                state.next_req += 1
            req = state.req
            if eig_hook is not None:
                eig_hook(idx, req, args[0] if args else kwargs["m"])
            state.cur, state.layer = idx, layer_idx
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                base = idx * _FIELDS
                buf[base + 1] = t0
                buf[base + 2] = t1
                buf[base + 3] = parent
                buf[base + 4] = req
                state.cur, state.layer, state.req = parent, parent_layer, parent_req

        wrapper.__wrapped__ = fn
        return wrapper

    def _eig_hook(self, idx: int, req: int, m) -> None:
        # a repeat is an input byte-identical (with shape) to one already
        # decomposed in the same request
        if req != self._seen_req:
            self._seen.clear()
            self._seen_req = req
        a = np.asarray(m)
        key = (a.shape, a.dtype.str, a.tobytes())
        repeat = key in self._seen
        self._seen.add(key)
        self.eig.extend((idx, a.shape[0] if a.ndim else 0, int(repeat)))

    # -- read-out ---------------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans; name ids stay valid."""
        del self.buf[:]
        del self.eig[:]
        self._state.next_req = 0
        self._seen.clear()
        self._seen_req = -1

    def spans(self) -> "Spans":
        return Spans(self.names, self.layer_of,
                     np.frombuffer(self.buf, dtype=np.int64).reshape(-1, _FIELDS).copy(),
                     np.frombuffer(self.eig, dtype=np.int64).reshape(-1, 3).copy())


class Spans:
    """Recorded spans as arrays, with self-time and counter queries."""

    def __init__(self, names, layer_of, rows: np.ndarray, eig: np.ndarray):
        self.names = list(names)
        self.fid = rows[:, 0]
        self.t0 = rows[:, 1]
        self.t1 = rows[:, 2]
        self.parent = rows[:, 3]
        self.request = rows[:, 4]
        self.eig = eig
        self.layer = np.asarray(layer_of, dtype=np.int64)[self.fid] if len(rows) else self.fid
        self.dur = (self.t1 - self.t0).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(rows))
        self.self_ns = self.dur - child

    def __len__(self) -> int:
        return len(self.fid)

    def ids(self, name: str) -> np.ndarray:
        """Span indices of one function, e.g. 'linalg.hermitian_eig'."""
        fids = [i for i, n in enumerate(self.names) if n == name]
        return np.flatnonzero(np.isin(self.fid, fids))

    def count(self, name: str) -> int:
        return len(self.ids(name))

    def root_ns(self) -> float:
        """Time covered by top-level spans: the traced request time."""
        return float(self.dur[self.parent < 0].sum())

    def layer_self_ns(self) -> dict[str, float]:
        totals = np.bincount(self.layer, weights=self.self_ns, minlength=len(LAYERS))
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}

    def layer_entries(self, layer: str) -> int:
        """Calls into a layer from outside it (nested same-layer spans excluded)."""
        li = LAYERS.index(layer)
        mine = self.layer == li
        parent_layer = np.where(self.parent >= 0, self.layer[np.maximum(self.parent, 0)], -1)
        return int(np.count_nonzero(mine & (parent_layer != li)))

    def draws(self) -> tuple[int, int]:
        """(accepted frames, random_gaussian draws)."""
        draw_ids = self.ids("frames.random_gaussian")
        loops = np.concatenate([self.ids(n) for n in RESAMPLERS])
        in_loop = np.isin(self.parent[draw_ids], loops)
        rejected = int(np.count_nonzero(in_loop)) - len(
            np.intersect1d(loops, self.parent[draw_ids[in_loop]]))
        return len(draw_ids) - rejected, len(draw_ids)

    def eig_repeats(self) -> tuple[int, int]:
        """(repeated hermitian_eig inputs, hermitian_eig calls)."""
        return int(self.eig[:, 2].sum()), len(self.eig)

    def eig_dur_us(self, lo: int, hi: int) -> np.ndarray:
        """Durations of hermitian_eig calls on matrices of size lo..hi."""
        sel = (self.eig[:, 1] >= lo) & (self.eig[:, 1] <= hi)
        return self.dur[self.eig[sel, 0]] / 1e3

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), fid=self.fid, t0=self.t0,
                            t1=self.t1, parent=self.parent, request=self.request, eig=self.eig)
