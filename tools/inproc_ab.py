"""In-process A/B of two framecalc checkouts, request by request.

Loads the framecalc package of two source trees into one interpreter and
times the benchmark's `sweep_mix` and `library_calls` requests on each,
every request once per side per round, alternating which side goes first.
It prints per-suite and per-kind medians, the number of paired runs the
second tree (B) won, the ratio median(A) / median(B), and a hash of the
rows each side returned. Per side and per workload it then prints the
benchmark's own latency metrics, `trials_per_s` and `call_ms_p50/p90/p99`
over the per-request medians, computed as `bench/run.py`'s
`_latency_metrics` computes them but without its speed factor, so that a
claimed metric can be compared in one interpreter:

    python3 tools/inproc_ab.py --a path/to/parent/src [--b path/to/src]
                               [--rounds 10] [--seed 1]

Both sides are imported under the package name `framecalc`, so each
side's modules are put back into sys.modules before any of its calls: the
package's lazy names, imports made inside functions and the unpickling of
a forked worker's results all resolve through sys.modules. Each side's
calls are bound to its own modules, and the tool checks that every timed
callable was compiled from a file under its side's tree. The workloads
come from `bench/workloads.py` of this checkout, loaded once per side;
nothing under bench/ is written. One BLAS thread, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _own_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "framecalc" or name.startswith("framecalc.")}


class Side:
    """One checkout's framecalc modules and its copies of the bench workloads."""

    def __init__(self, label: str, src: Path, seed: int):
        self.label, self.src = label, src.resolve()
        for name in _own_modules():
            del sys.modules[name]
        sys.path.insert(0, str(self.src))
        try:
            package = importlib.import_module("framecalc")
            importlib.import_module("framecalc.sweeps")  # and every module it imports
        finally:
            sys.path.remove(str(self.src))
        self.modules = _own_modules()
        self._check(package.__file__, "framecalc")
        spec = importlib.util.spec_from_file_location(
            f"inproc_ab_workloads_{label}", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)  # its `import framecalc` is this side's
        self.library = workloads.LibraryCalls(seed)
        self.sweeps = workloads.SweepMix(seed)
        self.calls = {kind: self._bind(package, kind) for kind in workloads.LIBRARY_CALLS}
        self.run_suites = self._bind(package, "run_suites")

    def _check(self, path: str, what: str) -> None:
        if not Path(path).resolve().is_relative_to(self.src):
            sys.exit(f"inproc_ab: side {self.label}'s {what} comes from {path}, "
                     f"not from {self.src}")

    def _bind(self, package, name: str):
        """package.<name> from its home module of this side, checked to be
        compiled from this side's tree."""
        home = package._LAZY.get(name)
        fn = getattr(self.modules[home] if home else package, name)
        self._check(fn.__code__.co_filename, name)
        return fn

    def activate(self) -> None:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)

    def call(self, req):
        """(output, seconds) of one request: ("sweep", (k, suite)) or ("library", (kind, case))."""
        workload, key = req
        if workload == "sweep":
            k, name = key
            args, fn = ([name], self.sweeps.configs[k]), self.run_suites
        else:
            kind, ci = key
            args, fn = self.library.cases[ci]["args"][kind], self.calls[kind]
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start


def _plain(value):
    """A JSON-ready form of a call's result, for the row hash."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple record
        return {name: _plain(v) for name, v in zip(value._fields, value)}
    if isinstance(value, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def run(a: Side, b: Side, rounds: int) -> dict:
    """Timings per request group, side by side, and each side's row hash."""
    requests = ([("sweep", key) for key in a.sweeps.requests()]
                + [("library", key) for key in a.library.requests()])
    times = {side.label: {} for side in (a, b)}
    per_request = {side.label: {} for side in (a, b)}
    hashes = {side.label: hashlib.sha256() for side in (a, b)}
    for r in range(rounds):
        for i, req in enumerate(requests):
            order = (a, b) if (r + i) % 2 == 0 else (b, a)
            for side in order:
                side.activate()
                out, seconds = side.call(req)
                group = req[1][1] if req[0] == "sweep" else req[1][0]
                times[side.label].setdefault((req[0], group), []).append(seconds)
                per_request[side.label].setdefault(req, []).append(seconds)
                if r == 0:
                    hashes[side.label].update(json.dumps(_plain(out)).encode())
        print(f"round {r + 1}/{rounds} done", file=sys.stderr, flush=True)
    latency = {label: {workload: _latency_metrics(
        {req: ts for req, ts in reqs.items() if req[0] == workload},
        (a.sweeps if workload == "sweep" else a.library).work)
        for workload in ("sweep", "library")} for label, reqs in per_request.items()}
    return {"times": times, "latency": latency,
            "hashes": {k: h.hexdigest() for k, h in hashes.items()}}


def _latency_metrics(per_request: dict, work) -> dict:
    """trials_per_s and call_ms_p50/p90/p99 over the median time of each
    distinct request, as bench/run.py's _latency_metrics with a speed
    factor of 1; work(key) is the trials one request of the workload runs."""
    med = np.array([1e3 * statistics.median(ts) for ts in per_request.values()])
    trials = sum(work(key) for _, key in per_request)
    return {"trials_per_s": trials / (med.sum() / 1e3),
            **{f"call_ms_p{q}": float(np.percentile(med, q)) for q in (50, 90, 99)}}


def report(result: dict) -> None:
    ta, tb = result["times"]["A"], result["times"]["B"]
    print(f"{'workload':8} {'group':28} {'n':>5} {'A ms':>9} {'B ms':>9} "
          f"{'A/B':>6} {'B wins':>7}")
    for key in ta:
        sa, sb = ta[key], tb[key]
        ma, mb = statistics.median(sa) * 1e3, statistics.median(sb) * 1e3
        wins = sum(y < x for x, y in zip(sa, sb))
        print(f"{key[0]:8} {key[1]:28} {len(sa):5d} {ma:9.4f} {mb:9.4f} "
              f"{ma / mb:6.3f} {wins:4d}/{len(sa)}")
    print(f"{'workload':8} {'side':4} {'trials_per_s':>13} {'p50 ms':>9} {'p90 ms':>9} "
          f"{'p99 ms':>9}")
    for workload in ("sweep", "library"):
        for label, latency in result["latency"].items():
            m = latency[workload]
            print(f"{workload:8} {label:4} {m['trials_per_s']:13.1f} {m['call_ms_p50']:9.4f} "
                  f"{m['call_ms_p90']:9.4f} {m['call_ms_p99']:9.4f}")
    for label, digest in result["hashes"].items():
        print(f"rows {label} {digest}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="source tree A (the base)")
    parser.add_argument("--b", type=Path, default=ROOT / "src",
                        help="source tree B (default: this checkout)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    a, b = Side("A", args.a, args.seed), Side("B", args.b, args.seed)
    report(run(a, b, args.rounds))


if __name__ == "__main__":
    main()
