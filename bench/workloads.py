"""The three benchmark workloads and their correctness gate.

Each workload builds its inputs from the benchmark seed in set-up, then
serves requests one at a time (closed loop, one client): `call(req)` is
the timed part, `check(req, out)` the untimed gate, which returns how many
of the request's operations failed. Callables are looked up on their
module at call time, so a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import framecalc

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def child_env() -> dict:
    """Environment for framecalc subprocesses: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _unit(rng: np.random.Generator, dim: int, field: str) -> np.ndarray:
    g = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if field == "complex" else 0)
    return np.asarray(g / np.linalg.norm(g), dtype=np.complex128)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _conditioned(rng: np.random.Generator, dim: int, count: int, field: str):
    """A seeded Gaussian frame with cond(S) <= 1e3, as the sweeps draw them."""
    while True:
        frame = framecalc.random_gaussian(dim, count, _seed(rng), field)
        bounds = framecalc.frame_bounds(frame)
        if bounds.is_frame and bounds.upper <= 1e3 * bounds.lower:
            return frame


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Times a fixed piece of work that does not involve framecalc.

    The machine this benchmark was sized on runs the same code up to twice
    as slow for tens of seconds at a time, with CPU time tracking wall time,
    so longer runs do not average it out. Timing a probe between requests
    measures that speed; `factors` scale latencies to the speed at which the
    probe takes `ref_s` (its time on that machine when quiet).
    """

    WINDOW = 5  # probes per speed estimate

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.times: list[float] = []
        self.durations: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def factors(self, at) -> np.ndarray:
        """ref_s over the median of the WINDOW probes nearest each time in `at`."""
        times = np.asarray(self.times)
        durs = np.asarray(self.durations)
        half = self.WINDOW // 2
        idx = np.searchsorted(times, np.asarray(at))
        windows = np.stack([durs[np.clip(idx + k - half, 0, len(durs) - 1)]
                            for k in range(self.WINDOW)])
        return self.ref_s / np.median(windows, axis=0)


def numpy_probe(reps: int = 4) -> SpeedProbe:
    """About reps/5 milliseconds of Python and small-matrix numpy, in this process."""
    rng = np.random.default_rng(0)
    mats = []
    for d in (3, 6, 9, 12, 15):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(g + g.conj().T)

    def kernel():
        table = {}
        for rep in range(reps):
            for i, m in enumerate(mats):
                w, v = np.linalg.eigh(m)
                table[(rep, i)] = [float(np.linalg.norm((v * w) @ v.conj().T - m)),
                                   float(np.vdot(m[0], m[0]).real), *map(float, w[:3])]

    return SpeedProbe(kernel, 0.2e-3 * reps)


def import_probe() -> SpeedProbe:
    """A fresh interpreter that imports numpy: the start-up path of every CLI call."""
    argv = [sys.executable, "-c", "import numpy"]
    env = child_env()
    return SpeedProbe(lambda: subprocess.run(argv, env=env, check=True), 0.12)


# ---------------------------------------------------------------------------
# sweep_mix


class SweepMix:
    """`run_suites` on one suite at a time, TRIALS trials per call, as
    `property-run` runs each suite; a pass covers SEEDS seeds of every suite."""

    name = "sweep_mix"
    SEEDS = 4
    TRIALS = 200  # about 13 trials per d in [2, 16], enough for per-d batching
    TRACE_SEEDS = 1
    PROBE_EVERY = 0.02  # so one probe before each request

    @staticmethod
    def PROBE() -> SpeedProbe:
        return numpy_probe(reps=10)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.suites = list(framecalc.SUITE_NAMES)
        self.configs = [framecalc.RunConfig(seed=_seed(rng), trials=self.TRIALS)
                        for _ in range(self.SEEDS)]
        self.verdicts: dict[tuple, tuple] = {}
        framecalc.run_suites(self.suites, framecalc.RunConfig(seed=_seed(rng), trials=1))

    def requests(self, traced: bool = False) -> list[tuple[int, str]]:
        seeds = self.TRACE_SEEDS if traced else self.SEEDS
        return [(k, name) for k in range(seeds) for name in self.suites]

    def work(self, req) -> int:
        return self.TRIALS

    def call(self, req):
        k, name = req
        return framecalc.run_suites([name], self.configs[k])

    def check(self, req, out) -> int:
        summary = out[1]["suites"][req[1]]
        counts = tuple(summary[k] for k in ("total", "passed", "failed", "borderline"))
        if counts != self.verdicts.setdefault(req, counts) or counts[0] != self.TRIALS:
            return self.work(req)
        return counts[2]


# ---------------------------------------------------------------------------
# library_calls

LIBRARY_CALLS = (
    "random_parseval",
    "canonical_dual",
    "parsevalize",
    "parseval_identity_report",
    "general_identity_report",
    "tight_identity_report",
    "overlap_identity_report",
    "subspace_identity_report",
    "half_bound_check",
    "three_quarters_check",
    "partial_structure_check",
    "equivalence_conditions",
    "complete_to_tight",
    "tight_extension_compare",
)
_GATE_TOL = 1e-8


def _operator_gap(op: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(op - target)) / max(1.0, float(np.linalg.norm(target)))


class LibraryCalls:
    """Single public calls on frames built in set-up, four cases per d in [2, 16]."""

    name = "library_calls"
    PROBE, PROBE_EVERY = staticmethod(numpy_probe), 0.02

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.calls: list[tuple[str, int]] = []
        self.cases: list[dict] = []
        for d in range(2, 17):
            for field in ("real", "complex", "real", "complex"):
                self.cases.append(self._case(rng, d, field))
        for ci, case in enumerate(self.cases):
            for kind in LIBRARY_CALLS:
                self.calls.append((kind, ci))
        order = rng.permutation(len(self.calls))
        self.calls = [self.calls[i] for i in order]
        for kind in LIBRARY_CALLS:  # warm-up: first call of each kind
            self.call((kind, 0))

    @staticmethod
    def _case(rng: np.random.Generator, d: int, field: str) -> dict:
        n = int(rng.integers(d, 65))
        g = _conditioned(rng, d, n, field)
        p = framecalc.parsevalize(g)
        keep = rng.random(n) < 0.5
        subset = [int(i) for i in np.flatnonzero(keep)]
        extra = [int(i) for i in np.flatnonzero(~keep & (rng.random(n) < 0.5))]
        f = _unit(rng, d, field)
        ambient = d + int(rng.integers(1, 4))
        iso = framecalc.random_isometry(ambient, d, _seed(rng), field)
        sub = framecalc.embed_subspace_frame(p, ambient, iso)
        lam_t = 0.25 + 3.0 * float(rng.random())
        lam_c = framecalc.frame_bounds(g).upper * (1.0 + float(rng.random()))
        mix = _seed(rng)
        canon = framecalc.complete_to_tight(g, lam_c)
        mixed = framecalc.complete_to_tight(g, lam_c, mix)
        args = {
            "random_parseval": (d, n, _seed(rng), field),
            "canonical_dual": (g,),
            "parsevalize": (g,),
            "parseval_identity_report": (p, subset, f),
            "general_identity_report": (g, subset, f),
            "tight_identity_report": (p.scaled(np.sqrt(lam_t)), subset, f, lam_t),
            "overlap_identity_report": (p, subset, extra, f),
            "subspace_identity_report": (sub, subset, _unit(rng, ambient, field)),
            "half_bound_check": (p, subset, f),
            "three_quarters_check": (p, subset, f),
            "partial_structure_check": (p, subset),
            "equivalence_conditions": (p, subset, f),
            "complete_to_tight": (g, lam_c, mix),
            "tight_extension_compare": (g, canon, mixed, lam_c, f, 100, _seed(rng)),
        }
        return {"d": d, "field": field, "frame": g, "lam_c": lam_c, "args": args}

    def requests(self, traced: bool = False) -> list:
        return self.calls

    def work(self, req) -> int:
        return 1

    def call(self, req):
        kind, ci = req
        return getattr(framecalc, kind)(*self.cases[ci]["args"][kind])

    def check(self, req, out) -> int:
        kind, ci = req
        case = self.cases[ci]
        eye = np.eye(case["d"])
        if kind in ("random_parseval", "parsevalize"):
            ok = _operator_gap(out.operator, eye) <= _GATE_TOL
        elif kind == "canonical_dual":
            # sum_i f_i dual_i^* = I
            ok = _operator_gap(case["frame"].vectors.T @ out.vectors.conj(), eye) <= _GATE_TOL
        elif kind == "complete_to_tight":
            ok = _operator_gap(case["frame"].operator + out.operator,
                               case["lam_c"] * eye) <= _GATE_TOL
        elif kind == "equivalence_conditions":
            ok = out.consistent
        else:
            ok = out.passed
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# cli_oneshot

_CLI_BOOT = "import sys; from framecalc.cli import main; sys.exit(main())"


def strict_json(text: str):
    """Parse exactly one JSON document; NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


class CliOneshot:
    """framecalc subprocesses over a corpus covering every subcommand."""

    name = "cli_oneshot"
    PROPERTY_TRIALS = 40
    PROBE, PROBE_EVERY = staticmethod(import_probe), 0.0

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.dir = OUT / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        rel = self.dir.relative_to(ROOT).as_posix()
        s = [str(int(rng.integers(0, 2**31))) for _ in range(4)]
        n2 = int(rng.integers(3, 9))
        n16 = int(rng.integers(24, 65))
        framecalc.write_frame(framecalc.random_parseval(2, n2, int(s[0]), "real"),
                              str(self.dir / "p2.json"))
        framecalc.write_frame(framecalc.random_parseval(16, n16, int(s[1]), "complex"),
                              str(self.dir / "p16.json"))
        framecalc.write_frame(_conditioned(rng, 16, n16, "real"), str(self.dir / "g16.json"))
        p2, p16, g16 = f"{rel}/p2.json", f"{rel}/p16.json", f"{rel}/g16.json"
        # (argv, expected exit code, file written by --out)
        self.corpus: list[tuple[list[str], int, str | None]] = [
            (["gen", "random-parseval", "--dim", "16", "--count", str(n16), "--seed", s[2],
              "--field", "complex"], 0, None),
            (["gen", "mercedes", "--out", f"{rel}/merc.json"], 0, f"{rel}/merc.json"),
            (["analyze", p2], 0, None),
            (["analyze", g16, "--mode", "dual"], 0, None),
            (["analyze", g16, "--mode", "parsevalize", "--out", f"{rel}/g16p.json"], 0,
             f"{rel}/g16p.json"),
            (["identity", p2, "--J", "random", "--seed", s[3]], 0, None),
            (["identity", g16, "--variant", "general", "--J", "random", "--seed", s[3]], 0, None),
            (["identity", p16, "--variant", "tight", "--lambda", "auto", "--J", "0-3"], 0, None),
            (["identity", p16, "--variant", "overlap", "--J", "0,1", "--E", "2,3"], 0, None),
            (["identity", p2, "--variant", "subspace", "--ambient-dim", "4", "--J", "random",
              "--seed", s[3]], 0, None),
            (["equiv", p16, "--J", "random", "--seed", s[3]], 0, None),
            (["extend", g16, "--out", f"{rel}/ext.json"], 0, f"{rel}/ext.json"),
            (["property-run", "--suite", "all", "--trials", str(self.PROPERTY_TRIALS),
              "--seed", s[2]], 0, None),
            (["identity", f"{rel}/missing.json"], 2, None),
            (["identity", p2, "--J", "1-x"], 2, None),
            (["identity", g16], 1, None),
        ]
        self.outputs: dict[int, bytes] = {}
        self.files: dict[int, bytes] = {}
        self.max_rss_kb = 0
        self._env = child_env()

    def requests(self, traced: bool = False) -> range:
        return range(len(self.corpus))

    def frame_file_bytes(self) -> int:
        """Bytes of frame files one corpus pass reads or writes."""
        total = 0
        for argv, _, written in self.corpus:
            for path in {a for a in argv if a.endswith(".json")} | {written} - {None}:
                if (ROOT / path).exists():
                    total += (ROOT / path).stat().st_size
        return total

    def work(self, req: int) -> int:
        return 1

    def call(self, req: int):
        """One framecalc subprocess; returns (exit code, stdout bytes)."""
        argv = [sys.executable, "-c", _CLI_BOOT, *self.corpus[req][0]]
        with open(OUT / "cli_stderr.txt", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self._env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def call_in_process(self, req: int):
        """The same command through `framecalc.cli.main` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = importlib.import_module("framecalc.cli").main(list(self.corpus[req][0]))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue().encode()

    def check(self, req: int, out) -> int:
        code, stdout = out
        _, expected, written = self.corpus[req]
        ok = check_cli_output(code, stdout, expected, self.outputs.setdefault(req, stdout))
        if written is not None:
            data = (ROOT / written).read_bytes()
            ok = ok and data == self.files.setdefault(req, data)
        return 0 if ok else 1


def check_cli_output(code: int, stdout: bytes, expected_code: int, first_stdout: bytes) -> bool:
    """The CLI contract for one call: expected exit code, one strict-JSON
    document on stdout, and the same bytes as the first identical call."""
    if code != expected_code or stdout != first_stdout:
        return False
    try:
        strict_json(stdout.decode("utf-8"))
    except ValueError:
        return False
    return True


WORKLOADS = {w.name: w for w in (SweepMix, LibraryCalls, CliOneshot)}


# ---------------------------------------------------------------------------
# closed-loop runner


def run_passes(wl, seconds: float, call=None, traced: bool = False,
               probe: SpeedProbe | None = None):
    """Serve whole passes over the request list until `seconds` are used.

    Stops at the pass boundary nearest the deadline. With a probe, the
    probe runs before a request whenever the workload's PROBE_EVERY seconds
    have passed since the last one, outside the timed calls. Returns the
    requests, each call's start and latency in seconds as (pass, request)
    arrays, operations attempted and failed, passes run, wall time, and
    this process's peak RSS after the first pass. The process's RSS creeps
    up with every call made (by 200-500 B per identities call, below
    Python's allocator), so the peak after a fixed amount of work is the
    one that repeats.
    """
    call = call or wl.call
    reqs = wl.requests(traced)
    clock = time.perf_counter
    starts, lats = array("d"), array("d")
    attempted = failed = passes = 0
    start = next_probe = clock()
    while True:
        t_pass = clock()
        for req in reqs:
            if probe is not None and clock() >= next_probe:
                probe()
                next_probe = clock() + wl.PROBE_EVERY
            t0 = clock()
            out = call(req)
            t1 = clock()
            starts.append(t0)
            lats.append(t1 - t0)
            attempted += wl.work(req)
            failed += wl.check(req, out)
        passes += 1
        if passes == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = clock()
        if now - start + (now - t_pass) / 2 >= seconds:
            break
    if probe is not None:
        probe()
    shape = (passes, len(reqs))
    return {"reqs": list(reqs), "t0": np.frombuffer(starts).reshape(shape),
            "dt": np.frombuffer(lats).reshape(shape), "attempted": attempted, "failed": failed,
            "passes": passes, "wall": clock() - start, "rss_kb": rss_kb}
