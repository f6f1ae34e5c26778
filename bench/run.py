"""framecalc benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload {sweep_mix,library_calls,cli_oneshot}
                         --seed N --seconds S --trace {0,1}

--trace 0 serves the named workload closed-loop for about S seconds and
reports the end-to-end metrics. --trace 1 profiles every layer: it runs an
untraced and a traced pass of each workload in turn (the named one until
S seconds are used, the others for two rounds) and reports the per-layer
metrics.
Every output is checked; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 918273  # reserved for confirming later claims; never used while tuning
SETUP_REPEATS = 5
STARTUP_REPEATS = 7


def _load_package():
    init = ROOT / "src" / "framecalc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init.relative_to(ROOT)} not found; run from a framecalc checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import framecalc

    if Path(framecalc.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported framecalc from {framecalc.__file__}, not this checkout")


def machine_info() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": None,
        "blas_threads": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            try:
                get_config = getattr(lib, f"{prefix}_get_config64_")
                get_threads = getattr(lib, f"{prefix}_get_num_threads64_")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            info["openblas"] = get_config().decode()
            info["blas_threads"] = get_threads()
    if info["openblas"] is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')} (build-time)"
    return info


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# untraced end-to-end run


def measure_setup(workload: str, seed: int, probe) -> tuple[float, float]:
    """Median wall time of fresh processes that import framecalc and set the
    workload up: (speed-normalized, raw)."""
    from workloads import child_env

    raw, mids = [], []
    probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, env=child_env(), check=True)
        t1 = time.perf_counter()
        probe()
        raw.append(t1 - t0)
        mids.append((t0 + t1) / 2)
    normalized = [t * f for t, f in zip(raw, probe.factors(mids))]
    return statistics.median(normalized), statistics.median(raw)


def _latency_metrics(wl, res, factors) -> dict:
    """Throughput and latency percentiles over the distinct requests, each
    timed as the median of its repeats (one per pass)."""
    med = np.median(1e3 * res["dt"] * factors, axis=0)
    work = sum(wl.work(req) for req in res["reqs"])
    return {
        "trials_per_s": metric(work / (sum(med) / 1e3), "1/s"),
        "call_ms_p50": metric(pct(med, 50), "ms"),
        "call_ms_p90": metric(pct(med, 90), "ms"),
        "call_ms_p99": metric(pct(med, 99), "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import WORKLOADS, import_probe, run_passes

    setup_s, setup_raw = measure_setup(workload, seed, import_probe())
    wl = WORKLOADS[workload](seed)
    probe = wl.PROBE()
    res = run_passes(wl, seconds, probe=probe)
    factors = probe.factors(res["t0"] + res["dt"] / 2)
    rss_kb = wl.max_rss_kb if workload == "cli_oneshot" else res["rss_kb"]
    metrics = {"setup_s": metric(setup_s, "s"), **_latency_metrics(wl, res, factors),
               "peak_rss_mb": metric(rss_kb / 1024.0, "MB")}
    raw = {"setup_s": setup_raw,
           **{k: v["value"] for k, v in _latency_metrics(wl, res, 1.0).items()}}
    info = {"calls": res["dt"].size, "distinct_requests": len(res["reqs"]),
            "passes": res["passes"], "wall_s": res["wall"],
            "attempted": res["attempted"], "failed": res["failed"], "unnormalized": raw,
            "speed_factor_median": float(np.median(factors)),
            "probes": len(probe.durations)}
    return metrics, info


# ---------------------------------------------------------------------------
# traced per-layer run


def _traced_rounds(wl, seconds: float, call=None) -> dict:
    """Alternate untraced and traced passes over the same requests, at least
    two rounds (untraced first, then traced first) and until `seconds` pass."""
    from tracer import Tracer
    from workloads import run_passes

    tracer = Tracer()
    rounds = {"untraced": [], "traced": [], "spans": [], "attempted": 0, "failed": 0}
    start = time.perf_counter()
    r = 0
    while True:
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.clear()
                tracer.install()
            try:
                res = run_passes(wl, 0, call=call, traced=True)
            finally:
                if traced:
                    tracer.uninstall()
            rounds["traced" if traced else "untraced"].append(res)
            rounds["attempted"] += res["attempted"]
            rounds["failed"] += res["failed"]
            if traced:
                rounds["spans"].append(tracer.spans())
        r += 1
        if r >= 2 and time.perf_counter() - start >= seconds:
            return rounds


def _overhead(rounds) -> float:
    traced = statistics.median(res["dt"].sum() for res in rounds["traced"])
    untraced = statistics.median(res["dt"].sum() for res in rounds["untraced"])
    return traced / untraced - 1.0


def _shares(spans_list) -> dict[str, float]:
    total = sum(sp.root_ns() for sp in spans_list)
    out: dict[str, float] = {}
    for sp in spans_list:
        for layer, ns in sp.layer_self_ns().items():
            out[layer] = out.get(layer, 0.0) + ns / total
    return out


def trace_sweep_mix(seed: int, seconds: float, m: dict) -> dict:
    from workloads import SweepMix

    wl = SweepMix(seed)
    rounds = _traced_rounds(wl, seconds)
    spans = rounds["spans"]
    first = spans[0]
    trials = sum(wl.work(req) for req in wl.requests(traced=True))
    m["tracing_overhead_ratio.sweep_mix"] = metric(_overhead(rounds), "ratio")
    m["rng.calls_per_trial"] = metric(first.layer_entries("rng") / trials, "count")
    m["linalg.eig_calls_per_trial"] = metric(first.count("linalg.hermitian_eig") / trials, "count")
    m["linalg.psd_apply_calls_per_trial"] = metric(first.count("linalg.psd_apply") / trials,
                                                   "count")
    repeats, eigs = first.eig_repeats()
    m["linalg.eig_repeat_ratio"] = metric(repeats / eigs, "ratio")
    total_ns = sum(sp.root_ns() for sp in spans)
    eig_ns = sum(float(sp.dur[sp.ids("linalg.hermitian_eig")].sum()) for sp in spans)
    m["linalg.eig_self_share"] = metric(eig_ns / total_ns, "ratio")
    for lo, hi in ((2, 4), (12, 16)):
        durs = np.concatenate([sp.eig_dur_us(lo, hi) for sp in spans])
        m[f"linalg.eig_us_p50.d{lo}-{hi}"] = metric(pct(durs, 50), "us")
    m["frames.frame_builds_per_trial"] = metric(first.count("frames.Frame.__post_init__") / trials,
                                                "count")
    accepted, draws = first.draws()
    m["frames.draw_accept_ratio"] = metric(accepted / draws, "ratio")
    for layer, share in _shares(spans).items():
        if layer in ("rng", "linalg", "frames", "identities", "sweeps"):
            m[f"{layer}.self_share"] = metric(share, "ratio")
    suite_ns = np.zeros(len(wl.suites))
    for sp in spans:
        ids = sp.ids("sweeps.run_suite")
        suite_ns += np.bincount(np.arange(len(ids)) % len(wl.suites), weights=sp.dur[ids],
                                minlength=len(wl.suites))
    per_suite = len(spans) * wl.TRACE_SEEDS * wl.TRIALS
    for name, ns in zip(wl.suites, suite_ns):
        m[f"sweeps.{name}.trials_per_s"] = metric(per_suite / (ns / 1e9), "1/s")
    return rounds


def trace_library_calls(seed: int, seconds: float, m: dict) -> dict:
    import framecalc
    from workloads import LIBRARY_CALLS, LibraryCalls

    wl = LibraryCalls(seed)
    rounds = _traced_rounds(wl, seconds)
    m["tracing_overhead_ratio.library_calls"] = metric(_overhead(rounds), "ratio")
    by_kind: dict[str, list[float]] = {k: [] for k in LIBRARY_CALLS}
    for res in rounds["untraced"]:
        for (kind, _), dt in zip(res["reqs"], res["dt"].T):
            by_kind[kind].extend(dt * 1e6)
    module_of = {k: getattr(framecalc, k).__module__.split(".")[-1] for k in LIBRARY_CALLS}
    for kind, values in by_kind.items():
        m[f"{module_of[kind]}.{kind}.us_p50"] = metric(pct(values, 50), "us")
    for layer, share in _shares(rounds["spans"]).items():
        if layer in ("rng", "linalg", "frames", "identities"):
            m[f"library_calls.{layer}.self_share"] = metric(share, "ratio")
    return rounds


def trace_cli_oneshot(seed: int, seconds: float, m: dict) -> dict:
    from workloads import CliOneshot, child_env

    wl = CliOneshot(seed)
    startup = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import framecalc.cli"], cwd=ROOT, env=child_env(),
                       check=True)
        startup.append(1e3 * (time.perf_counter() - t0))
    rounds = _traced_rounds(wl, seconds, call=wl.call_in_process)
    spans = rounds["spans"]
    m["tracing_overhead_ratio.cli_oneshot"] = metric(_overhead(rounds), "ratio")
    m["cli.startup_ms_p50"] = metric(pct(startup, 50), "ms")
    main_ms = np.concatenate([res["dt"].ravel() for res in rounds["untraced"]]) * 1e3
    m["cli.main_ms_p50"] = metric(pct(main_ms, 50), "ms")
    dump_ms = [float(sp.dur[sp.ids("cli._dump")].sum()) / 1e6 for sp in spans]
    m["cli.serialize_ms"] = metric(statistics.median(dump_ms), "ms")
    m["cli.stdout_bytes"] = metric(sum(len(v) for v in wl.outputs.values()), "bytes")
    for name, label in (("frame_io.read_frame", "read"), ("frame_io.write_frame", "write")):
        durs = np.concatenate([sp.dur[sp.ids(name)] for sp in spans]) / 1e6
        m[f"frame_io.{label}_ms_p50"] = metric(pct(durs, 50), "ms")
    m["frame_io.bytes"] = metric(wl.frame_file_bytes(), "bytes")
    for layer, share in _shares(spans).items():
        m[f"cli_oneshot.{layer}.self_share"] = metric(share, "ratio")
    return rounds


TRACERS = {
    "sweep_mix": trace_sweep_mix,
    "library_calls": trace_library_calls,
    "cli_oneshot": trace_cli_oneshot,
}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import OUT

    metrics: dict = {}
    info = {"attempted": 0, "failed": 0}
    spans = {}
    for name, fn in TRACERS.items():
        rounds = fn(seed, seconds if name == workload else 0.0, metrics)
        info["attempted"] += rounds["attempted"]
        info["failed"] += rounds["failed"]
        info[name] = {"rounds": len(rounds["traced"]), "spans": sum(map(len, rounds["spans"]))}
        spans[name] = rounds["spans"]
    for stale in OUT.glob("spans_*.npz"):
        stale.unlink()
    for name, recorded in spans.items():
        for k, sp in enumerate(recorded):
            sp.save(OUT / f"spans_{name}_{k}.npz")
    return metrics, info


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set the workload up (used to time set-up)")
    args = parser.parse_args(argv)
    _load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import OUT, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    if args.trace:
        metrics, info = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"machine": machine_info(), "workload": args.workload, "seed": args.seed,
                      "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
                      "trace": args.trace, "run": info}))
    print(json.dumps({"correct": info["failed"] == 0, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
