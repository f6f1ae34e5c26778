"""Cross-check of the tracer's counter definitions against a reference run.

Seed 101, 1000 trials of each suite except `extension` (100 trials), one
`run_suite` call (one request) per suite. Prints the hermitian_eig calls
per suite and the share of them that repeat an input already decomposed
in the same request.

    python3 bench/crosscheck.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

REFERENCE_SEED = 101
REFERENCE_TRIALS = {"extension": 100}  # every other suite: 1000


def reference_counts(seed: int = REFERENCE_SEED) -> dict:
    """hermitian_eig calls per suite and the repeat ratio, traced from outside."""
    import framecalc
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for name in framecalc.SUITE_NAMES:
            trials = REFERENCE_TRIALS.get(name, 1000)
            framecalc.run_suite(name, framecalc.RunConfig(seed=seed, trials=trials))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    suite_of_request = {int(spans.request[i]): name
                        for i, name in zip(spans.ids("sweeps.run_suite"), framecalc.SUITE_NAMES)}
    per_suite = {name: 0 for name in framecalc.SUITE_NAMES}
    for idx in spans.eig[:, 0]:
        per_suite[suite_of_request[int(spans.request[idx])]] += 1
    repeats, calls = spans.eig_repeats()
    return {"seed": seed, "eig_calls": calls, "eig_repeats": repeats,
            "eig_repeat_ratio": repeats / calls, "per_suite": per_suite}


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    print(json.dumps(reference_counts(), indent=2))
