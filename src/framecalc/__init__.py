"""Numerical verification toolkit for finite frame identities.

The library half builds and manipulates finite frames (generators, duals,
Parseval conversion, subspace embeddings, tight completions) and checks
the energy-split identities, lower bounds, operator structure, and
equivalence theorems that Parseval and tight frames satisfy. The CLI half
(`framecalc`) exposes the same checks as JSON-emitting commands plus
seeded randomized sweeps.
"""

__version__ = "0.1.0"

import importlib
import sys
import types

from .errors import (
    BadParams,
    DimensionMismatch,
    EOverlapsJ,
    FrameError,
    FrameFormatError,
    IndexOutOfRange,
    LambdaTooSmall,
    NoConvergence,
    NotAFrame,
    NotHermitian,
    NotIsometry,
    NotPSD,
    NotParseval,
    NotTight,
    PreconditionFailed,
    SingularMatrix,
)
from .frames import (
    Frame,
    FrameBounds,
    SubspaceFrame,
    bessel_inequality_check,
    canonical_dual,
    coefficients,
    complete_to_tight,
    doubled_onb,
    embed_subspace_frame,
    frame_bounds,
    generate,
    harmonic,
    mercedes,
    onb,
    parsevalize,
    partial_operator_matrix,
    random_gaussian,
    random_isometry,
    random_parseval,
    subset_mask,
    tight_deviation,
    union,
)
from .frame_io import frame_from_document, frame_to_document, read_frame, write_frame
from .linalg import EigenDecomposition, hermitian_eig, psd_apply, spectral_apply
from .rng import SplitMix64

# the suites of `framecalc property-run --suite`, in run order; defined here
# so that building the CLI's parser does not import `sweeps`
SUITE_NAMES = ("pfi", "general", "overlap", "bounds", "equivalence", "sj", "extension")

# PEP 562: the names of `identities` and `sweeps` are looked up in their
# module on every access, so a command that checks no identity and runs no
# suite never imports either module. They are never stored here: the
# package's namespace stays fixed, and a name rebound in its home module
# (a monkeypatch, a tracing wrapper) is what `framecalc.<name>` returns.
_LAZY = {
    **dict.fromkeys((
        "BoundCheck",
        "EquivalenceReport",
        "IdentityReport",
        "OperatorIdentityCheck",
        "PartialStructure",
        "SelfAdjointProductCheck",
        "SpanEquality",
        "TightExtensionCompare",
        "equivalence_conditions",
        "general_identity_report",
        "half_bound_check",
        "operator_identity_check",
        "overlap_identity_report",
        "parseval_identity_report",
        "partial_structure_check",
        "self_adjoint_product_check",
        "span_equality_check",
        "subspace_identity_report",
        "three_quarters_check",
        "tight_extension_compare",
        "tight_identity_report",
    ), "framecalc.identities"),
    **dict.fromkeys(("RunConfig", "run_suite", "run_suites"), "framecalc.sweeps"),
}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)]
                 + list(_LAZY))


def __getattr__(name: str):
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    try:
        return getattr(sys.modules[home], name)
    except (KeyError, AttributeError):  # not imported yet, or still being imported
        return getattr(importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
