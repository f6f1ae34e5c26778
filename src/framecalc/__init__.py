"""Numerical verification toolkit for finite frame identities.

The library half builds and manipulates finite frames (generators, duals,
Parseval conversion, subspace embeddings, tight completions) and checks
the energy-split identities, lower bounds, operator structure, and
equivalence theorems that Parseval and tight frames satisfy. The CLI half
(`framecalc`) exposes the same checks as JSON-emitting commands plus
seeded randomized sweeps.
"""

__version__ = "0.1.0"

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
    IndexSubset,
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
    partial_apply,
    partial_operator_matrix,
    random_gaussian,
    random_isometry,
    random_parseval,
    subset_energy,
    tight_deviation,
    union,
)
from .frame_io import frame_from_document, frame_to_document, read_frame, write_frame
from .identities import (
    BoundCheck,
    EquivalenceReport,
    IdentityReport,
    OperatorIdentityCheck,
    PartialStructure,
    SelfAdjointProductCheck,
    SpanEquality,
    TightExtensionCompare,
    equivalence_conditions,
    general_identity_report,
    half_bound_check,
    operator_identity_check,
    overlap_identity_report,
    parseval_identity_report,
    partial_structure_check,
    self_adjoint_product_check,
    span_equality_check,
    subspace_identity_report,
    three_quarters_check,
    tight_extension_compare,
    tight_identity_report,
)
from .linalg import EigenDecomposition, hermitian_eig, psd_apply, spectral_apply
from .rng import SplitMix64
from .sweeps import SUITE_NAMES, RunConfig, run_suite, run_suites
