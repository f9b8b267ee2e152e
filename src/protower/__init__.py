"""Towers of finite-dimensional C*-algebras.

Inverse systems of block matrix algebras with surjective connecting maps,
their coherent elements, seminorms and spectra, the C*-algebra of bounded
elements, finite-scale Gelfand duality for commutative towers, and the
exponential structure of the unitary group.
"""

from .core_algebra import (
    AlgebraElement,
    AlgebraError,
    BlockAlgebra,
    BranchError,
    DomainError,
    EigensolverError,
    ExpI,
    FunctionDescriptor,
    Polynomial,
    PreconditionError,
    PrincipalArg,
    RationalSquash,
    StructuralError,
    Tabulated,
    TruncationError,
    adjoin_unit_element,
    apply_function,
    cstar_norm,
    distance,
    hausdorff_distance,
    is_normal,
    is_selfadjoint,
    spectral_radius,
    spectrum,
)
from .tower import (
    BlockMap,
    Certificates,
    CoherenceReport,
    CoherentElement,
    ConnectingMap,
    IdealDecomposition,
    Tower,
    TowerHomomorphism,
    check_coherence,
    closed_ideal,
    coherent_from_top,
    diag_sequence_element,
    make_product_tower,
    project,
    scalar_element,
    shift_element,
)
from .calculus import (
    BoundednessVerdict,
    SpectrumReport,
    coherent_selfadjoint_parts,
    is_spectrally_bounded,
    lift_function,
    pro_spectrum,
    seminorm,
    uniform_norm,
)
from .bounded_functor import (
    ExactnessReport,
    QuotientIsoReport,
    apply_functor,
    bounded_part,
    check_exactness,
    kernel_quotient_check,
    quotient_iso_check,
)
from .gelfand import (
    CfAlgebra,
    CharacterFunction,
    CoveredSpace,
    DualityReport,
    cf_algebra,
    character_space,
    duality_roundtrip,
    evaluation_iso,
)
from .unitary import (
    ExpFactorization,
    exp_selfadjoint,
    identity_component_check,
    is_unitary,
    pushforward_exp,
    unitary_log,
)
from .randomness import (
    random_element,
    random_normal,
    random_selfadjoint,
    random_unitary,
    random_unitary_near_identity,
    stream,
)
from .report import CheckRecord, RunReport, emit_trace
from .specfile import SpecFile, load_specfile

__version__ = "0.1.0"
