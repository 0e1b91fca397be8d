"""Exact-arithmetic toolkit for bounded and n-periodic chain complexes.

The package computes, over the rationals or a prime field: mapping cones,
cohomology and homotopy-category Hom dimensions of bounded complexes; the
fold into n-periodic complexes and its windowed unfold, with the periodic
homotopy calculus; orbit-category Hom dimensions and the embedding
certificate; graded modules, projective flags and the periodic tensor
functor; and the duality functor into dual-exterior complexes together
with its periodic variant.  Everything is exact; randomized verification
suites live in `perhom.suites` and behind the `perhom verify` command.
"""

from .complexes import (
    BoundedComplex,
    ChainMap,
    HomReport,
    Homotopy,
    Splitting,
    Violation,
    chain_map,
    cohomology_dims,
    complex_from,
    compose,
    cone,
    degree_shift,
    euler_characteristic,
    find_null_homotopy,
    hom_space_dims,
    homotopy_defect,
    identity_chain_map,
    is_acyclic,
    shift,
    single,
    splitting,
    tensor_complex,
    two_term,
    validate,
    validate_chain_map,
    zero_chain_map,
    zero_complex,
)
from .documents import DocumentError, parse_document, serialize_document
from .graded import (
    Algebra,
    FlagData,
    FlagError,
    FlagStage,
    GradedModule,
    ModuleComplex,
    PeriodicModuleComplex,
    compress_modules,
    direct_sum_modules,
    exterior_algebra,
    flag_assemble,
    flag_filtration,
    free_module,
    polynomial_algebra,
    tensor_compression_square,
    tensor_periodic,
    validate_module,
    validate_module_complex,
)
from .koszul import (
    BGGComplex,
    BGGSquareReport,
    DoubleComplex,
    LambdaDual,
    bgg_complex,
    bgg_module,
    bgg_periodic,
    lambda_dual,
    total_complex,
    validate_bgg,
    verify_bgg_square,
)
from .linalg import (
    GF,
    QQ,
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    identity,
    kernel_basis,
    mat,
    rank,
    solve_linear,
    zeros,
)
from .orbit import EmbeddingReport, OrbitHomReport, embedding_certificate, orbit_hom
from .periodic import (
    PeriodicChainMap,
    PeriodicComplex,
    PeriodicHomotopy,
    compress,
    compress_map,
    compression_cone_square,
    expand_window,
    find_periodic_homotopy,
    identity_periodic_map,
    is_acyclic_periodic,
    periodic_cohomology,
    periodic_cone,
    periodic_hom_dims,
    periodic_homotopy_defect,
    periodize_null_homotopy,
    shift_periodic,
    twist_iso,
    unit_and_retraction,
    unrolled_identity_contraction,
    validate_periodic,
    validate_periodic_map,
)
from .suites import available_suites, run_suite

__version__ = "0.1.0"
