"""The input guards of the public entry points: each rejects a malformed
input with ValueError and the exact text ``invalid <what>: <violation>``,
the folds of module complexes and the embedding certificate of an empty
corpus reject a period below one, the chain-map constructors reject a
component over another field, each guard fails the same way on a second
call, and the violation branches of the checks that no other test reaches
fire (each check runs once per value, so these inputs show it still does)."""

import pytest

from perhom import (
    GF,
    QQ,
    BGGComplex,
    DoubleComplex,
    FieldMismatch,
    GradedModule,
    Homotopy,
    ModuleComplex,
    PeriodicComplex,
    PeriodicModuleComplex,
    bgg_complex,
    bgg_module,
    bgg_periodic,
    chain_map,
    cohomology_dims,
    compress,
    compress_map,
    compress_modules,
    cone,
    embedding_certificate,
    exterior_algebra,
    find_null_homotopy,
    find_periodic_homotopy,
    free_module,
    hom_space_dims,
    homotopy_defect,
    identity_chain_map,
    lambda_dual,
    mat,
    orbit_hom,
    periodic_cohomology,
    periodic_cone,
    periodic_hom_dims,
    periodize_null_homotopy,
    polynomial_algebra,
    shift_periodic,
    single,
    tensor_complex,
    tensor_periodic,
    total_complex,
    twist_iso,
    two_term,
    unrolled_identity_contraction,
    validate,
    validate_bgg,
    validate_module,
    validate_module_complex,
    verify_bgg_square,
    zero_chain_map,
    zeros,
)
from perhom.complexes import BoundedComplex, Violation
from perhom.periodic import periodic_chain_map

ONE, ZERO = mat(QQ, [[1]]), zeros(QQ, 1, 1)
SQUARE = "square at degree 0: composite of consecutive differentials is nonzero"

# d^1 d^0 = 1.
BAD_COMPLEX = BoundedComplex(QQ, 0, (1, 1, 1), (ONE, ONE))
GOOD_COMPLEX = single(QQ, 0)
# f^1 d = 0 but d f^0 = 1.
_X = two_term(QQ, 0, ONE)
BAD_MAP = chain_map(_X, _X, {0: ONE, 1: ZERO})
BAD_PERIODIC = PeriodicComplex(QQ, 1, (1,), (ONE,))
GOOD_PERIODIC = PeriodicComplex(QQ, 1, (1,), (ZERO,))
_P = PeriodicComplex(QQ, 2, (1, 1), (ONE, ZERO))
BAD_PERIODIC_MAP = periodic_chain_map(_P, _P, (ONE, ZERO))
# x_0 x_1 sends the degree-0 generator to 1, x_1 x_0 sends it to 0.
BAD_MODULE = GradedModule(
    QQ,
    polynomial_algebra(2),
    0,
    (1, 2, 1),
    ((mat(QQ, [[1], [0]]), mat(QQ, [[0, 1]])), (mat(QQ, [[0], [1]]), zeros(QQ, 1, 2))),
)
# The map is 1 in internal degree 0 and 0 in degree 1, so it does not
# commute with x_0 : degree 0 -> degree 1.
_FREE = free_module(QQ, polynomial_algebra(1), 0, (0, 1))
BAD_MODULE_COMPLEX = ModuleComplex(0, (_FREE, _FREE), ((ONE, ZERO),))
BAD_PERIODIC_MODULE_COMPLEX = PeriodicModuleComplex(1, (_FREE,), ((ONE, ZERO),))
GOOD_MODULE_COMPLEX = ModuleComplex(0, (_FREE,), ())

NOT_CHAIN_MAP = "chain-map at degree 0: f d != d f"
NOT_EQUIVARIANT = "linearity at degree 0: map out of term 0 is not equivariant for generator 0"

CASES = [
    ("cone", lambda: cone(BAD_MAP), f"invalid chain map: {NOT_CHAIN_MAP}"),
    ("compress", lambda: compress(BAD_COMPLEX, 2), f"invalid complex: {SQUARE}"),
    ("compress_map", lambda: compress_map(BAD_MAP, 2), f"invalid chain map: {NOT_CHAIN_MAP}"),
    ("twist_iso", lambda: twist_iso(BAD_COMPLEX, 2), f"invalid complex: {SQUARE}"),
    (
        "tensor_periodic-bounded",
        lambda: tensor_periodic(BAD_COMPLEX, GOOD_PERIODIC),
        f"invalid complex: {SQUARE}",
    ),
    (
        "tensor_periodic-periodic",
        lambda: tensor_periodic(GOOD_COMPLEX, BAD_PERIODIC),
        f"invalid periodic complex: {SQUARE}",
    ),
    (
        "compress_modules",
        lambda: compress_modules(BAD_MODULE_COMPLEX, 2),
        f"invalid module complex: {NOT_EQUIVARIANT}",
    ),
    (
        "bgg_module",
        lambda: bgg_module(BAD_MODULE),
        "invalid graded module: commute at degree 0: generators (0, 1) do not commute",
    ),
    ("bgg_complex", lambda: bgg_complex(BAD_MODULE_COMPLEX), f"invalid module complex: {NOT_EQUIVARIANT}"),
    (
        "bgg_periodic",
        lambda: bgg_periodic(BAD_PERIODIC_MODULE_COMPLEX),
        f"invalid periodic module complex: {NOT_EQUIVARIANT}",
    ),
    (
        "verify_bgg_square",
        lambda: verify_bgg_square(BAD_MODULE_COMPLEX, 2),
        f"invalid module complex: {NOT_EQUIVARIANT}",
    ),
    (
        "periodic_cone",
        lambda: periodic_cone(BAD_PERIODIC_MAP),
        f"invalid periodic chain map: {NOT_CHAIN_MAP}",
    ),
    (
        "find_periodic_homotopy",
        lambda: find_periodic_homotopy(BAD_PERIODIC_MAP, BAD_PERIODIC_MAP),
        f"invalid periodic chain map: {NOT_CHAIN_MAP}",
    ),
    (
        "periodic_hom_dims",
        lambda: periodic_hom_dims(GOOD_PERIODIC, BAD_PERIODIC),
        f"invalid periodic complex: {SQUARE}",
    ),
    ("periodic_cohomology", lambda: periodic_cohomology(BAD_PERIODIC), f"invalid periodic complex: {SQUARE}"),
    (
        "unrolled_identity_contraction",
        lambda: unrolled_identity_contraction(BAD_PERIODIC),
        f"invalid periodic complex: {SQUARE}",
    ),
    (
        "periodize_null_homotopy",
        lambda: periodize_null_homotopy(BAD_PERIODIC, None),
        f"invalid periodic complex: {SQUARE}",
    ),
    ("shift_periodic", lambda: shift_periodic(BAD_PERIODIC, 1), f"invalid periodic complex: {SQUARE}"),
    ("hom_space_dims", lambda: hom_space_dims(GOOD_COMPLEX, BAD_COMPLEX), f"invalid complex: {SQUARE}"),
    ("orbit_hom", lambda: orbit_hom(BAD_COMPLEX, GOOD_COMPLEX, 2), f"invalid complex: {SQUARE}"),
    (
        "embedding_certificate",
        lambda: embedding_certificate([GOOD_COMPLEX, BAD_COMPLEX], 2),
        f"invalid complex: {SQUARE}",
    ),
    ("cohomology_dims", lambda: cohomology_dims(BAD_COMPLEX), f"invalid complex: {SQUARE}"),
    ("tensor_complex", lambda: tensor_complex(GOOD_COMPLEX, BAD_COMPLEX), f"invalid complex: {SQUARE}"),
    ("find_null_homotopy", lambda: find_null_homotopy(BAD_MAP), f"invalid chain map: {NOT_CHAIN_MAP}"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_guard_message_is_exact(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (ValueError, message)


@pytest.mark.parametrize("call, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_guard_message_is_the_same_on_a_second_call(call, message):
    # The inputs are module constants, so the first call may already have
    # kept the violation on them.
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: compress_modules(GOOD_MODULE_COMPLEX, n),
        lambda n: verify_bgg_square(GOOD_MODULE_COMPLEX, n),
        lambda n: PeriodicModuleComplex(n, (), ()),
        lambda n: embedding_certificate([], n),
    ],
    ids=["compress_modules", "verify_bgg_square", "PeriodicModuleComplex", "embedding_certificate-empty"],
)
def test_module_folds_reject_period_below_one(call, n):
    with pytest.raises(ValueError) as caught:
        call(n)
    assert (type(caught.value), str(caught.value)) == (ValueError, "period must be at least 1")


F5, F7 = GF(5), GF(7)


@pytest.mark.parametrize("dims", [(1,), (1, 1)], ids=["one-term", "two-term"])
def test_chain_map_rejects_a_component_over_another_field(dims):
    x = BoundedComplex(F5, 0, dims, tuple(zeros(F5, 1, 1) for _ in dims[1:]))
    with pytest.raises(FieldMismatch) as caught:
        chain_map(x, x, {0: mat(F7, [[1]])})
    assert str(caught.value) == "component at degree 0 over the wrong field"


@pytest.mark.parametrize("n", [1, 2], ids=["one-term", "two-term"])
def test_periodic_chain_map_rejects_a_component_over_another_field(n):
    p = PeriodicComplex(F5, n, (1,) * n, (zeros(F5, 1, 1),) * n)
    with pytest.raises(FieldMismatch) as caught:
        periodic_chain_map(p, p, (mat(F7, [[1]]),) + (zeros(F5, 1, 1),) * (n - 1))
    assert str(caught.value) == "component 0 over the wrong field"


F3 = GF(3)
_POLY1 = polynomial_algebra(1)
_POINT = GradedModule(QQ, _POLY1, 0, (1,), ((),))
_DUAL = lambda_dual(1, QQ)
# d = diag(1, 0) against the action a = -e_12 of one cell of size 1 on
# each term: d a = -e_12, a d = 0.  And d = e_21 on the term of a 1-periodic
# complex: d a = -e_22, a d = -e_11.
_BGG_D, _BGG_E21 = mat(QQ, [[1, 0], [0, 0]]), mat(QQ, [[0, 0], [1, 0]])
_PT = single(QQ, 0)

VIOLATIONS = [
    (
        "validate-field",
        lambda: validate(BoundedComplex(QQ, 0, (1, 1), (mat(F3, [[1]]),))),
        Violation("field", 0, "differential over the wrong field"),
    ),
    (
        "homotopy_defect",
        lambda: homotopy_defect(Homotopy(identity_chain_map(_PT), zero_chain_map(_PT, _PT), ())),
        Violation("homotopy", 0, "f - g != s d + d s"),
    ),
    (
        "validate_module-shape",
        lambda: validate_module(GradedModule(QQ, _POLY1, 0, (1, 2), ((ONE,),))),
        Violation("shape", 0, "action 0 has shape (1, 1), expected (2, 1)"),
    ),
    (
        "validate_module-field",
        lambda: validate_module(GradedModule(QQ, _POLY1, 0, (1, 1), ((mat(F3, [[1]]),),))),
        Violation("field", 0, "action 0 over the wrong field"),
    ),
    (
        "validate_module-exterior-square",
        lambda: validate_module(GradedModule(QQ, exterior_algebra(1), 0, (1, 1, 1), ((ONE, ONE),))),
        Violation("square", 2, "generator 0 does not square to zero"),
    ),
    (
        "validate_module_complex-window",
        lambda: validate_module_complex(
            ModuleComplex(0, (_POINT, GradedModule(QQ, _POLY1, 1, (1,), ((),))), ((ZERO,),))
        ),
        Violation("window", 1, "terms must share window and algebra"),
    ),
    (
        "validate_module_complex-square",
        lambda: validate_module_complex(ModuleComplex(0, (_POINT,) * 3, ((ONE,), (ONE,)))),
        Violation("square", 0, "composite of maps 0, 1 is nonzero"),
    ),
    (
        "validate_bgg-linearity",
        lambda: validate_bgg(BGGComplex(_DUAL, two_term(QQ, 0, _BGG_D), ((1,), (1,)))),
        Violation("linearity", 0, "differential does not commute with generator 0"),
    ),
    (
        "validate_bgg-periodic-linearity",
        lambda: validate_bgg(BGGComplex(_DUAL, PeriodicComplex(QQ, 1, (2,), (_BGG_E21,)), ((1,),))),
        Violation("linearity", 0, "differential does not commute with generator 0"),
    ),
]


@pytest.mark.parametrize("check, want", [case[1:] for case in VIOLATIONS], ids=[case[0] for case in VIOLATIONS])
def test_check_reports_its_violation(check, want):
    assert check() == want


def test_total_complex_rejects_a_column_that_does_not_square_to_zero():
    grid = DoubleComplex(QQ, {(0, 0): 1, (0, 1): 1, (0, 2): 1}, {}, {(0, 0): ONE, (0, 1): ONE})
    with pytest.raises(ValueError) as caught:
        total_complex(grid)
    assert (type(caught.value), str(caught.value)) == (ValueError, "column 0 does not square to zero at (0, 0)")
