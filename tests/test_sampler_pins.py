"""The seeded samplers draw the same instances from run to run.

Every verify report is computed on these instances, so a change to the
samplers' draws or to the order in which they consume the generator would
change the meaning of every report.  Each digest is the SHA-256 of the
canonical document bytes of one sampler's output at seeds 0-9,
concatenated, recorded at commit 7a61565, before the samplers took each
basis change and its inverse from one elimination.
"""

import hashlib
from random import Random

import pytest

from perhom import GF, QQ
from perhom.documents import canonical_json_bytes, document_dict, matrix_doc
from perhom.graded import ModuleComplex
from perhom.samples import (
    random_bounded_complex,
    random_contractible_periodic,
    random_flag,
    random_graded_module,
    random_module_complex,
    random_periodic,
)

FIELDS = {"QQ": QQ, "GF(5)": GF(5), "GF(7)": GF(7)}

SAMPLERS = {
    "random_bounded_complex": lambda rng, field, seed: random_bounded_complex(rng, field),
    "random_periodic": lambda rng, field, seed: random_periodic(rng, field, 1 + seed % 3),
    "random_contractible_periodic": lambda rng, field, seed: random_contractible_periodic(rng, field, 1 + seed % 3),
    "random_flag": lambda rng, field, seed: random_flag(rng, field),
    "random_graded_module": lambda rng, field, seed: random_graded_module(rng, field, 1 + seed % 2, (0, 2)),
    "random_module_complex": lambda rng, field, seed: random_module_complex(rng, field, 1 + seed % 2, (0, 2)),
}

SAMPLER_SHA256 = {
    "random_bounded_complex/QQ": "9db50015fe5af892c3f0e2edd906e23acbc1930874f48b179e219540a45972f4",
    "random_bounded_complex/GF(5)": "4ce6fd32fa478285401d596d22c5decc7c0a4c747d6f0db24bf7ecd6cc7589c6",
    "random_bounded_complex/GF(7)": "81215d5d7c41977dc47f0efeecd3ed9ed04462a6bca9b392541d43018f784011",
    "random_periodic/QQ": "9bc86dcb05a6b4d488e7575a9ed6bc45b263c741c71c3ed535054584a86106aa",
    "random_periodic/GF(5)": "a571bff3f32bc85b593fad8b6e856d76ab51a1dc595f5c471823cf7ae82002cd",
    "random_periodic/GF(7)": "5d0bd24dfd95b12abadf8e970820bd89517fa1b247e618091fb4e702908ca92d",
    "random_contractible_periodic/QQ": "f2af04011728066fa675cf131adabd558a581588cd50d2791ee60a75a7251484",
    "random_contractible_periodic/GF(5)": "377a8b25f84d9dbcd471fd7b71ceadca3c06579ad8e54f7724274668c67e3d3b",
    "random_contractible_periodic/GF(7)": "527e9ecb7067fac1d6ce8c43f94a639ff8272e4e2405e0139540d88d95571fc1",
    "random_flag/QQ": "333e2ea90d5543aa790fafe8fa59eb9687313a682502f2e47917986effa9fb63",
    "random_flag/GF(5)": "66665df8ec17d74bd65a8b0fb3baaacf2ebb7c8d318fd6aa33969d5d6bcf4c11",
    "random_flag/GF(7)": "aa0e53db15422565f45981fd4028ed3143eb8d7d9b3d6c58e4f59fd767515d98",
    "random_graded_module/QQ": "404166e1a4e9ad9b0ba8a0520daad90a0f2228b056b43f869f57d6914542bf6a",
    "random_graded_module/GF(5)": "ab9289153d845fe206c1bad7025256ab30174302ac2758e1fface0021e9aee3e",
    "random_graded_module/GF(7)": "b75e78024f19dca54b54e49bf65ce4dfdb93aa68094bd01e0a781eda8ecc33e9",
    "random_module_complex/QQ": "399f5fa01eb6e2a9ebd6d3014913b90c7831729155b39122b512cadfcc2ee9b3",
    "random_module_complex/GF(5)": "44cbd0b6f65bbf1cc698f37ca47131dafa49426a8349827ff6431566a8b165f0",
    "random_module_complex/GF(7)": "ab46db038297f0be8bd5ffeabcce5764d3ce42beeeb376497869b145d5c075bf",
}


def instance_bytes(value) -> bytes:
    """Canonical bytes of a sampled instance; a complex of modules, which
    has no document kind, is written as its modules and its maps."""
    if isinstance(value, ModuleComplex):
        value = {
            "jlo": value.jlo,
            "modules": [document_dict(m) for m in value.modules],
            "maps": [[matrix_doc(m) for m in family] for family in value.maps],
        }
        return canonical_json_bytes(value)
    return canonical_json_bytes(document_dict(value))


def sampler_digest(name: str, field_name: str) -> str:
    digest = hashlib.sha256()
    for seed in range(10):
        rng = Random(f"{name} {field_name} {seed}")
        digest.update(instance_bytes(SAMPLERS[name](rng, FIELDS[field_name], seed)))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(SAMPLER_SHA256))
def test_sampler_instances_are_pinned(case):
    name, field_name = case.split("/")
    assert sampler_digest(name, field_name) == SAMPLER_SHA256[case]
