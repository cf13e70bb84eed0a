"""Pinned layouts of the models the exact methods build.

Each digest covers a model's names, bounds, integrality, objective,
``row_matrix()`` arrays, senses, right-hand sides and start basis, so any
change to row order, naming, coefficients or the start basis shows here,
even one that leaves every answer the same.  Update a digest only together
with a deliberate change to a builder.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from scnptree import benders, build_path_table, generate_instance
from scnptree.benders import bd_scnp
from scnptree.milpcore import STATUS_OPTIMAL, LinearModel, SolveResult
from scnptree.models import build_chain_milp, build_ilp_p

INSTANCES = (
    (2, "unit", 0),
    (3, "type1", 1),
    (5, "type2", 2),
    (6, "type3", 3),
    (8, "type1", 4),
    (9, "type3", 5),
    (10, "type2", 6),
    (12, "unit", 7),
    (12, "type3", 8),
)


def layout_digest(model: LinearModel) -> str:
    """SHA-256 over everything a solver reads from the model."""
    h = hashlib.sha256()
    for part in (
        model.var_names,
        model.lower,
        model.upper,
        model.is_integer,
        model.objective,
        model.row_names,
        model.senses,
        model.rhs,
        model.start_basis,
    ):
        h.update(repr(part).encode())
        h.update(b"\0")
    start, index, value = model.row_matrix()
    for array, dtype in ((start, "<i8"), (index, "<i8"), (value, "<f8")):
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


def _master_after_first_round(instance) -> LinearModel:
    """The cut loop's master as its one search receives it."""
    seen = []

    def capture(model, **kwargs):
        seen.append(model)
        return SolveResult(status=STATUS_OPTIMAL, bound=0.0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(benders, "solve_milp", capture)
        bd_scnp(instance)
    (model,) = seen
    return model


def build(kind: str, n: int, scheme: str, seed: int) -> LinearModel:
    instance = generate_instance(n, scheme, seed)
    if kind == "chain":
        return build_chain_milp(instance, build_path_table(instance))[0]
    if kind == "chain_dom":
        return build_chain_milp(instance, build_path_table(instance), add_valid_ineq=True)[0]
    if kind == "ilp_p":
        instance = dataclasses.replace(instance, survival_prob=(0.4,) * n)
        return build_ilp_p(instance, build_path_table(instance))[0]
    return _master_after_first_round(instance)


KINDS = ("chain", "chain_dom", "ilp_p", "master")

# computed with the per-row list store the CSR store replaced
DIGESTS = {
    "chain-2-unit-0": "0ffb6e8ce14ab681d1e672e4a0a85eb11ea103a663e85bf238bd87746cd48e36",  # 4 rows
    "chain_dom-2-unit-0": "0ffb6e8ce14ab681d1e672e4a0a85eb11ea103a663e85bf238bd87746cd48e36",  # 4 rows
    "ilp_p-2-unit-0": "b110dbfa992e8c3a75b7d032acf3a1fb9ea53ee493c20333be05e5b255f00311",  # 3 rows
    "master-2-unit-0": "003507944bb55e42b72136e243e08e2eb796c56b8b9e7fac8c39543161f15853",  # 2 rows
    "chain-3-type1-1": "91a9f71b5bd4378611fc3d55335f8d6e41743bedf5baa9ba7612ad3ac1826458",  # 9 rows
    "chain_dom-3-type1-1": "91a9f71b5bd4378611fc3d55335f8d6e41743bedf5baa9ba7612ad3ac1826458",  # 9 rows
    "ilp_p-3-type1-1": "58c8c90a2cb636687873121409e5bc1bc6e044ef1bb03462df09614b0c4e3285",  # 7 rows
    "master-3-type1-1": "f8b179bc6290cee8b135dc43f6e2fb4f6973ff0964cdff5356672708cd028cea",  # 4 rows
    "chain-5-type2-2": "b9eff035966a88a1b203a42efeb46279b212e9a0e597d33f9292cccfc7051ad4",  # 35 rows
    "chain_dom-5-type2-2": "b08729f34aaf831857e6b5105f9bc1c6f61f187ae60bd263d55943ebe75c78d5",  # 36 rows
    "ilp_p-5-type2-2": "67331655c3f7eedd6262e83ca42dddb484e50af2b22b508aa1b5a5f986d7491c",  # 21 rows
    "master-5-type2-2": "5f2e3d79a507c99f6073e00dcd450a597548155f842fe89fcaed54a1dff6cc2c",  # 12 rows
    "chain-6-type3-3": "6a56d160949ba837fc722127c154fb6c168f393d845e3897c2da89270f3b35bf",  # 47 rows
    "chain_dom-6-type3-3": "6a56d160949ba837fc722127c154fb6c168f393d845e3897c2da89270f3b35bf",  # 47 rows
    "ilp_p-6-type3-3": "46d148d485a3723f7ab0686b8dcd1223d4cd7565a974281d4f36aaee663b55c8",  # 32 rows
    "master-6-type3-3": "2d5d17009a352e9819e7918094bf84fad713a039f55492f34309bcfcc8d3c9c2",  # 17 rows
    "chain-8-type1-4": "eae209a5627ccf6e17dcf3fac7bcf938087edc7b99c6500305416112d76d2848",  # 81 rows
    "chain_dom-8-type1-4": "b0075363175d49c896f29e8eff85da169c5e4130535f4788c0ce9dbaef1be518",  # 84 rows
    "ilp_p-8-type1-4": "46005260070be1fab957c5c4ec419705445633d1fd0950b6e68a8a0786774d10",  # 60 rows
    "master-8-type1-4": "76b5b72102adc6ab520d1805f2292811281b8551e4d9d79d0c9bbc9edf1ae0bc",  # 35 rows
    "chain-9-type3-5": "82a027c79cbf8165e985e5462d48bd67778480ffea887913fab1886d923a0d91",  # 103 rows
    "chain_dom-9-type3-5": "82a027c79cbf8165e985e5462d48bd67778480ffea887913fab1886d923a0d91",  # 103 rows
    "ilp_p-9-type3-5": "46e2ec4369d8994e021ff262d473fe616ba673904e7ee634b33adc23f705d9c1",  # 77 rows
    "master-9-type3-5": "c94e7d4c0873efecec20767af336ddb72a5faaa9cff18c674c888dbab7fa2e11",  # 41 rows
    "chain-10-type2-6": "4d6656dcc39f69ceb7a4d7f42dab7e89787d95e4cb6164385fdf218c28da5a04",  # 134 rows
    "chain_dom-10-type2-6": "2d563c1d3a7a77d5dd724975b6813aa1f65b7419603019d885762bdfa7e754ac",  # 135 rows
    "ilp_p-10-type2-6": "b0b9d68c209d91ffeea97a0733451587d4d152cab5b18685aaccaeb1a3f92329",  # 95 rows
    "master-10-type2-6": "3219359ce474e970243cdce506e0e74f9e0275183cf8c01746c43d17ccc28ed4",  # 51 rows
    "chain-12-unit-7": "586bb3afbcc39c8b184908670cda793a55480a0776999ad8b078b59d32aa8ac0",  # 183 rows
    "chain_dom-12-unit-7": "adce9874296212b6cad786e9245a625b236a9bb77d3063a677d3114c8bab32b8",  # 186 rows
    "ilp_p-12-unit-7": "753727ddf3b64ee4f16787f0654a54b9e6ba53bb07a1a9bec79d1434b20d55ab",  # 134 rows
    "master-12-unit-7": "5097ba10a63c87aeffa2ba11993bef35451f43d5d6d4ce36d9bc34a75dec2c8f",  # 71 rows
    "chain-12-type3-8": "207221d7094686fde10f9785a1647a810ab800c87fb54ef40645ec6392a3cac9",  # 182 rows
    "chain_dom-12-type3-8": "207221d7094686fde10f9785a1647a810ab800c87fb54ef40645ec6392a3cac9",  # 182 rows
    "ilp_p-12-type3-8": "52df102a0d3eef7787618759edef26ae0447f78195aa40cab5dae3618f67c8c7",  # 139 rows
    "master-12-type3-8": "d179ae43d98475a2f029636761f5963dcf78042b23ec2b12b48007f83f8d1801",  # 73 rows
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_model_layouts_are_pinned(case):
    kind, n, scheme, seed = case.split("-")
    assert layout_digest(build(kind, int(n), scheme, int(seed))) == DIGESTS[case]
