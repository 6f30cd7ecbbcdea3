"""Golden trajectories: short fixed runs must reproduce bit for bit.

Each digest covers every round record (wall time zeroed, since it is the
only field that is not a function of the seeds) and the bytes of the final
model. For the fairgfl cases a second digest covers the overlap history:
each round's five overlap matrices, in order. A refactor must leave them unchanged; a change that moves the bits
on purpose updates the digest and says why in CHANGES.md. The digests
depend on the floating-point behaviour of the numpy/BLAS build, so a new
numpy or BLAS may need them regenerated (`python tests/test_golden.py`).
"""

import dataclasses
import hashlib

import pytest

from fairgfl.federation import FedConfig, run_experiment
from fairgfl.graph import PartitionSpec, generate_sbm
from fairgfl.ldp import LdpParams

BASE = dict(
    num_clients=5, clients_per_round=3, rounds=5, local_iters=2, batch_size=10,
    encoder_dim=4, encoder_epochs=3, seed=2,
)

CASES = {
    "fairgfl-ldp-cache": dict(algorithm="fairgfl"),
    "fairgfl-ldp-nocache": dict(algorithm="fairgfl", permanent_cache=False),
    "fairgfl-noldp": dict(algorithm="fairgfl", use_ldp=False),
    # a low threshold leaves most cross pairs unmatched: selective matching
    "fairgfl-ldp-tau25": dict(algorithm="fairgfl", tau_percentile=25.0),
    "fedavg": dict(algorithm="fedavg"),
    "qfedavg": dict(algorithm="qfedavg"),
    # 120-node blocks and 5-node batches: a step's batch rows are under a
    # quarter of the stack's, so loss_and_grad multiplies those rows alone
    "fedavg-b120": dict(algorithm="fedavg", batch_size=5),
    # 9 classes: numpy sums a row of 8 or more terms in pairwise lanes, so
    # a change to the softmax row reductions can hold at 4 classes alone
    "fedavg-c9": dict(algorithm="fedavg"),
}

# SBM block size and block (class) count by case, 30 and 4 when not listed
BLOCK_SIZE = {"fedavg-b120": 120}
BLOCKS = {"fedavg-c9": 9}

GOLDEN = {
    "fairgfl-ldp-cache":
        "2c3f7a6bc9154fe454e440a9ae2d29d41ecb020cdc4ca7092e5e962b5032073a",
    "fairgfl-ldp-nocache":
        "1dae845afb6c53c9f99a3195566e287dcdabbc82bb49d91a904b07bec51283ec",
    "fairgfl-noldp":
        "9c72844efb459ea3fbf60ad1ab140c8ed8392bc67656eb33cd713e19887d54b2",
    "fairgfl-ldp-tau25":
        "7dc342b519f24edc0e5d385ddbbdfd2163f10b47a188ec2ab17c2cf0f4854e92",
    "fedavg":
        "eb87026bec420ee96ebccb8be2ba818dc4611d2a587a90567a9c7ed2bca9c0fb",
    "qfedavg":
        "005f18612f34e3dac19449d71c8dda99b27477ac82d183367785f980259411d7",
    "fedavg-b120":
        "a01d9890d5dbe287e545dd81efc220d68e11ce11ab6f981393272eae439a8bfd",
    "fedavg-c9":
        "6d095e4ad747f67f407ee642ef5fe085704b445c0497de09c11ca1744c62b130",
}

GOLDEN_OVERLAP = {
    "fairgfl-ldp-cache":
        "6831e8d30cfe900aa1170cec0e72eb3edfcf58e5947a8b49de626830c06519de",
    "fairgfl-ldp-nocache":
        "b7807cd5427b273a17125a518b90215e6e833d7288f835298d5cec7fe5783fd4",
    "fairgfl-noldp":
        "e6f72c9bf5133e7a41aa64a681898eb7d718ea3d611ba7be747ea7ddaff5481b",
    "fairgfl-ldp-tau25":
        "4f362147780b5e4f85895d7de04b150776f23ff2bc63f7a1f7876925c1dbb995",
}

OVERLAP_NAMES = ("N_round", "T_round", "N_acc", "T_acc", "O")


def run_case(case: str):
    graph = generate_sbm(BLOCKS.get(case, 4), BLOCK_SIZE.get(case, 30), 0.3, 0.03, 8, seed=3)
    spec = PartitionSpec(overlap_coefficient=0.2, seed=1)
    cfg = FedConfig(**dict(BASE, **CASES[case]))
    return run_experiment(graph, spec, cfg, LdpParams(3.0, 1.0, 8))


def trajectory_digest(case: str) -> str:
    result = run_case(case)
    h = hashlib.sha256()
    for rec in result.records:
        h.update(repr(dataclasses.replace(rec, wall_time_ms=0.0)).encode())
    h.update(result.model.W1.tobytes())
    h.update(result.model.W2.tobytes())
    return h.hexdigest()


def overlap_digest(case: str) -> str:
    history = run_case(case).overlap_history
    assert len(history) == BASE["rounds"]
    h = hashlib.sha256()
    for snap in history:
        for name in OVERLAP_NAMES:
            h.update(snap[name].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_unchanged(case):
    assert trajectory_digest(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_OVERLAP))
def test_overlap_history_unchanged(case):
    assert overlap_digest(case) == GOLDEN_OVERLAP[case]


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{trajectory_digest(name)}",')
    for name in GOLDEN_OVERLAP:
        print(f'    "{name}": "{overlap_digest(name)}",')
