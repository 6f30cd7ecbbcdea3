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
}

GOLDEN = {
    "fairgfl-ldp-cache":
        "522aef9edb9be8004b533a74046701710e6d775f07d9e572e88c3b234181b7f6",
    "fairgfl-ldp-nocache":
        "bfe21073b11e396b26291ae54f1a4ee530e0c15c69210f34d5d234ef70e21404",
    "fairgfl-noldp":
        "b55406f04c8898bea91feab92962ef74d4aaaa79db5657e2268c3a9c474129d6",
    "fairgfl-ldp-tau25":
        "8e47b6c5f027cd184b6cfd361df57328219ea266ed22bebaf2b181678a85e4a0",
    "fedavg":
        "98f4fec52225a44b1f32db3af6f8c7adf8fa9ef65a83a6180f56fd3f094613e1",
    "qfedavg":
        "287b5a4f5e187a0bf8d6a958867c630859f2a5e92d0b7114817484bdc91ad8f6",
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
    graph = generate_sbm(4, 30, 0.3, 0.03, 8, seed=3)
    spec = PartitionSpec(num_clients=5, overlap_coefficient=0.2, seed=1)
    cfg = FedConfig(**BASE, **CASES[case])
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
