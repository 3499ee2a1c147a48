"""Pinned trajectories at full participation (S = N), the path with no gather.

At S = N the population uses its stacks whole, and every server reduction
runs over all N clients.  The digests were recorded from the per-client row
loops of the server mean, the local-consistency metric and the verifier's
gradient sum, and from the per-client noise arrays: a loop-free reduction or
noise fill has to give the same bytes.  Each rule pins the final model and
the increment ring buffer of a small noisy quadratic run; the ``fedmim``
verify run also pins every round's gradient sum and its metric rows.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fedsim.algorithms import ROUND_FUNCTIONS, MimHyper, init_round_state
from fedsim.cli import VERIFY_TOLERANCE
from fedsim.simulator import ProblemConfig, RunConfig, build_problem, run_training, sample_clients

PROBLEM = ProblemConfig(kind="quadratic", n_clients=5, dim=6, heterogeneity=1.0, sigma_l=0.1)
CONFIG = RunConfig(problem=PROBLEM, algorithm="fedmim",
                   hyper=MimHyper(eta_l=0.05, k_local=3, s_participate=5),
                   rounds=6, master_seed=4, metric_every=1)

# rule -> (final x, increment ring buffer)
PINS = {
    "fedadam": (
        "1074495a6e8ea036ca284e84aa1212bfb174ca82f4605a070f38b1f1f0ea0313",
        "2579d8ee56497a533d183ed5003beb576bab624843c6c3a7c0580907078b9421",
    ),
    "fedavg": (
        "2d20b3ab3b9d46f782959856a25d3963f145b83410f8b738341384229ce7ca93",
        "a67edf5e44181e39be4ffb1ec9ebd35fe75d375ef4776b0147f67d1d24f90cec",
    ),
    "fedcm": (
        "0aa21fcefe57443053105b8f869976ac641be281ec6500e0b6ec5e68047b83c3",
        "19d90f7c5eda742cf0a2a7915e158e202d5ff5fc42a84b08f738b595fee72dc2",
    ),
    "fedmim": (
        "146e19c032f3652374e075f74f2a91151a566530002424d72c7261a128bf2115",
        "f117e1791b7b9c291fc889cfd1dad5a8ec360451306564594c6567b6fb086652",
    ),
    "scaffold": (
        "7d020ddf9944782d4e4fd847daf77b5cb43189f7d5a8ba781b0ee0a496e4f87b",
        "9504b6010a831ac5eabeebb1554a0cd1e40aefaa081ccfd577b81f0e31953c9d",
    ),
}
# the fedmim verify run: every round's gradient sum, and the consistency and
# residual columns of its metric rows
GRAD_SUM_PIN = "4e288e04320c0a764c87f9b8692d919cd7804284a3ca1ce0c96478451993a1f0"
ROWS_PIN = "4ed4b3e11481501045f506f8fb66a9bb4d886a44fb29ac1a18eef62e2b57bed7"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _replay(config: RunConfig, collect_grads: bool = False):
    """The simulator's round loop; returns the final state and each round's gradient sum."""
    problem = build_problem(config.problem, config.master_seed)
    assert config.hyper.s_participate == problem.num_clients
    state = init_round_state(np.zeros(problem.dim), config.hyper.J)
    grad_sums = []
    for t in range(config.rounds):
        sampled = sample_clients(problem.num_clients, config.hyper.s_participate, config.master_seed, t)
        state, art = ROUND_FUNCTIONS[config.algorithm](
            state, problem, config.hyper, sampled, config.master_seed, collect_grads=collect_grads,
            params=config.params)
        grad_sums.append(art.grad_sum)
    return state, grad_sums


@pytest.mark.parametrize("algorithm", sorted(PINS))
def test_full_participation_trajectory_is_pinned(algorithm):
    x_digest, delta_digest = PINS[algorithm]
    config = replace(CONFIG, algorithm=algorithm)
    state, _ = _replay(config)
    assert np.array_equal(run_training(config).final_x, state.x)
    assert _sha(state.x.tobytes()) == x_digest
    assert _sha(b"".join(d.tobytes() for d in state.delta_history)) == delta_digest


def test_full_participation_verify_is_pinned():
    config = replace(CONFIG, verify=True)
    state, grad_sums = _replay(config, collect_grads=True)
    record = run_training(config)
    assert np.array_equal(record.final_x, state.x)
    assert _sha(state.x.tobytes()) == PINS["fedmim"][0]
    assert _sha(b"".join(g.tobytes() for g in grad_sums)) == GRAD_SUM_PIN
    columns = np.array([(r.consistency, r.residual_delta, r.residual_u) for r in record.rows])
    assert _sha(columns.tobytes()) == ROWS_PIN
    assert max(record.max_residual_delta, record.max_residual_u) <= VERIFY_TOLERANCE
