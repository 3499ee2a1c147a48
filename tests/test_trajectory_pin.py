"""Pinned training trajectories.

The digests below were recorded from the per-client measurement code that
preceded the stacked population oracle.  Measurement must never feed back
into training, so any change to the data layout or the metric oracles has to
leave these bytes alone: the final model and the increment ring buffer of a
small run per data-driven problem kind.  The baseline pins hold the quadratic
run of the round rules other than the momentum rule, so the batched local
update has to reproduce each rule's per-client arithmetic as well.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from client_reference import replay
from fedsim.algorithms import ROUND_FUNCTIONS, MimHyper
from fedsim.cli import metrics_csv_bytes
from fedsim.simulator import ProblemConfig, RunConfig, build_problem, run_training

PINS = {
    "logreg": (
        ProblemConfig(kind="logreg", n_clients=8, dim=5, concentration=0.5,
                      samples_per_client=40, batch_size=8),
        "0f8aca6b32864948a793767ff21cbf094a4d4b7b45cc5c10c4dbdfbb88866a58",
        "793eaacf338afecad133903f6a8ad9da58516f542843952f0e03bc814e5d094b",
    ),
    "mlp": (
        ProblemConfig(kind="mlp", n_clients=8, dim=4, mlp_hidden=5, concentration=0.5,
                      samples_per_client=30, batch_size=6),
        "50767464c2f8474c6f8d346639d677e1dc9ba1a5db8958723963c5d401d3df11",
        "debfceeaef6281cf5ada875a0a48aa73dfe2187a57b42e781b52f6afc9b48237",
    ),
    "quadratic": (
        ProblemConfig(kind="quadratic", n_clients=6, dim=4, heterogeneity=1.0, sigma_l=0.1),
        "f5f6c72347dd8a912b303f6f536830ac23e4f42854ef05c30eb3a6a9390c1a8f",
        "b1b3d046a91356839a7f8cdc9e137df570d1f19fb01ada9a740698a1996db6d3",
    ),
}

# metrics.csv of the same runs, recorded before the sample-based kinds' training gradients were batched
# over clients and the mlp's output axis was dropped; the rows come from the population oracles' evaluate
METRICS_PINS = {
    "logreg": "46db513b8535543fdbd296e1c1e72a4bed7af00bbbec01acd56f7017a1311b4f",
    "mlp": "b17ce370f71e4345dc315eda5ef94dd995781cf7b0699bbdb992fed426dcc6e9",
}

# Baseline round rules on the quadratic pin problem (S=3 of N=6 clients),
# recorded from the per-client local loops that preceded the batched kernel.
BASELINE_PINS = {
    "fedavg": (
        "0bfa81e9327e742376ac12dcc1353fa9b625415301943323fb54ab262fd32c6b",
        "15ed8e51406e3dfb8f4bbdaeb43bff634685c7be102df5ca0fd6bc4960e8b48b",
    ),
    "scaffold": (
        "323e7dc27eca52f2ea29bd8a93d742ddadfb2f5a3287a6e696a64ff8bff58cc2",
        "113a6b14339706a9f3ac8729ad61a0c8b31b967095643c4482e40258202c0f0a",
    ),
    "fedadam": (
        "70e4b6d94462b5a4afb893575c93019490633867f397d1b0893dcee5d9484c32",
        "ca8c2dd1fd85f35ca51dfc8539242bb1c36698bbe3b1b898194ff8744783f627",
    ),
}
# the settings these digests were recorded at: global_lr was 1.0 by default then
# (0.1 now); fedadam is the only rule that reads it
BASELINE_GLOBAL_LR = 1.0


def _config(problem: ProblemConfig) -> RunConfig:
    hyper = MimHyper(eta_l=0.05, k_local=3, s_participate=3)
    return RunConfig(problem=problem, algorithm="fedmim", hyper=hyper, rounds=6, master_seed=3,
                     metric_every=2)


def _replay(config: RunConfig):
    """The final state of the simulator's round loop, so the final ring buffer is visible."""
    problem = build_problem(config.problem, config.master_seed)
    *_, (state, _) = replay(ROUND_FUNCTIONS[config.algorithm], problem, config.hyper, config.rounds,
                            config.master_seed)
    return state


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(PINS))
def test_training_trajectory_is_pinned(kind):
    problem_cfg, x_digest, delta_digest = PINS[kind]
    config = _config(problem_cfg)
    state = _replay(config)
    record = run_training(config)
    assert np.array_equal(record.final_x, state.x)
    assert _sha(state.x.tobytes()) == x_digest
    assert _sha(b"".join(d.tobytes() for d in state.delta_history)) == delta_digest


@pytest.mark.parametrize("kind", sorted(METRICS_PINS))
def test_metrics_csv_is_pinned(kind):
    record = run_training(_config(PINS[kind][0]))
    assert _sha(metrics_csv_bytes(record.rows)) == METRICS_PINS[kind]


@pytest.mark.parametrize("algorithm", sorted(BASELINE_PINS))
def test_baseline_trajectory_is_pinned(algorithm):
    x_digest, delta_digest = BASELINE_PINS[algorithm]
    base = _config(PINS["quadratic"][0])
    config = replace(base, algorithm=algorithm, hyper=replace(base.hyper, global_lr=BASELINE_GLOBAL_LR))
    state = _replay(config)
    record = run_training(config)
    assert np.array_equal(record.final_x, state.x)
    assert _sha(state.x.tobytes()) == x_digest
    assert _sha(b"".join(d.tobytes() for d in state.delta_history)) == delta_digest
