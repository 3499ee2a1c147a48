"""Byte pins of the suite: the sha256 of every output of 30 small runs, at 1 and at 2 BLAS threads.

``CASES`` holds the runs:

- ``sampled-<kind>`` and ``sampled-quadratic-<rule>``: S = 3 of a small
  problem per kind, recorded from the per-client local loops and metric
  oracles that the batched kernel and the population oracles replaced.
  Measurement never feeds back into training, so these bytes hold through
  any change of data layout.  The rules' digests were recorded at
  ``global_lr = 1.0``, then the default; only fedadam reads it.
- ``full-<rule>`` and ``full-fedmim-verify``: S = N, the path with no
  gather, recorded from the per-client row loops of the server mean, the
  local-consistency metric and the verifier's gradient sum, and from
  per-client noise arrays.
- ``<config>[-<rule>]-<seed>``: every ``configs/*.ini`` at 40 rounds and
  ``metric_every = 1`` under seeds 1 and 2, ``compare_algorithms.ini``
  under each of the five rules.

``outputs`` digests every part that a run can pin; ``PINS`` holds the
pinned ones.  Each perfbench workload's INI leg is only compared across the
two thread counts: its bytes have not been checked across CPUs.

To re-record the digests after a change that is meant to move bytes, run
``PYTHONPATH=src python tests/test_pins.py`` and paste its output over
``PINS``.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from client_reference import replay
from fedsim.algorithms import ROUND_FUNCTIONS, MimHyper
from fedsim.cli import VERIFY_TOLERANCE, metrics_csv_bytes, parse_config
from fedsim.simulator import ProblemConfig, RunConfig, build_problem, run_training

TESTS = Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "perfbench" / "workloads"
RULES = ("fedmim", "fedavg", "fedcm", "scaffold", "fedadam")

SAMPLED = RunConfig(hyper=MimHyper(eta_l=0.05, k_local=3, s_participate=3), rounds=6, master_seed=3,
                    metric_every=2)
KINDS = {
    "logreg": ProblemConfig(kind="logreg", n_clients=8, dim=5, concentration=0.5, samples_per_client=40,
                            batch_size=8),
    "mlp": ProblemConfig(kind="mlp", n_clients=8, dim=4, mlp_hidden=5, concentration=0.5, samples_per_client=30,
                         batch_size=6),
    "quadratic": ProblemConfig(kind="quadratic", n_clients=6, dim=4, heterogeneity=1.0, sigma_l=0.1),
}
FULL = RunConfig(problem=ProblemConfig(kind="quadratic", n_clients=5, dim=6, heterogeneity=1.0, sigma_l=0.1),
                 hyper=MimHyper(eta_l=0.05, k_local=3, s_participate=5), rounds=6, master_seed=4, metric_every=1)
# case prefix -> (config file, overrides)
CONFIG_LEGS = {f"compare_algorithms-{rule}": ("compare_algorithms", [f"name={rule}"]) for rule in RULES} | {
    name: (name, []) for name in ("logreg_dirichlet", "mlp_small", "participation_study", "quadratic_verify")}


def ini_run(path: Path, overrides: list) -> RunConfig:
    return parse_config(str(path), ["metric_every=1"] + overrides)


CASES = {
    **{f"sampled-{kind}": replace(SAMPLED, problem=problem) for kind, problem in KINDS.items()},
    **{f"sampled-quadratic-{rule}": replace(SAMPLED, problem=KINDS["quadratic"], algorithm=rule,
                                            hyper=replace(SAMPLED.hyper, global_lr=1.0))
       for rule in ("fedavg", "scaffold", "fedadam")},
    **{f"full-{rule}": replace(FULL, algorithm=rule) for rule in RULES},
    "full-fedmim-verify": replace(FULL, verify=True),
    **{f"{leg}-{seed}": ini_run(TESTS.parent / "configs" / f"{name}.ini", ["rounds=40", f"seed={seed}"] + overrides)
       for leg, (name, overrides) in CONFIG_LEGS.items() for seed in (1, 2)},
}

# (case, part) -> sha256; the parts are those of ``outputs``
PINS = {
    ("sampled-logreg", "x"): "0f8aca6b32864948a793767ff21cbf094a4d4b7b45cc5c10c4dbdfbb88866a58",
    ("sampled-logreg", "delta"): "793eaacf338afecad133903f6a8ad9da58516f542843952f0e03bc814e5d094b",
    ("sampled-logreg", "metrics"): "46db513b8535543fdbd296e1c1e72a4bed7af00bbbec01acd56f7017a1311b4f",
    ("sampled-mlp", "x"): "50767464c2f8474c6f8d346639d677e1dc9ba1a5db8958723963c5d401d3df11",
    ("sampled-mlp", "delta"): "debfceeaef6281cf5ada875a0a48aa73dfe2187a57b42e781b52f6afc9b48237",
    ("sampled-mlp", "metrics"): "b17ce370f71e4345dc315eda5ef94dd995781cf7b0699bbdb992fed426dcc6e9",
    ("sampled-quadratic", "x"): "f5f6c72347dd8a912b303f6f536830ac23e4f42854ef05c30eb3a6a9390c1a8f",
    ("sampled-quadratic", "delta"): "b1b3d046a91356839a7f8cdc9e137df570d1f19fb01ada9a740698a1996db6d3",
    ("sampled-quadratic-fedavg", "x"): "0bfa81e9327e742376ac12dcc1353fa9b625415301943323fb54ab262fd32c6b",
    ("sampled-quadratic-fedavg", "delta"): "15ed8e51406e3dfb8f4bbdaeb43bff634685c7be102df5ca0fd6bc4960e8b48b",
    ("sampled-quadratic-scaffold", "x"): "323e7dc27eca52f2ea29bd8a93d742ddadfb2f5a3287a6e696a64ff8bff58cc2",
    ("sampled-quadratic-scaffold", "delta"): "113a6b14339706a9f3ac8729ad61a0c8b31b967095643c4482e40258202c0f0a",
    ("sampled-quadratic-fedadam", "x"): "70e4b6d94462b5a4afb893575c93019490633867f397d1b0893dcee5d9484c32",
    ("sampled-quadratic-fedadam", "delta"): "ca8c2dd1fd85f35ca51dfc8539242bb1c36698bbe3b1b898194ff8744783f627",
    ("full-fedmim", "x"): "146e19c032f3652374e075f74f2a91151a566530002424d72c7261a128bf2115",
    ("full-fedmim", "delta"): "f117e1791b7b9c291fc889cfd1dad5a8ec360451306564594c6567b6fb086652",
    ("full-fedavg", "x"): "2d20b3ab3b9d46f782959856a25d3963f145b83410f8b738341384229ce7ca93",
    ("full-fedavg", "delta"): "a67edf5e44181e39be4ffb1ec9ebd35fe75d375ef4776b0147f67d1d24f90cec",
    ("full-fedcm", "x"): "0aa21fcefe57443053105b8f869976ac641be281ec6500e0b6ec5e68047b83c3",
    ("full-fedcm", "delta"): "19d90f7c5eda742cf0a2a7915e158e202d5ff5fc42a84b08f738b595fee72dc2",
    ("full-scaffold", "x"): "7d020ddf9944782d4e4fd847daf77b5cb43189f7d5a8ba781b0ee0a496e4f87b",
    ("full-scaffold", "delta"): "9504b6010a831ac5eabeebb1554a0cd1e40aefaa081ccfd577b81f0e31953c9d",
    ("full-fedadam", "x"): "1074495a6e8ea036ca284e84aa1212bfb174ca82f4605a070f38b1f1f0ea0313",
    ("full-fedadam", "delta"): "2579d8ee56497a533d183ed5003beb576bab624843c6c3a7c0580907078b9421",
    ("full-fedmim-verify", "x"): "146e19c032f3652374e075f74f2a91151a566530002424d72c7261a128bf2115",
    ("full-fedmim-verify", "grad_sum"): "4e288e04320c0a764c87f9b8692d919cd7804284a3ca1ce0c96478451993a1f0",
    ("full-fedmim-verify", "rows"): "4ed4b3e11481501045f506f8fb66a9bb4d886a44fb29ac1a18eef62e2b57bed7",
    ("compare_algorithms-fedmim-1", "metrics"): "67918b90a57c863e30e6c198209b1ca811646f5d06511b99227522440e20effe",
    ("compare_algorithms-fedmim-1", "x"): "de232d6a1264c5a31b704667ad963b84be68ca026a04232d632f00c61165dc77",
    ("compare_algorithms-fedmim-2", "metrics"): "21d04a6358af852976abc8e7bb7d226c118144416bc1c19a2a31f3dc327ef3d5",
    ("compare_algorithms-fedmim-2", "x"): "6ff4f455c3387cc7cbc605a638d02cc3b4c1422ff1a67dfcd518521232de0a83",
    ("compare_algorithms-fedavg-1", "metrics"): "8c33e0898e619247bb51788d7dc952c0693f0d96bb73b4f2cee82b264311a32d",
    ("compare_algorithms-fedavg-1", "x"): "a027b7ecf40cedcc53e0a63c9692316c44d3f19a2dad890e6745d6198c10fc0f",
    ("compare_algorithms-fedavg-2", "metrics"): "1045b2f977ca8f3259dcdad5374f9dfee279b2175be414342612197b8eb082e4",
    ("compare_algorithms-fedavg-2", "x"): "8c836186a6e191f22b937b807889b9b226226edc4d2cfa8483fc6275f5dd5cba",
    ("compare_algorithms-fedcm-1", "metrics"): "a854f514992de5665c362289ca161748023d0e74a439e1fce2c6e4f57d5082d4",
    ("compare_algorithms-fedcm-1", "x"): "c90882575f7e684f08187f27c4e7bb0874edb7f58095362e1090f76f7b319b81",
    ("compare_algorithms-fedcm-2", "metrics"): "e1367b955329c1236d16605f50cc35873c4e18d5f48d7680b12c4bee07350911",
    ("compare_algorithms-fedcm-2", "x"): "e7c6e96c706b09e719b1f22d87110fb2a6b4f100064f2c604c3943857ba8bb45",
    ("compare_algorithms-scaffold-1", "metrics"): "947c59c66dd131df2ddf3bc977f5fcce053e93d129300ad28a6512fc15d5bd10",
    ("compare_algorithms-scaffold-1", "x"): "da8dfc424aeb89fb50977b6283e230339a75d7d9da153e519266e2959044b95e",
    ("compare_algorithms-scaffold-2", "metrics"): "5b77c3f5a1b397cdbdcc68643e0ecf438c2b50ebe309f1f676a28e9263483891",
    ("compare_algorithms-scaffold-2", "x"): "b245027b74449217a7614d6f3617b1f100dc2b3eb67f61d3b823235f96e2a490",
    ("compare_algorithms-fedadam-1", "metrics"): "5fd18757d41356b0b4f7ca2716ebb3148bbf139996bc48f3e113520fd4a851de",
    ("compare_algorithms-fedadam-1", "x"): "2ff20f7a204825f5225aee5b7ab78b1e17c8ea64c1e84235c20bc9b7c12027b6",
    ("compare_algorithms-fedadam-2", "metrics"): "cad3279ea7284222b607cc93a134ad06dbb9eebd11937ec56625c30427aab939",
    ("compare_algorithms-fedadam-2", "x"): "d7642cf72e85052d97fb423b699aa097d6aded6bdf852579af574b15cbdd0f10",
    ("logreg_dirichlet-1", "metrics"): "695cf1f528c01ae4a5d674ee4618e4811060c92c60cb34197ed2cfc7a7afe8d5",
    ("logreg_dirichlet-1", "x"): "30af242498ade2b970ec5f95cb4b50459df454b87a2b8d3f3b295733edafd139",
    ("logreg_dirichlet-2", "metrics"): "19bd7da338106f7b6bcaa23132e0c4535f604339af96af1fbffd9dc48ef02df1",
    ("logreg_dirichlet-2", "x"): "f883ad57173a27d7b55f35d68fdb598ff876307ccf8ce403c5a839e627bf53e8",
    ("mlp_small-1", "metrics"): "46cf83be24f25a727f40a6af58f9241f05307e5025ff21d065fce6ec0ec342db",
    ("mlp_small-1", "x"): "17ccf61421584df510a28a8191c21dba56102577171ef65d770700e52ee190b4",
    ("mlp_small-2", "metrics"): "d366503c82d2bf8834973b4b770594a138fc12c516c4dfd3381326e3323467ce",
    ("mlp_small-2", "x"): "a86f4c87f4a0225ff55ae56f259f04a2138239c292a8fcf8400385b20dff6631",
    ("participation_study-1", "metrics"): "7f8b963ea555993e4c71e26e1868360aec1c58204156c53c76017ef762725a74",
    ("participation_study-1", "x"): "47f9e4d7d5d40d27ad6b0b0a52a4c5fac2b18ae84d61a8bd70576a44febcde58",
    ("participation_study-2", "metrics"): "a7cc5b24d644aa6c1d2261d4ae9472542fc8110be260a1fa460e01562a41e180",
    ("participation_study-2", "x"): "aa18900901117baa70d6e8742710d57e0b96c206a7b80c036e7faec002dcf8c1",
    ("quadratic_verify-1", "metrics"): "ba4d89bc2be82035de61457c33d812099664a23cd3373bab7dba56fc0eadf2cc",
    ("quadratic_verify-1", "x"): "26ce8336dabaaa267e8c3dd106d534a9e6e4f9764f6bb855822808688c6ce505",
    ("quadratic_verify-2", "metrics"): "5924a3c598052dc139ccfccb21479b1df3357d0b2a3e9d6cb52443b745ab8ce7",
    ("quadratic_verify-2", "x"): "d02295443535e514d2755e9f792a8a2990652ec8e4f5904f7a7d16f3c1d61300",
}


def outputs(config: RunConfig) -> dict:
    """The sha256 of each part of the run that ``config`` sets, from ``run_training`` and a replay of it."""
    problem = build_problem(config.problem, config.master_seed)
    record = run_training(config, problem)
    grad_sums = []
    for state, art in replay(ROUND_FUNCTIONS[config.algorithm], problem, config.hyper, config.rounds,
                             config.master_seed):
        grad_sums.append(art.grad_sum.tobytes())
    assert record.status == "completed"
    assert record.final_x.tobytes() == state.x.tobytes()
    parts = {"metrics": metrics_csv_bytes(record.rows), "x": record.final_x.tobytes(),
             "delta": b"".join(d.tobytes() for d in state.delta_history), "grad_sum": b"".join(grad_sums)}
    if config.verify:
        assert max(record.max_residual_delta, record.max_residual_u) <= VERIFY_TOLERANCE
        parts["rows"] = np.array([(r.consistency, r.residual_delta, r.residual_u) for r in record.rows]).tobytes()
    return {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


def pinned_digests() -> list:
    """The digests of the parts in ``PINS``, computed afresh, in its order."""
    digests = {case: outputs(config) for case, config in CASES.items()}
    return [digests[case][part] for case, part in PINS]


def workload_outputs(name: str) -> list:
    """The outputs of a workload's INI leg, 20 rounds at ``metric_every = 1``, under seeds 1 and 2."""
    return [outputs(ini_run(WORKLOADS / f"{name}.ini", ["rounds=20", f"seed={seed}"])) for seed in (1, 2)]


def in_child(expr: str, threads: str):
    """The value of ``expr``, with ``t`` this module, from a child process at ``threads`` BLAS threads."""
    path = [str(TESTS.parent / "src"), str(TESTS)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
    code = f"import json, test_pins as t; print(json.dumps({expr}))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cases_are_the_pinned_runs():
    assert set(CASES) == {case for case, _ in PINS}
    assert all(config.hyper.s_participate == config.problem.n_clients
               for case, config in CASES.items() if case.startswith("full-"))


@pytest.mark.parametrize("case", CASES)
def test_pinned(case):
    pinned = {part: digest for (name, part), digest in PINS.items() if name == case}
    got = outputs(CASES[case])
    assert {part: got[part] for part in pinned} == pinned


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pins_at_blas_threads(threads):
    assert dict(zip(PINS, in_child("t.pinned_digests()", threads))) == PINS


@pytest.mark.parametrize("name", [path.stem for path in sorted(WORKLOADS.glob("*.ini"))])
def test_workload_bytes_at_blas_threads(name):
    expr = f"t.workload_outputs({name!r})"
    assert in_child(expr, "1") == in_child(expr, "2")


if __name__ == "__main__":
    for (case, part), digest in zip(PINS, pinned_digests()):
        print(f'    ("{case}", "{part}"): "{digest}",')
