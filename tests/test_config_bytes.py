"""Byte pins for every shipped config: the sha256 of metrics.csv and of the final x.

Each ``configs/*.ini`` runs 40 rounds at ``metric_every = 1`` under seeds 1
and 2, and ``compare_algorithms.ini`` under each of the five round rules.  A
change to the training path that moves any output byte fails here.  The
perfbench workloads are left out: the d = 100 Hessians of ``quad-baselines``
depend on the BLAS thread count, so their digests would not hold across
machines.

To re-record the digests after a change that is meant to move bytes, run
``PYTHONPATH=src python tests/test_config_bytes.py`` and paste its output
over ``DIGESTS``.
"""

import hashlib
from pathlib import Path

import pytest

from fedsim.cli import metrics_csv_bytes, parse_config
from fedsim.simulator import run_training

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
RULES = ("fedmim", "fedavg", "fedcm", "scaffold", "fedadam")
LEGS = [("compare_algorithms", rule) for rule in RULES] + [
    (name, None) for name in ("logreg_dirichlet", "mlp_small", "participation_study", "quadratic_verify")]
CASES = [(name, rule, seed) for name, rule in LEGS for seed in (1, 2)]

# (config, rule or None for the file's own, seed) -> (sha256 of metrics.csv, sha256 of final_x)
DIGESTS = {
    ("compare_algorithms", "fedmim", 1): (
        "67918b90a57c863e30e6c198209b1ca811646f5d06511b99227522440e20effe",
        "de232d6a1264c5a31b704667ad963b84be68ca026a04232d632f00c61165dc77"),
    ("compare_algorithms", "fedmim", 2): (
        "21d04a6358af852976abc8e7bb7d226c118144416bc1c19a2a31f3dc327ef3d5",
        "6ff4f455c3387cc7cbc605a638d02cc3b4c1422ff1a67dfcd518521232de0a83"),
    ("compare_algorithms", "fedavg", 1): (
        "8c33e0898e619247bb51788d7dc952c0693f0d96bb73b4f2cee82b264311a32d",
        "a027b7ecf40cedcc53e0a63c9692316c44d3f19a2dad890e6745d6198c10fc0f"),
    ("compare_algorithms", "fedavg", 2): (
        "1045b2f977ca8f3259dcdad5374f9dfee279b2175be414342612197b8eb082e4",
        "8c836186a6e191f22b937b807889b9b226226edc4d2cfa8483fc6275f5dd5cba"),
    ("compare_algorithms", "fedcm", 1): (
        "a854f514992de5665c362289ca161748023d0e74a439e1fce2c6e4f57d5082d4",
        "c90882575f7e684f08187f27c4e7bb0874edb7f58095362e1090f76f7b319b81"),
    ("compare_algorithms", "fedcm", 2): (
        "e1367b955329c1236d16605f50cc35873c4e18d5f48d7680b12c4bee07350911",
        "e7c6e96c706b09e719b1f22d87110fb2a6b4f100064f2c604c3943857ba8bb45"),
    ("compare_algorithms", "scaffold", 1): (
        "947c59c66dd131df2ddf3bc977f5fcce053e93d129300ad28a6512fc15d5bd10",
        "da8dfc424aeb89fb50977b6283e230339a75d7d9da153e519266e2959044b95e"),
    ("compare_algorithms", "scaffold", 2): (
        "5b77c3f5a1b397cdbdcc68643e0ecf438c2b50ebe309f1f676a28e9263483891",
        "b245027b74449217a7614d6f3617b1f100dc2b3eb67f61d3b823235f96e2a490"),
    ("compare_algorithms", "fedadam", 1): (
        "5fd18757d41356b0b4f7ca2716ebb3148bbf139996bc48f3e113520fd4a851de",
        "2ff20f7a204825f5225aee5b7ab78b1e17c8ea64c1e84235c20bc9b7c12027b6"),
    ("compare_algorithms", "fedadam", 2): (
        "cad3279ea7284222b607cc93a134ad06dbb9eebd11937ec56625c30427aab939",
        "d7642cf72e85052d97fb423b699aa097d6aded6bdf852579af574b15cbdd0f10"),
    ("logreg_dirichlet", None, 1): (
        "695cf1f528c01ae4a5d674ee4618e4811060c92c60cb34197ed2cfc7a7afe8d5",
        "30af242498ade2b970ec5f95cb4b50459df454b87a2b8d3f3b295733edafd139"),
    ("logreg_dirichlet", None, 2): (
        "19bd7da338106f7b6bcaa23132e0c4535f604339af96af1fbffd9dc48ef02df1",
        "f883ad57173a27d7b55f35d68fdb598ff876307ccf8ce403c5a839e627bf53e8"),
    ("mlp_small", None, 1): (
        "46cf83be24f25a727f40a6af58f9241f05307e5025ff21d065fce6ec0ec342db",
        "17ccf61421584df510a28a8191c21dba56102577171ef65d770700e52ee190b4"),
    ("mlp_small", None, 2): (
        "d366503c82d2bf8834973b4b770594a138fc12c516c4dfd3381326e3323467ce",
        "a86f4c87f4a0225ff55ae56f259f04a2138239c292a8fcf8400385b20dff6631"),
    ("participation_study", None, 1): (
        "7f8b963ea555993e4c71e26e1868360aec1c58204156c53c76017ef762725a74",
        "47f9e4d7d5d40d27ad6b0b0a52a4c5fac2b18ae84d61a8bd70576a44febcde58"),
    ("participation_study", None, 2): (
        "a7cc5b24d644aa6c1d2261d4ae9472542fc8110be260a1fa460e01562a41e180",
        "aa18900901117baa70d6e8742710d57e0b96c206a7b80c036e7faec002dcf8c1"),
    ("quadratic_verify", None, 1): (
        "ba4d89bc2be82035de61457c33d812099664a23cd3373bab7dba56fc0eadf2cc",
        "26ce8336dabaaa267e8c3dd106d534a9e6e4f9764f6bb855822808688c6ce505"),
    ("quadratic_verify", None, 2): (
        "5924a3c598052dc139ccfccb21479b1df3357d0b2a3e9d6cb52443b745ab8ce7",
        "d02295443535e514d2755e9f792a8a2990652ec8e4f5904f7a7d16f3c1d61300"),
}


def config_digests(path, overrides) -> tuple:
    """The sha256 of metrics.csv and of the final x of the run that the INI file at ``path`` and ``overrides`` set."""
    record = run_training(parse_config(str(path), overrides))
    assert record.status == "completed"
    return (hashlib.sha256(metrics_csv_bytes(record.rows)).hexdigest(),
            hashlib.sha256(record.final_x.tobytes()).hexdigest())


def run_digests(name, rule, seed):
    overrides = ["rounds=40", "metric_every=1", f"seed={seed}"] + ([f"name={rule}"] if rule else [])
    return config_digests(CONFIG_DIR / f"{name}.ini", overrides)


@pytest.mark.parametrize("name, rule, seed", CASES)
def test_config_bytes_pinned(name, rule, seed):
    assert run_digests(name, rule, seed) == DIGESTS[name, rule, seed]


if __name__ == "__main__":
    for case in CASES:
        metrics, final_x = run_digests(*case)
        print(f'    {case!r}: (\n        "{metrics}",\n        "{final_x}"),'.replace("'", '"'))
