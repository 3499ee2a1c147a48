"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they pass.  Expensive scenario parameters (horizons, noise levels, client
counts) were pinned after measurement; every run here is deterministic.
"""

import dataclasses
import json

import numpy as np

from client_reference import clients_of, replay
from fedsim.algorithms import (
    MimHyper,
    eta_l_bound,
    fedavg_round,
    fedcm_round,
    mim_round,
)
from fedsim.analysis import finite_difference_check
from fedsim.cli import main
from fedsim.objectives import ClientObjective, global_loss
from fedsim.simulator import (
    ProblemConfig,
    RunConfig,
    build_problem,
    run_training,
)
from fedsim.vectors import l2_norm_sq


def verdict(num, name, ok):
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def lockstep_trajectories(problem, hyper_a, round_a, hyper_b, round_b, rounds, seed):
    """Run two round rules on the same problem/seeds; return max coordinate gap."""
    pairs = zip(replay(round_a, problem, hyper_a, rounds, seed), replay(round_b, problem, hyper_b, rounds, seed))
    return max(float(np.abs(a.x - b.x).max()) for (a, _), (b, _) in pairs)


def test_criterion_01_fedavg_degeneracy():
    problem = build_problem(ProblemConfig(kind="logreg", n_clients=10, dim=5,
                                          concentration=0.3, samples_per_client=50,
                                          batch_size=20), 42)
    hyper = MimHyper(alpha=(0.0, 0.0), beta=(0.0, 0.0), eta_l=0.1, k_local=10,
                     s_participate=5)
    worst = lockstep_trajectories(problem, hyper, mim_round, hyper, fedavg_round,
                                  rounds=200, seed=42)
    verdict(1, "zero-momentum rule equals plain averaging", worst <= 1e-15)


def test_criterion_02_fedcm_degeneracy():
    problem = build_problem(ProblemConfig(kind="quadratic", n_clients=6, dim=4,
                                          heterogeneity=1.0, sigma_l=0.1), 42)
    hyper = MimHyper(alpha=(0.1,), beta=(0.0,), eta_l=0.05, k_local=5, s_participate=3, fedcm_alpha=0.1)
    worst = lockstep_trajectories(problem, hyper, mim_round, hyper, fedcm_round,
                                  rounds=50, seed=42)
    verdict(2, "single-step momentum equals client-momentum rule", worst <= 1e-12)


def test_criterion_03_identity_residuals(tmp_path):
    cfg = tmp_path / "verify.ini"
    cfg.write_text("[problem]\nkind = quadratic\nn_clients = 8\ndim = 6\n"
                   "heterogeneity = 1.0\nsigma_l = 0.1\n"
                   "[algorithm]\nname = fedmim\nalpha = 0.6,0.3\nbeta = 0.9,0.1\n"
                   "eta_l = 0.02\nk_local = 10\ns_participate = 8\n"
                   "[run]\nrounds = 500\nseed = 42\n")
    out = tmp_path / "out"
    code = main(["verify", "-c", str(cfg), "--out", str(out)])
    payload = json.loads((out / "run.json").read_text())
    res = payload["verification"]
    verdict(3, "increment/shifted-iterate identities hold to 1e-10",
            code == 0
            and res["max_residual_delta"] <= 1e-10
            and res["max_residual_u"] <= 1e-10)


def test_criterion_04_gradient_oracles():
    ok = True
    logreg = build_problem(ProblemConfig(kind="logreg", n_clients=4, dim=5,
                                         samples_per_client=40), 11)
    gen = np.random.default_rng(0)
    population = logreg
    for cid, client in enumerate(clients_of(logreg)):
        w = 0.5 * gen.standard_normal(5)
        start, stop = population.spans[cid]
        n = stop - start
        size = next(b for b in range(min(10, n), 0, -1) if n % b == 0)
        # the training minibatch gradients over a disjoint cover average to the reference full gradient
        batches = [np.arange(i, i + size) for i in range(start, stop, size)]
        avg = np.mean([population._rows_gradient(w[None], b[None])[0] for b in batches], axis=0)
        ok &= bool(np.abs(avg - client.full_gradient(w)).max() <= 1e-12)
        ok &= finite_difference_check(ClientObjective(population, cid), w, 1e-6) <= 1e-5
    mlp = build_problem(ProblemConfig(kind="mlp", n_clients=3, dim=4, mlp_hidden=6,
                                      samples_per_client=20), 12)
    for cid in range(mlp.num_clients):
        x = 0.2 * gen.standard_normal(mlp.dim)
        ok &= finite_difference_check(ClientObjective(mlp, cid), x, 1e-5) <= 1e-4
    verdict(4, "gradient oracles unbiased and finite-difference sound", ok)


def fit_geometric_rate(series) -> float:
    """Per-round contraction factor from a log-linear least-squares fit.

    ``series`` is (round, value) pairs with positive values; the caller is
    expected to clip at some floor (e.g. 1e-16) and drop floored points.  The
    first 10% of the points are excluded as transient before the increment
    buffer fills.
    """
    if len(series) < 10:
        raise ValueError("need at least 10 points to fit a rate")
    rounds = np.array([t for t, _ in series], dtype=np.float64)
    values = np.array([v for _, v in series], dtype=np.float64)
    if np.any(values <= 0):
        raise ValueError("rate fit requires positive values")
    skip = len(series) // 10
    slope = np.polyfit(rounds[skip:], np.log(values[skip:]), 1)[0]
    return float(np.exp(slope))


def test_criterion_05_pl_convergence():
    pc = ProblemConfig(kind="quadratic", n_clients=4, dim=6, heterogeneity=1.0, sigma_l=0.0)
    problem = build_problem(pc, 42)
    k_local = 5
    a_scale = MimHyper().A  # default alpha weights
    eta = 0.9 * eta_l_bound(problem.smoothness_L, k_local, a_scale)
    cfg = RunConfig(problem=pc, algorithm="fedmim",
                    hyper=MimHyper(eta_l=eta, k_local=k_local, s_participate=4),
                    rounds=2000, master_seed=42)
    record = run_training(cfg, problem=problem)
    f_star = global_loss(problem, problem.known_optimum)
    gaps = [(row.round, row.loss - f_star) for row in record.rows]
    rate = fit_geometric_rate([(t, g) for t, g in gaps if g > 1e-16])
    reached = min(g for _, g in gaps) <= 1e-8
    verdict(5, "PL optimality gap contracts geometrically", rate <= 0.999 and reached)


def test_criterion_06_linear_speedup_trend():
    def rounds_to_threshold(s_participate, seed, threshold=1e-4, rounds=2800):
        """The first round whose grad_norm_sq (a metric row's, by TestRoundApiReplay) is at or below ``threshold``."""
        problem = build_problem(ProblemConfig(kind="quadratic", n_clients=20, dim=8,
                                              heterogeneity=0.1, sigma_l=0.1), seed)
        hyper = MimHyper(eta_l=0.05, k_local=5, s_participate=s_participate)
        steps = enumerate(replay(mim_round, problem, hyper, rounds, seed), start=1)
        return next((t for t, (state, _) in steps
                     if l2_norm_sq(problem.evaluate(state.x[None])[1][0]) <= threshold), rounds + 1)

    medians = []
    for s in (2, 5, 10, 20):
        medians.append(float(np.median([rounds_to_threshold(s, seed) for seed in range(5)])))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    print(f"    rounds-to-1e-4 medians over S=(2,5,10,20): {medians}")
    verdict(6, "rounds to target gradient norm shrink with participation",
            inversions <= 1)


def _consistency_at_round_200(problem_cfg, hyper, seed):
    problem = build_problem(problem_cfg, seed)
    base = RunConfig(problem=problem_cfg, algorithm="fedmim", hyper=hyper,
                     rounds=200, master_seed=seed, metric_every=200)
    mim = run_training(base, problem=problem).rows[-1].consistency
    avg = run_training(dataclasses.replace(base, algorithm="fedavg"),
                       problem=problem).rows[-1].consistency
    return mim, avg


def test_criterion_07_consistency_improvement():
    quad_cfg = ProblemConfig(kind="quadratic", n_clients=20, dim=8,
                             heterogeneity=2.0, sigma_l=0.1)
    quad_hyper = MimHyper(eta_l=0.1, k_local=10, s_participate=5)
    quad = [_consistency_at_round_200(quad_cfg, quad_hyper, seed) for seed in range(10)]

    logreg_cfg = ProblemConfig(kind="logreg", n_clients=5, dim=5, concentration=0.1,
                               samples_per_client=50, batch_size=20)
    logreg_hyper = MimHyper(eta_l=0.1, k_local=10, s_participate=3)
    logreg = [_consistency_at_round_200(logreg_cfg, logreg_hyper, seed) for seed in range(10)]

    ok = True
    for name, pairs in (("quadratic", quad), ("dirichlet logreg", logreg)):
        med_mim = float(np.median([m for m, _ in pairs]))
        med_avg = float(np.median([a for _, a in pairs]))
        print(f"    {name}: median consistency momentum={med_mim:.3e} averaging={med_avg:.3e}")
        ok &= med_mim < med_avg
    verdict(7, "momentum rule keeps local models closer to their aggregate", ok)


def test_criterion_08_heterogeneity_robustness():
    wins = 0
    for seed in range(10):
        pc = ProblemConfig(kind="logreg", n_clients=5, dim=5, concentration=0.1,
                           samples_per_client=50, batch_size=10)
        problem = build_problem(pc, seed)
        base = RunConfig(problem=pc, algorithm="fedmim",
                         hyper=MimHyper(eta_l=0.01, k_local=10, s_participate=3),
                         rounds=300, master_seed=seed, metric_every=300)
        loss_mim = run_training(base, problem=problem).final_loss
        loss_avg = run_training(dataclasses.replace(base, algorithm="fedavg"),
                                problem=problem).final_loss
        wins += loss_mim <= loss_avg
    print(f"    momentum final loss <= averaging in {wins}/10 seeds")
    verdict(8, "lower final loss under label skew in >= 8/10 seeds", wins >= 8)


def test_criterion_09_rate_bound_arithmetic():
    gen = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        smooth = float(gen.uniform(0.1, 10.0))
        k_local = int(gen.integers(1, 64))
        a_scale = float(gen.uniform(0.01, 1.0))
        bound = eta_l_bound(smooth, k_local, a_scale)
        # independently coded expression
        oracle = min(1 / (4 * smooth * k_local * a_scale**0.5),
                     3 / (16 * k_local * smooth))
        ok &= abs(bound - oracle) <= np.spacing(max(bound, oracle))
    verdict(9, "learning-rate bound matches independent arithmetic to 1 ulp", ok)


def test_criterion_10_determinism(tmp_path):
    logreg_ini = ("[problem]\nkind = logreg\nn_clients = 10\ndim = 5\n"
                  "concentration = 0.3\nsamples_per_client = 50\nbatch_size = 20\n"
                  "[algorithm]\nname = fedmim\neta_l = 0.05\nk_local = 10\n"
                  "s_participate = 5\n[run]\nrounds = 30\nseed = 42\nverify = true\n")
    cfg = tmp_path / "det.ini"
    cfg.write_text(logreg_ini)
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "-c", str(cfg), "--out", str(out)]) == 0
        outputs[tag] = (out / "metrics.csv").read_bytes()
    verdict(10, "byte-identical metrics across reruns", outputs["a"] == outputs["b"])
