import inspect
import math
import pickle
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from client_reference import replay
from fedsim import algorithms, simulator, vectors
from fedsim.algorithms import ROUND_FUNCTIONS, MimHyper, eta_l_bound
from fedsim.cli import metrics_csv_bytes, parse_config
from fedsim.objectives import QuadraticPopulation
from fedsim.simulator import (
    BUILDERS,
    PROBLEM_KINDS,
    ConfigError,
    ProblemConfig,
    RunConfig,
    apply_axis,
    build_problem,
    run_sweep,
    run_training,
    sample_clients,
    sweep_configs,
    with_settings,
)
from fedsim.vectors import PURPOSE_DATA, PURPOSE_SAMPLING, derive_rng, l2_norm_sq

ROOT = Path(__file__).resolve().parents[1]


def quad_config(**kw):
    defaults = dict(
        problem=ProblemConfig(kind="quadratic", n_clients=6, dim=4, heterogeneity=1.0, sigma_l=0.1),
        algorithm="fedmim",
        hyper=MimHyper(s_participate=3, k_local=4, eta_l=0.05),
        rounds=20,
        master_seed=13,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def participation_config(rounds, algorithm, s_participate, eta_l, seed):
    """The participation-study quadratic (20 clients, K = 5) at a short length."""
    overrides = {"rounds": rounds, "name": algorithm, "s_participate": s_participate, "eta_l": eta_l,
                 "seed": seed}
    return parse_config(str(ROOT / "configs" / "participation_study.ini"),
                        [f"{key}={value}" for key, value in overrides.items()])


def fisher_yates_reference(n_clients, s_participate, gen):
    """The partial Fisher-Yates loop with one scalar offset draw per swap."""
    ids = list(range(n_clients))
    for i in range(s_participate):
        j = i + int(gen.integers(n_clients - i))
        ids[i], ids[j] = ids[j], ids[i]
    return sorted(ids[:s_participate])


class TestSampleClients:
    @given(n_clients=st.integers(1, 10_000), data=st.data(), seed=st.integers(0, 2**40),
           round_index=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_fisher_yates(self, n_clients, data, seed, round_index):
        s_participate = data.draw(st.one_of(st.just(n_clients), st.integers(1, n_clients)))
        expected = fisher_yates_reference(n_clients, s_participate,
                                          derive_rng(seed, round_index, 0, PURPOSE_SAMPLING).generator)
        assert sample_clients(n_clients, s_participate, seed, round_index) == expected

    def test_full_set(self):
        assert sample_clients(5, 5, 0, 0) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = sample_clients(10, 3, 1, 7)
        b = sample_clients(10, 3, 1, 7)
        assert a == b and len(set(a)) == 3

    def test_single_draw_frequency(self):
        picks = [sample_clients(2, 1, 0, t)[0] for t in range(10000)]
        freq = np.mean(np.array(picks) == 0)
        assert 0.48 <= freq <= 0.52

    def test_over_sampling_rejected(self):
        with pytest.raises(ConfigError):
            sample_clients(3, 4, 0, 0)

    def test_participation_accounting(self):
        # selection counts within 5 sigma of T*S/N over T = 1000 rounds
        n, s, t_rounds = 10, 3, 1000
        counts = np.zeros(n)
        for t in range(t_rounds):
            for cid in sample_clients(n, s, 5, t):
                counts[cid] += 1
        expected = t_rounds * s / n
        sigma = np.sqrt(t_rounds * (s / n) * (1 - s / n))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)


@st.composite
def replay_cases(draw):
    kind = draw(st.sampled_from(["quadratic", "logreg", "mlp"]))
    n_clients = draw(st.integers(1, 6))
    j_depth = draw(st.integers(1, 3))
    weights = st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.6]), min_size=j_depth, max_size=j_depth)
    fields = dict(dim=3, sigma_l=0.3, samples_per_client=8, mlp_hidden=3, batch_size=draw(st.integers(0, 8)))
    read = BUILDERS[kind][1]
    return RunConfig(
        problem=ProblemConfig(kind=kind, n_clients=n_clients,
                              **{key: value for key, value in fields.items() if key in read}),
        algorithm=draw(st.sampled_from(sorted(ROUND_FUNCTIONS))),
        hyper=MimHyper(alpha=tuple(draw(weights.filter(lambda a: sum(a) < 1))), beta=tuple(draw(weights)),
                       eta_l=0.05, k_local=draw(st.integers(1, 4)), s_participate=draw(st.integers(1, n_clients))),
        rounds=draw(st.integers(1, 3)),
        master_seed=draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))),
    )


class TestRoundApiReplay:
    @given(config=replay_cases())
    @settings(max_examples=100, deadline=None)
    def test_simulator_equals_hand_replay(self, config):
        """run_training's final x and rows' grad_norm_sq, byte for byte, from the public sampler and round rules."""
        problem = build_problem(config.problem, config.master_seed)
        record = run_training(config, problem)
        assert record.status == "completed"
        states = [state for state, _ in replay(ROUND_FUNCTIONS[config.algorithm], problem, config.hyper,
                                               config.rounds, config.master_seed)]
        assert states[-1].x.tobytes() == record.final_x.tobytes()
        assert (np.array([row.grad_norm_sq for row in record.rows]).tobytes()
                == np.array([l2_norm_sq(problem.evaluate(state.x[None])[1][0]) for state in states]).tobytes())


class TestRunTraining:
    def test_single_round_single_row(self):
        record = run_training(quad_config(rounds=1))
        assert len(record.rows) == 1 and record.rows[0].round == 1

    def test_metric_cadence(self):
        record = run_training(quad_config(rounds=10, metric_every=3))
        assert [r.round for r in record.rows] == [3, 6, 9]

    def test_rows_strictly_increasing(self):
        record = run_training(quad_config(rounds=15))
        rounds = [r.round for r in record.rows]
        assert rounds == sorted(set(rounds))

    def test_seed_sensitivity(self):
        a = run_training(quad_config(master_seed=13))
        b = run_training(quad_config(master_seed=14))
        assert np.abs(a.final_x - b.final_x).max() > 1e-9

    def test_verification_does_not_change_trajectory(self):
        plain = run_training(quad_config(verify=False))
        checked = run_training(quad_config(verify=True))
        assert np.array_equal(plain.final_x, checked.final_x)
        assert checked.max_residual_delta <= 1e-12

    def test_verify_round_computes_u_and_gradient_sum_once(self, monkeypatch):
        # a verify round with a metric row computed u_{t+1} twice and added the gradient rows twice
        calls = {"compute_u": 0, "_total_grad_sum": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(simulator, "compute_u")
        counted(algorithms, "_total_grad_sum")
        record = run_training(quad_config(verify=True, metric_every=1, rounds=7))
        assert len(record.rows) == 7
        assert calls == {"compute_u": 2 * 7, "_total_grad_sum": 7}

    @pytest.mark.parametrize("problem, s_participate", [
        (ProblemConfig(kind="quadratic", n_clients=6, dim=4, sigma_l=0.1), 3),
        (ProblemConfig(kind="quadratic", n_clients=6, dim=4, sigma_l=0.1), 6),
        (ProblemConfig(kind="logreg", n_clients=5, dim=3, samples_per_client=8, batch_size=4), 2),
        (ProblemConfig(kind="mlp", n_clients=5, dim=3, mlp_hidden=3, samples_per_client=8, batch_size=4), 2),
    ], ids=["quadratic-partial", "quadratic-full", "logreg", "mlp"])
    def test_rounds_build_no_generator(self, monkeypatch, problem, s_participate):
        """Every round stream is a reset of the one shared Philox: a round builds no Philox and no Generator,
        and no SeedSequence but the shared pool of each round_keys call; full participation opens no
        sampling stream at all."""
        config = quad_config(problem=problem, hyper=MimHyper(s_participate=s_participate, k_local=3, eta_l=0.05),
                             rounds=6)
        built = build_problem(config.problem, config.master_seed)
        counts = Counter()

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("Philox", "Generator", "SeedSequence"):
            monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
        purposes = []  # one per round_keys call
        inner_keys = vectors.round_keys

        def round_keys(seed, round_index, ids, purpose):
            purposes.append(purpose)
            return inner_keys(seed, round_index, ids, purpose)

        monkeypatch.setattr(vectors, "round_keys", round_keys)
        record = run_training(config, built)
        assert record.status == "completed"
        assert counts["Philox"] == counts["Generator"] == 0
        assert purposes and counts["SeedSequence"] <= len(purposes)
        full = s_participate == problem.n_clients
        assert purposes.count(PURPOSE_SAMPLING) == (0 if full else config.rounds)

    def test_grad_norm_at_u_only_for_momentum_rule(self):
        mim = run_training(quad_config(rounds=3))
        avg = run_training(quad_config(rounds=3, algorithm="fedavg"))
        assert all(r.grad_norm_sq_at_u is not None for r in mim.rows)
        assert all(r.grad_norm_sq_at_u is None for r in avg.rows)

    def test_divergence_recorded(self):
        cfg = quad_config(hyper=MimHyper(s_participate=3, k_local=50, eta_l=1e8), rounds=5)
        record = run_training(cfg)
        assert record.status.startswith("diverged at round")
        assert record.diverged_round == 1
        assert record.final_x is not None

    @pytest.mark.parametrize("algorithm", ["fedmim", "fedavg", "fedcm", "scaffold", "fedadam"])
    def test_divergence_names_lowest_client_and_its_step(self, algorithm):
        # client 2 overflows at local step 3, client 0 only at step 10, client 1 never;
        # the per-client loops this kernel replaced reported (0, 10) for every rule
        problem = QuadraticPopulation([1e30 * np.eye(1), 0.5 * np.eye(1), 1e100 * np.eye(1)],
                                      [np.ones(1)] * 3, 0.0)
        cfg = quad_config(problem=ProblemConfig(kind="quadratic", n_clients=3, dim=1),
                          algorithm=algorithm, rounds=2,
                          hyper=MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=1.0, k_local=20, s_participate=3))
        record = run_training(cfg, problem)
        assert (record.diverged_round, record.diverged_client, record.diverged_step) == (1, 0, 10)
        assert record.status == "diverged at round 1 (client 0, local step 10)"

    def test_server_step_divergence(self):
        # every local model of round 33 is finite, but the sum inside their mean overflows
        record = run_training(participation_config(40, "fedavg", 2, 50, 2))
        assert record.status == "diverged at round 33 (server step)"
        assert (record.diverged_round, record.diverged_client, record.diverged_step) == (33, None, None)
        assert [row.round for row in record.rows] == list(range(1, 33))
        assert np.isfinite(record.final_x).all()
        # the quadratic's terms overflow to +inf and -inf; the loss of a positive-definite form is +inf
        assert [row.loss for row in record.rows[16:32]] == [math.inf] * 16

    @given(algorithm=st.sampled_from(sorted(ROUND_FUNCTIONS)), s_participate=st.integers(1, 20),
           eta_l=st.floats(5.0, 200.0), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_divergence_report_is_consistent(self, algorithm, s_participate, eta_l, seed):
        record = run_training(participation_config(60, algorithm, s_participate, eta_l, seed))
        assert np.isfinite(record.final_x).all()
        assert not math.isnan(record.final_loss)
        if record.diverged_round is None:
            return
        assert all(row.round < record.diverged_round for row in record.rows)
        assert record.diverged_step is None or 0 <= record.diverged_step < record.config.hyper.k_local

    def test_corrupt_delta_breaks_residual(self):
        record = run_training(quad_config(verify=True, corrupt_delta=1e-6))
        assert record.max_residual_delta > 1e-7

    def test_eta_bound_reported_when_l_known(self):
        cfg = quad_config(rounds=1)
        problem = build_problem(cfg.problem, cfg.master_seed)
        expected = eta_l_bound(problem.smoothness_L, cfg.hyper.k_local, cfg.hyper.A)
        assert expected > 0 and run_training(cfg, problem).eta_bound == expected
        # a quadratic built by its constructor knows L too; the constants were set by a separate function
        problem = QuadraticPopulation([np.eye(4)] * 6, [np.zeros(4)] * 6)
        expected = eta_l_bound(problem.smoothness_L, cfg.hyper.k_local, cfg.hyper.A)
        assert run_training(cfg, problem).eta_bound == expected
        mlp_cfg = quad_config(rounds=1, problem=ProblemConfig(
            kind="mlp", n_clients=4, dim=3, mlp_hidden=4, samples_per_client=10, batch_size=5))
        assert run_training(mlp_cfg).eta_bound is None

    def test_reference_run_regression_window(self):
        # pinned after first implementation as a regression baseline
        cfg = RunConfig(
            problem=ProblemConfig(kind="quadratic", n_clients=20, dim=10,
                                  heterogeneity=1.0, sigma_l=0.1),
            algorithm="fedmim",
            hyper=MimHyper(s_participate=5, k_local=10, eta_l=0.1),
            rounds=500, master_seed=42, metric_every=500)
        record = run_training(cfg)
        assert 0.05 <= record.rows[-1].grad_norm_sq <= 0.5

    @given(data=st.data(), j_depth=st.integers(min_value=1, max_value=4),
           k_local=st.integers(min_value=1, max_value=6), n_clients=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_identity_residuals_hold_for_any_momentum(self, data, j_depth, k_local, n_clients, seed):
        # a per-weight bound of 0.99 / J keeps sum(alpha) < 1, the domain of the identities
        alpha = data.draw(st.lists(st.floats(0.0, 0.99 / j_depth), min_size=j_depth, max_size=j_depth))
        beta = data.draw(st.lists(st.floats(0.0, 1.0), min_size=j_depth, max_size=j_depth))
        s_participate = data.draw(st.integers(min_value=1, max_value=n_clients))
        cfg = quad_config(
            problem=ProblemConfig(kind="quadratic", n_clients=n_clients, dim=3, heterogeneity=1.0, sigma_l=0.1),
            hyper=MimHyper(alpha=tuple(alpha), beta=tuple(beta), eta_l=0.02, k_local=k_local,
                           s_participate=s_participate),
            rounds=8, master_seed=seed, verify=True)
        record = run_training(cfg)
        assert record.status == "completed"
        assert record.max_residual_delta <= 1e-9
        assert record.max_residual_u <= 1e-9
        # verification only observes: without it, the same model and every metric but the residuals
        plain = run_training(replace(cfg, verify=False))
        assert plain.final_x.tobytes() == record.final_x.tobytes()
        blank = dict(residual_delta=None, residual_u=None)
        assert (metrics_csv_bytes([replace(row, **blank) for row in plain.rows])
                == metrics_csv_bytes([replace(row, **blank) for row in record.rows]))

    @given(algorithm=st.sampled_from(sorted(ROUND_FUNCTIONS)),
           kind=st.sampled_from(["quadratic", "logreg", "mlp"]),
           concentration=st.sampled_from([None, 1.0]),
           n_clients=st.integers(min_value=1, max_value=5), data=st.data(),
           k_local=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_rerun_is_byte_identical(self, algorithm, kind, concentration, n_clients, data, k_local, seed):
        fields = dict(dim=3, mlp_hidden=3, concentration=concentration, samples_per_client=12, batch_size=4,
                      heterogeneity=1.0, sigma_l=0.1)
        read = BUILDERS[kind][1]  # the other keys are a ConfigError for this kind
        problem = ProblemConfig(kind=kind, n_clients=n_clients,
                                **{key: value for key, value in fields.items() if key in read})
        cfg = quad_config(problem=problem, algorithm=algorithm, rounds=4, master_seed=seed,
                          hyper=MimHyper(eta_l=0.05, k_local=k_local,
                                         s_participate=data.draw(st.integers(1, n_clients))))
        try:
            first = run_training(cfg)
        except ConfigError:  # a label-skewed split that left a client empty
            reject()
        second = run_training(cfg)
        assert metrics_csv_bytes(first.rows) == metrics_csv_bytes(second.rows)
        assert first.final_x.tobytes() == second.final_x.tobytes()

    def test_noiseless_residuals_over_long_horizon(self):
        # full participation, exact gradients: both identities at <= 1e-10
        # for 500 consecutive rounds
        cfg = quad_config(
            problem=ProblemConfig(kind="quadratic", n_clients=6, dim=4,
                                  heterogeneity=1.0, sigma_l=0.0),
            hyper=MimHyper(s_participate=6, k_local=4, eta_l=0.05),
            rounds=500, verify=True)
        record = run_training(cfg)
        assert all(r.residual_delta <= 1e-10 for r in record.rows)
        assert all(r.residual_u <= 1e-10 for r in record.rows)

    def test_shifted_iterate_gradient_decreases(self):
        record = run_training(quad_config(
            problem=ProblemConfig(kind="quadratic", n_clients=6, dim=4,
                                  heterogeneity=1.0, sigma_l=0.0),
            hyper=MimHyper(s_participate=6, k_local=4, eta_l=0.05),
            rounds=300))
        series = [r.grad_norm_sq_at_u for r in record.rows]
        assert min(series[150:]) < 0.1 * min(series[:20])

    def test_round_transition_leaves_inputs_untouched(self):
        from fedsim.algorithms import init_round_state, mim_round
        problem = build_problem(quad_config().problem, 13)
        hyper = quad_config().hyper
        state = init_round_state(np.zeros(problem.dim), hyper.J)
        x_before = state.x.copy()
        history_before = [d.copy() for d in state.delta_history]
        mim_round(state, problem, hyper, [0, 1, 2], 13)
        assert np.array_equal(state.x, x_before)
        for d, before in zip(state.delta_history, history_before):
            assert np.array_equal(d, before)


class TestRunSweep:
    def test_singleton_matches_run_training(self):
        base = quad_config(rounds=5)
        sweep = run_sweep(sweep_configs(base, "eta_l", [0.05]))
        single = run_training(base)
        assert np.array_equal(sweep[0].final_x, single.final_x)

    def test_algorithm_sweep_shares_round_grid(self):
        base = quad_config(rounds=6)
        records = run_sweep(sweep_configs(base, "algorithm", ["fedavg", "fedmim"]))
        assert [r.round for r in records[0].rows] == [r.round for r in records[1].rows]

    def test_axis_values_coerced(self):
        base = quad_config(rounds=2)
        records = run_sweep(sweep_configs(base, "s_participate", ["2", "5"]))
        assert records[0].config.hyper.s_participate == 2
        assert records[1].config.hyper.s_participate == 5

    def test_alpha_beta_axis(self):
        cfg = apply_axis(quad_config(), "alpha_beta", "0.5,0.2|0.3,0.0")
        assert cfg.hyper.alpha == (0.5, 0.2) and cfg.hyper.beta == (0.3, 0.0)
        # both weights set in one rebuild of MimHyper: a per-key replace would keep J = 2
        cfg = apply_axis(quad_config(), "alpha_beta", "0.5|0.3")
        assert cfg.hyper.J == 1 and cfg.hyper.alpha == (0.5,) and cfg.hyper.beta == (0.3,)
        assert apply_axis(quad_config(), "alpha_beta", ((0.5,), (0.3,))) == cfg

    def test_concentration_axis_iid(self):
        cfg = apply_axis(quad_config(), "concentration", "iid")
        assert cfg.problem.concentration is None

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep_configs(quad_config(), "momentum", [1])


class TestRunConfig:
    def test_fedadam_global_lr_default(self):
        # MimHyper holds the one default; fedadam's server step is its only reader
        assert RunConfig(algorithm="fedadam").hyper.global_lr == 0.1


class TestWithSettings:
    @pytest.mark.parametrize("key, value", [("k_local", 2.5), ("rounds", 7.9), ("n_clients", np.float64(4.5)),
                                            ("seed", math.inf), ("metric_every", math.nan)])
    def test_integer_key_rejects_a_fractional_value(self, key, value):
        # k_local 2.5 set k_local 2 and rounds 7.9 ran 7 rounds; an infinity escaped as an OverflowError
        with pytest.raises(ConfigError, match=f"^invalid value '{value}' for [a-z]+\\.{key}$"):
            with_settings(quad_config(), {key: value})

    def test_integer_axis_rejects_a_fractional_value(self):
        with pytest.raises(ConfigError, match="^invalid k_local value '2.5': invalid value '2.5'"):
            apply_axis(quad_config(), "k_local", 2.5)

    @pytest.mark.parametrize("value", [3, np.int64(3), "3", 3.0])
    def test_integer_key_accepts_an_integral_value(self, value):
        assert with_settings(quad_config(), {"k_local": value}).hyper.k_local == 3
        assert apply_axis(quad_config(), "k_local", value).hyper.k_local == 3

    def test_unknown_annotation_fails(self):
        # a field type without a parser must stop the import, not leave its key out
        @dataclass(frozen=True)
        class Odd:
            scale: complex = 1j

        with pytest.raises(TypeError, match="^no config parser for Odd.scale: <class 'complex'>$"):
            simulator._settings((None, "run", Odd))


def write_two_label_csv(path, seed):
    """Three features and two binary label columns, y and y2."""
    gen = np.random.default_rng(seed)
    rows = [",".join(["f0", "f1", "f2", "y", "y2"])]
    for i in range(40):
        feats = ",".join(f"{v:.17g}" for v in gen.standard_normal(3))
        rows.append(f"{feats},{i % 2},{int(gen.integers(2)) if i > 1 else i}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


NON_DEFAULT = dict(n_clients=3, dim=2, heterogeneity=2.0, concentration=2.0, sigma_l=0.3, batch_size=5,
                   samples_per_client=10, weight_decay=0.01, mlp_hidden=4, csv_path="b.csv", label_column="y2")


def builder_keywords(kind) -> list:
    return [name for name, p in inspect.signature(BUILDERS[kind][0]).parameters.items() if p.kind is p.KEYWORD_ONLY]


class TestProblemKeys:
    def test_non_default_values_cover_every_field(self):
        defaults = {f.name: f.default for f in fields(ProblemConfig) if f.name != "kind"}
        assert set(NON_DEFAULT) == set(defaults)
        assert all(NON_DEFAULT[name] != default for name, default in defaults.items())

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_builder_keywords_are_config_fields(self, kind):
        assert set(builder_keywords(kind)) <= set(NON_DEFAULT)

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind in PROBLEM_KINDS for key in NON_DEFAULT])
    def test_non_default_value_accepted_exactly_when_the_builder_takes_it(self, kind, key):
        csv_keys = dict(csv_path="data.csv", label_column="y") if kind == "csv" else {}
        if key in builder_keywords(kind):
            assert getattr(ProblemConfig(kind=kind, **{**csv_keys, key: NON_DEFAULT[key]}), key) == NON_DEFAULT[key]
        else:
            with pytest.raises(ConfigError, match=f"^'{key}' is not used by kind '{kind}'$"):
                ProblemConfig(kind=kind, **{**csv_keys, key: NON_DEFAULT[key]})

    def test_unread_key_at_its_default_is_accepted(self):
        defaults = ProblemConfig()
        for kind in ("quadratic", "logreg", "mlp"):
            ProblemConfig(kind=kind, **{name: getattr(defaults, name) for name in BUILDERS["quadratic"][1]})
            ProblemConfig(kind=kind, weight_decay=defaults.weight_decay, concentration=None)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_builder_reads_exactly_its_keys(self, kind, tmp_path):
        builder, read = BUILDERS[kind]
        base = dict(n_clients=4, dim=3, samples_per_client=12)
        if kind == "csv":
            base = dict(n_clients=4, csv_path=write_two_label_csv(tmp_path / "a.csv", 1), label_column="y")
        other = dict(n_clients=3, dim=2, heterogeneity=2.0, sigma_l=0.3, concentration=2.0, batch_size=5,
                     samples_per_client=10, weight_decay=0.01, mlp_hidden=4, label_column="y2",
                     csv_path=write_two_label_csv(tmp_path / "b.csv", 2))
        cfg = ProblemConfig(kind=kind, **{key: value for key, value in base.items() if key in read})

        def fingerprint(problem_cfg):
            return pickle.dumps(builder(derive_rng(9, 0, 0, PURPOSE_DATA).generator,
                                        **{key: getattr(problem_cfg, key) for key in read}))

        for key in read:  # each key the builder takes changes the problem
            assert fingerprint(replace(cfg, **{key: other[key]})) != fingerprint(cfg), key


class TestBuildProblem:
    def test_problem_synthesis_deterministic(self):
        cfg = ProblemConfig(kind="logreg", n_clients=4, dim=3, samples_per_client=20)
        a = build_problem(cfg, 3)
        b = build_problem(cfg, 3)
        assert a.spans == b.spans
        for stack in ("features", "values", "weights"):
            assert np.array_equal(getattr(a, stack), getattr(b, stack))
