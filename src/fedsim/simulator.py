"""Round-by-round orchestration and metric recording.

One thread owns the round state and runs everything.  Each round's sampled
clients take their local steps together, as one (S, d) array in the round
rule's batched kernel, and every reduction runs in ascending client-id
order, so the recorded trajectory is byte-identical across reruns.
Full-batch measurement oracles (loss, gradient norms, consistency) run
outside the training path and never perturb the trajectory.  Each metric row
makes one call of the problem's oracle, ``evaluate``, on x (and,
for ``fedmim``, on the shifted iterate u too): one blocked pass over the
stacked data of all clients gives f(x), grad f(x) and grad f(u) together.
The final loss, f at the last finite x, reuses the last row's f(x) when the last
completed round wrote one (row 0 of ``evaluate`` is the one-point ``global_loss``).

The run configuration lives here too: the dataclasses hold every default and
check their values when they are built, and their fields are the config keys
(``SETTINGS``) that INI files, ``-o`` overrides, sweep axes and the scripts
go through; only ``name`` and ``seed`` are not a field's own name.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, get_type_hints

import numpy as np

from .algorithms import (
    ROUND_FUNCTIONS,
    DivergenceError,
    MimHyper,
    current_eta,
    eta_l_bound,
    init_round_state,
)
from .analysis import (
    MetricRow,
    compute_u,
    local_consistency,
    verify_delta_recursion,
    verify_u_update,
)
from .objectives import (
    FederatedProblem,
    csv_problem,
    global_loss,
    logreg_problem,
    mlp_problem,
    quadratic_problem,
)
from .vectors import PURPOSE_DATA, PURPOSE_SAMPLING, derive_rng, l2_norm_sq, round_generators

# problem kind -> (builder(gen, **keys), keys): its keyword arguments, the ProblemConfig fields the kind reads
BUILDERS = {kind: (builder, tuple(inspect.signature(builder).parameters)[1:]) for kind, builder in (
    ("quadratic", quadratic_problem), ("logreg", logreg_problem), ("mlp", mlp_problem), ("csv", csv_problem))}
PROBLEM_KINDS = tuple(BUILDERS)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ProblemConfig:
    kind: str = "quadratic"
    n_clients: int = 10
    dim: int = 10
    heterogeneity: float = 1.0
    concentration: Optional[float] = None  # None = IID split
    sigma_l: float = 0.1
    batch_size: int = 20
    samples_per_client: int = 50
    weight_decay: float = 1e-3
    mlp_hidden: int = 8
    csv_path: Optional[str] = None
    label_column: Optional[str] = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind '{self.kind}' (choose from {PROBLEM_KINDS})")
        for name in ("n_clients", "dim", "samples_per_client", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 = full batch)")
        for name in ("sigma_l", "heterogeneity", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")
        conc = self.concentration
        if conc is not None and not (math.isfinite(conc) and conc > 0):
            raise ConfigError("concentration must be 'iid' or finite and > 0")
        for name in ("csv_path", "label_column"):
            if self.kind == "csv" and not getattr(self, name):
                raise ConfigError(f"csv problems need {name}")
        read = BUILDERS[self.kind][1]
        for f in fields(self):  # a key the builder never reads must keep its default
            if f.name not in read and f.name != "kind" and getattr(self, f.name) != f.default:
                raise ConfigError(f"'{f.name}' is not used by kind '{self.kind}'")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig = ProblemConfig()
    algorithm: str = "fedmim"
    hyper: MimHyper = MimHyper()
    rounds: int = 1
    master_seed: int = 0
    metric_every: int = 1
    verify: bool = False
    out_dir: str = "runs"
    corrupt_delta: float = 0.0  # fault injection for the verification self-test

    def __post_init__(self):
        if self.algorithm not in ROUND_FUNCTIONS:
            raise ConfigError(f"unknown algorithm '{self.algorithm}' (choose from {sorted(ROUND_FUNCTIONS)})")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.rounds > 2**32:  # a round index is one 32-bit word of its streams' keys
            raise ConfigError("rounds must be <= 2**32")
        if not (1 <= self.metric_every <= self.rounds):  # past rounds, no metric row would be written
            raise ConfigError("metric_every must be in [1, rounds]")
        if not (1 <= self.hyper.s_participate <= self.problem.n_clients):
            raise ConfigError("s_participate must be in [1, n_clients]")
        if self.master_seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.verify and self.algorithm != "fedmim":  # the identities are the momentum rule's
            raise ConfigError("verify requires algorithm=fedmim; add -o verify=false to run the other rules unverified")
        if not self.out_dir:  # an empty path would write the outputs into the working directory
            raise ConfigError("out_dir must not be empty")
        if "\0" in self.out_dir:  # no OS path holds one, and Path.mkdir raises ValueError on it
            raise ConfigError("out_dir must not hold a NUL byte")
        if not math.isfinite(self.corrupt_delta):
            raise ConfigError("corrupt_delta must be finite")


def _flag(raw) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _integer(raw) -> int:
    """An INI string's int, or a number's when it is integral: ``int`` alone truncates 2.5 to 2."""
    if isinstance(raw, str) or int(raw) == raw:
        return int(raw)
    raise ValueError(raw)


def _iid_or_float(raw) -> Optional[float]:
    return None if raw is None or str(raw).strip().lower() == "iid" else float(raw)


def _weights(raw) -> tuple:
    """Every comma-separated item of an INI string (float rejects an empty one), or each item of a sequence."""
    return tuple(float(v) for v in (raw.split(",") if isinstance(raw, str) else raw))


class Setting(NamedTuple):
    section: str  # INI section
    part: Optional[str]  # RunConfig field of the dataclass it sets; None sets RunConfig itself
    field: str
    parse: Callable  # raw value (an INI string, or a typed value from Python) -> field value


_PARSERS = {int: _integer, float: float, str: str, bool: _flag, tuple: _weights,
            Optional[str]: str, Optional[float]: _iid_or_float}  # field annotation -> parser
_RENAMED = {"algorithm": ("algorithm", "name"), "master_seed": ("run", "seed")}  # RunConfig field -> (section, key)


def _settings(*parts) -> dict:
    """Every config key: an INI entry, an ``-o`` override, and through AXIS_KEYS a sweep axis.  A Setting
    for each field of the (part, INI section, dataclass) ``parts``, but the parts themselves."""
    settings, nested = {}, {part for part, _, _ in parts}
    for part, section, cls in parts:
        annotations = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in nested:
                if annotations[f.name] not in _PARSERS:
                    raise TypeError(f"no config parser for {cls.__name__}.{f.name}: {annotations[f.name]}")
                key_section, key = _RENAMED.get(f.name, (section, f.name))
                settings[key] = Setting(key_section, part, f.name, _PARSERS[annotations[f.name]])
    return settings


SETTINGS = _settings(("problem", "problem", ProblemConfig), ("hyper", "algorithm", MimHyper),
                     (None, "run", RunConfig))


def with_settings(config: RunConfig, raw: dict) -> RunConfig:
    """``config`` with each key of ``raw`` (a SETTINGS key) set from its raw value.

    Each dataclass is rebuilt with a single ``replace``: ``MimHyper`` pads
    ``alpha`` and ``beta`` to a common J when it is built, so both must
    arrive together.  A value that its parser or a dataclass rejects is a
    ``ConfigError``.
    """
    changes: dict = {setting.part: {} for setting in SETTINGS.values()}
    for key, value in raw.items():
        setting = SETTINGS[key]
        try:
            changes[setting.part][setting.field] = setting.parse(value)
        except (TypeError, ValueError, OverflowError):  # int() overflows on an infinity
            raise ConfigError(f"invalid value '{value}' for {setting.section}.{key}") from None
    try:
        parts = {part: replace(getattr(config, part), **fields)
                 for part, fields in changes.items() if part is not None}
        return replace(config, **parts, **changes[None])
    except ValueError as exc:  # a config dataclass rejected its values
        raise ConfigError(str(exc)) from None


@dataclass
class RunRecord:
    """Everything one training run produced, cheap enough to keep in memory."""

    config: RunConfig
    rows: list = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_loss: Optional[float] = None
    round_wall_ms: list = field(default_factory=list)  # excluded from determinism guarantees
    status: str = "completed"
    diverged_round: Optional[int] = None
    diverged_client: Optional[int] = None  # lowest client id that went non-finite (None: the server step)
    diverged_step: Optional[int] = None  # that client's first non-finite local step
    eta_bound: Optional[float] = None  # eta_l_bound(L, K, A), None when the problem has no L
    max_residual_delta: Optional[float] = None
    max_residual_u: Optional[float] = None
    wall_ms_total: float = 0.0


def sample_clients(n_clients: int, s_participate: int, seed: int, round_index: int) -> list:
    """Uniform sample of S distinct client ids for one round, returned sorted.

    At S = N the set is every id, so nothing is drawn and no stream is
    opened: the sampling stream feeds nothing else.  Otherwise the draws come
    from the (round_index, 0, PURPOSE_SAMPLING) stream under the master
    ``seed``, served by ``round_generators``.  Partial Fisher-Yates over the
    id range, so every client is selected with probability S/N and pairs with
    probability S(S-1)/(N(N-1)).  The S swap offsets, uniform on [0, N - i),
    are drawn in one call; they equal S scalar ``integers(N - i)`` draws.
    """
    if not (1 <= s_participate <= n_clients):
        raise ConfigError(f"cannot sample {s_participate} of {n_clients} clients")
    if s_participate == n_clients:
        return list(range(n_clients))
    gen = next(round_generators(seed, round_index, [0], PURPOSE_SAMPLING))
    offsets = gen.integers(n_clients - np.arange(s_participate))
    ids = list(range(n_clients))
    for i, offset in enumerate(offsets.tolist()):
        j = i + offset
        ids[i], ids[j] = ids[j], ids[i]
    return sorted(ids[:s_participate])


def build_problem(cfg: ProblemConfig, master_seed: int) -> FederatedProblem:
    """Materialize the configured problem from the data-synthesis stream.

    A problem the builders reject (a ``PartitionError`` or ``CsvFormatError``,
    for example) is a ``ConfigError``.
    """
    try:
        builder, keys = BUILDERS[cfg.kind]
        return builder(derive_rng(master_seed, 0, 0, PURPOSE_DATA).generator, **{k: getattr(cfg, k) for k in keys})
    except ValueError as exc:
        raise ConfigError(f"cannot build the {cfg.kind} problem: {exc}") from None


def run_training(config: RunConfig, problem: Optional[FederatedProblem] = None) -> RunRecord:
    """Execute the configured number of rounds, recording metrics on cadence.

    ``problem`` can be passed in to reuse one dataset across runs (sweeps,
    seed studies); by default it is synthesized from the master seed.
    """
    if problem is None:
        problem = build_problem(config.problem, config.master_seed)
    hyper, smooth = config.hyper, problem.smoothness_L
    bound = None if smooth is None else eta_l_bound(smooth, hyper.k_local, hyper.A)
    record = RunRecord(config=config, eta_bound=bound)
    started = time.perf_counter()
    try:
        # overflow is detected explicitly after every local step and server step; keep numpy quiet
        with np.errstate(over="ignore", invalid="ignore"):
            _train_loop(config, problem, record)
    finally:
        record.wall_ms_total = (time.perf_counter() - started) * 1000.0
    return record


def _train_loop(config: RunConfig, problem: FederatedProblem, record: RunRecord) -> None:
    hyper = config.hyper
    round_fn = ROUND_FUNCTIONS[config.algorithm]
    state = init_round_state(np.zeros(problem.dim), hyper.J)
    max_residual_delta = max_residual_u = 0.0

    for t in range(config.rounds):
        round_started = time.perf_counter()
        sampled = sample_clients(problem.num_clients, hyper.s_participate, config.master_seed, t)
        prev = state
        eta = current_eta(hyper, t)
        try:
            state, art = round_fn(prev, problem, hyper, sampled, config.master_seed)
        except DivergenceError as exc:
            record.status = f"diverged at round {t + 1} ({exc.place})"
            record.diverged_round = t + 1
            record.diverged_client = exc.client_id
            record.diverged_step = exc.iteration
            break  # state is still the last finite one
        if config.corrupt_delta != 0.0:
            history = (state.delta_history[0] + config.corrupt_delta,) + state.delta_history[1:]
            state = replace(state, delta_history=history)

        res_delta = res_u = u_next = None
        if config.verify:
            grad_sum = art.grad_sum  # the property adds the rows on each read
            u_next = compute_u(state.x, state.delta_history, hyper.alpha, hyper.k_local)
            res_delta = verify_delta_recursion(
                state.delta_history[0], grad_sum, prev.delta_history,
                hyper.alpha, eta, hyper.s_participate, hyper.k_local)
            res_u = verify_u_update(compute_u(prev.x, prev.delta_history, hyper.alpha, hyper.k_local),
                                    u_next, grad_sum, eta, hyper.s_participate)
            max_residual_delta = np.maximum(max_residual_delta, res_delta)  # unlike max, keeps a NaN
            max_residual_u = np.maximum(max_residual_u, res_u)

        record.round_wall_ms.append((time.perf_counter() - round_started) * 1000.0)

        if (t + 1) % config.metric_every == 0:
            points = [state.x]
            if config.algorithm == "fedmim":
                if u_next is None:  # after the round's wall time is taken, as on every non-verify round
                    u_next = compute_u(state.x, state.delta_history, hyper.alpha, hyper.k_local)
                points.append(u_next)
            losses, grads = problem.evaluate(np.stack(points))
            record.rows.append(MetricRow(
                round=t + 1,
                loss=float(losses[0]),
                grad_norm_sq=l2_norm_sq(grads[0]),
                grad_norm_sq_at_u=l2_norm_sq(grads[1]) if len(grads) > 1 else None,
                consistency=local_consistency(art.local_finals, state.x),
                delta_norm_sq=l2_norm_sq(state.delta_history[0]),
                residual_delta=res_delta,
                residual_u=res_u,
                eta_l=eta,
            ))

    record.final_x = state.x
    reuse = record.rows and record.rows[-1].round == state.round  # a row at this x: its loss is global_loss's
    record.final_loss = record.rows[-1].loss if reuse else global_loss(problem, state.x)
    if config.verify and record.diverged_round is None:
        record.max_residual_delta = float(max_residual_delta)
        record.max_residual_u = float(max_residual_u)


# sweep axis -> the SETTINGS keys one of its values sets
AXIS_KEYS = {**{key: (key,) for key in ("s_participate", "k_local", "eta_l", "concentration")},
             "alpha_beta": ("alpha", "beta"), "algorithm": ("name",)}
SWEEP_AXES = tuple(AXIS_KEYS)


def apply_axis(config: RunConfig, axis: str, value) -> RunConfig:
    """``config`` with one sweep value set, as the matching ``-o`` overrides would set it.

    An ``alpha_beta`` value is 'a0,a1|b0,b1' or an ``(alpha, beta)`` pair.  A value
    that cannot be set is a ``ConfigError`` that names the axis and the value.
    """
    if axis not in AXIS_KEYS:
        raise ConfigError(f"unknown sweep axis '{axis}' (choose from {SWEEP_AXES})")
    values = (value,)
    try:
        if axis == "alpha_beta":
            values = value.split("|") if isinstance(value, str) else value
            if len(values) != 2:
                raise ConfigError("alpha_beta values look like 'a0,a1|b0,b1'")
        return with_settings(config, dict(zip(AXIS_KEYS[axis], values)))
    except ConfigError as exc:
        raise ConfigError(f"invalid {axis} value '{value}': {exc}") from None


def sweep_configs(base: RunConfig, axis: str, values) -> list:
    """The run configs along one axis, one per value: every value is checked before ``run_sweep`` trains."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    return [apply_axis(base, axis, value) for value in values]


def run_sweep(configs) -> list:
    """Independent runs of ``configs`` (as ``sweep_configs`` returns them), in order.

    The problem is built once per distinct (problem config, seed) and shared
    by the runs on it; only the ``concentration`` axis changes it.
    """
    problems: dict = {}
    records = []
    for cfg in configs:
        key = (cfg.problem, cfg.master_seed)
        if key not in problems:
            problems[key] = build_problem(*key)
        records.append(run_training(cfg, problems[key]))
    return records
