"""The Monte Carlo engine against a plain per-trial loop on the stream contract.

The reference below plays a full episode for every trial, taking all of
its uniforms: the quality and the signal draws from its block's stream,
``SeedSequence(seed, spawn_key=(0, t // TRIAL_BLOCK))``, in the order the
contract fixes (every quality of the block, then every shared reading
under common signals, then each trial's independent signals), and one
fire uniform per access agent from ``spawn_key=(1, t)``.  The package
draws only what can change a trial and reuses the outcome of a repeated
(quality, reading) state; these tests hold it to exact equality with the
reference, trace files included.
"""

import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from conftest import REFERENCE_POINTS
from shirklab import simulation
from shirklab.cli import main
from shirklab.equilibrium import ReplacementCostCurve
from shirklab.model import _ADOPTS, _EFFORT, ALL_STRATEGIES, AgentStrategy, ModelParams
from shirklab.simulation import (
    MeanSE,
    SimConfig,
    SimResult,
    StrategyProfile,
    monte_carlo,
    run_episode,
)

_N_STRATEGIES = len(ALL_STRATEGIES)
# trials per block stream, a number the contract fixes, not the package's constant
TRIAL_BLOCK = 2048


def reference_episode(cfg, profile, policy_gamma, curve, quality, signals, fire_draws):
    """Aggregates of one episode on its quality, signal and fire uniforms."""
    p = cfg.params
    n = cfg.n_agents
    m = cfg.access_count
    codes = profile.codes[:m]

    good = bool(quality < p.pi)
    reading = (good != (np.asarray(signals) < p.eps)).astype(np.intp)

    effort = _EFFORT[codes]
    use = _ADOPTS[reading, codes]
    produced = np.where(use, (1.0 + p.g) if good else 0.0, 1.0)
    failed = use & (not good)

    fired = np.zeros(m, dtype=bool)
    if cfg.punishment_mode == "uniform_random":
        fired = failed & (fire_draws < policy_gamma)
    elif failed.any():
        # seniority: the lowest failing index
        fired[np.flatnonzero(failed)[0]] = True

    if cfg.compensation == "prospective":
        wage = np.where(use, p.w, 0.0)
        inert_wages = 0.0
    else:
        wage = produced.copy()
        inert_wages = float(n - m)

    payoffs = wage - p.c * effort + p.v_c * (~fired)
    fired_count = int(fired.sum())

    output = ((n - m) + float(produced.sum())) / n
    wages = (float(wage.sum()) + inert_wages) / n
    effort_cost = p.c * float(effort.sum()) / n
    return {
        "quality": "good" if good else "bad",
        "used": use,
        "produced": produced,
        "wage_paid": wage,
        "fired": fired,
        "output": output,
        "wages": wages,
        "effort_cost": effort_cost,
        "welfare": output - effort_cost,
        "replacement_cost": curve.cost(fired_count / n),
        "fired_count": fired_count,
        "failure_event": bool(failed.any()),
        "payoff_sum_by_strategy": np.bincount(codes, weights=payoffs, minlength=_N_STRATEGIES),
    }


def _reads_a_signal(profile, m):
    codes = profile.codes[:m]
    return bool((_ADOPTS[0][codes] != _ADOPTS[1][codes]).any())


def reference_run_episode(cfg, profile, policy_gamma, curve, rng):
    """One episode on one generator: the signals only when read, the fire uniforms last."""
    m = cfg.access_count
    quality = rng.random()
    signals = 0.0
    if _reads_a_signal(profile, m):
        signals = rng.random() if cfg.signal_correlation == "common" else rng.random(m)
    return reference_episode(cfg, profile, policy_gamma, curve, quality, signals, rng.random(m))


def _stream(seed, kind, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind, index)))


def reference_uniforms(cfg):
    """Every trial's (quality, signals, fire uniforms), one trial at a time."""
    m = cfg.access_count
    for t in range(cfg.n_trials):
        block, offset = divmod(t, TRIAL_BLOCK)
        if offset == 0:
            rng = _stream(cfg.seed, 0, block)
            qualities = rng.random(TRIAL_BLOCK)
            if cfg.signal_correlation == "common":
                readings = rng.random(TRIAL_BLOCK)
        # a signal no strategy reads changes nothing, and nothing follows it in the block
        signals = readings[offset] if cfg.signal_correlation == "common" else rng.random(m)
        yield qualities[offset], signals, _stream(cfg.seed, 1, t).random(m)


def _mean_se(values):
    mean = float(values.mean())
    if len(values) < 2:
        return MeanSE(mean, 0.0)
    return MeanSE(mean, float(values.std(ddof=1) / math.sqrt(len(values))))


def reference_monte_carlo(cfg, profile, policy_gamma, curve, trace_path=None):
    trials = cfg.n_trials
    outputs = np.empty(trials)
    wages = np.empty(trials)
    repl = np.empty(trials)
    welfare = np.empty(trials)
    failures = np.empty(trials, dtype=bool)
    qualities = np.empty(trials, dtype=object)
    fired_counts = np.empty(trials, dtype=np.int64)
    payoff_sums = np.empty((trials, _N_STRATEGIES))
    counts = np.bincount(profile.codes[: cfg.access_count], minlength=_N_STRATEGIES)
    for t, uniforms in enumerate(reference_uniforms(cfg)):
        episode = reference_episode(cfg, profile, policy_gamma, curve, *uniforms)
        outputs[t] = episode["output"]
        wages[t] = episode["wages"]
        repl[t] = episode["replacement_cost"]
        welfare[t] = episode["welfare"]
        failures[t] = episode["failure_event"]
        payoff_sums[t] = episode["payoff_sum_by_strategy"]
        qualities[t] = episode["quality"]
        fired_counts[t] = episode["fired_count"]

    per_strategy = {}
    for code in range(_N_STRATEGIES):
        if counts[code] > 0:
            per_strategy[ALL_STRATEGIES[code].label] = _mean_se(payoff_sums[:, code] / counts[code])

    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            for t in range(trials):
                record = {
                    "trial": t,
                    "quality": qualities[t],
                    "output": outputs[t],
                    "welfare": welfare[t],
                    "fired": int(fired_counts[t]),
                    "failure": bool(failures[t]),
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    return SimResult(
        output=_mean_se(outputs),
        wages=_mean_se(wages),
        replacement_cost=_mean_se(repl),
        welfare=_mean_se(welfare),
        failure_frequency=float(failures.mean()),
        per_strategy_payoff=per_strategy,
        n_agents=cfg.n_agents,
        n_trials=trials,
        seed=cfg.seed,
        policy_gamma=policy_gamma,
    )


N_AGENTS = 30
PROFILES = ("effort", "shirk", "mixed")
GRID = list(
    itertools.product(
        ("common", "independent"),
        ("uniform_random", "seniority"),
        ("prospective", "realized"),
        (0.0, 0.3, 1.0),
        (0.0, 0.2, 0.7, 1.0),
        PROFILES,
    )
)


def _profile(kind, rng, n_agents):
    if kind == "effort":
        return StrategyProfile.symmetric(AgentStrategy.EFFORT_FOLLOW_SIGNAL, n_agents)
    if kind == "shirk":
        return StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, n_agents)
    return StrategyProfile(rng.integers(0, _N_STRATEGIES, size=n_agents))


def _case(index):
    """Config, profile, rate and curve of grid point ``index``."""
    signal, firing, pay, h, gamma, kind = GRID[index]
    rng = np.random.default_rng(index)
    cfg = SimConfig(
        params=REFERENCE_POINTS[index % len(REFERENCE_POINTS)],
        n_agents=N_AGENTS,
        n_trials=40,
        seed=7000 + index,
        h=h,
        signal_correlation=signal,
        compensation=pay,
        punishment_mode=firing,
    )
    curve = ReplacementCostCurve.linear(1000.0, resolution=500)
    return cfg, _profile(kind, rng, N_AGENTS), gamma, curve


def test_grid_covers_every_mode_combination():
    assert len(GRID) == 288


# The grid's seeds are single 32-bit words and its runs fit one block; these
# seeds take two words, and their runs cross into a second block.
TWO_WORD_SEEDS = (2**32, 2**64 - 1)
TWO_WORD_INDICES = [
    index
    for index, (_, _, pay, h, gamma, _) in enumerate(GRID)
    if pay == "prospective" and h == 1.0 and gamma == 0.2
]
REFERENCE_CASES = [pytest.param(index, None, id=str(index)) for index in range(len(GRID))] + [
    pytest.param(index, seed, id=f"{index}-seed{seed}")
    for seed in TWO_WORD_SEEDS
    for index in TWO_WORD_INDICES
]


def test_two_word_seeds_cover_every_signal_firing_and_profile():
    assert {GRID[index][:2] + GRID[index][5:] for index in TWO_WORD_INDICES} == set(
        itertools.product(("common", "independent"), ("uniform_random", "seniority"), PROFILES)
    )


@pytest.mark.parametrize("index, seed", REFERENCE_CASES)
def test_monte_carlo_and_trace_match_the_reference(index, seed, tmp_path):
    cfg, profile, gamma, curve = _case(index)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed, n_trials=TRIAL_BLOCK + 60)
    got = monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "got.jsonl"))
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    assert got == want
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@pytest.mark.parametrize("index", range(0, len(GRID), 5))
def test_run_episode_matches_the_reference_on_every_field(index):
    cfg, profile, gamma, curve = _case(index)
    for seed in range(12):
        got = run_episode(cfg, profile, gamma, curve, np.random.default_rng(seed))
        want = reference_run_episode(cfg, profile, gamma, curve, np.random.default_rng(seed))
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(got, name), value), name
            else:
                assert getattr(got, name) == value, name


# Memo-key-sensitive cases: a perfect signal (eps = 0) makes the bad reading
# certain in a bad state, a coin-flip prior puts half the trials in the bad
# state, and rates of 0 and 1 decide firing without any fire uniform.
EPS0 = ModelParams(pi=0.5, eps=0.0, g=1.5, c=0.01, w=0.05, v_c=1.0)
NOISY = ModelParams(pi=0.5, eps=0.3, g=1.5, c=0.01, w=0.05, v_c=1.0)


@pytest.mark.parametrize("params", [EPS0, NOISY], ids=["eps0", "noisy"])
@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("firing", ["uniform_random", "seniority"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_mixed_profiles_at_the_memo_edges(params, signal, firing, gamma, tmp_path):
    rng = np.random.default_rng(11)
    cfg = SimConfig(
        params=params,
        n_agents=N_AGENTS,
        n_trials=150,
        seed=91,
        h=0.6,
        signal_correlation=signal,
        punishment_mode=firing,
    )
    curve = ReplacementCostCurve.linear(1000.0, resolution=500)
    for _ in range(3):
        profile = StrategyProfile(rng.integers(0, _N_STRATEGIES, size=N_AGENTS))
        got = monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "got.jsonl"))
        want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
        assert got == want
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


# Lone trials at scale: a few thousand access agents, where a sequential sum
# and a pairwise one, or a count times a value, differ in the last bits.
# Half the trials have a bad technology, and firing is random at a rate
# strictly inside (0, 1), so the bad trials in which anyone adopts play
# alone.  g, c and w are not dyadic, and c and w also sit at both signed
# zeros.
SCALE_PARAMS = {
    "nondyadic": ModelParams(pi=0.5, eps=0.3, g=1.7, c=0.013, w=0.07, v_c=1.1),
    "c0_w-0": ModelParams(pi=0.5, eps=0.3, g=1.7, c=0.0, w=-0.0, v_c=1.1),
    "c-0_w0": ModelParams(pi=0.5, eps=0.3, g=1.7, c=-0.0, w=0.0, v_c=1.1),
}


@pytest.mark.parametrize("params", SCALE_PARAMS.values(), ids=SCALE_PARAMS)
@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("pay", ["prospective", "realized"])
@pytest.mark.parametrize("kind", ["effort", "mixed"])
def test_lone_trials_at_scale_match_the_reference(params, signal, pay, kind, tmp_path):
    cfg = SimConfig(
        params=params,
        n_agents=4000,
        n_trials=200,
        seed=4401,
        h=0.75,
        signal_correlation=signal,
        compensation=pay,
    )
    profile = _profile(kind, np.random.default_rng(17), cfg.n_agents)
    curve = ReplacementCostCurve.power(70.3, 1.3, resolution=997)
    got = monte_carlo(cfg, profile, 0.37, curve, trace_path=str(tmp_path / "got.jsonl"))
    want = reference_monte_carlo(cfg, profile, 0.37, curve, trace_path=str(tmp_path / "want.jsonl"))
    assert got == want
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    # a trial that fails plays alone
    lines = (tmp_path / "want.jsonl").read_text().splitlines()
    assert sum(json.loads(line)["failure"] for line in lines) >= 20


# -- the streams a run draws from -----------------------------------------


def _counted_streams(monkeypatch):
    """Record the spawn key of every generator ``monte_carlo`` builds."""
    built = []
    original = simulation._stream

    def stream(seed, kind, index):
        built.append((kind, index))
        return original(seed, kind, index)

    monkeypatch.setattr(simulation, "_stream", stream)
    return built


def _firing_case(signal, kind):
    cfg = SimConfig(
        params=NOISY,
        n_agents=N_AGENTS,
        n_trials=2 * TRIAL_BLOCK + 100,
        seed=2**32 + 5,
        h=0.6,
        signal_correlation=signal,
    )
    profile = _profile(kind, np.random.default_rng(5), N_AGENTS)
    return cfg, profile, 0.4, ReplacementCostCurve.linear(1000.0, resolution=500)


@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("kind", ["effort", "shirk", "mixed"])
def test_one_generator_per_block_and_one_per_trial_that_draws_fire_uniforms(signal, kind, monkeypatch, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, kind)
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    built = _counted_streams(monkeypatch)
    assert monte_carlo(cfg, profile, gamma, curve) == want
    # at a rate inside (0, 1) a trial draws fire uniforms exactly when it fails
    lines = (tmp_path / "want.jsonl").read_text().splitlines()
    failures = [t for t, line in enumerate(lines) if json.loads(line)["failure"]]
    assert 0 < len(failures) < cfg.n_trials
    blocks = math.ceil(cfg.n_trials / TRIAL_BLOCK)
    assert sorted(built) == [(0, b) for b in range(blocks)] + [(1, t) for t in failures]


@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("kind", ["effort", "shirk", "mixed"])
def test_a_shorter_run_is_a_prefix_of_a_longer_one(signal, kind, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, kind)
    traces = []
    for trials in (TRIAL_BLOCK - 3, TRIAL_BLOCK + 1, cfg.n_trials):
        path = tmp_path / f"{trials}.jsonl"
        monte_carlo(dataclasses.replace(cfg, n_trials=trials), profile, gamma, curve, trace_path=str(path))
        traces.append(path.read_text().splitlines())
    shortest, middle, longest = traces
    assert middle[: len(shortest)] == shortest
    assert longest[: len(middle)] == middle


def test_the_cli_trace_matches_the_reference(tmp_path, capsys):
    params = REFERENCE_POINTS[0]
    cfg = SimConfig(params=params, n_agents=200, n_trials=TRIAL_BLOCK + 50, seed=2**64 - 1, h=0.5)
    lines = ["[model]"]
    lines += [f"{name} = {getattr(params, name)!r}" for name in ("pi", "eps", "g", "c", "w", "v_c")]
    lines += ["[curve]", "family = linear", "scale = 100", "resolution = 500"]
    lines += ["[simulation]", "n_agents = 200", f"n_trials = {cfg.n_trials}", "h = 0.5", f"seed = {cfg.seed}"]
    lines += ["profile = shirk", "gamma = 0.35"]
    ini = tmp_path / "run.ini"
    ini.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--config", str(ini), "--trace", str(tmp_path / "got.jsonl")]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    profile = StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, cfg.n_agents)
    curve = ReplacementCostCurve.linear(100.0, resolution=500)
    reference_monte_carlo(cfg, profile, 0.35, curve, trace_path=str(tmp_path / "want.jsonl"))
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@pytest.mark.parametrize("signal", ["common", "independent"])
def test_lone_trials_skip_account_and_share_one_cost_call(signal, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, "effort")
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    kernel, curve_type = simulation._EpisodeKernel, ReplacementCostCurve
    with mock.patch.object(kernel, "account", autospec=True, side_effect=kernel.account) as account, mock.patch.object(
        curve_type, "cost", autospec=True, side_effect=curve_type.cost
    ) as cost:
        assert monte_carlo(cfg, profile, gamma, curve) == want
    lines = (tmp_path / "want.jsonl").read_text().splitlines()
    lone = sum(json.loads(line)["failure"] for line in lines)
    assert lone > 100
    # account runs at most once per distinct (quality, reading) state, never
    # once per lone trial; with independent signals every trial is lone
    assert account.call_count <= (4 if signal == "common" else 0)
    # a cost per accounted state, and one call for every other row
    assert cost.call_count == account.call_count + 1
