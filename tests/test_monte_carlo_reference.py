"""The Monte Carlo engine against the plain per-trial loop it replaced.

The reference below is the original engine, copied in verbatim apart
from the thread pool and the seniority order, which is now agent order:
every trial takes all of its uniforms (quality, the signal draws, then one
fire uniform per access agent) and plays a full episode.  The package
draws only what can change a trial, replays the first uniforms of each
substream with array arithmetic instead of building its generator, and
reuses the outcome of a repeated (quality, reading) state; these tests
hold it to exact equality with the reference, trace files included, and
the replay to numpy's generator.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from conftest import REFERENCE_POINTS
from shirklab import (
    ALL_STRATEGIES,
    AgentStrategy,
    ModelParams,
    ReplacementCostCurve,
    SimConfig,
    StrategyProfile,
    monte_carlo,
    run_episode,
)
from shirklab import simulation
from shirklab.cli import main
from shirklab.model import STRATEGY_TABLE
from shirklab.simulation import MAX_TRIALS, REPLAY_BLOCK, MeanSE, SimResult

_N_STRATEGIES = len(ALL_STRATEGIES)
_EFFORT, _ADOPTS_ON_GOOD, _ADOPTS_ON_BAD = np.array(STRATEGY_TABLE).T
_ADOPTS = np.array([_ADOPTS_ON_BAD, _ADOPTS_ON_GOOD])


def reference_episode(cfg, profile, policy_gamma, curve, rng):
    """Aggregates of one episode, every draw taken, as the old engine did."""
    p = cfg.params
    n = cfg.n_agents
    m = cfg.access_count
    codes = profile.codes[:m]

    good = bool(rng.random() < p.pi)
    if cfg.signal_correlation == "common":
        reading = int(good != (rng.random() < p.eps))
    else:
        reading = (good != (rng.random(m) < p.eps)).astype(np.intp)
    fire_draws = rng.random(m)

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


def _trial_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


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
    for t in range(trials):
        episode = reference_episode(cfg, profile, policy_gamma, curve, _trial_rng(cfg.seed, t))
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


# The grid's seeds are single 32-bit words; these seeds take two.
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
        cfg = dataclasses.replace(cfg, seed=seed)
    got = monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "got.jsonl"))
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    assert got == want
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@pytest.mark.parametrize("index", range(0, len(GRID), 5))
def test_run_episode_matches_the_reference_on_every_field(index):
    cfg, profile, gamma, curve = _case(index)
    for seed in range(12):
        got = run_episode(cfg, profile, gamma, curve, np.random.default_rng(seed))
        want = reference_episode(cfg, profile, gamma, curve, np.random.default_rng(seed))
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


# -- the replayed substreams ----------------------------------------------

REPLAY_SEEDS = (0, 1, 23, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1)
REPLAY_TRIALS = (0, 1, REPLAY_BLOCK - 1, REPLAY_BLOCK, 65535, 65536, MAX_TRIALS - 1)


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_replay_equals_numpys_generator_bit_for_bit(seed):
    with np.errstate(all="raise"):
        got = simulation._replay_uniforms(seed, np.array(REPLAY_TRIALS), 3)
        want = np.array([_trial_rng(seed, t).random(3) for t in REPLAY_TRIALS]).T
    assert got.tobytes() == want.tobytes()


def _counted_trial_rng(monkeypatch):
    """Count the generators ``monte_carlo`` builds."""
    built = []
    original = simulation._trial_rng

    def trial_rng(seed, trial):
        built.append(trial)
        return original(seed, trial)

    monkeypatch.setattr(simulation, "_trial_rng", trial_rng)
    return built


def _firing_case(signal, kind):
    cfg = SimConfig(
        params=NOISY,
        n_agents=N_AGENTS,
        n_trials=REPLAY_BLOCK + 100,
        seed=2**32 + 5,
        h=0.6,
        signal_correlation=signal,
    )
    profile = _profile(kind, np.random.default_rng(5), N_AGENTS)
    return cfg, profile, 0.4, ReplacementCostCurve.linear(1000.0, resolution=500)


@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("kind", ["effort", "shirk"])
def test_only_trials_that_draw_fire_uniforms_build_a_generator(signal, kind, monkeypatch, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, kind)
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    built = _counted_trial_rng(monkeypatch)
    assert monte_carlo(cfg, profile, gamma, curve) == want
    if signal == "independent" and kind == "effort":
        # every trial reads its own signals, so none is replayed
        assert len(built) == cfg.n_trials
    else:
        # a failure at a rate inside (0, 1) draws fire uniforms; the other
        # generators are the two that check the replay
        lines = (tmp_path / "want.jsonl").read_text().splitlines()
        failures = sum(json.loads(line)["failure"] for line in lines)
        assert 0 < failures < cfg.n_trials
        assert len(built) == 2 + failures


@pytest.mark.parametrize("signal", ["common", "independent"])
@pytest.mark.parametrize("kind", ["effort", "shirk", "mixed"])
def test_a_replay_mismatch_routes_every_trial_through_its_generator(signal, kind, monkeypatch, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, kind)
    replay = simulation._replay_uniforms
    monkeypatch.setattr(simulation, "_replay_uniforms", lambda *args: 1.0 - replay(*args))
    built = _counted_trial_rng(monkeypatch)
    got = monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "got.jsonl"))
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    assert got == want
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert sorted(set(built)) == list(range(cfg.n_trials))


def test_the_cli_trace_matches_the_reference(tmp_path, capsys):
    params = REFERENCE_POINTS[0]
    cfg = SimConfig(params=params, n_agents=200, n_trials=REPLAY_BLOCK + 50, seed=2**64 - 1, h=0.5)
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
