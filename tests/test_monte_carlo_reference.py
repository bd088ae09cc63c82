"""The Monte Carlo engine against a plain per-trial loop on the stream contract.

Trial block ``b`` covers trials ``[b * TRIAL_BLOCK, (b + 1) * TRIAL_BLOCK)``
and takes every draw from ``SeedSequence(seed, spawn_key=(0, b))``, in
this order, for every trial of the block, the last block too:

1. the qualities, one uniform each
2. under common signals, the shared readings, one uniform each
3. only when some trial can play alone, the per-strategy counts:
   - when some strategy reads independent signals, one uniform per trial
     that places a bad technology's first failure, inverted through the
     chance that one of the first agents fails; then, trial by trial and
     played strategy by strategy in code order, the adopters: Binom(m_s,
     use | good) of a good technology, and of a bad one the first failure
     plus Binom(agents of s after it, use | bad)
   - under random firing, the fired, in the same order:
     Binom(failing adopters, gamma)

A binomial draw that is certain (chance 0 or 1, or no agents) takes no
draw.  Seniority fires the first failure.  Under common signals the
adopters are those of the trial's shared reading, all of whom fail on a
bad technology.

Every trial is accounted here from its per-strategy counts, each sum a
count times a value.  A trial that plays alone (a failure under random
firing, or every trial of a profile that reads independent signals) has
counts drawn from its block.  Any other trial's counts are those of its
(quality, reading) state, which need no draw: under seniority a bad
state fires its first adopter, and random firing fires every failing
adopter at a rate of 1 and none at 0.  The package draws the counts as
whole arrays and prices each state once; these tests hold it to exact
equality with the reference, trace files included.  ``reference_episode``
is ``run_episode``'s reference, agent by agent.
"""

import bisect
import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_POINTS, traced_memory
from shirklab import simulation
from shirklab.cli import main
from shirklab.equilibrium import ReplacementCostCurve
from shirklab.model import _ADOPTS, _EFFORT, ALL_STRATEGIES, STATES, AgentStrategy, ModelParams
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
    """Aggregates of one episode on its quality, signal and fire uniforms, agent by agent."""
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


def _stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))


def _draw(rng, n, chance):
    """One Binom(n, chance) count; a certain one takes no draw."""
    if n == 0 or chance == 0.0:
        return 0
    return n if chance == 1.0 else int(rng.binomial(n, chance))


class Reference:
    """One run's trials, block by block, as a plain loop over trials and strategies."""

    def __init__(self, cfg, profile, policy_gamma, curve):
        self.cfg, self.profile, self.gamma, self.curve = cfg, profile, policy_gamma, curve
        p = cfg.params
        self.codes = profile.codes[: cfg.access_count].tolist()
        self.played = sorted(set(self.codes))
        self.players = {s: self.codes.count(s) for s in self.played}
        self.independent = cfg.signal_correlation == "independent" and _reads_a_signal(profile, len(self.codes))
        # each strategy's chance of adopting a good and a bad technology
        self.use_good = {s: (1.0 - p.eps) * _ADOPTS[1][s] + p.eps * _ADOPTS[0][s] for s in self.played}
        self.use_bad = {s: p.eps * _ADOPTS[1][s] + (1.0 - p.eps) * _ADOPTS[0][s] for s in self.played}
        # the chance that one of agents 0..i fails on a bad technology, multiplied out agent by agent
        self.failure_cdf, spared = [], 1.0
        for code in self.codes:
            spared *= 1.0 - self.use_bad[code]
            self.failure_cdf.append(1.0 - spared)
        self.agents = {s: [i for i, code in enumerate(self.codes) if code == s] for s in self.played}

    def block(self, index):
        """Each trial of block ``index``: its quality, and its adopters and fired per strategy."""
        cfg = self.cfg
        rng = _stream(cfg.seed, index)
        qualities = rng.random(TRIAL_BLOCK)
        good = [bool(q < cfg.params.pi) for q in qualities]
        readings = [0] * TRIAL_BLOCK
        if cfg.signal_correlation == "common":
            signals = rng.random(TRIAL_BLOCK)
            readings = [int(g != (u < cfg.params.eps)) for g, u in zip(good, signals)]
        users = [dict.fromkeys(self.played, 0) for _ in range(TRIAL_BLOCK)]
        fired = [dict.fromkeys(self.played, 0) for _ in range(TRIAL_BLOCK)]
        if self.independent:
            m = len(self.codes)
            firsts = [bisect.bisect_right(self.failure_cdf, u) for u in rng.random(TRIAL_BLOCK)]
            for t in range(TRIAL_BLOCK):
                first = firsts[t]
                for s in self.played:
                    if good[t]:
                        users[t][s] = _draw(rng, self.players[s], self.use_good[s])
                        continue
                    # no adopter before the first failure, and after it each adopts on its own signal
                    after = self.players[s] - bisect.bisect_right(self.agents[s], first)
                    at_first = first < m and self.codes[first] == s
                    users[t][s] = at_first + _draw(rng, after, self.use_bad[s])
                    if cfg.punishment_mode == "seniority":
                        fired[t][s] = int(at_first)
        else:
            for t in range(TRIAL_BLOCK):
                for s in self.played:
                    users[t][s] = self.players[s] * bool(_ADOPTS[readings[t]][s])
                if cfg.punishment_mode == "seniority" and not good[t]:
                    # every adopter of a bad technology fails, and seniority fires the first of them
                    first = next((code for code in self.codes if _ADOPTS[readings[t]][code]), None)
                    if first is not None:
                        fired[t][first] = 1
        if cfg.punishment_mode == "uniform_random":
            # a rate of 0 or 1, no failing adopter or a good technology takes no draw
            for t in range(TRIAL_BLOCK):
                for s in self.played:
                    fired[t][s] = 0 if good[t] else _draw(rng, users[t][s], self.gamma)
        return [(good[t], users[t], fired[t]) for t in range(TRIAL_BLOCK)]

    def counted(self, good, users, fired):
        """The episode's aggregates from its counts: each sum a count times a value."""
        p = self.cfg.params
        n = self.cfg.n_agents
        adopters = sum(users.values())
        produce = (1.0 + p.g) if good else 0.0
        output = (n - adopters + adopters * produce) / n
        if self.cfg.compensation == "prospective":
            wages, use_wage, idle_wage = p.w * adopters / n, p.w, 0.0
        else:
            wages, use_wage, idle_wage = output, produce, 1.0
        sums = np.zeros(_N_STRATEGIES)
        for s in self.played:
            players = self.players[s]
            sums[s] = users[s] * use_wage + (players - users[s]) * idle_wage - players * (p.c * _EFFORT[s])
            sums[s] += (players - fired[s]) * p.v_c
        fired_count = sum(fired.values())
        effort_cost = p.c * float(sum(players for s, players in self.players.items() if _EFFORT[s])) / n
        return {
            "quality": "good" if good else "bad",
            "output": output,
            "wages": wages,
            "welfare": output - effort_cost,
            "replacement_cost": self.curve.cost(fired_count / n),
            "fired_count": fired_count,
            "failure_event": not good and adopters > 0,
            "payoff_sum_by_strategy": sums,
        }

    def episodes(self):
        """Every trial's aggregates, in trial order."""
        for t in range(self.cfg.n_trials):
            block, offset = divmod(t, TRIAL_BLOCK)
            if offset == 0:
                trials = self.block(block)
            yield self.counted(*trials[offset])


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
    for t, episode in enumerate(Reference(cfg, profile, policy_gamma, curve).episodes()):
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
# state, and rates of 0 and 1 decide firing without any binomial draw.
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


# Lone trials at scale: a few thousand access agents, so that the counts are
# large.  Half the trials have a bad technology, and firing is random at a
# rate strictly inside (0, 1), so the bad trials in which anyone adopts play
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
    """Record the index of every block generator ``monte_carlo`` builds."""
    built = []
    original = simulation._block_stream

    def stream(seed, index):
        built.append(index)
        return original(seed, index)

    monkeypatch.setattr(simulation, "_block_stream", stream)
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
def test_one_generator_per_block(signal, kind, monkeypatch, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, kind)
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    built = _counted_streams(monkeypatch)
    assert monte_carlo(cfg, profile, gamma, curve) == want
    # at a rate inside (0, 1) a trial plays alone when it fails, and draws from its block's stream
    lines = (tmp_path / "want.jsonl").read_text().splitlines()
    failures = [t for t, line in enumerate(lines) if json.loads(line)["failure"]]
    assert 0 < len(failures) < cfg.n_trials
    assert built == list(range(math.ceil(cfg.n_trials / TRIAL_BLOCK)))


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


@pytest.mark.parametrize("rate", [0.0, 1.0])
@pytest.mark.parametrize("count", [7, np.array([[0, 3, 9], [5, 2, 1]])], ids=["scalar", "array"])
def test_a_certain_binomial_draws_nothing(rate, count):
    # a block calls _binomial at random firing's rate whatever it is, so at 0 or 1 the stream must not move
    rng = np.random.default_rng(2026)
    before = rng.bit_generator.state
    got = simulation._binomial(rng, count, rate)
    assert rng.bit_generator.state == before
    assert np.array_equal(got, count if rate == 1.0 else np.zeros_like(count))


@pytest.mark.parametrize("firing", ["uniform_random", "seniority"])
def test_matched_arms_share_the_adopters_with_independent_signals(firing):
    # the adopters are drawn before, and apart from, the firing rule
    cfg, profile, gamma, curve = _firing_case("independent", "mixed")
    base = monte_carlo(cfg, profile, gamma, curve)
    other = dataclasses.replace(cfg, punishment_mode=firing)
    for rate in (0.0, 0.9):
        assert monte_carlo(other, profile, rate, curve).output == base.output


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
def test_one_cost_call_prices_every_trial(signal, tmp_path):
    cfg, profile, gamma, curve = _firing_case(signal, "effort")
    want = reference_monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "want.jsonl"))
    curve_type = ReplacementCostCurve
    with mock.patch.object(curve_type, "cost", autospec=True, side_effect=curve_type.cost) as cost:
        assert monte_carlo(cfg, profile, gamma, curve) == want
    lines = (tmp_path / "want.jsonl").read_text().splitlines()
    lone = sum(json.loads(line)["failure"] for line in lines)
    assert lone > 100
    # the states and the lone trials are rows of one count table, priced together
    assert cost.call_count == 1


@pytest.mark.parametrize("firing, gamma", [("seniority", 0.0), ("uniform_random", 1.0), ("uniform_random", 0.4)])
def test_a_million_agents_take_no_pass_over_the_agents(firing, gamma):
    # a state priced from counts builds nothing a million agents long; what
    # is left is one byte per agent at a time: the kernel's strategy counts
    # (one code compared at a time, 0.95 MiB) and, under seniority, the two
    # rows of who fails in a bad state (1.97 MiB); counting with bincount
    # copies the codes to intp, 7.6 MiB
    n = 10**6
    profile = StrategyProfile(np.random.default_rng(3).integers(0, _N_STRATEGIES, size=n))
    cfg = SimConfig(params=NOISY, n_agents=n, n_trials=200, seed=29, h=1.0, punishment_mode=firing)
    curve = ReplacementCostCurve.linear(1000.0, resolution=500)
    want = monte_carlo(cfg, profile, gamma, curve)
    with traced_memory() as traced:
        got = monte_carlo(cfg, profile, gamma, curve)
    assert got == want
    assert traced.peak < 4 * 2**20


def test_lone_trials_are_counted_a_block_at_a_time():
    # MAX_TRIALS is sized on a lone trial of six strategies peaking at no
    # more than 220 bytes, which holds while each block's rows are counted
    # on their own (all rows in one call take about 390)
    trials = 2 * 10**5
    cfg = SimConfig(params=NOISY, n_agents=60, n_trials=trials, seed=31, h=1.0, signal_correlation="independent")
    profile = StrategyProfile(np.arange(60) % _N_STRATEGIES)
    curve = ReplacementCostCurve.linear(1000.0, resolution=500)
    want = monte_carlo(cfg, profile, 0.5, curve)
    with traced_memory() as traced:
        got = monte_carlo(cfg, profile, 0.5, curve)
    assert got == want
    assert traced.peak < 220 * trials


# -- each state's counts against the agent-by-agent episode ----------------


class _Scripted:
    """A stand-in generator: the given uniforms in order, each repeated to the size asked for, and no binomial."""

    def __init__(self, *uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        value = self.uniforms.pop(0)
        return value if size is None else np.full(size, value)

    def binomial(self, n, p):
        # a trial that draws a count plays alone, and is not its state
        assert not np.any(n)
        return np.zeros_like(n)


#: the largest double below 1: above any pi or eps below it
_ALMOST_ONE = 1.0 - 2.0**-53

STATE_FIRINGS = [("seniority", 0.0), ("uniform_random", 0.0), ("uniform_random", 1.0), ("uniform_random", 0.4)]
STATE_CASES = [
    pytest.param(state, firing, gamma, pay, id=f"state{state}-{firing}-{gamma}-{pay}")
    for state in range(4)
    for firing, gamma in STATE_FIRINGS
    for pay in ("prospective", "realized")
    # at a rate inside (0, 1) a bad state's failures play alone
    if state >= 2 or gamma in (0.0, 1.0)
]


@pytest.mark.parametrize("state, firing, gamma, pay", STATE_CASES)
def test_each_state_row_matches_the_episode_played_agent_by_agent(state, firing, gamma, pay, monkeypatch, tmp_path):
    good, reading = state >= 2, state & 1
    # a quality uniform of 0 is a good technology; a signal uniform below eps reads the quality wrong
    quality = 0.0 if good else _ALMOST_ONE
    signal = 0.0 if good != bool(reading) else _ALMOST_ONE
    codes = np.random.default_rng(state).permutation(np.arange(40) % _N_STRATEGIES)
    profile = StrategyProfile(codes)
    cfg = SimConfig(
        params=SCALE_PARAMS["nondyadic"],
        n_agents=40,
        n_trials=1,
        seed=3,
        h=0.75,
        compensation=pay,
        punishment_mode=firing,
    )
    curve = ReplacementCostCurve.power(70.3, 1.3, resolution=997)
    episode = run_episode(cfg, profile, gamma, curve, _Scripted(quality, signal))
    monkeypatch.setattr(simulation, "_block_stream", lambda seed, index: _Scripted(quality, signal))
    result = monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "trace.jsonl"))
    (row,) = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]

    assert episode.used.any() and episode.quality == row["quality"] == ("good" if good else "bad")
    assert math.isclose(row["output"], episode.output, rel_tol=1e-12)
    assert math.isclose(row["welfare"], episode.welfare, rel_tol=1e-12)
    assert math.isclose(result.wages.mean, episode.wages, rel_tol=1e-12)
    assert math.isclose(result.replacement_cost.mean, episode.replacement_cost, rel_tol=1e-12)
    assert row["fired"] == episode.fired_count
    assert row["failure"] is episode.failure_event
    assert result.failure_frequency == float(episode.failure_event)
    players = np.bincount(profile.codes[: cfg.access_count], minlength=_N_STRATEGIES)
    assert sorted(result.per_strategy_payoff) == sorted(ALL_STRATEGIES[code].label for code in np.flatnonzero(players))
    for code in np.flatnonzero(players):
        want = episode.payoff_sum_by_strategy[code]
        assert math.isclose(result.per_strategy_payoff[ALL_STRATEGIES[code].label].mean * players[code], want, rel_tol=1e-12)


STATE_ROW_FIRINGS = [("seniority", 0.0), ("uniform_random", 0.0), ("uniform_random", 1.0)]


@settings(max_examples=200, deadline=None)
@example(codes=[], extra=1, firing=STATE_ROW_FIRINGS[0])  # no access agent
@example(codes=[0, 4, 4, 0], extra=0, firing=STATE_ROW_FIRINGS[0])  # no strategy ever adopts
@example(codes=[0, 4, 4, 0], extra=0, firing=STATE_ROW_FIRINGS[2])
@example(codes=[4, 2, 5, 0, 3, 1, 2], extra=3, firing=STATE_ROW_FIRINGS[0])  # all six strategies
@example(codes=[4, 2, 5, 0, 3, 1, 2], extra=3, firing=STATE_ROW_FIRINGS[2])
@given(
    codes=st.lists(st.integers(0, _N_STRATEGIES - 1), max_size=30),
    extra=st.integers(0, 5),
    firing=st.sampled_from(STATE_ROW_FIRINGS),
)
def test_state_row_k_counts_the_state_of_index_k(codes, extra, firing):
    # the kernel's rows of states follow model.STATES: row k is (good, reading) = STATES[k]
    mode, gamma = firing
    n = max(len(codes) + extra, 1)
    profile = StrategyProfile(codes + [1] * (n - len(codes)))
    cfg = SimConfig(params=NOISY, n_agents=n, n_trials=1, seed=0, h=len(codes) / n, punishment_mode=mode)
    assert cfg.access_count == len(codes)
    kernel = simulation._EpisodeKernel(cfg, profile, gamma)
    users, fired = kernel.state_counts
    played = sorted(set(codes))
    assert kernel.played.tolist() == played
    assert users.shape == fired.shape == (len(STATES), len(played))
    for k, (good, reading) in enumerate(STATES):
        adopts = [bool(_ADOPTS[reading][code]) for code in played]
        assert users[k].tolist() == [codes.count(code) * use for code, use in zip(played, adopts)]
        if good:
            want = [0] * len(played)
        elif mode == "seniority":
            # brute force: the first access agent who adopts a bad technology, if any
            first = next((code for code in codes if _ADOPTS[reading][code]), None)
            want = [int(code == first) for code in played]
        else:
            want = [codes.count(code) * use * int(gamma) for code, use in zip(played, adopts)]
        assert fired[k].tolist() == want
