"""The table-based Nash check and unraveling against a per-agent reference.

The reference below is the original per-agent implementation, with the
package's private helpers copied in so it depends on nothing it checks: it
builds the full (access agents x strategies) deviation matrix with the
(min1, min2) seniority bookkeeping and loops over every agent in Python.
Each entry is the hand algebra, ``-c * effort + wage + (1 - P(fail) *
fired) * v_c`` in Python floats, where the firing rule gives only
``fired``, the chance of being fired on a failure.  The matrix first
summed over the four (quality, reading) states, ``state_sum_matrix``,
stays as a second check within ``STATE_SUM_ULPS``.  It still takes any
seniority order, as an array of ranks (0 is most senior).  The package
fires by agent index, which is the same game on a relabelled profile:
these tests sort the access agents by rank, run the
package, map its agent indices back and hold the result to exact equality
with the reference on random profiles, orders and parameters.

A second reference is the vectorized loop alone: every round rebuilds
every access agent's row of the package's deviation table.  The package
runs that loop too, plus one shortcut under seniority firing with common
signals, ``_jump``, which plays a run of one-agent rounds ahead in one
step.  The package's trace must equal the reference field for field, the
round cap and the int8 codes included.
"""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_POINTS, switched_agents, switched_codes, trace_profiles
from shirklab import simulation
from shirklab.equilibrium import ReplacementCostCurve
from shirklab.model import ALL_STRATEGIES, PAYOFF_TIE_TOL, AgentStrategy, ModelParams
from shirklab.simulation import (
    SimConfig,
    StrategyProfile,
    _deviation_payoff_table,
    iterated_best_response,
    nash_check,
)

_N_STRATEGIES = len(ALL_STRATEGIES)
_EFFORT_TABLE = np.array([s.name.startswith("EFFORT_") for s in ALL_STRATEGIES])
# adoption rule per strategy: 0 never, 1 always, 2 follow signal, 3 contrarian
_USE_RULE = np.array([0, 1, 2, 1, 0, 3], dtype=np.int8)


def _adoption(codes, signal_good):
    rule = _USE_RULE[codes]
    use = rule == 1
    follow = rule == 2
    contrarian = rule == 3
    if signal_good:
        return use | follow
    return use | contrarian


def _use_prob_given_quality(code, good, p):
    signal_good_prob = (1.0 - p.eps) if good else p.eps
    rule = _USE_RULE[code]
    if rule == 0:
        return 0.0
    if rule == 1:
        return 1.0
    if rule == 2:
        return signal_good_prob
    return 1.0 - signal_good_prob


def _expected_wage(code, p, compensation):
    use_good = _use_prob_given_quality(code, True, p)
    use_bad = _use_prob_given_quality(code, False, p)
    if compensation == "prospective":
        return p.w * (p.pi * use_good + (1.0 - p.pi) * use_bad)
    expected_good = use_good * (1.0 + p.g) + (1.0 - use_good)
    expected_bad = 1.0 - use_bad
    return p.pi * expected_good + (1.0 - p.pi) * expected_bad


def _use_probability(code, p):
    signal_good_prob = p.pi * (1.0 - p.eps) + (1.0 - p.pi) * p.eps
    rule = _USE_RULE[code]
    if rule == 0:
        return 0.0
    if rule == 1:
        return 1.0
    if rule == 2:
        return signal_good_prob
    return 1.0 - signal_good_prob


def _expected_production(code, p):
    rule = _USE_RULE[code]
    if rule == 0:
        return 1.0
    if rule == 1:
        return p.pi * (1.0 + p.g)
    if rule == 2:
        return p.pi * p.eps + (1.0 - p.pi) * (1.0 - p.eps) + p.pi * (1.0 - p.eps) * (1.0 + p.g)
    return p.pi * (1.0 - p.eps) + (1.0 - p.pi) * p.eps + p.pi * p.eps * (1.0 + p.g)


def _payoff(code, fired, p, compensation):
    """The hand algebra of a worker fired with chance ``fired`` on a failure."""
    effort_cost = p.c if _EFFORT_TABLE[code] else 0.0
    survival = (1.0 - (1.0 - p.pi) * _use_prob_given_quality(code, False, p) * fired) * p.v_c
    if compensation == "prospective":
        wage = _use_probability(code, p) * p.w
    else:
        wage = _expected_production(code, p)
    return -effort_cost + wage + survival


def _senior_failures(ranks, failing):
    """The lowest and second-lowest rank among the failing agents, inf where there are fewer."""
    failing_ranks = ranks[failing]
    if failing_ranks.size == 0:
        return math.inf, math.inf
    if failing_ranks.size == 1:
        return float(failing_ranks[0]), math.inf
    two = np.partition(failing_ranks, 1)[:2]
    return float(two.min()), float(two.max())


def reference_matrix(cfg, profile, policy_gamma, ranks):
    p = cfg.params
    m = cfg.access_count
    matrix = np.empty((m, _N_STRATEGIES))
    if m == 0:
        return matrix
    if cfg.punishment_mode == "uniform_random":
        for code in range(_N_STRATEGIES):
            matrix[:, code] = _payoff(code, policy_gamma, p, cfg.compensation)
        return matrix

    ranks = np.arange(m) if ranks is None else ranks[:m]
    codes = profile.codes[:m]
    if cfg.signal_correlation == "common":
        # whether each agent is fired on failing in the bad state, read right (a bad signal) and wrong (a good one):
        # iff no other failing agent is more senior
        right, wrong = [], []
        for flags, signal_good in ((right, False), (wrong, True)):
            failing = _adoption(codes, signal_good)
            min1, min2 = _senior_failures(ranks, failing)
            min_other = np.where(failing & (ranks == min1), min2, min1)
            flags.extend((ranks < min_other).tolist())
        for pos in range(m):
            for code in range(_N_STRATEGIES):
                rule = _USE_RULE[code]
                if rule == 1:
                    # fails on both readings
                    fired = (0.0, p.eps, 1.0 - p.eps, 1.0)[2 * right[pos] + wrong[pos]]
                elif rule == 3:
                    fired = float(right[pos])
                elif rule == 2:
                    fired = float(wrong[pos])
                else:
                    fired = 0.0
                matrix[pos, code] = _payoff(code, fired, p, cfg.compensation)
        return matrix

    pfail_bad = np.array([_use_prob_given_quality(int(c), False, p) for c in codes])
    by_rank = np.argsort(ranks, kind="stable")
    survive = 1.0 - pfail_bad[by_rank]
    prefix = np.ones(m)
    prefix[by_rank[1:]] = np.cumprod(survive[:-1])
    for pos, fired in enumerate(prefix.tolist()):
        for code in range(_N_STRATEGIES):
            matrix[pos, code] = _payoff(code, fired, p, cfg.compensation)
    return matrix


def state_sum_matrix(cfg, profile, policy_gamma, ranks):
    """The deviation matrix summed over the four states, and built on the wages conditioned on the quality."""
    p = cfg.params
    m = cfg.access_count
    if m == 0 or cfg.punishment_mode == "uniform_random":
        return reference_matrix(cfg, profile, policy_gamma, ranks)

    ranks = np.arange(m) if ranks is None else ranks[:m]
    codes = profile.codes[:m]
    effort_cost = np.where(_EFFORT_TABLE, p.c, 0.0)
    matrix = np.empty((m, _N_STRATEGIES))

    if cfg.signal_correlation == "common":
        matrix[:] = 0.0
        for good in (True, False):
            for wrong in (False, True):
                prob = (p.pi if good else 1.0 - p.pi) * (p.eps if wrong else 1.0 - p.eps)
                if prob == 0.0:
                    continue
                signal_good = good != wrong
                use_now = _adoption(codes, signal_good)
                failing = use_now & (not good)
                min1, min2 = _senior_failures(ranks, failing)
                min_other = np.where(failing & (ranks == min1), min2, min1)
                produced_value = (1.0 + p.g) if good else 0.0
                for s in ALL_STRATEGIES:
                    code = int(s)
                    rule = _USE_RULE[code]
                    use_dev = bool(
                        rule == 1 or (rule == 2 and signal_good) or (rule == 3 and not signal_good)
                    )
                    produced = produced_value if use_dev else 1.0
                    wage = (p.w if use_dev else 0.0) if cfg.compensation == "prospective" else produced
                    base = wage - effort_cost[code] + p.v_c
                    if use_dev and not good:
                        fired = ranks < min_other
                        matrix[:, code] += prob * (base - p.v_c * fired)
                    else:
                        matrix[:, code] += prob * base
        return matrix

    pfail_bad = np.array([_use_prob_given_quality(int(c), False, p) for c in codes])
    by_rank = np.argsort(ranks, kind="stable")
    survive = 1.0 - pfail_bad[by_rank]
    prefix = np.ones(m)
    prefix[by_rank[1:]] = np.cumprod(survive[:-1])
    for s in ALL_STRATEGIES:
        code = int(s)
        fired_prob = (1.0 - p.pi) * _use_prob_given_quality(code, False, p) * prefix
        wage = _expected_wage(code, p, cfg.compensation)
        matrix[:, code] = wage - effort_cost[code] + p.v_c * (1.0 - fired_prob)
    return matrix


def reference_nash_check(cfg, profile, policy_gamma, ranks=None, tol=1e-12):
    matrix = reference_matrix(cfg, profile, policy_gamma, ranks)
    deviations = []
    codes = profile.codes[: cfg.access_count]
    for pos in range(cfg.access_count):
        current = int(codes[pos])
        best = int(np.argmax(matrix[pos]))
        gain = float(matrix[pos, best] - matrix[pos, current])
        if gain > tol:
            deviations.append((pos, AgentStrategy(current), AgentStrategy(best), gain))
    return deviations


def reference_best_response(cfg, initial, ranks=None, max_rounds=None, tol=1e-12):
    """Returns (profiles, changed, converged) of the synchronous iteration."""
    cap = 10 * cfg.n_agents if max_rounds is None else max_rounds
    profiles = [initial]
    changed = []
    current = initial
    for _ in range(cap):
        matrix = reference_matrix(cfg, current, 0.0, ranks)
        codes = current.codes.copy()
        switched = []
        for pos in range(cfg.access_count):
            row = matrix[pos]
            best_value = float(row.max())
            if row[codes[pos]] >= best_value - tol:
                continue
            codes[pos] = int(np.argmax(row))
            switched.append(pos)
        if not switched:
            return profiles, changed, True
        current = StrategyProfile(codes)
        profiles.append(current)
        changed.append(switched)
    return profiles, changed, False


def vectorized_best_response(cfg, initial, max_rounds=None):
    """Returns (changed, switched_to, converged, final) of the synchronous iteration, O(m) a round."""
    codes = initial.codes[: cfg.access_count].copy()
    cap = 10 * cfg.n_agents if max_rounds is None else max_rounds
    changed = []
    switched_to = []
    converged = False
    for _ in range(cap):
        rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0)
        unhappy = rows < rows.max(1)[:, None] - PAYOFF_TIE_TOL
        switched = np.flatnonzero(unhappy[row_of_agent, codes])
        if not switched.size:
            converged = True
            break
        new_codes = rows.argmax(1)[row_of_agent[switched]].astype(np.int8)
        codes[switched] = new_codes
        changed.append(switched.tolist())
        switched_to.append(new_codes)
    final = initial.codes.copy()
    final[: cfg.access_count] = codes
    return changed, switched_to, converged, StrategyProfile(final)


def assert_matches_the_vectorized_loop(cfg, initial, max_rounds=None):
    trace = iterated_best_response(cfg, initial, max_rounds)
    changed, switched_to, converged, final = vectorized_best_response(cfg, initial, max_rounds)
    assert trace.initial is initial
    assert switched_agents(trace) == changed
    assert all(type(at) is int for positions in switched_agents(trace) for at in positions)
    assert len(switched_codes(trace)) == len(switched_to)
    for got, want in zip(switched_codes(trace), switched_to):
        assert got.dtype == np.int8 and got.tolist() == want.tolist()
    assert trace.converged == converged
    assert trace.rounds == len(changed)
    assert trace.final == final and trace.final.codes.dtype == np.int8


#: How far the package's deviation table may lie from ``state_sum_matrix``, in ulps of the payoff algebra's
#: largest term: c, w, v_c or 1 + g, which bounds the production.  The Nash check's cases are fixed, and their
#: worst is 2.
STATE_SUM_ULPS = 2

#: Parameter points: the reference scenarios (one has eps = 0) plus an eps = 0 copy of P0.
PARAMS = REFERENCE_POINTS + (ModelParams(pi=0.9, eps=0.0, g=0.5, c=0.01, w=0.05, v_c=1.0),)


def _random_case(rng, signal, compensation, punishment, h):
    n = int(rng.integers(1, 41))
    cfg = SimConfig(
        params=PARAMS[int(rng.integers(len(PARAMS)))],
        n_agents=n,
        n_trials=1,
        seed=0,
        h=h,
        signal_correlation=signal,
        compensation=compensation,
        punishment_mode=punishment,
    )
    kind = int(rng.integers(3))
    if kind == 0:
        codes = rng.integers(0, _N_STRATEGIES, size=n)
    else:
        # mostly one strategy, so seniority races and unraveling show up
        codes = np.full(n, int(AgentStrategy.SHIRK_USE) if kind == 1 else int(rng.integers(_N_STRATEGIES)))
        flips = rng.random(n) < 0.2
        codes[flips] = rng.integers(0, _N_STRATEGIES, size=int(flips.sum()))
    ranks = None if rng.random() < 0.3 else rng.permutation(n)
    return cfg, StrategyProfile(codes), ranks


def _by_rank(cfg, ranks):
    """Access agent ``order[j]`` is the package's agent j: the access agents sorted by rank."""
    m = cfg.access_count
    return np.arange(m) if ranks is None else np.argsort(ranks[:m])


def _relabelled(profile, order):
    codes = profile.codes.copy()
    codes[: len(order)] = profile.codes[order]
    return StrategyProfile(codes)


def _labelled_back(profile, order):
    codes = profile.codes.copy()
    codes[order] = profile.codes[: len(order)]
    return StrategyProfile(codes)


def _trace_in_agent_labels(trace, order):
    """The package trace's changed agents and profiles, in the reference's agent labels."""
    changed = [sorted(int(order[j]) for j in switched) for switched in switched_agents(trace)]
    return changed, [_labelled_back(profile, order) for profile in trace_profiles(trace)]


MODES = [
    (signal, compensation, punishment, h)
    for signal in ("common", "independent")
    for compensation in ("prospective", "realized")
    for punishment in ("uniform_random", "seniority")
    for h in (0.0, 0.5, 1.0)
]


@pytest.mark.parametrize("signal,compensation,punishment,h", MODES)
def test_nash_check_matches_the_reference(signal, compensation, punishment, h):
    rng = np.random.default_rng([7, len(signal), len(compensation), len(punishment), int(10 * h)])
    for _ in range(12):
        cfg, profile, ranks = _random_case(rng, signal, compensation, punishment, h)
        gamma = float(rng.choice([0.0, 1.0, rng.random()]))
        order = _by_rank(cfg, ranks)
        got = sorted(
            (int(order[d.agent]), d.current, d.better, d.gain)
            for d in nash_check(cfg, _relabelled(profile, order), gamma)
        )
        assert got == reference_nash_check(cfg, profile, gamma, ranks)
        # the package's table, agent by agent, equals the reference's, and lies within ulps of the state sums
        rows, row_of_agent = _deviation_payoff_table(cfg, _relabelled(profile, order).codes[: cfg.access_count], gamma)
        table = rows[row_of_agent]
        assert repr(table.tolist()) == repr(reference_matrix(cfg, profile, gamma, ranks)[order].tolist())
        p = cfg.params
        gap = np.abs(table - state_sum_matrix(cfg, profile, gamma, ranks)[order])
        assert np.all(gap <= STATE_SUM_ULPS * np.spacing(max(p.c, p.w, p.v_c, 1.0 + p.g)))


@pytest.mark.parametrize("signal,compensation,punishment,h", MODES)
def test_a_scenario_counts_the_deviations_nash_check_lists(signal, compensation, punishment, h):
    rng = np.random.default_rng([13, len(signal), len(compensation), len(punishment), int(10 * h)])
    curve = ReplacementCostCurve.linear(1000.0)
    for _ in range(6):
        cfg, profile, _ = _random_case(rng, signal, compensation, punishment, h)
        gamma = float(rng.choice([0.0, 1.0, rng.random()]))
        scenario = simulation._scenario_run(cfg, "arm", gamma, profile, curve)
        assert scenario.deviation_count == len(nash_check(cfg, profile, gamma))


@pytest.mark.parametrize("signal,compensation,punishment,h", MODES)
def test_iterated_best_response_matches_the_reference(signal, compensation, punishment, h):
    rng = np.random.default_rng([11, len(signal), len(compensation), len(punishment), int(10 * h)])
    for _ in range(8):
        cfg, profile, ranks = _random_case(rng, signal, compensation, punishment, h)
        order = _by_rank(cfg, ranks)
        trace = iterated_best_response(cfg, _relabelled(profile, order))
        profiles, changed, converged = reference_best_response(cfg, profile, ranks)
        assert _trace_in_agent_labels(trace, order) == (changed, profiles)
        assert trace.converged == converged
        assert trace.rounds == len(changed)
        assert _labelled_back(trace.final, order) == profiles[-1]


def test_round_cap_matches_the_reference():
    p = PARAMS[0]
    cfg = SimConfig(params=p, n_agents=30, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
    ranks = np.random.default_rng(3).permutation(30)
    order = _by_rank(cfg, ranks)
    start = StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, 30)
    trace = iterated_best_response(cfg, _relabelled(start, order), max_rounds=7)
    profiles, changed, converged = reference_best_response(cfg, start, ranks, max_rounds=7)
    assert not trace.converged and not converged
    assert _trace_in_agent_labels(trace, order) == (changed, profiles)


@st.composite
def best_response_cases(draw):
    """A config in any mode, a start over all six codes, mostly ``shirk_use`` or a few long runs, and a round cap."""
    n = draw(st.integers(1, 300))
    cfg = SimConfig(
        params=draw(st.sampled_from(PARAMS)),
        n_agents=n,
        n_trials=1,
        seed=0,
        h=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        signal_correlation=draw(st.sampled_from(["common", "independent"])),
        compensation=draw(st.sampled_from(["prospective", "realized"])),
        punishment_mode=draw(st.sampled_from(["uniform_random", "seniority"])),
    )
    kind = draw(st.sampled_from(["any", "flips", "runs"]))
    if kind == "any":
        codes = draw(st.lists(st.integers(0, _N_STRATEGIES - 1), min_size=n, max_size=n))
    elif kind == "flips":
        # mostly shirk_use with random flips, so seniority races show up
        codes = [int(AgentStrategy.SHIRK_USE)] * n
        flips = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, _N_STRATEGIES - 1), max_size=n // 5 + 1))
        for at, code in flips.items():
            codes[at] = code
    else:
        # a few long runs of one code, so unraveling plays runs ahead and stops where they end
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
        codes = []
        for low, high in zip([0, *cuts], [*cuts, n]):
            codes += [draw(st.just(int(AgentStrategy.SHIRK_USE)) | st.integers(0, _N_STRATEGIES - 1))] * (high - low)
    return cfg, StrategyProfile(codes), draw(st.none() | st.integers(0, 5) | st.integers(0, 300))


@settings(max_examples=200, deadline=None)
@given(case=best_response_cases())
def test_iterated_best_response_matches_the_vectorized_loop(case):
    assert_matches_the_vectorized_loop(*case)


@settings(max_examples=100, deadline=None)
@given(case=best_response_cases())
def test_every_round_rereads_the_full_table(case):
    # every read covers all access agents; but for the rounds a jump plays ahead under seniority firing with common
    # signals, each round takes one read, and a last read finds no switch
    cfg, initial, _ = case
    with mock.patch.object(simulation, "_table_switches", wraps=simulation._table_switches) as table:
        trace = iterated_best_response(cfg, initial)
    read = [len(call.args[1]) for call in table.call_args_list]
    assert trace.converged
    assert read and read == [cfg.access_count] * len(read)
    if cfg.punishment_mode == "seniority" and cfg.signal_correlation == "common":
        assert len(read) <= 1 + trace.rounds
    else:
        assert len(read) == 1 + trace.rounds
    if cfg.punishment_mode == "uniform_random":
        # no row moves, so the reread after round 1 finds no switch
        assert trace.rounds <= 1


#: The benchmark's model.
BENCHMARK_MODEL = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)


@pytest.mark.parametrize("n", [10, 1000, 10**5])
@pytest.mark.parametrize("compensation,reads", [("prospective", 4), ("realized", 2)])
def test_unraveling_all_shirk_use_reads_the_table_a_fixed_number_of_times(n, compensation, reads):
    # prospective pay: rounds 1 and 2 alone, the jump over the run, the last agent's round and a read with no
    # switch; realized pay: one round and a read with no switch.  A lost jump shows as a count that grows with n
    cfg = SimConfig(BENCHMARK_MODEL, n, 1, 0, 0.5, compensation=compensation, punishment_mode="seniority")
    with mock.patch.object(simulation, "_table_switches", wraps=simulation._table_switches) as table:
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, n))
    assert trace.converged
    assert table.call_count == reads


EFS = AgentStrategy.EFFORT_FOLLOW_SIGNAL
SU = AgentStrategy.SHIRK_USE
SNU = AgentStrategy.SHIRK_NO_USE
ENU = AgentStrategy.EFFORT_NEVER_USE
EC = AgentStrategy.EFFORT_CONTRARIAN


@pytest.mark.parametrize(
    "runs",
    [
        # the first failure on a right signal sits after a long run of effort agents
        [(EFS, 2500), (SU, 500)],
        # agent 0 stops failing on a right signal and the next failure is 2500 agents on
        [(SU, 1), (EFS, 2500), (SU, 499)],
        # the forward scan runs to the end of the codes: after agent 0 no one fails
        [(SU, 1), (EFS, 2999)],
        # no agent fails in the bad state on either signal
        [(SNU, 1500), (ENU, 1500)],
        [(ENU, 3000)],
        # contrarians fail on a right signal only, followers on a wrong one
        [(EC, 1000), (EFS, 1000), (SU, 1000)],
        [(SNU, 2000), (SU, 1), (SNU, 999)],
    ],
    ids=["effort-run-then-shirkers", "one-shirker-then-effort-run", "scan-to-the-end", "no-failure",
         "all-never-use", "contrarians-followers-shirkers", "one-late-shirker"],
)
@pytest.mark.parametrize("compensation", ["prospective", "realized"])
def test_far_jumps_of_the_first_failure_match_the_vectorized_loop(runs, compensation):
    start = StrategyProfile(np.concatenate([np.full(count, int(s), dtype=np.int8) for s, count in runs]))
    cfg = SimConfig(
        params=PARAMS[0],
        n_agents=len(start),
        n_trials=1,
        seed=0,
        h=1.0,
        compensation=compensation,
        punishment_mode="seniority",
    )
    assert_matches_the_vectorized_loop(cfg, start)


def _from_runs(runs, compensation="prospective"):
    """A seniority config with common signals and every agent given access, and its start made of ``runs``."""
    start = StrategyProfile(np.concatenate([np.full(count, int(s), dtype=np.int8) for s, count in runs]))
    cfg = SimConfig(
        params=PARAMS[0],
        n_agents=len(start),
        n_trials=1,
        seed=0,
        h=1.0,
        compensation=compensation,
        punishment_mode="seniority",
    )
    return cfg, start


@contextlib.contextmanager
def _recorded_jumps():
    """Patch ``simulation._jump`` to append the rounds each call plays ahead to the list it yields."""
    played = []
    jump = simulation._jump

    def recording(*args):
        played.append(jump(*args))
        return played[-1]

    with mock.patch.object(simulation, "_jump", recording):
        yield played


@pytest.mark.parametrize(
    "runs",
    [
        # a never-user between two runs of shirkers
        [(SU, 700), (SNU, 1), (SU, 300)],
        # shirkers, then contrarians, who fail in the bad state on a right signal only
        [(SU, 500), (EC, 500)],
        # a contrarian first, so the first failure on a right signal sits before the shirkers
        [(EC, 1), (SU, 999)],
    ],
    ids=["shirkers-never-user-shirkers", "shirkers-then-contrarians", "contrarian-then-shirkers"],
)
def test_mixed_starts_play_their_run_ahead_as_the_vectorized_loop_does(runs):
    # prospective pay: the seniority arm's unraveling, one switch a round after round 1
    cfg, start = _from_runs(runs)
    with _recorded_jumps() as played:
        assert_matches_the_vectorized_loop(cfg, start)
    # round 1 turns every agent past both first failures to shirk_use, so one run reaches the end of the profile:
    # only rounds 1 and 2 and the last agent's are played alone
    assert max(played) == len(start) - 3


@pytest.mark.parametrize("max_rounds", [0, 1, 2, 437])
def test_a_round_cap_inside_a_run_stops_the_jump_there(max_rounds):
    cfg, start = _from_runs([(SU, 3000)])
    with _recorded_jumps() as played:
        assert_matches_the_vectorized_loop(cfg, start, max_rounds)
    trace = iterated_best_response(cfg, start, max_rounds)
    assert (trace.rounds, trace.converged) == (max_rounds, False)
    # rounds 1 and 2 are played one by one, then the jump fills the cap exactly
    assert sum(played) == max(max_rounds - 2, 0)


def assert_matches_the_trace_without_jumps(cfg, initial, max_rounds=None):
    """``iterated_best_response`` with ``_jump`` playing no round ahead gives the real trace, field for field."""
    trace = iterated_best_response(cfg, initial, max_rounds)
    with mock.patch.object(simulation, "_jump", return_value=0):
        alone = iterated_best_response(cfg, initial, max_rounds)
    for field in ("agents", "new_codes", "offsets"):
        got, want = getattr(trace, field), getattr(alone, field)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert (trace.converged, trace.final) == (alone.converged, alone.final)


@settings(max_examples=200, deadline=None)
@given(case=best_response_cases())
def test_a_jump_plays_exactly_the_rounds_it_replaces(case):
    cfg, initial, max_rounds = case
    cfg = dataclasses.replace(cfg, signal_correlation="common", punishment_mode="seniority")
    assert_matches_the_trace_without_jumps(cfg, initial, max_rounds)


def test_a_jump_stops_where_its_run_ends():
    # round 1 turns the contrarians to shirk_use, so one run of shirkers reaches the end: round 2 switches agent 1
    # alone and plays agents 2 to 18 ahead, and agent 19 keeps a round of its own
    cfg, start = _from_runs([(SU, 10), (EC, 10)])
    assert_matches_the_trace_without_jumps(cfg, start)
    with _recorded_jumps() as played:
        trace = iterated_best_response(cfg, start)
    assert switched_agents(trace) == [[0, *range(10, 20)], *([k] for k in range(1, 20))]
    assert played == [17, 0]
