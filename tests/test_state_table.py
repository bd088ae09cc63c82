"""The closed forms read off ``model.StateTable`` against the code they replaced.

The references below are written without the state table, each spelling
the (quality, reading) states out itself.  The few-row deviation tables,
under uniform random firing and under seniority firing with common
signals, index each agent's row with one int8, as the package does.
Under seniority firing with
independent signals the reference keeps one row per agent, indexed by
``arange``, where the package keeps one row per run of equal prefixes, so
the two are compared agent by agent, as ``rows[row_of_agent]``; the
package's table reader and its strategy payoffs are held to per-agent
readings of this reference table.  The new forms must give the same
float, sign of zero included, so values are compared by ``repr``.

Every reference payoff is the hand algebra of ``agent_payoff``,
``-c * effort + wage + (1 - P(fail) * fired) * v_c`` in Python floats,
where each firing rule gives only ``fired``, the chance of being fired on
a failure: the rate, the common-signal fired pattern, or the prefix
product.  The payoffs the references first summed over the four states
(``_state_sum_common_rows``, and ``_expected_wages`` under independent
signals) are kept as a second check, equal within ``STATE_SUM_ULPS`` ulps
of the algebra's largest term.  The parameters cover the admissible region
and every in-range corner the closed forms accept without checking
admissibility: eps = 0 and 1/2, pi next to 0 and 1, and zeros of either
sign.
"""


import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_memory
from shirklab import model, simulation
from shirklab.model import (
    ALL_STRATEGIES,
    PROSPECTIVE,
    REALIZED,
    STRATEGY_TABLE,
    AgentStrategy,
    Compensation,
    ModelParams,
    PAYOFF_TIE_TOL,
)
from shirklab.simulation import COMMON, INDEPENDENT, SENIORITY, UNIFORM_RANDOM, SimConfig, StrategyProfile
from test_model import admissible_params

_N_STRATEGIES = len(ALL_STRATEGIES)
_EFFORT, _ADOPTS_ON_GOOD, _ADOPTS_ON_BAD = np.array(STRATEGY_TABLE).T
_ADOPTS = np.array([_ADOPTS_ON_BAD, _ADOPTS_ON_GOOD])

# -- the references --------------------------------------------------------


def _adoption_probability(strategy: AgentStrategy, good_reading: float) -> float:
    """Probability the strategy adopts when the reading is good w.p. ``good_reading``."""
    _, on_good, on_bad = STRATEGY_TABLE[strategy]
    if on_good and on_bad:
        return 1.0
    if on_good:
        return good_reading
    if on_bad:
        return 1.0 - good_reading
    return 0.0


def use_probability(strategy: AgentStrategy, p: ModelParams) -> float:
    """Unconditional probability the strategy adopts the technology."""
    return _adoption_probability(strategy, p.signal_good_prob())


def failure_probability(strategy: AgentStrategy, p: ModelParams) -> float:
    """Probability of zero production: the technology is used and bad.

    A bad technology reads good exactly when the signal is wrong.
    """
    return (1.0 - p.pi) * _adoption_probability(strategy, p.eps)


def expected_production(strategy: AgentStrategy, p: ModelParams) -> float:
    """Expected output of one worker with access, excluding the effort cost.

    Sums probability times output over the (quality, reading) states the
    strategy tells apart, the unused states first and each group in state
    order, so the sum reproduces the hand-written closed forms bit for bit.
    """
    _, on_good, on_bad = STRATEGY_TABLE[strategy]
    if on_good == on_bad:
        # adoption ignores the reading, so only the quality matters
        states = ((p.pi, True, on_good), (1.0 - p.pi, False, on_good))
    else:
        states = (
            (p.pi * (1.0 - p.eps), True, on_good),
            (p.pi * p.eps, True, on_bad),
            ((1.0 - p.pi) * (1.0 - p.eps), False, on_bad),
            ((1.0 - p.pi) * p.eps, False, on_good),
        )
    total = 0.0
    for prob, good, used in sorted(states, key=lambda state: state[2]):
        total += prob * (((1.0 + p.g) if good else 0.0) if used else 1.0)
    return total


def _payoff(strategy: AgentStrategy, fired: float, p: ModelParams, comp: Compensation) -> float:
    """The hand algebra of a worker fired with chance ``fired`` on a failure."""
    effort_cost = p.c if STRATEGY_TABLE[strategy][0] else 0.0
    survival = (1.0 - failure_probability(strategy, p) * fired) * p.v_c
    if comp == PROSPECTIVE:
        wage = use_probability(strategy, p) * p.w
    else:
        wage = expected_production(strategy, p)
    return -effort_cost + wage + survival


def agent_payoff(
    strategy: AgentStrategy,
    gamma: float,
    p: ModelParams,
    comp: Compensation = PROSPECTIVE,
) -> float:
    """Expected payoff of a worker with access under firing rate ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if comp not in (PROSPECTIVE, REALIZED):
        raise ValueError(f"compensation must be 'prospective' or 'realized', got {comp!r}")
    return _payoff(strategy, gamma, p, comp)


def _adoption_given_quality(p: ModelParams, good: bool) -> np.ndarray:
    """Each strategy's adoption probability given the technology's quality."""
    good_reading = (1.0 - p.eps) if good else p.eps
    return np.array([_adoption_probability(s, good_reading) for s in ALL_STRATEGIES])


def _expected_wages(p: ModelParams, compensation: str) -> np.ndarray:
    """Each strategy's expected wage, conditioning adoption on the quality."""
    use_good = _adoption_given_quality(p, True)
    use_bad = _adoption_given_quality(p, False)
    if compensation == PROSPECTIVE:
        return p.w * (p.pi * use_good + (1.0 - p.pi) * use_bad)
    return p.pi * (use_good * (1.0 + p.g) + (1.0 - use_good)) + (1.0 - p.pi) * (1.0 - use_bad)


def _common_signal_rows(p: ModelParams, compensation: str) -> np.ndarray:
    """Seniority deviation payoffs under common signals, one row per fired pattern, by the hand algebra.

    Row ``2 * f_right + f_wrong`` is that of an agent fired (flag 1) or spared (flag 0) on failing in the bad
    state with a right or a wrong reading; a strategy adopting on both readings fails on both.
    """
    rows = np.zeros((4, _N_STRATEGIES))
    for row in range(4):
        for s in ALL_STRATEGIES:
            # in the bad state a right reading is bad and a wrong one good
            _, on_good, on_bad = STRATEGY_TABLE[s]
            if on_good and on_bad:
                fired = (0.0, p.eps, 1.0 - p.eps, 1.0)[row]
            elif on_bad:
                fired = float(row >= 2)
            elif on_good:
                fired = float(row % 2)
            else:
                fired = 0.0
            rows[row, s] = _payoff(s, fired, p, compensation)
    return rows


def _state_sum_common_rows(p: ModelParams, compensation: str) -> np.ndarray:
    """Seniority deviation payoffs under common signals, one row per fired pattern, summed over the states."""
    rows = np.zeros((4, _N_STRATEGIES))
    fired_if = {False: np.array([0, 0, 1, 1], dtype=bool), True: np.array([0, 1, 0, 1], dtype=bool)}
    effort_cost = np.where(_EFFORT, p.c, 0.0)
    for good in (True, False):
        for wrong in (False, True):
            prob = (p.pi if good else 1.0 - p.pi) * (p.eps if wrong else 1.0 - p.eps)
            if prob == 0.0:
                continue
            use = _ADOPTS[int(good != wrong)]
            produced = np.where(use, (1.0 + p.g) if good else 0.0, 1.0)
            wage = np.where(use, p.w, 0.0) if compensation == PROSPECTIVE else produced
            base = wage - effort_cost + p.v_c
            # a deviator who fails (uses a bad technology) loses v_c when first in line
            fired = (use & (not good))[None, :] & fired_if[wrong][:, None]
            rows += prob * (base - p.v_c * fired)
    return rows


def _common_signal_row_of_agent(codes: np.ndarray) -> np.ndarray:
    """Each access agent's row of ``_common_signal_rows`` given the others' codes."""
    m = len(codes)
    row = np.zeros(m, dtype=np.int8)
    for bit, wrong in ((2, False), (1, True)):
        # in the bad state the signal reads good exactly when it is wrong
        failing = _ADOPTS[int(wrong)][codes]
        first = failing.argmax() if failing.any() else m
        row += bit * (np.arange(m) <= first)
    return row


def _prefix(p: ModelParams, codes: np.ndarray) -> np.ndarray:
    """The chance no lower-indexed agent fails, given a bad technology, under independent signals.

    Failures are independent across agents given a bad technology, so it is a prefix product.
    """
    prefix = np.ones(len(codes))
    prefix[1:] = np.cumprod(1.0 - _adoption_given_quality(p, False)[codes[:-1]])
    return prefix


def _deviation_payoff_table(
    cfg: SimConfig,
    codes: np.ndarray,
    policy_gamma: float,
    state_sums: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoff of every (access agent, strategy) pair, others fixed.

    With ``state_sums`` the seniority rows are the former payoffs, summed over the four states under common
    signals and built on ``_expected_wages`` under independent signals.
    """
    p = cfg.params
    m = len(codes)
    if cfg.punishment_mode == UNIFORM_RANDOM:
        # firing is independent across agents, so payoffs decouple
        row = np.array(
            [agent_payoff(s, policy_gamma, p, cfg.compensation) for s in ALL_STRATEGIES]
        )
        return row[None, :], np.zeros(m, dtype=np.int8)
    if cfg.signal_correlation == COMMON:
        rows = (_state_sum_common_rows if state_sums else _common_signal_rows)(p, cfg.compensation)
        return rows, _common_signal_row_of_agent(codes)

    prefix = _prefix(p, codes)
    if state_sums:
        fired_prob = ((1.0 - p.pi) * _adoption_given_quality(p, False))[None, :] * prefix[:, None]
        base = _expected_wages(p, cfg.compensation) - np.where(_EFFORT, p.c, 0.0)
        return base + p.v_c * (1.0 - fired_prob), np.arange(m)
    # every agent of one prefix has one row
    fired, inverse = np.unique(prefix, return_inverse=True)
    rows = [[_payoff(s, chance, p, cfg.compensation) for s in ALL_STRATEGIES] for chance in fired.tolist()]
    return np.array(rows).reshape(-1, _N_STRATEGIES)[inverse.reshape(-1)], np.arange(m)


# -- parameters --------------------------------------------------------------

_ZERO = st.sampled_from([0.0, -0.0])
_TINY = [5e-324, 1e-300, 1e-12]
_NEAR_ONE = [1.0 - 2.0**-53, 1.0 - 1e-12]
in_range_params = st.builds(
    ModelParams,
    pi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(_TINY + _NEAR_ONE),
    eps=st.floats(0.0, 0.5) | st.sampled_from([0.0, -0.0, 0.5, 0.5 - 2.0**-54]) | st.sampled_from(_TINY),
    g=st.floats(0.0, 1e6, exclude_min=True) | st.sampled_from(_TINY),
    c=st.floats(0.0, 10.0) | _ZERO,
    w=st.floats(0.0, 10.0) | _ZERO,
    v_c=st.floats(0.0, 10.0, exclude_min=True) | st.sampled_from(_TINY),
)
params = admissible_params() | in_range_params

CORNERS = (
    ModelParams(pi=0.9, eps=0.0, g=0.5, c=0.01, w=0.05, v_c=1.0),
    ModelParams(pi=0.9, eps=-0.0, g=0.5, c=-0.0, w=-0.0, v_c=1.0),
    ModelParams(pi=0.9, eps=0.5, g=0.5, c=0.01, w=0.05, v_c=1.0),
    ModelParams(pi=5e-324, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0),
    ModelParams(pi=1e-12, eps=0.5, g=3.0, c=0.0, w=1.0, v_c=2.0),
    ModelParams(pi=1.0 - 2.0**-53, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0),
    ModelParams(pi=1.0 - 1e-12, eps=0.0, g=1e-300, c=0.0, w=0.0, v_c=1e-300),
)


def _with_corners(test):
    for p in CORNERS:
        test = example(p=p, gamma=0.5)(test)
    return example(p=CORNERS[0], gamma=0.0)(example(p=CORNERS[2], gamma=1.0)(test))


def _same(new, old):
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and new.dtype == old.dtype and new.shape == old.shape
        new, old = new.tolist(), old.tolist()
    assert repr(new) == repr(old)


#: How far the one payoff algebra may lie from the payoffs first summed over the four states, in ulps of the
#: algebra's largest term: c, w, v_c or 1 + g, which bounds the production.  Measured worst over 20000 draws of
#: each test below: 6 in a table, 8 in a strategy's mean over its agents.
STATE_SUM_ULPS = 16


def _near_the_state_sums(new, old, p: ModelParams) -> None:
    """``new`` lies within ``STATE_SUM_ULPS`` of ``old``, in ulps of the payoff algebra's largest term."""
    assert np.all(np.abs(new - old) <= STATE_SUM_ULPS * np.spacing(max(p.c, p.w, p.v_c, 1.0 + p.g)))


# -- bit for bit ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@_with_corners
@given(p=params, gamma=st.floats(0.0, 1.0))
def test_the_scalar_closed_forms_equal_the_references_bit_for_bit(p, gamma):
    for s in ALL_STRATEGIES:
        _same(float(p.state_table.use[s]), use_probability(s, p))
        _same(float((1 - p.pi) * p.state_table.use_given_bad[s]), failure_probability(s, p))
        _same(model.expected_production(s, p), expected_production(s, p))
        for comp in (PROSPECTIVE, REALIZED):
            _same(model.agent_payoff(s, gamma, p, comp), agent_payoff(s, gamma, p, comp))


@settings(max_examples=300, deadline=None)
@_with_corners
@given(p=params, gamma=st.floats(0.0, 1.0))
def test_the_simulation_closed_forms_equal_the_references_bit_for_bit(p, gamma):
    _same(p.state_table.use_given_good, _adoption_given_quality(p, True))
    _same(p.state_table.use_given_bad, _adoption_given_quality(p, False))
    _same(p.production, np.array([expected_production(s, p) for s in ALL_STRATEGIES]))
    # each code once in every place, so each is once the first to fail
    codes = np.concatenate([np.roll(np.arange(_N_STRATEGIES, dtype=np.int8), -k) for k in range(_N_STRATEGIES)])
    for mode in (UNIFORM_RANDOM, SENIORITY):
        for signals in (COMMON, INDEPENDENT):
            for comp in (PROSPECTIVE, REALIZED):
                cfg = SimConfig(p, len(codes), 1, 0, 1.0, signals, comp, mode)
                rows, row_of_agent = simulation._deviation_payoff_table(cfg, codes, gamma)
                old_rows, old_row_of_agent = _deviation_payoff_table(cfg, codes, gamma)
                # every agent's row, expanded from the few rows the package keeps
                _same(rows[row_of_agent], old_rows[old_row_of_agent])
                sums, sum_row_of_agent = _deviation_payoff_table(cfg, codes, gamma, state_sums=True)
                _near_the_state_sums(rows[row_of_agent], sums[sum_row_of_agent], p)
                if not (mode == SENIORITY and signals == INDEPENDENT):
                    _same(rows, old_rows)
                    _same(row_of_agent, old_row_of_agent)


def test_the_arrays_and_the_rows_of_an_agent_equal_the_references():
    assert np.array_equal(model._EFFORT, _EFFORT) and model._EFFORT.dtype == _EFFORT.dtype
    assert np.array_equal(model._ADOPTS, _ADOPTS) and model._ADOPTS.dtype == _ADOPTS.dtype
    # the codes that fail in the bad technology's states, read right and then wrong
    failing = [np.flatnonzero(fails).tolist() for fails in model.StateTable.fails[2:]]
    assert failing == [np.flatnonzero(adopts).tolist() for adopts in _ADOPTS]
    rng = np.random.default_rng(20261019)
    for m in (0, 1, 2, 5, 40):
        for _ in range(50):
            codes = rng.integers(0, _N_STRATEGIES, m).astype(np.int8)
            _same(simulation._common_signal_row_of_agent(codes), _common_signal_row_of_agent(codes))


# -- the few-row table under independent signals ---------------------------------

P0 = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)
SU, EFS, ENU = AgentStrategy.SHIRK_USE, AgentStrategy.EFFORT_FOLLOW_SIGNAL, AgentStrategy.EFFORT_NEVER_USE


def _independent(p: ModelParams, m: int, comp: Compensation = PROSPECTIVE) -> SimConfig:
    """Seniority firing with independent signals, every agent given access."""
    return SimConfig(p, m, 1, 0, 1.0, INDEPENDENT, comp, SENIORITY)


def _reference_switches(cfg: SimConfig, codes: np.ndarray) -> tuple[list[int], list[int], list[float]]:
    """The unhappy agents, their best codes and gains, read agent by agent off the reference table."""
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0)
    table = rows[row_of_agent]
    own = table[np.arange(len(codes)), codes]
    agents = np.flatnonzero(own < table.max(1) - PAYOFF_TIE_TOL)
    return agents.tolist(), table[agents].argmax(1).tolist(), (table[agents].max(1) - own[agents]).tolist()


def _listed(switches: tuple[np.ndarray, ...]) -> tuple[list, ...]:
    """The package reader's agents, best codes and gains as lists, the form of ``_reference_switches``."""
    return tuple(column.tolist() for column in switches)


@st.composite
def profiles(draw):
    """Access codes: any codes, or a few long runs of one code each."""
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, _N_STRATEGIES - 1), min_size=1, max_size=300))
    else:
        runs = draw(st.lists(st.tuples(st.integers(0, _N_STRATEGIES - 1), st.integers(1, 200)), min_size=1, max_size=4))
        codes = [code for code, count in runs for _ in range(count)]
    return np.array(codes, dtype=np.int8)


def test_a_symmetric_shirk_use_profile_gets_two_rows():
    # the first agent alone has no failure before it; every later one follows a certain failure, prefix 0
    for m in (2, 3, 1000):
        codes = np.full(m, int(SU), dtype=np.int8)
        rows, row_of_agent = simulation._deviation_payoff_table(_independent(P0, m), codes, 0.0)
        assert rows.shape == (2, _N_STRATEGIES)
        assert row_of_agent.tolist() == [0] + [1] * (m - 1)


def test_an_effort_profile_gets_one_row_per_distinct_prefix():
    # each effort agent fails on a bad technology read wrong, so the prefix falls by 1 - eps an agent until it
    # underflows to 0, about 7000 agents in, and every agent from there on shares its row
    for m in (1, 50, 20000):
        codes = np.full(m, int(EFS), dtype=np.int8)
        rows, row_of_agent = simulation._deviation_payoff_table(_independent(P0, m), codes, 0.0)
        prefix = np.cumprod(1.0 - _adoption_given_quality(P0, False)[codes[:-1]])
        distinct = len({1.0, *prefix.tolist()})
        assert rows.shape == (distinct, _N_STRATEGIES)
        assert row_of_agent[0] == 0 and row_of_agent[-1] == distinct - 1
        assert (np.diff(row_of_agent.astype(np.int64)) >= 0).all()
        assert row_of_agent.dtype.itemsize <= 2
    assert distinct < m


@settings(max_examples=200, deadline=None)
@given(
    pi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    eps=st.floats(0.0, 0.5),
    v_c=st.sampled_from([PAYOFF_TIE_TOL, 2 * PAYOFF_TIE_TOL]),
    codes=profiles(),
)
def test_a_gain_exactly_at_the_tie_tolerance_switches_no_one(pi, eps, v_c, codes):
    # with no wage and c = PAYOFF_TIE_TOL, shirk_no_use pays exactly v_c, the best of every row, and
    # effort_never_use exactly PAYOFF_TIE_TOL less, so its players sit on the tie edge and stay
    cfg = _independent(ModelParams(pi=pi, eps=eps, g=0.5, c=PAYOFF_TIE_TOL, w=0.0, v_c=v_c), len(codes))
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0)
    assert set((rows.max(1) - rows[:, ENU]).tolist()) == {PAYOFF_TIE_TOL}
    switches = simulation._table_switches(cfg, codes, 0.0)
    assert repr(_listed(switches)) == repr(_reference_switches(cfg, codes))
    assert not (codes[switches[0]] == ENU).any()


@settings(max_examples=200, deadline=None)
@given(
    pi=st.sampled_from([0.5, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-53]),
    eps=st.floats(0.0, 0.5),
    c=st.sampled_from([0.0, 0.01]),
    w=st.sampled_from([0.0, 0.05]),
    comp=st.sampled_from([PROSPECTIVE, REALIZED]),
    codes=profiles(),
)
def test_equal_rows_and_tied_strategies_switch_as_the_reference_does(pi, eps, c, w, comp, codes):
    # pi next to 1 leaves runs of different prefixes with equal rows, and c = 0 or w = 0 ties strategies
    # within a row, where the best code is the lowest
    cfg = _independent(ModelParams(pi=pi, eps=eps, g=0.5, c=c, w=w, v_c=1.0), len(codes), comp)
    assert repr(_listed(simulation._table_switches(cfg, codes, 0.0))) == repr(_reference_switches(cfg, codes))


@settings(max_examples=200, deadline=None)
@given(
    p=params.map(lambda p: ModelParams(p.pi, 0.0, p.g, p.c, p.w, p.v_c)),
    comp=st.sampled_from([PROSPECTIVE, REALIZED]),
    codes=profiles(),
)
def test_error_free_signals_switch_as_the_reference_does(p, comp, codes):
    # eps = 0: an agent who follows the signal never fails, so the prefix holds still along its run
    cfg = _independent(p, len(codes), comp)
    assert repr(_listed(simulation._table_switches(cfg, codes, 0.0))) == repr(_reference_switches(cfg, codes))


@settings(max_examples=200, deadline=None)
@given(p=params, comp=st.sampled_from([PROSPECTIVE, REALIZED]), codes=profiles())
def test_independent_seniority_payoffs_sum_the_reference_agent_by_agent(p, comp, codes):
    # each strategy's payoff weights the payoff of each prefix its agents read by their share, the highest
    # prefix (the most senior agents) first; the agent-by-agent mean of the state sums lies within ulps of it
    cfg = _independent(p, len(codes), comp)
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0)
    table = rows[row_of_agent]
    sums, sum_row_of_agent = _deviation_payoff_table(cfg, codes, 0.0, state_sums=True)
    prefix = _prefix(p, codes)
    want, by_agent = {}, {}
    sums = sums[sum_row_of_agent]
    for code in np.unique(codes).tolist():
        mine = codes == code
        fired, counts = np.unique(prefix[mine], return_counts=True)
        terms = [_payoff(AgentStrategy(code), chance, p, comp) for chance in fired[::-1].tolist()]
        want[AgentStrategy(code).label] = float(np.sum(np.array(terms) * (counts[::-1] / np.count_nonzero(mine))))
        assert set(table[mine, code].tolist()) == set(terms)
        by_agent[code] = float(np.sum(sums[mine, code] * (1 / np.count_nonzero(mine))))
    got = simulation.expected_strategy_payoffs(cfg, StrategyProfile(codes), 0.0)
    assert repr(got) == repr(want)
    for code, value in by_agent.items():
        _near_the_state_sums(got[AgentStrategy(code).label], value, p)


def test_the_targets_of_a_million_agents_take_no_table_per_agent():
    # the (m, 6) table per agent traced 99 MiB here; the prefixes, their change flags and a two-byte row index
    # are what is left
    n = 10**6
    cfg = _independent(P0, n)
    profile = StrategyProfile.symmetric(EFS, n)
    want = simulation.closed_form_targets(cfg, profile, 0.0)
    with traced_memory() as traced:
        got = simulation.closed_form_targets(cfg, profile, 0.0)
    assert repr(got) == repr(want)
    assert traced.peak < 48 * 2**20


def test_counting_the_deviations_of_a_million_agents_makes_no_list():
    # the reader returns its agents, best codes and gains as arrays; as three lists the count traced 97 MiB here
    n = 10**6
    cfg = _independent(P0, n)
    codes = np.full(n, int(EFS), dtype=np.int8)
    want = len(_reference_switches(cfg, codes)[0])
    with traced_memory() as traced:
        count = len(simulation._table_switches(cfg, codes, 0.0)[0])
    assert count == want
    assert traced.peak < 48 * 2**20


# -- one payoff algebra under every firing rule ----------------------------------


def _rows(p: ModelParams, comp: Compensation, signals: str, mode: str, codes: np.ndarray, gamma: float) -> np.ndarray:
    return simulation._deviation_payoff_table(SimConfig(p, len(codes), 1, 0, 1.0, signals, comp, mode), codes, gamma)[0]


@settings(max_examples=300, deadline=None)
@_with_corners
@given(p=params, gamma=st.floats(0.0, 1.0))
def test_the_firing_rules_share_the_payoffs_of_one_chance_of_being_fired(p, gamma):
    # the most senior agent under independent seniority is fired on any failure, as at gamma 1; under common
    # seniority row 3 is fired on any failure and row 0 never
    codes = np.arange(_N_STRATEGIES, dtype=np.int8)
    for comp in (PROSPECTIVE, REALIZED):
        uniform = [_rows(p, comp, COMMON, UNIFORM_RANDOM, codes, rate)[0].tolist() for rate in (0.0, 1.0)]
        _same(_rows(p, comp, INDEPENDENT, SENIORITY, codes, gamma)[0].tolist(), uniform[1])
        common = _rows(p, comp, COMMON, SENIORITY, codes, gamma)
        _same(common[3].tolist(), uniform[1])
        _same(common[0].tolist(), uniform[0])


@settings(max_examples=300, deadline=None)
@_with_corners
@given(p=params, gamma=st.floats(0.0, 1.0))
def test_a_lone_access_agent_is_paid_under_seniority_as_at_gamma_1(p, gamma):
    # the one agent with access is the first to fail whenever it fails, so seniority fires it as gamma 1 does
    for code in ALL_STRATEGIES:
        profile = StrategyProfile([int(code)])
        for comp in (PROSPECTIVE, REALIZED):
            uniform = SimConfig(p, 1, 1, 0, 1.0, COMMON, comp, UNIFORM_RANDOM)
            want = simulation.expected_strategy_payoffs(uniform, profile, 1.0)
            for signals in (COMMON, INDEPENDENT):
                cfg = SimConfig(p, 1, 1, 0, 1.0, signals, comp, SENIORITY)
                _same(simulation.expected_strategy_payoffs(cfg, profile, gamma), want)
