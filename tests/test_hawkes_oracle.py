"""Differential tests of the pure-Hawkes sampler, the thinning loop and the
fitter's ascent against the bodies they replaced (`oracle_hawkes`).

Each sampler runs on twin generators: the output must be equal byte for
byte and the generator must end in the same state, so every random draw is
the same draw in the same order.
"""

import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_hawkes
from commsim import hawkes, rng as rng_mod, timeutil
from commsim.corpus import EventLog
from commsim.hawkes import FitConfig, HawkesModel
from commsim.simulator import TriggerPlan

from conftest import BASE_MONDAY, assert_same_log, make_log, random_log

HOUR = 3600
DAY = 86400


def random_model(r, n, diagonal, alpha_kind, trigger_agents):
    """Baselines up to 0.6/h with about a third of the bins at zero; alpha
    "zero", "nonzero", or "triggers" (nonzero only on the trigger agents'
    rows, so the organic rows stay zero)."""
    base = r.random((n, hawkes.N_BINS)) * 0.6 * (r.random((n, hawkes.N_BINS)) > 0.3)
    alpha = np.zeros((n, n))
    if alpha_kind != "zero":
        alpha = r.random((n, n)) * 0.3 * (r.random((n, n)) > 0.3)
        if diagonal:
            alpha = np.diag(np.diag(alpha))
        if alpha_kind == "triggers":
            organic = [i for i in range(n) if i not in trigger_agents]
            alpha[organic] = 0.0
    labels = tuple(f"a{i:02d}" for i in range(n))
    return HawkesModel(labels, base, alpha, float(r.uniform(0.2, 3.0)), diagonal)


def random_schedule(r, n, trigger_agents, t0, t1):
    """Trigger events in and around the window, several sharing a timestamp."""
    if not trigger_agents:
        return EventLog(tuple(f"a{i:02d}" for i in range(n)), ())
    stamps = r.integers(t0 - HOUR, t1 + HOUR, size=4).tolist() + [t0]
    records = []
    for _ in range(int(r.integers(0, 10))):
        sender = int(r.choice(sorted(trigger_agents)))
        records.append((sender, (sender + 1) % n, int(r.choice(stamps))))
    return make_log(records, n_agents=n)


@contextmanager
def captured_generators():
    """Record every generator `substream` hands out, in order."""
    made = []

    def spy(seed, *labels):
        g = rng_mod.substream(seed, *labels)
        made.append(g)
        return g

    with mock.patch.object(hawkes, "substream", spy), \
            mock.patch.object(oracle_hawkes, "substream", spy):
        yield made


def assert_same_rollout(*args) -> dict:
    """Run both samplers on `args`; return the (equal) counters. The fast
    one builds its log from columns, the oracle from Events."""
    with captured_generators() as made:
        fast_counters, slow_counters = {}, {}
        fast = hawkes.simulate_pure_hawkes(*args, fast_counters)
        slow = oracle_hawkes.simulate_pure_hawkes(*args, slow_counters)
    assert_same_log(fast, slow, args[1])
    assert fast_counters == slow_counters
    assert made[0].bit_generator.state == made[1].bit_generator.state
    return fast_counters


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), diagonal=st.booleans(),
       alpha_kind=st.sampled_from(["zero", "nonzero", "triggers"]),
       n_triggers=st.integers(0, 2), zero_row=st.booleans())
def test_simulate_pure_hawkes_matches_oracle(seed, n, diagonal, alpha_kind, n_triggers,
                                             zero_row):
    r = np.random.default_rng(seed)
    trigger_agents = frozenset(r.permutation(n)[:min(n_triggers, n - 1)].tolist())
    model = random_model(r, n, diagonal, alpha_kind, trigger_agents)
    t0 = BASE_MONDAY + int(r.integers(0, 7 * DAY))
    t1 = t0 + int(r.integers(HOUR, 2 * DAY))
    plan = TriggerPlan(trigger_agents, random_schedule(r, n, trigger_agents, t0, t1))
    history = random_log(r, n, int(r.integers(0, 30)), t0 - 2 * DAY, 2 * DAY + 1)
    dist = r.random((n, n)) * (r.random((n, n)) > 0.4)
    if zero_row:
        dist[int(r.integers(n))] = 0.0  # that sender falls back to a uniform recipient
    assert_same_rollout(model, (t0, t1), plan, history, dist, int(r.integers(2**31)))


@pytest.mark.parametrize("quiet_hours,triggers", [
    (0, [(1, HOUR), (2, HOUR), (3, 5 * HOUR)]),
    (3, [(1, HOUR + 1800), (2, 2 * HOUR + 600), (3, 2 * HOUR + 2400), (1, 3 * HOUR)]),
], ids=["shared_stamp", "folded_injection"])
def test_simulate_pure_hawkes_covers_the_fallback_and_excited_paths(quiet_hours, triggers):
    """Fixed cases of the property above that are sure to take the uniform
    fallback, the choice CDF and the excitation branch. The first has
    shared-timestamp triggers. The second has no baseline in its first
    hours, so the zero-bound jump lands on the first trigger; it also has
    two trigger stamps in one hour and a trigger on an hour boundary."""
    n = 4
    t0, t1 = BASE_MONDAY, BASE_MONDAY + DAY
    base = np.full((n, hawkes.N_BINS), 0.8)
    base[:, [timeutil.flat_bin_of(t0 + h * HOUR) for h in range(quiet_hours)]] = 0.0
    alpha = 0.2 * np.eye(n) + 0.05
    model = HawkesModel(tuple(f"a{i:02d}" for i in range(n)), base, alpha, 1.5, False)
    sched = make_log([(0, r, t0 + dt) for r, dt in triggers], n_agents=n)
    plan = TriggerPlan(frozenset({0}), sched)
    dist = np.array([[0, 1, 1, 1], [0, 0, 0, 0], [1, 2, 0, 0], [3, 0, 1, 0]], dtype=float)
    counters = assert_same_rollout(model, (t0, t1), plan, EventLog(model.agents, ()), dist, 3)
    assert 0 < counters["uniform_recipient_fallbacks"] < counters["organic_events"]


@pytest.mark.parametrize("excited", [False, True], ids=["zero_alpha", "excited"])
def test_simulate_pure_hawkes_wraps_the_week_on_an_hour_boundary_trigger(excited):
    """The window opens in Sunday's last hour, so the kernel's running bin
    wraps 167 -> 0; one trigger lands exactly on that boundary and one on a
    later hour boundary. Each bin has its own baseline, so a wrong bin
    changes the draws."""
    n = 3
    t0, t1 = BASE_MONDAY - 1800, BASE_MONDAY + 4 * HOUR
    base = np.tile(0.3 + np.arange(hawkes.N_BINS) / hawkes.N_BINS, (n, 1))
    alpha = 0.3 * np.eye(n) + 0.05 if excited else np.zeros((n, n))
    model = HawkesModel(tuple(f"a{i:02d}" for i in range(n)), base, alpha, 1.5, False)
    sched = make_log([(0, 1, BASE_MONDAY), (0, 2, BASE_MONDAY + 2 * HOUR)], n_agents=n)
    plan = TriggerPlan(frozenset({0}), sched)
    dist = np.ones((n, n)) - np.eye(n)
    for seed in range(5):
        counters = assert_same_rollout(model, (t0, t1), plan, EventLog(model.agents, ()),
                                       dist, seed)
        assert counters["organic_events"] > 0


def test_simulate_pure_hawkes_rejects_a_row_choice_rejects():
    m = HawkesModel(("a", "b", "c"), np.full((3, hawkes.N_BINS), 2.0), np.zeros((3, 3)),
                    1.0, True)
    dist = np.array([[0.0, 2.0, -1.0]] * 3)  # positive sum, one negative entry
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    for simulate in (hawkes.simulate_pure_hawkes, oracle_hawkes.simulate_pure_hawkes):
        with pytest.raises(ValueError):
            simulate(m, window, None, EventLog(m.agents, ()), dist, 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), draws=st.integers(1, 6))
def test_choice_cdf_draw_matches_generator_choice(seed, n, draws):
    r = np.random.default_rng(seed)
    row = r.random(n) * (r.random(n) > 0.4) * 10.0 ** float(r.integers(-3, 4))
    if row.sum() == 0:
        row[int(r.integers(n))] = 1.0
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    cdf = rng_mod.choice_cdf(row, n)
    for _ in range(draws):
        want = int(theirs.choice(n, p=row / row.sum()))
        assert int(cdf.searchsorted(ours.random(), side="right")) == want
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), draws=st.integers(1, 12))
def test_recipient_draw_matches_choice_and_the_uniform_fallback(seed, n, draws):
    """`RecipientDraw` draws a positive row's recipient as `choice(n, p=row /
    row.sum())` and an all-zero row's as an `integers` pick among the other
    agents; with no other agent it returns None and draws nothing."""
    r = np.random.default_rng(seed)
    weights = r.random((n, n)) * (r.random((n, n)) > 0.4) * 10.0 ** r.integers(-3, 4, (n, 1))
    weights[r.random(n) < 0.4] = 0.0
    draw = rng_mod.RecipientDraw(weights, n)
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for sender in r.integers(n, size=draws).tolist():
        row = weights[sender]
        others = [j for j in range(n) if j != sender]
        if row.sum() > 0:
            want = int(theirs.choice(n, p=row / row.sum()))
        else:
            want = others[int(theirs.integers(len(others)))] if others else None
        assert draw.uniform(sender) == (row.sum() == 0)
        assert draw(ours, sender) == want
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_simulate_pure_hawkes_addresses_a_lone_sender_to_itself():
    """With one agent the uniform fallback has no other agent: the sender
    writes to itself, and the fallback is counted."""
    model = HawkesModel(("a00",), np.full((1, hawkes.N_BINS), 0.05), np.zeros((1, 1)),
                        1.0, True)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    counters = assert_same_rollout(model, window, None, EventLog(model.agents, ()),
                                   np.zeros((1, 1)), 0)
    assert counters == {"uniform_recipient_fallbacks": 1, "organic_events": 1}
    log = hawkes.simulate_pure_hawkes(model, window, None, EventLog(model.agents, ()),
                                      np.zeros((1, 1)), 0)
    assert [(e.sender, e.recipients) for e in log.events] == [(0, (0,))]


@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 1000])
def test_standard_exponential_block_is_scalar_exponentials(k):
    """The one-agent sampler reads its gaps from `standard_exponential(k)`:
    (1 / lam) * entry is the double `exponential(1 / lam)` gives, and both
    leave the same state, also after a restore and a redraw of j < k."""
    scales = 1.0 / np.random.default_rng(k).uniform(1e-3, 50.0, size=k)
    ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
    saved = ours.bit_generator.state
    block = ours.standard_exponential(k).tolist()
    want = [theirs.exponential(scale) for scale in scales.tolist()]
    assert [scale * e for scale, e in zip(scales.tolist(), block)] == want
    assert ours.bit_generator.state == theirs.bit_generator.state
    for j in {0, 1, k // 2, k - 1}:
        twin = np.random.default_rng(12)
        for _ in range(j):
            twin.standard_exponential()
        ours.bit_generator.state = saved
        ours.standard_exponential(j)
        assert ours.bit_generator.state == twin.bit_generator.state


def test_generator_random_is_uniform():
    """The thinning kernel draws its acceptance uniform with `random()` where
    the oracles call `uniform()`; numpy computes uniform() as 0.0 + 1.0 *
    random(), so both give the same doubles and leave the same state."""
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    got = [ours.random() for _ in range(100_000)]
    want = [theirs.uniform() for _ in range(100_000)]
    assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("row", [[0.0, 2.0, -1.0], [np.inf, 1.0, 0.0], [1e308, 1e308, 0.0]])
def test_choice_cdf_rejects_what_choice_rejects(row):
    row = np.array(row)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=row / row.sum())
        with pytest.raises(ValueError):
            rng_mod.choice_cdf(row, 3)
    with pytest.raises(ValueError):
        rng_mod.choice_cdf(np.array([1.0, 1.0]), 3)  # choice: a and p differ in size


SUNDAY_LAST_HOUR = 7 * DAY - 1800  # a start offset: 23:30 on the first Sunday
BLOCK = hawkes._WAKE_BLOCK
# (seed, start, length, scale, steps): zero-excitation calls whose first wake
# the oracle finds after exactly `steps` exponential draws, walking past
# zero-rate hours on the way; steps=None: the horizon comes first, mid-block
BLOCK_EDGES = {
    "one block": (200, 0, 8 * DAY, 0.05, BLOCK),
    "one block and one": (113, 0, 8 * DAY, 0.05, BLOCK + 1),
    "horizon mid-block": (1, 0, 2 * DAY, 0.05, None),
}


def _model_and_agent(seed, scale):
    r = np.random.default_rng(seed)
    model = random_model(r, 3, diagonal=True, alpha_kind="nonzero", trigger_agents=())
    model = HawkesModel(model.agents, model.baselines * scale, model.alpha,
                        model.beta_per_hour, True)
    return model, int(r.integers(3))


def _edge_examples(test):
    for seed, start, length, scale, _ in BLOCK_EDGES.values():
        test = example(seed=seed, excitation=0.0, start=start, length=length, scale=scale)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), excitation=st.floats(0.0, 5.0),
       start=st.integers(0, 7 * DAY), length=st.integers(1, 8 * DAY),
       scale=st.sampled_from([1.0, 0.05]))
@example(seed=1, excitation=0.0, start=0, length=3 * DAY, scale=1.0)
@example(seed=2, excitation=0.0, start=1234, length=HOUR, scale=1.0)
@example(seed=3, excitation=0.0, start=SUNDAY_LAST_HOUR, length=2 * DAY, scale=1.0)
@example(seed=4, excitation=2.5, start=SUNDAY_LAST_HOUR, length=2 * DAY, scale=1.0)
@example(seed=5, excitation=2.5, start=0, length=8 * DAY, scale=0.05)
@_edge_examples
def test_thin_next_activation_matches_oracle(seed, excitation, start, length, scale):
    """A zero excitation takes the kernel's branch without a rate; a start in
    Sunday's last hour makes the running bin wrap 167 -> 0. Baselines scaled
    to 0.05 make calls walk past one or more blocks of exponentials."""
    model, agent = _model_and_agent(seed, scale)
    t_now = BASE_MONDAY + start
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):  # successive wakes, as a rollout makes them
        fast = hawkes.thin_next_activation(model, agent, excitation, t_now, t_now + length,
                                           fast_rng)
        slow = oracle_hawkes.thin_next_activation(model, agent, excitation, t_now,
                                                  t_now + length, slow_rng)
        assert fast == slow
        if fast is None:
            break
        t_now = fast
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class _CountingDraws:
    """The oracle's generator, counting its exponential draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def exponential(self, scale):
        self.draws += 1
        return self.rng.exponential(scale)

    def uniform(self):
        return self.rng.uniform()


@pytest.mark.parametrize("edge", BLOCK_EDGES)
def test_block_edge_examples_reach_their_edge(edge):
    """Each BLOCK_EDGES example does what its name says on the oracle, so the
    examples above keep testing the block's edges."""
    seed, start, length, scale, steps = BLOCK_EDGES[edge]
    model, agent = _model_and_agent(seed, scale)
    t_now = BASE_MONDAY + start
    draws = _CountingDraws(seed)
    wake = oracle_hawkes.thin_next_activation(model, agent, 0.0, t_now, t_now + length, draws)
    end = t_now + length if wake is None else wake
    hours = range(t_now // HOUR, -(-end // HOUR))
    zero_hours = [h for h in hours if model.baselines[agent, timeutil.flat_bin_of_hour(h)] == 0]
    assert zero_hours and zero_hours[-1] < end // HOUR  # a zero-rate hour between two draws
    if steps is None:
        assert wake is None and 0 < draws.draws < BLOCK
    else:
        assert wake is not None and draws.draws == steps


def block_ascent(terms, beta, bin_hours, cfg, size):
    """`hawkes._ascend` on a list of `_AgentTerms` in blocks of `size`
    agents: ((mu, alpha_row, stop) per agent, counters), mu and alpha_row
    as bytes, or the error's text and the counters it left. Asserts that
    the ascent raised no RuntimeWarning."""
    n = len(terms)
    baselines = np.zeros((n, hawkes.N_BINS))
    alpha = np.zeros((n, max(int(t.columns.max()) for t in terms) + 1))
    blocks = [list(range(k, min(k + size, n))) for k in range(0, n, size)]
    counters = {"unconverged_max_iters": 0, "unconverged_backtracking_failed": 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stops = hawkes._ascend(blocks, dict(enumerate(terms)), beta, bin_hours, cfg,
                                   baselines, alpha, counters)
        except hawkes.HawkesError as exc:
            stops = f"HawkesError: {exc}"
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if isinstance(stops, str):
        return stops, counters
    return [(baselines[i].tobytes(), alpha[i, t.columns].tobytes(), stop)
            for i, (t, stop) in enumerate(zip(terms, stops))], counters


def sequential_ascent(maximize, terms, beta, bin_hours, cfg):
    """`block_ascent`'s result from one oracle ascent per agent, in agent
    order, counted as `fit` counted them and stopped at the first error."""
    out, counters = [], {"unconverged_max_iters": 0, "unconverged_backtracking_failed": 0}
    for t in terms:
        try:
            mu, alpha, stop = maximize(t, beta, bin_hours, cfg)
        except hawkes.HawkesError as exc:
            return f"HawkesError: {exc}", counters
        if stop != "converged":
            counters[f"unconverged_{stop}"] += 1
        out.append((mu.tobytes(), alpha.tobytes(), stop))
    return out, counters


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), diagonal=st.booleans(),
       beta=st.sampled_from([0.5, 4.0, 30.0]))
def test_maximize_agent_matches_oracle(seed, n, diagonal, beta):
    """The block ascent on a random log's terms, in `fit`'s byte-budget
    blocks, against the ascent that recomputes the intensities each
    iteration, one agent at a time."""
    r = np.random.default_rng(seed)
    t0, t1 = BASE_MONDAY + DAY, BASE_MONDAY + 4 * DAY
    log = random_log(r, n, int(r.integers(2, 60)), BASE_MONDAY, 4 * DAY)
    terms = hawkes._agent_terms(log, (t0, t1), beta, diagonal)
    bin_hours = timeutil.weekly_bin_hours(t0, t1)
    cfg = FitConfig(max_iters=int(r.integers(1, 40)))
    baselines, alpha = np.zeros((n, hawkes.N_BINS)), np.zeros((n, n))
    counters = {"unconverged_max_iters": 0, "unconverged_backtracking_failed": 0}
    stops = hawkes._ascend(hawkes._ascent_blocks(terms), terms, beta, bin_hours, cfg,
                           baselines, alpha, counters)
    for i in range(n):
        mu_o, alpha_o, stop_o = oracle_hawkes.maximize_agent(terms[i], beta, bin_hours, cfg)
        assert baselines[i].tobytes() == mu_o.tobytes()
        assert alpha[i, terms[i].columns].tobytes() == alpha_o.tobytes()
        assert stops[i] == stop_o


def _random_terms(r, window, m, diagonal, n_ev, scale):
    """One agent's `_AgentTerms`: n_ev events at random times in the window,
    a nonnegative S with some zero entries and columns that never excite
    (an all-zero S column with weight 0)."""
    stamps = r.integers(*window, size=n_ev)
    S = r.exponential(scale, size=(n_ev, m)) * (r.random((n_ev, m)) > 0.2)
    weights = r.uniform(0.0, 3.0, size=m)
    silent = r.random(m) < 0.3
    S[:, silent], weights[silent] = 0.0, 0.0
    columns = np.array([int(r.integers(5))]) if diagonal else np.arange(m)
    return hawkes._AgentTerms(bins=timeutil.flat_bin_of(stamps), S=S, weights=weights,
                              columns=columns)


def _random_window(r):
    start = BASE_MONDAY + int(r.integers(0, 7 * DAY))
    return start, start + int(r.integers(HOUR, 9 * DAY))


@st.composite
def random_agent_terms(draw):
    """One agent's `_AgentTerms` drawn directly, with the `bin_hours` of its
    window: diagonal (one column) or full, possibly with no event."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diagonal = draw(st.booleans())
    m = 1 if diagonal else draw(st.integers(2, 6))
    n_ev = draw(st.integers(0, 40))
    window = _random_window(r)
    scale = float(draw(st.sampled_from([0.01, 1.0, 20.0])))
    return _random_terms(r, window, m, diagonal, n_ev, scale), timeutil.weekly_bin_hours(*window)


@st.composite
def random_term_batches(draw):
    """Several agents' `_AgentTerms` over one window, with its `bin_hours`:
    all diagonal or all full with one column count, as in one fit; some
    agents have no event. In about half the batches, some agents' ascents
    fail: a negative S entry can make an intensity nonpositive from the
    start, and a NaN weight makes the likelihood non-finite."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diagonal = draw(st.booleans())
    m = 1 if diagonal else draw(st.integers(2, 6))
    n = draw(st.integers(1, 7))
    window = _random_window(r)
    scale = float(draw(st.sampled_from([0.01, 1.0, 20.0])))
    failing = draw(st.booleans())
    terms = []
    for _ in range(n):
        t = _random_terms(r, window, m, diagonal, int(r.integers(0, 30) * (r.random() > 0.2)),
                          scale)
        if failing and len(t.bins) and r.random() < 0.3:
            if r.random() < 0.5:
                t.S[int(r.integers(len(t.bins))), int(r.integers(m))] = -1e6
            else:
                t.weights[int(r.integers(m))] = np.nan
        terms.append(t)
    return terms, timeutil.weekly_bin_hours(*window)


@settings(max_examples=150, deadline=None)
@given(case=random_agent_terms(), beta=st.sampled_from([0.3, 2.0, 30.0]),
       max_iters=st.integers(1, 80), tolerance=st.sampled_from([1e-9, 1e-6, 1e-2]),
       floor=st.sampled_from([1e-9, 1e-6, 0.05]))
def test_maximize_agent_on_random_terms_matches_oracles(case, beta, max_iters, tolerance, floor):
    """Byte-equal mu, alpha and stop reason (or the same error) from the
    block ascent on one agent and from the three one-agent bodies before
    it: the one that recomputes the intensities each iteration, the
    two-array one that reuses the accepted candidate's, and the one-vector
    one."""
    terms, bin_hours = case
    cfg = FitConfig(max_iters=max_iters, tolerance=tolerance, baseline_floor=floor)
    got, _ = block_ascent([terms], beta, bin_hours, cfg, 1)
    for maximize in (oracle_hawkes.maximize_agent, oracle_hawkes.maximize_agent_two_arrays,
                     oracle_hawkes.maximize_agent_one_vector):
        assert got == sequential_ascent(maximize, [terms], beta, bin_hours, cfg)[0]


@settings(max_examples=150, deadline=None)
@given(case=random_term_batches(), beta=st.sampled_from([0.3, 2.0, 30.0]),
       max_iters=st.integers(1, 80), tolerance=st.sampled_from([1e-9, 1e-6, 1e-2]),
       floor=st.sampled_from([1e-9, 1e-6, 0.05]))
def test_block_ascent_matches_per_agent_oracle(case, beta, max_iters, tolerance, floor):
    """A batch through the block ascent, in blocks of 1, 2 and all its
    agents, and through the one-vector ascent one agent at a time: byte-equal
    mu, alpha and stop reasons; or the same error, from the first agent
    that fails, with the counters the agents before it left. The fit's
    telemetry: the summed likelihood is each agent's likelihood at its
    fitted mu and alpha, added in agent order, and an agent that ran out of
    iterations ran the most."""
    terms, bin_hours = case
    cfg = FitConfig(max_iters=max_iters, tolerance=tolerance, baseline_floor=floor)
    want, want_counters = sequential_ascent(oracle_hawkes.maximize_agent_one_vector, terms,
                                            beta, bin_hours, cfg)
    for size in sorted({1, 2, len(terms)}):
        got, counters = block_ascent(terms, beta, bin_hours, cfg, size)
        assert got == want
        if isinstance(want, str):
            assert counters == want_counters
            continue
        total = 0.0
        for t, (mu, alpha, _) in zip(terms, want):
            total += oracle_hawkes.agent_ll_and_intensity(
                t, np.frombuffer(mu), np.frombuffer(alpha), beta, bin_hours)[0]
        assert counters.pop("log_likelihood") == total
        ran_out = counters.pop("ascent_iterations_max")
        assert ran_out <= max_iters
        assert (ran_out == max_iters) >= (want_counters["unconverged_max_iters"] > 0)
        median = counters.pop("ascent_iterations_median")
        assert (0 < median <= ran_out) or not any(len(t.bins) for t in terms)
        assert counters == want_counters
