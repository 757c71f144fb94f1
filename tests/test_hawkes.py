import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import hawkes, timeutil
from commsim.corpus import Event, EventLog
from commsim.hawkes import (FitConfig, HawkesError, HawkesModel, fit,
                            log_likelihood, model_from_dict,
                            sample_next_activation, simulate_pure_hawkes)

from conftest import BASE_MONDAY, ZeroDraws, make_log
from oracle_corpus import scan_sent_times
from oracle_hawkes import baseline_rate, excitation_integral, intensity

HOUR = 3600
DAY = 86400


def const_model(n=1, mu=1.0, alpha=0.0, beta=1.0, diagonal=True, off_diag=None):
    baselines = np.full((n, 168), float(mu))
    if off_diag is not None:
        a = np.full((n, n), float(off_diag))
        np.fill_diagonal(a, float(alpha))
        diagonal = False
    else:
        a = np.diag(np.full(n, float(alpha)))
    labels = tuple(f"a{i:02d}" for i in range(n))
    return HawkesModel(labels, baselines, a, float(beta), diagonal)


def test_intensity_no_history():
    m = const_model(mu=0.7)
    empty = EventLog(m.agents, ())
    assert intensity(m, 0, BASE_MONDAY, empty) == 0.7


def test_intensity_kernel_arithmetic():
    m = const_model(mu=1.0, alpha=0.5, beta=1.0)
    t0 = BASE_MONDAY + 9 * HOUR
    hist = make_log([(0, 1, t0)], n_agents=2)
    model2 = const_model(n=2, mu=1.0, alpha=0.5, beta=1.0)
    # just after the event the rate jumps by alpha * beta
    assert intensity(model2, 0, t0 + 1, hist) == pytest.approx(1.5, abs=1e-3)
    # the event does not contribute at its own timestamp (strict past)
    assert intensity(model2, 0, t0, hist) == 1.0
    # ln 2 hours later the excitation has halved
    assert intensity(model2, 0, t0 + math.log(2) * HOUR, hist) == pytest.approx(1.25, rel=1e-10)


def test_intensity_jump_is_alpha_beta():
    m = const_model(n=2, mu=0.3, alpha=0.8, beta=2.5)
    t0 = BASE_MONDAY
    hist = make_log([(1, 0, t0)], n_agents=2)
    before = intensity(m, 0, t0, hist)
    assert before == 0.3  # off-diagonal zero: sender 1 does not excite 0
    m_full = const_model(n=2, mu=0.3, alpha=0.8, beta=2.5, off_diag=0.4)
    jump = intensity(m_full, 0, t0 + 1, hist) - intensity(m_full, 0, t0, hist)
    assert jump == pytest.approx(0.4 * 2.5, rel=1e-3)


def test_intensity_naive_sum_oracle():
    rng = np.random.default_rng(4)
    n = 3
    alpha = rng.random((n, n))
    baselines = rng.random((n, 168)) + 0.1
    model = HawkesModel(("x", "y", "z"), baselines, alpha, 1.7, False)
    t0 = BASE_MONDAY
    events = [(int(rng.integers(n)), int(rng.integers(n)), t0 + int(rng.integers(0, 5 * HOUR)))
              for _ in range(3)]
    events = [(s, (r,) if r != s else ((r + 1) % n,), t) for s, r, t in events]
    hist = make_log(events, n_agents=n)
    t = t0 + 6 * HOUR
    for agent in range(n):
        expected = float(baselines[agent, timeutil.flat_bin_of_hour(t // HOUR)])
        for e in hist.events:
            if e.ts < t:
                expected += alpha[agent, e.sender] * 1.7 * math.exp(-1.7 * (t - e.ts) / HOUR)
        assert intensity(model, agent, t, hist) == pytest.approx(expected, rel=1e-12)


def test_intensity_unknown_agent():
    m = const_model()
    with pytest.raises(HawkesError):
        intensity(m, 5, BASE_MONDAY, EventLog(m.agents, ()))


def test_loglik_homogeneous_poisson():
    m = const_model(mu=1.0, alpha=0.0, beta=1.0)
    t0 = BASE_MONDAY
    events = make_log([(0, 1, t0 + HOUR), (0, 1, t0 + 3 * HOUR), (0, 1, t0 + 7 * HOUR)],
                      n_agents=2)
    # single fitted agent: model with 2 agents would add the second agent's
    # baseline integral, so build a 1-agent view
    one = EventLog(("a00",), tuple(
        type(e)(e.event_id, 0, (0,), e.ts) for e in events.events))
    # recipients=sender would be a self loop but corpus allows it; excitation
    # is zero (alpha = 0) and only sender timestamps matter here
    ll = log_likelihood(m, one, (t0, t0 + 10 * HOUR))
    assert ll == pytest.approx(3 * math.log(1.0) - 10.0, abs=1e-9)


def test_loglik_window_split_additive():
    rng = np.random.default_rng(9)
    m = const_model(n=2, mu=0.8, alpha=0.6, beta=1.3)
    t0 = BASE_MONDAY
    recs = []
    for k in range(20):
        s = int(rng.integers(2))
        recs.append((s, 1 - s, t0 + int(rng.integers(0, 30 * HOUR))))
    log = make_log(recs, n_agents=2)
    t_mid = t0 + 13 * HOUR + 1  # not an event time
    assert all(e.ts != t_mid for e in log.events)
    full = log_likelihood(m, log, (t0, t0 + 30 * HOUR))
    left = log_likelihood(m, log, (t0, t_mid))
    right = log_likelihood(m, log, (t_mid, t0 + 30 * HOUR))
    assert full == pytest.approx(left + right, rel=1e-9)


def test_excitation_integral_quadrature_oracle():
    from scipy.integrate import quad

    rng = np.random.default_rng(21)
    for trial in range(5):
        beta = float(rng.uniform(0.3, 3.0))
        alpha = float(rng.uniform(0.1, 1.5))
        m = const_model(n=2, mu=0.5, alpha=alpha, beta=beta)
        t0 = BASE_MONDAY
        times = sorted(int(t) for t in rng.integers(t0 - 5 * HOUR, t0 + 8 * HOUR, size=3))
        hist = make_log([(0, 1, t) for t in times], n_agents=2)
        window = (t0, t0 + 10 * HOUR)
        closed = excitation_integral(m, 0, hist, window)

        def exc(u_hours):
            t = window[0] + u_hours * HOUR
            return sum(alpha * beta * math.exp(-beta * (t - e) / HOUR)
                       for e in times if e < t)

        pieces = [0.0] + sorted((e - window[0]) / HOUR for e in times
                                if window[0] < e < window[1]) + [10.0]
        total = 0.0
        for a, b in zip(pieces, pieces[1:]):
            val, _ = quad(exc, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
            total += val
        assert closed == pytest.approx(total, rel=1e-8)


def oracle_decayed_sums(source_ts: np.ndarray, eval_ts: np.ndarray, beta: float) -> np.ndarray:
    """S[k] = sum over source events strictly before eval_ts[k] of
    exp(-beta * (eval_ts[k] - t_e) / 3600). Both arrays sorted ascending."""
    s = np.zeros(len(eval_ts))
    g = 0.0
    last = None
    si = 0
    n_src = len(source_ts)
    for k, t in enumerate(eval_ts):
        # admit sources strictly before t
        while si < n_src and source_ts[si] < t:
            te = source_ts[si]
            if last is not None:
                g *= math.exp(-beta * (te - last) / hawkes.SECONDS_PER_HOUR)
            g += 1.0
            last = te
            si += 1
        if last is None:
            s[k] = 0.0
        else:
            s[k] = g * math.exp(-beta * (t - last) / hawkes.SECONDS_PER_HOUR)
    return s


def oracle_agent_terms(log, window, beta, diagonal_only):
    """The per-(receiver, source column) construction that the one-sweep
    `hawkes._agent_terms` replaced."""
    t0, t1 = window
    sent = scan_sent_times(log)
    n = log.n_agents
    out = {}
    for i in range(n):
        own = sent.get(i, np.empty(0, dtype=np.int64))
        evals = own[(own >= t0) & (own < t1)]
        cols = np.array([i]) if diagonal_only else np.arange(n)
        S = np.zeros((len(evals), len(cols)))
        weights = np.zeros(len(cols))
        for c, j in enumerate(cols):
            src = sent.get(int(j), np.empty(0, dtype=np.int64))
            if len(src) == 0:
                continue
            if len(evals):
                S[:, c] = oracle_decayed_sums(src, evals, beta)
            weights[c] = hawkes._excitation_weights(src, t0, t1, beta)
        out[i] = hawkes._AgentTerms(bins=np.array([timeutil.flat_bin_of(int(t)) for t in evals],
                                                  dtype=np.int64),
                                    S=S, weights=weights, columns=cols)
    return out


@st.composite
def fit_cases(draw):
    """(log, window): some agents never send, events fall before, inside
    and at or after the window, on its edges, and share timestamps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    senders = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    t0 = BASE_MONDAY + draw(st.integers(0, 2 * DAY))
    t1 = t0 + draw(st.integers(1, 3 * DAY))
    grain = draw(st.sampled_from([1, 60, 3600]))
    ts = (rng.integers(BASE_MONDAY, t1 + DAY, size=draw(st.integers(0, 80)))
          // grain * grain).tolist()
    ts += [t0, t1, t1 - 1] * draw(st.integers(0, 2))
    events = []
    for k, t in enumerate(sorted(ts)):
        sender = int(rng.choice(senders))
        events.append(Event(k, sender, ((sender + 1) % n,), int(t)))
    labels = tuple(f"a{i:02d}" for i in range(n))
    return EventLog(labels, tuple(events)), (t0, t1)


@settings(max_examples=80, deadline=None)
@given(fit_cases(), st.sampled_from([0.01, 0.5, 3.0, 40.0]), st.booleans())
def test_agent_terms_match_pair_oracle(case, beta, diagonal_only):
    log, window = case
    got = hawkes._agent_terms(log, window, beta, diagonal_only)
    want = oracle_agent_terms(log, window, beta, diagonal_only)
    assert sorted(got) == sorted(want)
    for i, w in want.items():
        for field in ("S", "weights", "bins", "columns"):
            g_arr, w_arr = getattr(got[i], field), getattr(w, field)
            assert g_arr.dtype == w_arr.dtype, (i, field)
            assert np.array_equal(g_arr, w_arr), (i, field)


@pytest.mark.parametrize("seed", range(8))
def test_log_likelihood_matches_brute_force(seed):
    # sum of log intensity at each in-window event, minus each agent's
    # baseline and excitation integrals (the kernel's beta cancels in the
    # latter, so `excitation_integral` carries no beta factor)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    model = HawkesModel(tuple(f"a{i:02d}" for i in range(n)),
                        rng.uniform(0.05, 1.0, size=(n, 168)),
                        rng.uniform(0.0, 0.5, size=(n, n)),
                        float(rng.uniform(0.05, 5.0)), False)
    t0 = BASE_MONDAY + DAY
    window = (t0, t0 + 2 * DAY + int(rng.integers(HOUR)))
    recs = [(int(s), (int(s) + 1) % n, int(t)) for s, t in
            zip(rng.integers(n, size=60), rng.integers(BASE_MONDAY, t0 + 4 * DAY, size=60))]
    log = make_log(recs, n_agents=n)
    bin_hours = timeutil.weekly_bin_hours(*window)
    want = 0.0
    for i in range(n):
        for e in log.events:
            if e.sender == i and window[0] <= e.ts < window[1]:
                want += math.log(intensity(model, i, e.ts, log))
        want -= bin_hours @ model.baselines[i]
        want -= excitation_integral(model, i, log, window)
    assert log_likelihood(model, log, window) == pytest.approx(want, rel=1e-9)


def test_fit_counts_unconverged_agents(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    counters = {}
    one_step = fit(mini_log, (h0, h1), FitConfig(max_iters=1), counters=counters)
    senders = {e.sender for e in mini_log.events if h0 <= e.ts < h1}
    # here one ascent step does not meet the tolerance for any sender;
    # agents without sends are solved in closed form and count as converged
    assert counters["unconverged_max_iters"] == len(senders) > 0
    assert counters["unconverged_backtracking_failed"] == 0
    # counting does not change the fit
    assert one_step.to_json() == fit(mini_log, (h0, h1), FitConfig(max_iters=1)).to_json()
    full = {}
    model = fit(mini_log, (h0, h1), FitConfig(), counters=full)
    # the fit's telemetry: iteration counts over the senders, and the summed
    # likelihood of the fitted model
    assert full == {"unconverged_max_iters": 0, "unconverged_backtracking_failed": 0,
                    "ascent_iterations_max": 3, "ascent_iterations_median": 2.0,
                    "log_likelihood": pytest.approx(log_likelihood(model, mini_log, (h0, h1)),
                                                    rel=1e-12)}


def test_fit_beta_override_and_preconditions(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    model = fit(mini_log, (h0, h1), FitConfig(beta_override=2.0, max_iters=50))
    assert model.beta_per_hour == 2.0
    assert model.diagonal_only
    assert np.all(model.alpha >= 0) and np.all(model.baselines > 0)
    with pytest.raises(HawkesError):
        fit(mini_log, (h0, h0 + 60), FitConfig())  # < 2 events


@pytest.mark.parametrize("field,value", [
    ("beta_override", math.nan), ("beta_override", math.inf), ("beta_override", 0.0),
    ("max_iters", 2.5), ("max_iters", True), ("max_iters", 0),
    ("tolerance", math.nan), ("tolerance", math.inf), ("baseline_floor", math.nan),
    ("baseline_floor", -1e-6),
])
def test_fit_config_rejects_bad_settings(field, value):
    with pytest.raises(HawkesError, match="must be positive"):
        FitConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("beta_override", True), ("tolerance", True), ("baseline_floor", True),
    ("beta_override", "2"), ("tolerance", "x"), ("beta_per_hour", True), ("beta_per_hour", "2"),
])
def test_fit_config_and_model_reject_a_non_number(field, value):
    """math.isfinite() reads true as 1.0: a fit with beta_override=True wrote
    a model.json with "beta_per_hour": true that load_model refused."""
    message = f"^{field} {re.escape(repr(value))} is not a number$"
    with pytest.raises(HawkesError, match=message):
        if field == "beta_per_hour":
            HawkesModel(("a",), np.ones((1, 168)), np.zeros((1, 1)), value, True)
        else:
            FitConfig(**{field: value})


@pytest.mark.parametrize("value", ["no", 0, None])
def test_fit_config_rejects_non_bool_diagonal_only(value):
    with pytest.raises(HawkesError, match="diagonal_only .* is not a boolean"):
        FitConfig(diagonal_only=value)


@pytest.mark.parametrize("field,value,message", [
    ("diagonal_only", "no", "diagonal_only 'no' is not a boolean"),
    ("diagonal_only", 1, "diagonal_only 1 is not a boolean"),
    ("beta_per_hour", "2", "beta_per_hour '2' is not a number"),
    ("beta_per_hour", True, "beta_per_hour True is not a number"),
    # tuple() would read "ab" as the two agents a and b
    ("agents", "ab", "agents 'ab' is not a list of strings"),
    ("agents", ["a", 2], r"agents \['a', 2\] is not a list of strings"),
])
def test_model_from_dict_rejects_wrong_types(field, value, message):
    d = json.loads(const_model(n=2, mu=0.5, alpha=0.3).to_json())
    with pytest.raises(HawkesError, match=message):
        model_from_dict({**d, field: value})


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
def test_model_rejects_non_finite_or_nonpositive_beta(beta):
    with pytest.raises(HawkesError, match="beta must be positive and finite"):
        HawkesModel(("a",), np.ones((1, 168)), np.zeros((1, 1)), beta, True)


def test_fit_monotone_likelihood(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    cfg = FitConfig(max_iters=40)
    model = fit(mini_log, (h0, h1), cfg)
    # fitted parameters beat the empirical-rate initialization
    init = fit(mini_log, (h0, h1), FitConfig(max_iters=1, beta_override=model.beta_per_hour))
    assert log_likelihood(model, mini_log, (h0, h1)) >= \
        log_likelihood(init, mini_log, (h0, h1)) - 1e-9


def test_fit_agent_without_events_gets_floor(mini_log, mini_manifest):
    h0, _ = mini_manifest["history_window"]
    # day 0 only: frank sends nothing until day 2
    model = fit(mini_log, (h0, h0 + DAY), FitConfig(max_iters=30))
    idle = mini_log.index_of("frank")
    assert np.all(model.baselines[idle] == FitConfig().baseline_floor)
    assert np.all(model.alpha[idle] == 0.0)


def test_fit_recovers_constant_rate():
    t0 = BASE_MONDAY
    rng = np.random.default_rng(31)
    # alpha=0: the process is homogeneous Poisson; sample directly over a
    # whole number of weeks so every weekly bin gets equal exposure
    horizon = 4 * 7 * 24 * HOUR
    times = np.sort(rng.uniform(0, horizon, size=rng.poisson(2.0 * horizon / HOUR)))
    log = make_log([(0, 0, t0 + int(t)) for t in times], n_agents=1)
    model = fit(log, (t0, t0 + horizon), FitConfig(beta_override=1.0, max_iters=300))
    mu_hat = model.baselines[0].mean()
    a_hat = model.alpha[0, 0]
    # finite samples trade baseline mass against self-excitation; the implied
    # stationary rate mu / (1 - alpha) is the identifiable quantity
    assert a_hat < 0.3
    assert mu_hat / (1 - a_hat) == pytest.approx(2.0, rel=0.1)


def test_full_matrix_fit_recovers_cross_excitation():
    # agent 1 fires at a low baseline plus excitation from agent 0's events
    mu = np.zeros((2, 168))
    mu[0, :] = 1.0
    mu[1, :] = 0.2
    alpha = np.array([[0.0, 0.0], [0.6, 0.0]])
    true = HawkesModel(("a", "b"), mu, alpha, 1.0, False)
    window = (BASE_MONDAY, BASE_MONDAY + 10 * 7 * DAY)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    log = simulate_pure_hawkes(true, window, None, EventLog(true.agents, ()),
                               dist, seed=77)
    fitted = fit(log, window, FitConfig(diagonal_only=False, beta_override=1.0))
    assert not fitted.diagonal_only
    assert abs(fitted.alpha[1, 0] - 0.6) <= 0.15
    assert fitted.alpha[0, 0] <= 0.1 and fitted.alpha[0, 1] <= 0.1
    assert fitted.alpha[1, 1] <= 0.1
    assert fitted.baselines[0].mean() == pytest.approx(1.0, rel=0.15)
    assert abs(fitted.baselines[1].mean() - 0.2) <= 0.1


def test_sampler_zero_intensity_none():
    m = const_model(mu=0.0, alpha=0.5, beta=1.0)
    empty = EventLog(m.agents, ())
    assert sample_next_activation(m, 0, empty, BASE_MONDAY, BASE_MONDAY + DAY, 7) is None


def test_sampler_determinism():
    m = const_model(mu=1.5, alpha=0.4, beta=1.0)
    hist = make_log([(0, 0, BASE_MONDAY - HOUR)], n_agents=1)
    a = sample_next_activation(m, 0, hist, BASE_MONDAY, BASE_MONDAY + DAY, 123)
    b = sample_next_activation(m, 0, hist, BASE_MONDAY, BASE_MONDAY + DAY, 123)
    c = sample_next_activation(m, 0, hist, BASE_MONDAY, BASE_MONDAY + DAY, 124)
    assert a == b
    assert a is not None and BASE_MONDAY < a <= BASE_MONDAY + DAY
    assert c != a  # overwhelmingly likely for a healthy stream


def test_sampler_respects_horizon():
    m = const_model(mu=0.0001)
    empty = EventLog(m.agents, ())
    for seed in range(20):
        t = sample_next_activation(m, 0, empty, BASE_MONDAY, BASE_MONDAY + HOUR, seed)
        assert t is None or BASE_MONDAY < t <= BASE_MONDAY + HOUR


@pytest.mark.parametrize("offset", [0, 1, 1234, 3599])
def test_sampler_wake_strictly_after_now(offset):
    # ceil(t_star * 3600) can round back onto t_now; the wake is clamped
    m = const_model(mu=2.0)
    empty = EventLog(m.agents, ())
    t_now = BASE_MONDAY + offset
    assert sample_next_activation(m, 0, empty, t_now, t_now + DAY, ZeroDraws()) == t_now + 1
    assert sample_next_activation(m, 0, empty, t_now, t_now + 1, ZeroDraws()) == t_now + 1


def test_excitation_state_incremental_matches_from_log():
    m = const_model(n=3, alpha=0.4, off_diag=0.1, beta=0.7)
    hist = make_log([(0, 1, BASE_MONDAY), (2, 0, BASE_MONDAY + 600),
                     (0, 2, BASE_MONDAY + 600), (1, 0, BASE_MONDAY + HOUR),
                     (0, 1, BASE_MONDAY + 5 * HOUR)], n_agents=3)
    state = hawkes.ExcitationState(m)
    for e in hist.events:
        state.add(e.sender, e.ts)
    t = BASE_MONDAY + 6 * HOUR
    for agent in range(3):
        again = hawkes.ExcitationState.from_log(m, hist, t)
        assert state.at(agent, t) == again.at(agent, t)
        # beta * excitation strictly before t is intensity minus baseline
        assert baseline_rate(m, agent, t) + m.beta_per_hour * state.at(agent, t) \
            == pytest.approx(intensity(m, agent, t, hist), rel=1e-12)
    # events after t_now are not covered
    early = hawkes.ExcitationState.from_log(m, hist, BASE_MONDAY + 600)
    assert early.at(0, BASE_MONDAY + 600) == pytest.approx(
        0.4 * math.exp(-0.7 / 6) + 0.1 + 0.4, rel=1e-12)


def test_sampler_piecewise_baseline():
    # rate 3/h during hour 9 only; all samples must land inside that hour
    base = np.zeros((1, 168))
    for wd in range(7):
        base[0, wd * 24 + 9] = 3.0
    m = HawkesModel(("a",), base, np.zeros((1, 1)), 1.0, True)
    empty = EventLog(m.agents, ())
    hits = 0
    for seed in range(50):
        t = sample_next_activation(m, 0, empty, BASE_MONDAY, BASE_MONDAY + DAY, seed)
        if t is not None:
            hits += 1
            assert (t % DAY) // HOUR == 9
    assert hits > 30  # P(no event in the hour) = e^-3 ~ 0.05


def test_serialization_roundtrip():
    rng = np.random.default_rng(2)
    base = rng.random((3, 168))
    alpha = rng.random((3, 3))
    m = HawkesModel(("p", "q", "r"), base, alpha, 0.37, False)
    again = model_from_dict(json.loads(m.to_json()))
    assert again.agents == m.agents
    assert np.array_equal(again.baselines, m.baselines)
    assert np.array_equal(again.alpha, m.alpha)
    assert again.beta_per_hour == m.beta_per_hour
    m_diag = const_model(n=2, mu=0.5, alpha=0.3)
    again2 = model_from_dict(json.loads(m_diag.to_json()))
    assert np.array_equal(again2.alpha, m_diag.alpha)
    assert again2.diagonal_only


def test_stability_warning():
    assert not const_model(alpha=0.5).stability_warning
    assert const_model(alpha=1.0).stability_warning
    # row sum 2 but spectral radius 0: the process is stationary
    nilpotent = HawkesModel(("a", "b"), np.ones((2, 168)), np.array([[0.0, 2.0], [0.0, 0.0]]),
                            1.0, False)
    assert not nilpotent.stability_warning


@pytest.mark.parametrize("late_send", [False, True])
def test_full_fit_leaves_sources_without_history_at_zero(late_send):
    # agent 2 only receives before t1 (and, with late_send, sends after it):
    # nothing in the window identifies its column of alpha
    t0, t1 = BASE_MONDAY, BASE_MONDAY + 3 * DAY
    rng = np.random.default_rng(4)
    records = []
    for t in np.sort(rng.integers(0, t1 - t0 - HOUR, 40)):
        records += [(0, (1, 2), t0 + int(t)), (1, (0, 2), t0 + int(t) + 60)]  # 1 replies to 0
    if late_send:
        records.append((2, (0,), t1 + HOUR))
    model = fit(make_log(records, n_agents=3), (t0, t1),
                FitConfig(diagonal_only=False, beta_override=30.0))
    assert np.all(model.alpha[:, 2] == 0.0)
    assert model.alpha[1, 0] > 0.5
    assert not model.stability_warning


def test_pure_hawkes_trivial():
    m = const_model(n=2, mu=0.0, alpha=0.0, beta=1.0)
    empty_plan = None
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    hist = EventLog(m.agents, ())
    out = simulate_pure_hawkes(m, window, empty_plan, hist,
                               np.zeros((2, 2)), seed=5)
    assert len(out) == 0


def test_pure_hawkes_triggers_verbatim():
    from commsim.simulator import TriggerPlan

    m = const_model(n=2, mu=0.0, alpha=0.0, beta=1.0)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    sched = make_log([(0, 1, BASE_MONDAY + 2 * HOUR), (0, 1, BASE_MONDAY + 5 * HOUR)],
                     n_agents=2)
    plan = TriggerPlan(frozenset({0}), sched)
    out = simulate_pure_hawkes(m, window, plan, EventLog(m.agents, ()),
                               np.zeros((2, 2)), seed=5)
    assert out.events == sched.events


def test_pure_hawkes_all_triggers_returns_schedule():
    """With every agent a trigger the organic rate is 0, so the output is the
    in-window schedule exactly, however excitable the model."""
    from commsim.simulator import TriggerPlan

    m = const_model(n=2, mu=2.0, alpha=0.8, beta=1.0)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    sched = make_log([(0, 1, BASE_MONDAY - HOUR), (0, 1, BASE_MONDAY + 2 * HOUR),
                      (1, 0, BASE_MONDAY + 2 * HOUR), (1, 0, BASE_MONDAY + 5 * HOUR),
                      (0, 1, BASE_MONDAY + DAY)], n_agents=2)
    plan = TriggerPlan(frozenset({0, 1}), sched)
    hist = make_log([(0, 1, BASE_MONDAY - 2 * HOUR), (1, 0, BASE_MONDAY)], n_agents=2)
    out = simulate_pure_hawkes(m, window, plan, hist, np.full((2, 2), 0.5), seed=5)
    assert out.events == sched.events[1:4]


def test_pure_hawkes_daily_poisson_counts():
    # alpha=0, constant rate: per-agent event counts over 8 days must sit
    # within 3 sigma of the analytic Poisson expectation
    n_days = 8
    mu = 1.0
    m = const_model(n=2, mu=mu, alpha=0.0, beta=1.0)
    window = (BASE_MONDAY, BASE_MONDAY + n_days * DAY)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = simulate_pure_hawkes(m, window, None, EventLog(m.agents, ()),
                               dist, seed=88)
    expect = mu * n_days * 24
    sigma = math.sqrt(expect)
    for agent in (0, 1):
        count = sum(1 for e in out.events if e.sender == agent)
        assert abs(count - expect) <= 3 * sigma, (agent, count)


def test_pure_hawkes_excludes_trigger_agents():
    from commsim.simulator import TriggerPlan

    # agent 0 is a trigger with high rate; only agent 1 may emit organics
    m = const_model(n=2, mu=1.0, alpha=0.0, beta=1.0)
    window = (BASE_MONDAY, BASE_MONDAY + 3 * DAY)
    plan = TriggerPlan(frozenset({0}), EventLog(m.agents, ()))
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = simulate_pure_hawkes(m, window, plan, EventLog(m.agents, ()), dist, seed=11)
    assert len(out) > 0
    assert all(e.sender == 1 for e in out.events)
