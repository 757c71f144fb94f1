"""Golden rollout digests: SHA-256 of `corpus.serialize(sim)` for every
activation policy with the stub agent, and for the pure-Hawkes rollout, on
the mini corpus and on a 12-agent synthetic fixture. HawkesGuided and the
pure-Hawkes rollout run with the fitted model and with pinned diagonal and
full excitation matrices. The pinned pure-Hawkes digests were recorded
before the sampler skipped its excitation work when alpha is zero and
stopped calling `rng.choice`, so they cover its excitation branch byte by
byte.

The rollout digests were recorded before the simulator kept its excitation
state and context index incrementally, so a refactor of the rollout that
changes any output byte fails here. `REPORT_GOLDEN` pins the SHA-256 of
`metrics.evaluate_all(...).to_json()` for each of the same rollouts; it was
recorded before the 3-edge motif census was restricted to the anchor's
endpoints, so a refactor of the metric suite that changes any report byte
fails here. `MODEL_GOLDEN` pins the SHA-256 of `hawkes.fit(...).to_json()`,
diagonal and full-matrix, over the history window (no earlier events) and
the rollout window (earlier events excite) of both corpora; it was recorded
before the fitter built its excitation terms in one time-ordered sweep, so
a refactor of the fitter that changes any model byte fails here.
"""

import hashlib

import numpy as np
import pytest

from commsim import agents, corpus, hawkes, metrics, simulator

from conftest import BASE_MONDAY, fixture_log

DAY = 86400
SEED = 42
RATIO = 0.10

GOLDEN = {
    "mini/periodic": "2860936801d0cb346e73e7310541040b3bf2fabfe36399dc4d1ac8397c07b0d0",
    "mini/llm_predicted": "2860936801d0cb346e73e7310541040b3bf2fabfe36399dc4d1ac8397c07b0d0",
    "mini/hod": "928b03bce6ebba9423c3523b52a9bec4c81888d97967cfb96cd78f741650307c",
    "mini/hawkes": "1c0e9e4dae53deb84377df087e84aff2273f5fc9b48c50c0a74c3692f169212b",
    "mini/hawkes_diag": "cedf54f6f9342e354df0ebb0f5b451b02bdf66b891734f4ebe0f307d0786e23c",
    "mini/hawkes_full": "257e1470c7fdcda4dd09c9d05c1510798f04b53a1bcdaffd7908fd4c2603a6ed",
    "mini/pure_hawkes": "b7704f957bef0266221fa27fcc43d08fe10f5f2c3db355ccbb3bea175aaae196",
    "mini/pure_hawkes_diag": "a40f179089cd73843f8432af0fb76acd80d8da68a2754e7aa09a5853bcbe3cb3",
    "mini/pure_hawkes_full": "1868e935f8f8cda166cb1616cd23e66f69c17c5e86095a01edde5d4517f82ffd",
    "fixture/periodic": "40855575323af1422a13abe3d58c0319417ef1951c745cf53f027c3e07801631",
    "fixture/llm_predicted": "c2796b58fc40c6bd6f5e944287f7385cfd4ee740b40883b2d4f4c2dd33a9c79e",
    "fixture/hod": "8d2676433a24e4c80f311af0182cce8b4ecad90f2bbab12d2efbaceefa4cc691",
    "fixture/hawkes": "42c00f4e1ba7a5154f72767f1cbb2a47f9f5318660c00468fc43ebb053cc4ace",
    "fixture/hawkes_diag": "f83e8b6bab2ee17c2e2e08c63eb1981c2a7506b60f9e46e48ac29aeec5b9d15b",
    "fixture/hawkes_full": "07e7eb549b3c3ae4ad6e6a09b52dd513831b3f7e6c5f4adce371fb4030defd00",
    "fixture/pure_hawkes": "12598b657ee602d45ca7c3aa788dd8ea005ba4760bc7fa128c59d3edd06f40d2",
    "fixture/pure_hawkes_diag": "2a89ba46c0f72e00806de1e376bca80cfb45a7d0a50dd9500c1547103001a6a2",
    "fixture/pure_hawkes_full": "d6cc4ee9e940429e0d1ffebc8b5c7425a6cd379b8606ba12560d109cb0385051",
}

REPORT_GOLDEN = {
    "mini/hawkes": "a61ab730d7c65bdf78140553babedeb76f89a7a0f9335e3583ce8867db074a96",
    "mini/hawkes_diag": "ab8c46ea253479d0a8578c43861df8582f31dafe0ccff16cd75eb8d3d778a0ab",
    "mini/hawkes_full": "d1b2b6a4b456413e2d1070438d869787939be8587cc9deffa8424a099cd14283",
    "mini/hod": "3fc679e476febf6569a512633bac7f9bb7c3cb7e80db3d1bde43fb0cc9c389d7",
    "mini/llm_predicted": "2e0ae93af7b91fc35b7954f3d1a92bb87629cce12597a3e7857dc5c219a75d1e",
    "mini/periodic": "2e0ae93af7b91fc35b7954f3d1a92bb87629cce12597a3e7857dc5c219a75d1e",
    "mini/pure_hawkes": "c86fa4f04e3da47b4f71ac48a9b1cb22289f8f4c3489358fa5bd9b388fa902b9",
    "fixture/hawkes": "3ee79a78e8e1fe295e8528bfbd1f8b276349074ec8ae14db6eeb742b816923f7",
    "fixture/hawkes_diag": "87c1881debc4e8ae6d56b5812fd5772ee6ea85242815a7b3c487f2ab4ba6d2c1",
    "fixture/hawkes_full": "cd0e6f838baf54b6a248793debcc2fbe85382a03beba61f06fdbdd548fc40b6d",
    "fixture/hod": "95eae2ee5a2b69b39ae50e21c31313248924cf899a9ff42a1a375efcda2bb58a",
    "fixture/llm_predicted": "3e3e18a4cadc62a40dd53a048ecaf3284111b4dfd43de838c8b4818c9940fc71",
    "fixture/periodic": "db31853797702abd28a987248e20f464436be9aa6ecd357bc29516a9dd3e66d8",
    "fixture/pure_hawkes": "36514f93381207cd5c71de0c79cf93bc8b1349fdf7ddf21ad40f6ba5e512c438",
}

MODEL_GOLDEN = {
    "mini/hist/diag": "187a00abfc9dd0fe9c6091c57e0aec3418862193e2a7dc2a1053b4e6ecf1cb60",
    "mini/hist/full": "1389566f750c917a2269c79764e40fe9eda2866a01b33bb002bf989427001de8",
    "mini/window/diag": "e29596564901d8e8672c1abed46874a066404a990b0ff85e06f1910787e241f2",
    "mini/window/full": "7d118b371612174114d391d857e7a1868726341b4cf9f1a9a26de9d24633da47",
    "fixture/hist/diag": "3abcdc7dda5682be4ad81f115a16daefb55d2eca48e295984ed11a98bdacecc2",
    "fixture/hist/full": "1eb65226d23a9f36171efd9d175daf742fec8617d102eaec5b46b675184fdff5",
    "fixture/window/diag": "2cac5c91aeb26ade5667d45bee60f6cb64b78829ddf3953589f9750458ea705e",
    "fixture/window/full": "d93ee4d16c86b51888a8117a827a2ec4414ad11bf0f67872c43c7e3b3601d238",
    # beta = 20/h: the only setting here where the full fit keeps nonzero alpha
    "fixture/window/diag_beta20": "1412f962dff8c1dca21cc1abd3f6fd5de17bff2215d8280805cdef37652933dc",
    "fixture/window/full_beta20": "3773f756be5a33d2244f1ed2c94797fe2a34a3e0ec5b82dcb2405bf4b761b626",
}


def _model(name, log, hist):
    """The fitted model; with a `_diag` or `_full` suffix, its baselines with
    a pinned alpha instead. The fitted alpha is often zero on these corpora,
    so explicit self- and cross-excitation exercises the excitation paths."""
    model = hawkes.fit(log, hist)
    if name.endswith(("_diag", "_full")):
        n = model.n_agents
        alpha = 0.4 * np.eye(n)
        if name.endswith("_full"):
            alpha = 0.3 * np.eye(n) + 0.03 * (1 - np.eye(n))
        model = hawkes.HawkesModel(model.agents, model.baselines.copy(), alpha,
                                   model.beta_per_hour, name.endswith("_diag"))
    return model


def _policy(name, log, hist):
    if name == "periodic":
        return simulator.PeriodicSchedule(3.0)
    if name == "llm_predicted":
        return simulator.LLMPredicted()
    if name == "hod":
        return simulator.EmpiricalHoD(simulator.hod_histograms(corpus.window(log, *hist)))
    return simulator.HawkesGuided(_model(name, log, hist))


def _setup(corpus_name, mini_log):
    if corpus_name == "mini":
        t0 = BASE_MONDAY + 4 * DAY
        return mini_log, (t0, BASE_MONDAY + 12 * DAY), 4
    log = fixture_log(5, n_agents=12, days=10, events_per_day=30)
    t0 = BASE_MONDAY + 6 * DAY
    return log, (t0, BASE_MONDAY + 10 * DAY), 6


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rollout(corpus_name, policy_name, mini_log):
    """(sim, ground truth, trigger plan, window) for one golden key."""
    log, window, history_days = _setup(corpus_name, mini_log)
    hist = (window[0] - history_days * DAY, window[0])
    plan = simulator.select_triggers(log, hist, RATIO, window)
    if policy_name.startswith("pure_hawkes"):
        model = _model(policy_name, log, hist)
        hist_log = corpus.window(log, *hist)
        sim = hawkes.simulate_pure_hawkes(model, window, plan, hist_log,
                                          corpus.contact_frequencies(hist_log), SEED)
        return sim, log, plan, window
    cfg = simulator.SimConfig(window=window, history_days=history_days,
                              trigger_ratio=RATIO, seed=SEED,
                              policy=_policy(policy_name, log, hist))
    params = agents.stub_params_from_history(log, hist, SEED)
    return simulator.run(cfg, log, agents.StubPolicy(params), plan), log, plan, window


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_rollout_digest(key, mini_log):
    corpus_name, policy_name = key.split("/")
    sim, _, _, _ = _rollout(corpus_name, policy_name, mini_log)
    assert _sha(corpus.serialize(sim)) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(REPORT_GOLDEN))
def test_report_digest(key, mini_log):
    corpus_name, policy_name = key.split("/")
    sim, log, plan, window = _rollout(corpus_name, policy_name, mini_log)
    report = metrics.evaluate_all(sim, log, plan.trigger_agents, window)
    assert _sha(report.to_json()) == REPORT_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(MODEL_GOLDEN))
def test_model_digest(key, mini_log):
    corpus_name, span, kind = key.split("/")
    log, window, history_days = _setup(corpus_name, mini_log)
    if span == "hist":
        window = (window[0] - history_days * DAY, window[0])
    cfg = hawkes.FitConfig(diagonal_only=kind.startswith("diag"),
                           beta_override=20.0 if kind.endswith("beta20") else None)
    assert _sha(hawkes.fit(log, window, cfg).to_json()) == MODEL_GOLDEN[key]
