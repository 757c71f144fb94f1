"""Golden rollout digests: SHA-256 of `corpus.serialize(sim)` for every
activation policy with the stub agent, and for the pure-Hawkes rollout, on
the mini corpus and on a 12-agent synthetic fixture. HawkesGuided runs with
the fitted model and with pinned diagonal and full excitation matrices.

The digests were recorded before the simulator kept its excitation state and
context index incrementally, so a refactor of the rollout that changes any
output byte fails here.
"""

import hashlib

import numpy as np
import pytest

from commsim import agents, corpus, hawkes, simulator

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
    "fixture/periodic": "40855575323af1422a13abe3d58c0319417ef1951c745cf53f027c3e07801631",
    "fixture/llm_predicted": "c2796b58fc40c6bd6f5e944287f7385cfd4ee740b40883b2d4f4c2dd33a9c79e",
    "fixture/hod": "8d2676433a24e4c80f311af0182cce8b4ecad90f2bbab12d2efbaceefa4cc691",
    "fixture/hawkes": "42c00f4e1ba7a5154f72767f1cbb2a47f9f5318660c00468fc43ebb053cc4ace",
    "fixture/hawkes_diag": "f83e8b6bab2ee17c2e2e08c63eb1981c2a7506b60f9e46e48ac29aeec5b9d15b",
    "fixture/hawkes_full": "07e7eb549b3c3ae4ad6e6a09b52dd513831b3f7e6c5f4adce371fb4030defd00",
    "fixture/pure_hawkes": "12598b657ee602d45ca7c3aa788dd8ea005ba4760bc7fa128c59d3edd06f40d2",
}


def _policy(name, log, hist):
    if name == "periodic":
        return simulator.PeriodicSchedule(3.0)
    if name == "llm_predicted":
        return simulator.LLMPredicted()
    if name == "hod":
        return simulator.EmpiricalHoD(simulator.hod_histograms(corpus.window(log, *hist)))
    model = hawkes.fit(log, hist)
    if name != "hawkes":
        # the fitted alpha is often zero on these corpora; pin explicit
        # self- and cross-excitation so the excitation state is exercised
        n = model.n_agents
        alpha = 0.4 * np.eye(n)
        if name == "hawkes_full":
            alpha = 0.3 * np.eye(n) + 0.03 * (1 - np.eye(n))
        model = hawkes.HawkesModel(model.agents, model.baselines.copy(), alpha,
                                   model.beta_per_hour, name == "hawkes_diag")
    return simulator.HawkesGuided(model)


def _setup(corpus_name, mini_log):
    if corpus_name == "mini":
        t0 = BASE_MONDAY + 4 * DAY
        return mini_log, (t0, BASE_MONDAY + 12 * DAY), 4
    log = fixture_log(5, n_agents=12, days=10, events_per_day=30)
    t0 = BASE_MONDAY + 6 * DAY
    return log, (t0, BASE_MONDAY + 10 * DAY), 6


def _sha(log):
    return hashlib.sha256(corpus.serialize(log).encode()).hexdigest()


def _rollout(corpus_name, policy_name, mini_log):
    log, window, history_days = _setup(corpus_name, mini_log)
    hist = (window[0] - history_days * DAY, window[0])
    plan = simulator.select_triggers(log, hist, RATIO, window)
    if policy_name == "pure_hawkes":
        model = hawkes.fit(log, hist)
        hist_log = corpus.window(log, *hist)
        return hawkes.simulate_pure_hawkes(model, window, plan, hist_log,
                                           corpus.contact_frequencies(hist_log), SEED)
    cfg = simulator.SimConfig(window=window, history_days=history_days,
                              trigger_ratio=RATIO, seed=SEED,
                              policy=_policy(policy_name, log, hist))
    params = agents.stub_params_from_history(log, hist, SEED)
    return simulator.run(cfg, log, agents.StubPolicy(params), plan)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_rollout_digest(key, mini_log):
    corpus_name, policy_name = key.split("/")
    assert _sha(_rollout(corpus_name, policy_name, mini_log)) == GOLDEN[key]
