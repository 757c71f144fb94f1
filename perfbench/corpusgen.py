"""Synthetic email corpora for the performance benchmark.

Uses numpy only and never imports commsim, so a change to the program
(for example to its own Hawkes sampler) cannot change the benchmark's
inputs. The same arguments always yield the same bytes.

A corpus has:
* a weekday circadian baseline (office hours high, nights and weekends low);
* self-excited bursts: every thread-starting message has Poisson follow-ups
  from the same sender within tens of minutes;
* replies within hours from recipients back to the sender, in the thread;
* heavy-tailed per-agent volume and contact-list size. Both follow a fixed
  rank profile that a seeded permutation assigns to agents, so the total
  amount of work varies little from seed to seed;
* about 20% multi-recipient mail (2 to 4 recipients).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

BASE = 983750400  # 2001-03-05 00:00:00 UTC, a Monday
DAY = 86400
HOUR = 3600

BURST_FOLLOW_UPS = 0.4       # expected follow-ups per thread-starting message
BURST_GAP_MEAN_S = 20 * 60
REPLY_DELAY_MEDIAN_S = 1.5 * HOUR
MAX_REPLY_DEPTH = 3
MULTI_RECIPIENT_SHARE = 0.3
VOLUME_EXPONENT = 0.6        # rank-size exponent of per-agent volume


def _weekly_profile() -> np.ndarray:
    """168 hourly weights, Monday 00:00 first."""
    day = np.full(24, 0.03)
    day[7] = day[19:23] = 0.3
    day[8:19] = 1.0
    week = np.tile(day, 7)
    week[5 * 24:] *= 0.15  # Saturday, Sunday
    return week


def _rank_profile(n: int, exponent: float) -> np.ndarray:
    w = (np.arange(n) + 1.0) ** -exponent
    return w / w.mean()


def generate(n_agents: int, n_days: int, events_per_agent_day: float,
             seed: int, index: int = 0) -> list[dict]:
    """Corpus number `index` of the family drawn from `seed`: records (id,
    sender, recipients, ts, thread, body) sorted by (ts, id), over
    [BASE, BASE + n_days days)."""
    rng = np.random.default_rng([seed, index])
    labels = [f"u{i:03d}@bench.example" for i in range(n_agents)]
    t_end = BASE + n_days * DAY

    # heavy-tailed volume and contact-list size; hubs get both. Contacts are
    # drawn uniformly: popularity-weighted draws piled incoming mail onto a
    # few hubs, and the share of mail that trigger exclusion removes (and so
    # the work left for the metrics) then swung widely from seed to seed
    order = rng.permutation(n_agents)
    volume = np.empty(n_agents)
    volume[order] = _rank_profile(n_agents, VOLUME_EXPONENT)
    n_contacts = np.empty(n_agents, dtype=np.int64)
    n_contacts[order] = np.clip(np.round(3 + 20 * (np.arange(n_agents) + 1.0) ** -0.6),
                                3, n_agents - 1).astype(np.int64)
    contacts, contact_p = [], []
    for i in range(n_agents):
        others = np.delete(np.arange(n_agents), i)
        chosen = rng.choice(others, size=n_contacts[i], replace=False)
        weights = 1.0 / (np.arange(len(chosen)) + 1.0)
        contacts.append(chosen)
        contact_p.append(weights / weights.sum())
    reply_prob = rng.uniform(0.25, 0.35, size=n_agents)

    # immigrant (thread-starting) messages: fixed count per agent, times
    # from the weekly circadian profile with a uniform offset in the hour
    profile = _weekly_profile()
    hours = np.arange(n_days * 24)
    hour_w = profile[hours % 168]
    hour_p = hour_w / hour_w.sum()
    # follow-ups and replies add messages; scale immigrants so the corpus
    # lands near the requested volume
    per_agent = events_per_agent_day * n_days / 2.0
    counts = np.maximum(1, np.round(volume * per_agent)).astype(np.int64)

    # (ts, sender, recipients, thread_key, depth); thread_key is the index of
    # the thread's first message. Follow-ups and replies spawn no follow-ups,
    # which keeps cascade sizes, and so the corpus size, steady across seeds
    msgs: list[tuple[int, int, tuple[int, ...], int, int]] = []

    def pick_recipients(sender: int) -> tuple[int, ...]:
        k = 1
        if rng.uniform() < MULTI_RECIPIENT_SHARE:
            k = int(rng.integers(2, 5))
        k = min(k, len(contacts[sender]))
        return tuple(int(r) for r in rng.choice(contacts[sender], size=k,
                                                replace=False, p=contact_p[sender]))

    for i in range(n_agents):
        hrs = rng.choice(len(hours), size=counts[i], p=hour_p)
        offs = rng.integers(0, HOUR, size=counts[i])
        for h, off in zip(hrs, offs):
            msgs.append((BASE + int(h) * HOUR + int(off), i, pick_recipients(i),
                         -1, 0))

    # bursts and replies, breadth-first over the growing message list
    n_immigrants = len(msgs)
    k = 0
    while k < len(msgs):
        ts, sender, recipients, thread, depth = msgs[k]
        thread = k if thread < 0 else thread
        msgs[k] = (ts, sender, recipients, thread, depth)
        if k < n_immigrants:
            t = ts
            for _ in range(int(rng.poisson(BURST_FOLLOW_UPS))):
                t += int(rng.exponential(BURST_GAP_MEAN_S)) + 1
                if t < t_end:
                    msgs.append((t, sender, pick_recipients(sender), -1, 0))
        if depth < MAX_REPLY_DEPTH:
            for r in recipients:
                if rng.uniform() < reply_prob[r] / (depth + 1):
                    delay = int(REPLY_DELAY_MEDIAN_S * rng.lognormal(0.0, 1.0)) + 1
                    if ts + delay < t_end:
                        msgs.append((ts + delay, r, (sender,), thread, depth + 1))
        k += 1

    order = sorted(range(len(msgs)), key=lambda j: (msgs[j][0], j))
    new_id = {j: n + 1 for n, j in enumerate(order)}
    records = []
    for j in order:
        ts, sender, recipients, thread, _ = msgs[j]
        records.append({"id": new_id[j], "sender": labels[sender],
                        "recipients": [labels[r] for r in recipients],
                        "ts": ts, "thread": new_id[thread], "body": None})
    return records


def to_jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
