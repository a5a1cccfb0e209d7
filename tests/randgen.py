"""Seeded random instances for the oracle-equivalence suite."""

from __future__ import annotations

import random
from fractions import Fraction

from trpq import intervals as iv
from trpq import query as q_
from trpq.graph import TemporalGraph

NODES = ["A", "B", "C", "D"]
LABELS = ["e", "f", "g"]

# int and Fraction endpoints on a half-step grid over [-6, 6], so that
# endpoints tie often
HALF_STEPS = [Fraction(k, 2) if k % 2 else k // 2 for k in range(-12, 13)]


def random_graph(rng: random.Random) -> TemporalGraph:
    lo = rng.randint(-3, 3)
    width = rng.randint(3, 11)
    domain = iv.closed(lo, lo + width)
    n_nodes = rng.randint(1, len(NODES))
    nodes = NODES[:n_nodes]
    n_labels = rng.randint(1, len(LABELS))
    labels = LABELS[:n_labels]
    facts = {}
    for _ in range(rng.randint(1, 5)):
        s, o = rng.choice(nodes), rng.choice(nodes)
        p = rng.choice(labels)
        validity = []
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(domain.lo, domain.hi)
            b = min(domain.hi, a + rng.randint(0, 3))
            validity.append(iv.closed(a, b))
        key = (s, p, o)
        facts[key] = iv.coalesce(list(facts.get(key, ())) + validity, discrete=True)
    return TemporalGraph(mode="discrete", domain=domain, facts=facts)


def random_mixed_interval(rng: random.Random, values) -> iv.Interval:
    """An interval with endpoints from ``values`` and random delimiters."""
    lo, hi = sorted((rng.choice(values), rng.choice(values)))
    if lo == hi or rng.random() < 0.15:  # singletons are closed on both sides
        return iv.point(lo)
    return iv.Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _random_interval(rng: random.Random) -> iv.Interval:
    a = rng.randint(-4, 4)
    return iv.closed(a, a + rng.randint(0, 3))


def _random_pred(rng: random.Random) -> q_.Trpq:
    target = rng.choice(NODES + ["Z"])  # sometimes a node absent from the graph
    return q_.Pred(rng.random() < 0.8, target)


def random_node_form(rng: random.Random, depth: int) -> q_.Trpq:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return _random_pred(rng)
    if roll < 0.6:
        return q_.LeqTime(rng.randint(-2, 10))
    if roll < 0.8:
        return q_.Test(random_query(rng, depth - 1))
    return q_.Not(random_node_form(rng, depth - 1))


def random_query(rng: random.Random, depth: int) -> q_.Trpq:
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        atom = rng.random()
        if atom < 0.40:
            return q_.Label(rng.choice(LABELS))
        if atom < 0.55:
            return q_.Inverse(q_.Label(rng.choice(LABELS)))
        if atom < 0.80:
            return q_.TimeNav(_random_interval(rng))
        return random_node_form(rng, 0)
    if roll < 0.55:
        return q_.Join(random_query(rng, depth - 1), random_query(rng, depth - 1))
    if roll < 0.70:
        return q_.Union(random_query(rng, depth - 1), random_query(rng, depth - 1))
    if roll < 0.80:
        return q_.Test(random_query(rng, depth - 1))
    if roll < 0.88:
        return q_.Not(random_node_form(rng, depth - 1))
    m = rng.choice([0, 1, 1, 2])
    if rng.random() < 0.5:
        return q_.Repeat(random_query(rng, depth - 1), m, None)
    return q_.Repeat(random_query(rng, depth - 1), m, m + rng.randint(0, 2))


def random_instance(seed: int, depth: int = 4):
    rng = random.Random(seed)
    return random_graph(rng), random_query(rng, rng.randint(1, depth))
