"""Pinned outputs of the bucket pipeline on three seeded instances.

The literals lock in the class-order merge of ``BucketState.finalize``,
the tie rule of ``best_copy`` and the adapter's arrival-order
projection: a change to any of them shows up here as a changed
matching, weight or decision.
"""

from dataclasses import dataclass

import pytest

from semimatch.bucket import BucketConfig, run_deterministic, run_ensemble
from semimatch.generators import RandomInstanceConfig, UniformWeights, random_instance
from semimatch.preemptive import BucketPreemptiveAdapter

# run_deterministic and the adapter use gamma=2, epsilon=1 (the window
# prunes, so the adapter preempts); the ensemble uses gamma=3.513,
# epsilon=0.5, for which choose_q gives q=14.
DET_GAMMA, DET_EPSILON = 2.0, 1.0
ENS_GAMMA, ENS_EPSILON, ENS_Q = 3.513, 0.5, 14


@dataclass(frozen=True)
class Golden:
    deterministic: list
    ensemble_best: list
    per_copy_weights: list
    accepted: list
    preempted: dict
    violation_step: int


GOLDEN = {
    0: Golden(
        deterministic=[
            (0, 4, 96.5810237498298), (7, 6, 91.90519884672806),
            (11, 1, 89.98499050883136), (9, 10, 91.38809427055192),
            (5, 3, 73.29757905896925)],
        ensemble_best=[
            (0, 4, 96.5810237498298), (7, 6, 91.90519884672806),
            (11, 1, 89.98499050883136), (9, 10, 91.38809427055192),
            (8, 5, 81.63221946584227)],
        per_copy_weights=[
            357.6209714506025, 357.6209714506025, 415.39042659693683,
            443.6782046068374, 443.6782046068374, 443.15688643491035,
            451.4915268417834, 451.4915268417834, 384.64740419055823,
            300.16162047513217, 357.6209714506025, 357.6209714506025,
            357.6209714506025, 357.6209714506025],
        accepted=[0, 1, 4, 8, 28],
        preempted={},
        violation_step=31,
    ),
    1: Golden(
        deterministic=[
            (2, 9, 84.89593995678604), (10, 6, 79.0836117624158),
            (4, 11, 80.38081033265188), (8, 3, 76.60639851801746),
            (5, 7, 73.54381508326472)],
        ensemble_best=[
            (2, 9, 84.89593995678604), (10, 6, 79.0836117624158),
            (4, 11, 80.38081033265188), (8, 3, 76.60639851801746),
            (5, 7, 73.54381508326472)],
        per_copy_weights=[
            394.5105756531359, 394.5105756531359, 394.5105756531359,
            394.5105756531359, 394.5105756531359, 394.5105756531359,
            320.96676056987116, 292.5760860925368, 297.9214644392876,
            326.60551444761256, 394.5105756531359, 394.5105756531359,
            394.5105756531359, 394.5105756531359],
        accepted=[0, 1, 2, 9, 22],
        preempted={17: [(1, 4)]},
        violation_step=18,
    ),
    2: Golden(
        deterministic=[
            (2, 11, 81.08724241929731), (5, 7, 93.25280884301696),
            (6, 4, 73.36205766777715), (10, 1, 75.68260864700305),
            (9, 3, 61.07337163044295)],
        ensemble_best=[
            (2, 11, 81.08724241929731), (9, 3, 61.07337163044295),
            (5, 7, 93.25280884301696), (6, 4, 73.36205766777715),
            (10, 1, 75.68260864700305)],
        per_copy_weights=[
            338.33290475637057, 338.33290475637057, 384.45808920753745,
            384.45808920753745, 384.45808920753745, 384.45808920753745,
            311.09603153976025, 348.85431390924776, 348.85431390924776,
            341.5682689003596, 365.27223704180807, 365.27223704180807,
            365.27223704180807, 365.27223704180807],
        accepted=[0, 1, 2, 4, 6],
        preempted={10: [(0, 1)]},
        violation_step=31,
    ),
}


def instance(seed):
    return random_instance(RandomInstanceConfig(
        n=12, m=30, weight_law=UniformWeights(1, 100), seed=seed))


def triples(matching):
    return [(e.u, e.v, e.weight) for e in matching]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_deterministic_matching(seed):
    matching = run_deterministic(instance(seed), DET_GAMMA, DET_EPSILON)
    assert triples(matching) == GOLDEN[seed].deterministic


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_ensemble_best_and_per_copy(seed):
    best, per_copy = run_ensemble(instance(seed), ENS_GAMMA, ENS_EPSILON, ENS_Q)
    assert triples(best) == GOLDEN[seed].ensemble_best
    assert [m.weight for m in per_copy] == GOLDEN[seed].per_copy_weights


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_adapter_decisions(seed):
    adapter = BucketPreemptiveAdapter(BucketConfig(
        gamma=DET_GAMMA, epsilon=DET_EPSILON, num_vertices=12))
    accepted, preempted = [], {}
    for step, edge in enumerate(instance(seed)):
        decision = adapter.on_edge(edge)
        if decision.accepted:
            accepted.append(step)
        if decision.preempted:
            preempted[step] = [f.key for f in decision.preempted]
    adapter.finish()
    assert accepted == GOLDEN[seed].accepted
    assert preempted == GOLDEN[seed].preempted
    assert adapter.violation_step == GOLDEN[seed].violation_step
