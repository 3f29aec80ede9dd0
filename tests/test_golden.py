"""Pinned outputs of the bucket pipeline on three seeded instances.

The literals lock in the class-order merge of ``BucketState.finalize``
and the tie rule of ``best_copy``: a change to either shows up here as a
changed matching or weight.  Two more pins cover the window cache of
``BucketState``: a wide window (gamma=1.01, about 640 live classes), where
most weights lie strictly inside it, and ascending arrival order, where
every edge raises w_max.  The adversary game is pinned by a SHA-256 over
its result, transcript and presented edges, which fixes vertex ids,
labels and every record's tracked optimum.  The digests date from
transcripts that listed the whole optimum in each record's ``opt_after``,
so they are taken over the transcript rebuilt in that form from its deltas.
"""

import hashlib
import json
import tracemalloc
from dataclasses import dataclass

import pytest

from semimatch.adversary import AdversaryConfig, run_adversary
from semimatch.bucket import run_deterministic, run_ensemble
from semimatch.core import StreamSource
from semimatch.generators import RandomInstanceConfig, UniformWeights, random_instance
from semimatch.preemptive import DEFAULT_VICTIMS, make_victim
from test_adversary import _Scripted, opt_after_form

# run_deterministic uses gamma=2, epsilon=1, so the window prunes; the
# ensemble uses gamma=3.513, epsilon=0.5, for which choose_q gives q=14.
DET_GAMMA, DET_EPSILON = 2.0, 1.0
WIDE_GAMMA, WIDE_EPSILON = 1.01, 0.01
ENS_GAMMA, ENS_EPSILON, ENS_Q = 3.513, 0.5, 14


@dataclass(frozen=True)
class Golden:
    deterministic: list
    ensemble_best: list
    per_copy_weights: list
    wide_deterministic: list
    ascending_best: list
    ascending_per_copy_weights: list


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
        wide_deterministic=[
            (4, 8, 98.29576212772766), (7, 6, 91.90519884672806),
            (9, 10, 91.38809427055192), (11, 1, 89.98499050883136),
            (5, 3, 73.29757905896925), (2, 0, 61.66454480699206)],
        ascending_best=[
            (2, 1, 62.21853067085783), (5, 3, 73.29757905896925),
            (6, 11, 82.65965273767507), (9, 10, 91.38809427055192),
            (0, 8, 91.68345355533158)],
        ascending_per_copy_weights=[
            269.51008399208325, 250.6295445251425, 234.4035419256488,
            238.86048385941174, 401.2473102933857, 343.3932151535344,
            359.8243699532288, 352.26099022389906, 384.7114787083242,
            232.18918943308253, 234.5324708782453, 252.6920702956985,
            252.6920702956985, 235.99492372777593],
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
        wide_deterministic=[
            (4, 9, 97.37168908391462), (6, 8, 92.29666768451885),
            (7, 3, 74.62933487402663), (11, 10, 74.08333095234333),
            (1, 2, 63.30593757526425)],
        ascending_best=[
            (0, 3, 54.4221273965281), (4, 10, 55.25163463715864),
            (1, 2, 63.30593757526425), (5, 7, 73.54381508326472),
            (11, 8, 81.10485018637547), (6, 9, 85.4755070911203)],
        ascending_per_copy_weights=[
            413.10387196971146, 413.10387196971146, 413.10387196971146,
            353.6799449641532, 353.6799449641532, 303.047959052324,
            318.98969692588037, 303.8535867467584, 312.60740105413817,
            273.0575925548995, 211.66004556385386, 346.6991755906512,
            312.97507389740224, 413.10387196971146],
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
        wide_deterministic=[
            (8, 5, 99.86967325106265), (7, 2, 95.5383788767934),
            (9, 11, 92.11271348000095), (10, 1, 75.68260864700305),
            (6, 4, 73.36205766777715)],
        ascending_best=[
            (10, 7, 90.07035828690594), (9, 11, 92.11271348000095),
            (8, 5, 99.86967325106265), (0, 4, 59.57833139922496)],
        ascending_per_copy_weights=[
            289.01971928844955, 289.01971928844955, 313.55123985465644,
            338.1479565323304, 255.18599324304822, 317.3886378342329,
            238.42353327032032, 298.47744731059277, 341.6310764171945,
            201.64959544812842, 235.19024049630826, 158.34795788530226,
            339.1451053631725, 339.1451053631725],
    ),
}


def instance(seed):
    return random_instance(RandomInstanceConfig(
        n=12, m=30, weight_law=UniformWeights(1, 100), seed=seed))


def ascending(stream):
    return StreamSource(stream.num_vertices,
                        sorted(stream.edges, key=lambda e: (e.weight, e.key)))


def triples(matching):
    return [(e.u, e.v, e.weight) for e in matching]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_deterministic_matching(seed):
    matching = run_deterministic(instance(seed), DET_GAMMA, DET_EPSILON)
    assert triples(matching) == GOLDEN[seed].deterministic


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_deterministic_matching_wide_window(seed):
    matching = run_deterministic(instance(seed), WIDE_GAMMA, WIDE_EPSILON)
    assert triples(matching) == GOLDEN[seed].wide_deterministic


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_ensemble_best_and_per_copy(seed):
    best, per_copy = run_ensemble(instance(seed), ENS_GAMMA, ENS_EPSILON, ENS_Q)
    assert triples(best) == GOLDEN[seed].ensemble_best
    assert [m.weight for m in per_copy] == GOLDEN[seed].per_copy_weights


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_ensemble_ascending_order(seed):
    best, per_copy = run_ensemble(ascending(instance(seed)), ENS_GAMMA, ENS_EPSILON, ENS_Q)
    assert triples(best) == GOLDEN[seed].ascending_best
    assert [m.weight for m in per_copy] == GOLDEN[seed].ascending_per_copy_weights


GAME_DIGESTS = {
    ("threshold:1", 4.5): "a446e90f7b0a0f87c07c23be0007999545e5e2b11f15cd05d5406839506646df",
    ("threshold:1", 4.9): "63194469d9e69c81fc7eac2d6f21904c14821098155b76cba5bdfe4a3d618fa9",
    ("threshold:1", 4.965): "d01bd21c9a43d1747c2ed3b77457d3bcb5a950293fc8ca9bb42a9bc9ffdfa861",
    ("threshold:1.5", 4.5): "3b1d889a6409cb28e711ea7ac2e50f42651691754c0f415d68c8f5add2e799fd",
    ("threshold:1.5", 4.9): "fe04cd01d048764dfe2c6b5ce8dadaf7ab4aac7f0976dc5d00e0516795904e8a",
    ("threshold:1.5", 4.965): "e8e45432015ab9ce7ce2f9c8d93a1c499b25184a847101f45a755413caaab121",
    ("threshold:2", 4.5): "5cb443a154ab4fa146904623349fd85e8501dd0d668e762a39941f87d61a5652",
    ("threshold:2", 4.9): "9370b2561e1ceb6173a9c3a649300e7e61f1a9db76f2d8953ee340780e7dbdfa",
    ("threshold:2", 4.965): "51f435c86d52fb99630683ae87928907a7e06f2b435e0edb572a36378e60825d",
    ("hold-first", 4.5): "0d1050649c46a042a1532113c7afcc4a1946abae83b9c1248eaff06c4ad1a408",
    ("hold-first", 4.9): "183cdd76078a03f1fb49a81b7e8eef7bb95b006ddff6aa5706f42e1a9645db72",
    ("hold-first", 4.965): "df33605a8fb4a4e9a80e51d34336fbb0864229468b85ee08ddc0e44c90280c28",
}
# TestScriptedTransitions.test_full_transition_tour: switch, switch, escape,
# escape again, back to the chain, then the checkpoint at step 7.
TOUR_SCRIPT, TOUR_C = "AR" + "AR" + "RA" + "RRA" + "RRA" + "AR", 4.5
TOUR_DIGEST = "f4391c59c2ad2ea71ea9ad1f229765d4bd624b0d21ab788a12d3f438ee7d3c5c"


# Near the critical constant: 1,159 steps and 2,319 presented edges.  The
# tracemalloc peak shows that the game keeps memory linear in the steps:
# 2.3 MiB, where records whose ``opt_after`` copied the optimum took 167 MiB.
NEAR_R_C = 4.9673
NEAR_R_DIGEST = "5a661468d3ed02c129d4aba586abeeb2270bf0725d650ad7bc0a7611694fc932"
NEAR_R_PEAK_MIB = 32


def game_digest(result):
    result_dict = result.to_json_dict() | {"transcript": opt_after_form(result.transcript)}
    payload = {"result": result_dict,
               "presented_edges": [[e.u, e.v, e.weight] for e in result.presented_edges]}
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("C", (4.5, 4.9, 4.965))
@pytest.mark.parametrize("victim", DEFAULT_VICTIMS)
def test_adversary_game(victim, C):
    result = run_adversary(make_victim(victim), AdversaryConfig(C=C))
    assert game_digest(result) == GAME_DIGESTS[victim, C]


def test_adversary_transition_tour():
    result = run_adversary(_Scripted(TOUR_SCRIPT), AdversaryConfig(C=TOUR_C))
    assert game_digest(result) == TOUR_DIGEST


def test_adversary_game_near_the_critical_constant():
    tracemalloc.start()
    try:
        result = run_adversary(make_victim("threshold:1"), AdversaryConfig(C=NEAR_R_C))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps_played == 1159
    assert peak < NEAR_R_PEAK_MIB * 2 ** 20
    assert game_digest(result) == NEAR_R_DIGEST
