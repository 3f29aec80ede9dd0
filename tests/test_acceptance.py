"""Acceptance gate: ten headline checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing.
"""

import math
import random
import time
from contextlib import contextmanager

from semimatch.adversary import (
    AdversaryConfig,
    closed_form_params,
    closed_form_S,
    first_nonpositive_closed_form,
    first_nonpositive_recurrence,
    generate_sequences,
    run_adversary,
    solve_R,
    verify_identities,
)
from semimatch.bucket import (
    choose_q,
    class_index,
    deterministic_ratio_bound,
    ensemble_ratio_bound,
    expected_rounded_weight,
    randomized_ratio_bound,
    run_deterministic,
    run_ensemble,
    stream_bucket_run,
)
from semimatch.certificate import build_certificate, filter_to_final_window
from semimatch.core import Edge, Matching
from semimatch.generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    permute_stream,
    random_instance,
    tight_instance,
    tight_instance_opt_weight,
)
from semimatch.oracle import max_weight_matching_exact
from semimatch.preemptive import DEFAULT_VICTIMS, make_victim

from bruteforce import max_weight_matching_bruteforce
from test_adversary import optima


@contextmanager
def criterion(number, description, budget_s=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_tight_example_convergence():
    with criterion(1, "tight-example ratio reaches 7.8 by k=8 and climbs toward 8",
                   budget_s=1.0):
        gamma, eps = 2.0, 1e-6
        ratios = []
        for k in range(1, 9):
            stream = tight_instance(gamma, k, eps)
            alg = run_deterministic(stream, gamma, 0.01)
            assert alg.weight == gamma ** k
            analytic = tight_instance_opt_weight(gamma, k, eps)
            if k <= 3:
                oracle_opt = max_weight_matching_exact(stream.edges).weight
                assert abs(oracle_opt - analytic) <= 1e-6 * analytic
            ratios.append(analytic / alg.weight)
        assert ratios[-1] >= 7.8
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < deterministic_ratio_bound(gamma) for r in ratios)


def test_criterion_2_worst_case_guarantee():
    with criterion(2, "500 instances x 10 permutations x {2, 3.513}: bounds never violated",
                   budget_s=60.0):
        run_eps = 0.001
        qs = {g: choose_q(g, 0.5) for g in (2.0, 3.513)}
        det_bounds = {g: deterministic_ratio_bound(g) + 0.01 for g in qs}
        ens_bounds = {g: ensemble_ratio_bound(g, qs[g]) + 0.01 for g in qs}
        rng = random.Random(987654)
        for index in range(500):
            n = rng.randint(8, 14)
            m = rng.randint(6, min(40, n * (n - 1) // 2))
            law = (UniformWeights(1, 100) if index % 3
                   else ExponentialClassWeights(2.0, 8))
            stream = random_instance(RandomInstanceConfig(
                n=n, m=m, weight_law=law, seed=index))
            opt = max_weight_matching_exact(stream.edges).weight
            for perm_seed in range(10):
                permuted = permute_stream(stream, perm_seed)
                for g in (2.0, 3.513):
                    alg = run_deterministic(permuted, g, run_eps)
                    assert opt / alg.weight <= det_bounds[g], (index, perm_seed, g)
                    best, _ = run_ensemble(permuted, g, run_eps, qs[g])
                    assert opt / best.weight <= ens_bounds[g], (index, perm_seed, g)


def test_criterion_3_gamma_optimization():
    with criterion(3, "bound minimizer within 0.01 of 3.513, value within 0.001 of 4.9108",
                   budget_s=1.0):
        # The least bound on a grid of step 1e-4 over (1.5, 10).
        gamma_star = min((1.5 + 1e-4 * i for i in range(1, 85_000)), key=randomized_ratio_bound)
        assert abs(gamma_star - 3.513) <= 0.01
        assert abs(randomized_ratio_bound(gamma_star) - 4.9108) <= 0.001


def test_criterion_4_expected_rounding():
    with criterion(4, "1e5-point shift average of class-floor rounding matches the closed form"):
        w, gamma, grid = 10.0, 2.0, 100_000
        total = 0.0
        for j in range(grid):
            d = (j + 0.5) / grid
            total += gamma ** (class_index(w, gamma, d) + d)
        mean = total / grid
        expect = expected_rounded_weight(w, gamma)
        assert abs(mean - expect) <= 1e-4 * expect


def test_criterion_5_certificate_chain():
    with criterion(5, "OPT <= gamma*OPT' <= gamma*TW <= (2g^2/(g-1))*w(M) with 1e-9 slack"):
        slack = 1 + 1e-9
        cases = []
        for seed in range(30):
            law = UniformWeights(0.5, 800) if seed % 2 else ExponentialClassWeights(2.0, 9)
            cases.append(random_instance(RandomInstanceConfig(
                n=12, m=30, weight_law=law, seed=seed)))
        for k in (1, 2, 3):
            cases.append(tight_instance(2.0, k, 1e-6))
        for stream in cases:
            for gamma, delta in ((2.0, 0.0), (3.513, 0.0), (2.0, 0.37), (3.513, 0.7)):
                state = stream_bucket_run(stream, gamma, 0.01, delta)
                survivors = filter_to_final_window(state, stream.edges)
                opt = max_weight_matching_exact(survivors)
                cert = build_certificate(state, opt)
                assert cert.opt_rounded <= cert.opt_weight * slack
                assert cert.opt_weight <= gamma * cert.opt_rounded * slack
                assert cert.opt_rounded <= cert.total_associated_weight * slack
                assert cert.total_associated_weight <= \
                    (2 * gamma / (gamma - 1)) * cert.alg_weight * slack


def test_criterion_6_critical_root():
    with criterion(6, "root of x^3 = 4(x^2+x+1) in [4.96, 4.97] with residual < 1e-9"):
        R = solve_R()
        assert 4.9600 <= R <= 4.9700
        assert abs(R ** 3 - 4 * R ** 2 - 4 * R - 4) < 1e-9


def test_criterion_7_sequence_machinery():
    with criterion(7, "sequences terminate; identities and closed form agree to 1e-9",
                   budget_s=1.0):
        for C in (3.0, 4.0, 4.5, 4.9, 4.95):
            table = generate_sequences(C)
            report = verify_identities(table)
            assert report.ok, (C, report.first_failure)
            params = closed_form_params(C)
            for j in range(table.n + 1):
                assert abs(closed_form_S(params, j) - table.S[j]) <= \
                    1e-9 * max(1.0, abs(table.S[j]))
            assert first_nonpositive_recurrence(C) == first_nonpositive_closed_form(params)


def _replay_opt_validity(result):
    presented = set()
    for record, opt in zip(result.transcript, optima(result.transcript)):
        presented.add((record["u"], record["v"], record["weight"]))
        canonical = {(min(u, v), max(u, v), w) for (u, v, w) in presented}
        opt_edges = [Edge(int(u), int(v), w) for (u, v, w) in opt]
        Matching(opt_edges)  # raises when two edges share a vertex
        assert all(tuple(t) in canonical for t in opt)


def test_criterion_8_adversary_victory():
    with criterion(8, "every registered victim loses at C=4.9 with a clean transcript",
                   budget_s=10.0):
        for name in DEFAULT_VICTIMS:
            result = run_adversary(make_victim(name), AdversaryConfig(C=4.9))
            assert result.unbounded or result.achieved_ratio >= 4.9 * (1 - 1e-9), name
            _replay_opt_validity(result)
            oracle_opt = max_weight_matching_exact(result.presented_edges).weight
            assert result.tracked_opt_weight <= oracle_opt, name


def test_criterion_9_memory_audit():
    with criterion(9, "peak stored edges within (n/2)(ceil(log2(n/2eps))+2) on n=1000, m=1e5",
                   budget_s=10.0):
        n, m, gamma, epsilon = 1000, 100_000, 2.0, 0.1
        stream = random_instance(RandomInstanceConfig(
            n=n, m=m, weight_law=UniformWeights(1, 100), seed=42))
        state = stream_bucket_run(stream, gamma, epsilon)
        bound = (n / 2) * (math.ceil(math.log(n / (2 * epsilon), gamma)) + 2)
        assert state.stored_edge_peak <= bound
        assert stream.passes == 1
        assert state.edges_processed == m


def test_criterion_10_oracle_self_consistency():
    with criterion(10, "blossom equals all-subsets brute force on 1000 instances"):
        rng = random.Random(13579)
        for index in range(1000):
            n = rng.randint(3, 10)
            m = rng.randint(2, min(16, n * (n - 1) // 2))
            stream = random_instance(RandomInstanceConfig(
                n=n, m=m, weight_law=UniformWeights(0.1, 100), seed=index))
            exact = max_weight_matching_exact(stream.edges).weight
            brute = max_weight_matching_bruteforce(stream.edges)
            assert exact == brute, (index, exact, brute)
