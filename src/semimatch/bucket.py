"""One-pass bucketed weighted matching.

Edges are partitioned into geometric weight classes
``[phi*gamma^i, phi*gamma^(i+1))`` with ``phi = gamma^delta``; a maximal
matching is kept per class under consideration, classes far below the
running maximum weight are pruned, and a greedy scan over the surviving
classes (highest first) produces the final matching.  Three variants
share the pipeline: deterministic (delta = 0), shifted (fixed delta),
and an ensemble of q shifted copies on a delta grid, best one wins.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .core import Edge, GreedyMatching, Matching, StreamSource

__all__ = [
    "BucketState",
    "class_index",
    "best_copy",
    "run_deterministic",
    "choose_q",
    "run_ensemble",
    "expected_rounded_weight",
    "stream_bucket_run",
    "ensemble_states",
    "delta_grid",
    "MAX_COPIES",
    "deterministic_ratio_bound",
    "randomized_ratio_bound",
    "ensemble_ratio_bound",
    "minimize_randomized_bound",
]

_TINY = math.ulp(0.0)  # the smallest positive float

# The most grid copies an ensemble runs.  Each copy is a full BucketState,
# and all of them are built before the pass.
MAX_COPIES = 10_000


def class_index(w: float, gamma: float, delta: float = 0.0) -> int:
    """Index i of the weight class [gamma^(i+delta), gamma^(i+1+delta)) holding w.

    The floor of the logarithm is corrected against the actual floating
    powers so the half-open containment holds exactly; a weight equal to
    a class floor belongs to that class.
    """
    if not w > 0:
        raise ValueError(f"weight must be positive, got {w}")
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    i = math.floor(math.log(w) / math.log(gamma) - delta)
    try:
        while gamma ** (i + delta) > w:
            i -= 1
        while gamma ** (i + 1 + delta) <= w:
            i += 1
    except OverflowError:
        # Near the top of the float range: a power that overflows exceeds w.
        while _power(gamma, i + delta) > w:
            i -= 1
        while _power(gamma, i + 1 + delta) <= w:
            i += 1
    return i


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or +inf where it exceeds the largest float."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


class BucketState:
    """Streaming state: running w_max, class window, per-class matchings."""

    def __init__(self, gamma: float, epsilon: float, num_vertices: int, delta: float = 0.0):
        if not 1 < gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        if not 0 <= delta < 1:
            raise ValueError(f"delta must lie in [0, 1), got {delta}")
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        self.gamma, self.epsilon, self.delta = gamma, epsilon, delta
        self.num_vertices = num_vertices
        self.w_max = 0.0
        self.window: Optional[tuple[int, int]] = None
        # Class floors gamma^(i+delta) for i = lo, lo+1, hi, hi+1 of the
        # window; +inf until the first edge, whose window move fills them.
        self._floors = (math.inf,) * 4
        self.matchings: dict[int, GreedyMatching] = {}
        self.stored_edge_count = 0
        self.stored_edge_peak = 0
        self.edges_processed = 0

    @property
    def threshold(self) -> float:
        """Discard threshold 2*epsilon*w_max/n below which classes die.

        A product 2*epsilon*w_max that overflows is divided by n first.
        A quotient that underflows to 0 reads as ulp(0), below which no
        weight lies.  Capping at w_max keeps the edge that raised w_max
        from discarding itself when epsilon > n/2.
        """
        threshold = 2.0 * self.epsilon * self.w_max / self.num_vertices
        if threshold == math.inf:
            threshold = self.w_max / self.num_vertices * (2.0 * self.epsilon)
        return min(threshold, self.w_max) or _TINY

    def floor(self, i: int) -> float:
        """Lower end gamma^(i+delta) of class i, the power class_index compares against."""
        return _power(self.gamma, i + self.delta)

    def _move_window(self, threshold: float) -> None:
        gamma, delta = self.gamma, self.delta
        # The class containing the threshold is the lowest whose interval
        # still intersects [threshold, w_max].
        lo = class_index(threshold, gamma, delta)
        hi = class_index(self.w_max, gamma, delta)
        self.window = (lo, hi)
        self._floors = (self.floor(lo), self.floor(lo + 1), self.floor(hi), self.floor(hi + 1))
        for i in [i for i in self.matchings if i < lo]:
            self.stored_edge_count -= len(self.matchings[i].edges)
            del self.matchings[i]

    def process(self, edge: Edge) -> None:
        """Classify one arriving edge; store it or discard it forever."""
        _feed([self], (edge,))

    def finalize(self) -> Matching:
        """Greedy matching over the stored edges, highest class first.

        Within one class edges keep insertion order.  An edge is taken
        unless it touches a vertex already taken.
        """
        greedy = GreedyMatching()
        for i in sorted(self.matchings, reverse=True):
            for e in self.matchings[i].edges:
                greedy.add(e)
        return Matching(greedy.edges)


def best_copy(per_copy: list[Matching]) -> Matching:
    """The heaviest of the copies' matchings; ties go to the earliest copy.

    Copies come in grid order, so a tie goes to the smallest delta.  The
    copies are independent and the reduction is deterministic, so
    concurrent execution of the copies would return the same answer.
    """
    return max(per_copy, key=lambda m: m.weight)


def _feed(states: list[BucketState], edges: Iterable[Edge]) -> None:
    """The one pass loop: feed each edge to every copy, in copy order.

    The copies differ only in delta, so they share w_max and the discard
    threshold, and both are derived once per edge.  A copy recomputes its
    window only when the threshold or w_max left the classes at its ends.
    """
    first, count = states[0], 0
    for edge in edges:
        count += 1
        w = edge.weight
        if w > first.w_max:
            first.w_max = w
            threshold = first.threshold
            for state in states:
                state.w_max = w
                # The floors are the powers class_index compares against,
                # so these tests agree with it exactly.
                lo_floor, lo_ceil, hi_floor, hi_ceil = state._floors
                if not (lo_floor <= threshold < lo_ceil and hi_floor <= w < hi_ceil):
                    state._move_window(threshold)
        for state in states:
            lo_floor, _, hi_floor, _ = state._floors
            if w < lo_floor:
                continue
            if w >= hi_floor:
                i = state.window[1]  # type: ignore[index]  # w <= w_max < hi_ceil
            else:
                i = class_index(w, state.gamma, state.delta)
            slot = state.matchings.get(i)
            if slot is None:
                slot = state.matchings[i] = GreedyMatching()
            if slot.add(edge):
                state.stored_edge_count += 1
                if state.stored_edge_count > state.stored_edge_peak:
                    state.stored_edge_peak = state.stored_edge_count
    for state in states:
        state.edges_processed += count


def stream_bucket_run(stream: StreamSource, gamma: float, epsilon: float,
                      delta: float = 0.0) -> BucketState:
    """Fold a whole stream through a fresh state (one pass)."""
    state = BucketState(gamma, epsilon, stream.num_vertices, delta)
    _feed([state], stream)
    return state


def run_deterministic(stream: StreamSource, gamma: float, epsilon: float) -> Matching:
    """Single pass with delta = 0 (phi = 1), then greedy finalize."""
    return stream_bucket_run(stream, gamma, epsilon).finalize()


def choose_q(gamma: float, epsilon: float) -> int:
    """Smallest number of grid copies q with gamma^(1/q) <= 1 + epsilon/5.

    That keeps the grid-rounding degradation factor gamma^(1/q) inside
    the epsilon budget.  gamma^(1/q) falls as q grows, so q is found by
    doubling until the test passes and then bisecting, in O(log q) powers.
    A q above MAX_COPIES raises ValueError.
    """
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target = 1.0 + epsilon / 5.0
    if target == 1.0:
        raise ValueError(f"epsilon={epsilon} is too small: 1 + epsilon/5 rounds to 1")
    good = 1
    while gamma ** (1.0 / good) > target:
        good *= 2
    bad = good // 2  # fails the test, or is 0
    while good - bad > 1:
        mid = (bad + good) // 2
        if gamma ** (1.0 / mid) <= target:
            good = mid
        else:
            bad = mid
    if good > MAX_COPIES:
        raise ValueError(
            f"gamma={gamma}, epsilon={epsilon} needs q={good} grid copies, "
            f"more than the limit of {MAX_COPIES}")
    return good


def delta_grid(q: int) -> list[float]:
    """The grid {0, 1/q, ..., (q-1)/q} of shift values."""
    if not 1 <= q <= MAX_COPIES:
        raise ValueError(f"q must lie in [1, {MAX_COPIES}], got {q}")
    return [i / q for i in range(q)]


def ensemble_states(
    stream: StreamSource, gamma: float, epsilon: float, q: int,
) -> list[BucketState]:
    """One pass over the stream feeding q shifted copies, one per grid delta."""
    states = [BucketState(gamma, epsilon, stream.num_vertices, d) for d in delta_grid(q)]
    _feed(states, stream)
    return states


def run_ensemble(
    stream: StreamSource, gamma: float, epsilon: float, q: int,
) -> tuple[Matching, list[Matching]]:
    """Best of q grid-shifted copies (see :func:`best_copy`), plus every copy's result."""
    per_copy = [state.finalize() for state in ensemble_states(stream, gamma, epsilon, q)]
    return best_copy(per_copy), per_copy


def expected_rounded_weight(w: float, gamma: float) -> float:
    """Mean class-floor rounding of w under a uniform shift: w*(1 - 1/gamma)/ln(gamma)."""
    if not w > 0:
        raise ValueError(f"weight must be positive, got {w}")
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    return w * (1.0 - 1.0 / gamma) / math.log(gamma)


def deterministic_ratio_bound(gamma: float) -> float:
    """Worst-case OPT/ALG for the delta = 0 variant: 2*gamma^2/(gamma-1)."""
    return 2.0 * gamma * gamma / (gamma - 1.0)


def randomized_ratio_bound(gamma: float) -> float:
    """Expected-ratio bound under a uniform shift: 2*gamma^2*ln(gamma)/(gamma-1)^2."""
    return 2.0 * gamma * gamma * math.log(gamma) / (gamma - 1.0) ** 2


def ensemble_ratio_bound(gamma: float, q: int) -> float:
    """Grid-of-q bound: 2*gamma^(2+1/q)*ln(gamma)/(gamma-1)^2."""
    return 2.0 * gamma ** (2.0 + 1.0 / q) * math.log(gamma) / (gamma - 1.0) ** 2


def minimize_randomized_bound() -> tuple[float, float]:
    """Golden-section minimizer of the randomized ratio bound over (1.5, 10), to 1e-10."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1.5, 10.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = randomized_ratio_bound(c), randomized_ratio_bound(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = randomized_ratio_bound(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = randomized_ratio_bound(d)
    best = 0.5 * (a + b)
    return best, randomized_ratio_bound(best)
