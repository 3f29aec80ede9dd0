"""One-pass bucketed weighted matching.

Edges are partitioned into geometric weight classes
``[gamma^(i+delta), gamma^(i+1+delta))``; a maximal matching is kept per
class under consideration, classes far below the running maximum weight
are pruned, and a greedy scan over the surviving classes (highest first)
produces the final matching.  Three variants share the pipeline:
deterministic (delta = 0), shifted (fixed delta), and an ensemble of q
shifted copies on a delta grid, best one wins.

The copies of one pass share one fine grid.  Position ``p = i*q + j`` is
class i of copy j, and its floor is copy j's own ``gamma**(i + delta_j)``,
the power :func:`class_index` compares against.  The pass assumes that
these fine floors never decrease along p; the grid's floor table, a list
indexed like its edge lists, checks each floor it appends against the
one below it and raises ValueError naming gamma and q if one decreases.
The table is then sorted, and a binary search of it places a weight in
its fine cell K, the last position whose floor is at most the weight;
only a weight past the table's ends takes computed powers.  The edge lies
in class ``(K - j) // q`` of copy j, at positions ``K-q+1 .. K``, one
per copy.  Every copy's window then starts at one alive position, q-1
below the threshold's cell, and one int per vertex, a bit per position
whose class matching covers the vertex, tests an edge against all q
class matchings at once.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from itertools import chain
from typing import Callable, Iterable, Optional

from .core import Edge, GreedyMatching, Matching, StreamSource, _edge, _Row

__all__ = [
    "BucketState",
    "check_parameters",
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
    "MAX_WINDOW_POSITIONS",
    "deterministic_ratio_bound",
    "randomized_ratio_bound",
    "ensemble_ratio_bound",
]

_TINY = math.ulp(0.0)  # the smallest positive float

# The most grid copies an ensemble runs.  The grid's window holds q
# positions per class, all of them built as the window moves.
MAX_COPIES = 10_000


def _check_weight(w: float) -> None:
    if not 0 < w < math.inf:
        raise ValueError(f"weight must be finite and positive, got {w}")


def _check_gamma(gamma: float) -> None:
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")


def class_index(w: float, gamma: float, delta: float = 0.0) -> int:
    """Index i of the weight class [gamma^(i+delta), gamma^(i+1+delta)) holding w.

    The floor of the logarithm is corrected against the actual floating
    powers by :func:`_last`, so the half-open containment holds exactly; a
    weight equal to a class floor belongs to that class, and a run of
    floors that round to one float (just above 5e-324) costs O(log) powers.
    """
    _check_weight(w)
    _check_gamma(gamma)
    return _last(math.floor(math.log(w) / math.log(gamma) - delta),
                 lambda i: _power(gamma, i + delta) <= w)


def _last(k: int, holds: Callable[[int], bool]) -> int:
    """The largest integer at which ``holds`` is true, searched from the guess k.

    ``holds`` must be true up to some integer and false above it.  The
    answer is bracketed in steps that double from k and then bisected, so
    it costs O(log |answer - k|) calls.
    """
    lo = hi = k
    step = 1
    if holds(lo):  # step up to an integer where it fails
        hi += 1
        while holds(hi):
            lo, hi, step = hi, hi + step, 2 * step
    else:  # step down to an integer where it holds
        lo -= 1
        while not holds(lo):
            lo, hi, step = lo - step, lo, 2 * step
    while hi - lo > 1:  # holds(lo) and not holds(hi)
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or +inf where it exceeds the largest float."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


class BucketState:
    """One copy of a pass: its shift, window, class matchings and counts.

    The copies of one pass share one :class:`_Grid`, and copy j is its
    column j (:meth:`_Grid.column`): every read of a copy's classes goes
    through that slice.  :func:`stream_bucket_run` and
    :func:`ensemble_states` build the grid and its copies.
    """

    def __init__(self, grid: _Grid, copy: int):
        self._grid, self._copy, self.delta = grid, copy, grid.deltas[copy]
        self.gamma, self.epsilon, self.num_vertices = grid.gamma, grid.epsilon, grid.num_vertices

    @property
    def w_max(self) -> float:
        return self._grid.w_max

    @property
    def threshold(self) -> float:
        """Discard threshold 2*epsilon*w_max/n below which classes die."""
        return self._grid.threshold

    @property
    def edges_processed(self) -> int:
        return self._grid.edges_processed

    @property
    def window(self) -> Optional[tuple[int, int]]:
        """Classes of the threshold and of w_max; None before the first edge."""
        grid, j = self._grid, self._copy
        if grid.top is None:
            return None
        return (grid.alive + grid.q - 1 - j) // grid.q, (grid.top - j) // grid.q

    @property
    def matchings(self) -> dict[int, list[Edge]]:
        """Each live class's matching, in arrival order, by class index, lowest first."""
        window, column = self.window, self._grid.column(self._copy)
        return {window[0] + t: list(slot) for t, slot in enumerate(column) if slot}

    @property
    def stored_edge_count(self) -> int:
        return self._grid.count(self._copy)

    @property
    def stored_edge_peak(self) -> int:
        return max(self._grid.peaks[self._copy], self.stored_edge_count)

    def floor(self, i: int) -> float:
        """Lower end gamma^(i+delta) of class i, the power class_index compares against."""
        return self._grid._floor(i * self._grid.q + self._copy)

    def process(self, edge: Edge) -> None:
        """Classify one arriving edge for every copy of the pass; store it or discard it."""
        self._grid.feed(((edge.u, edge.v, edge.weight, edge),))

    def finalize(self) -> Matching:
        """Greedy matching over the stored edges, highest class first.

        Within one class edges keep insertion order.  An edge is taken
        unless it touches a vertex already taken.
        """
        greedy = GreedyMatching()
        greedy.extend(chain.from_iterable(reversed(self._grid.column(self._copy))))
        return greedy.matching()


def check_parameters(gamma: float, epsilon: float, deltas: Iterable[float]) -> None:
    """Refuse a gamma, epsilon or shift that a pass refuses, with its message.

    A pass checks them when it is built, then the window limit, which
    needs n; this checks them without a stream.
    """
    _check_gamma(gamma)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    for delta in deltas:
        if not 0 <= delta < 1:
            raise ValueError(f"delta must lie in [0, 1), got {delta}")


# The most grid positions a window may span: q per class, over
# log_gamma(n/(2*epsilon)) + 2 classes.  A vertex's bitset spans at most
# twice the window, 256 KiB.  The ratio counts as at least 3: the floors
# that round to the smallest float span that ratio, and a window and its
# floor table span such a run.
MAX_WINDOW_POSITIONS = 1 << 20
_LOG_RANGE = math.log(sys.float_info.max) - math.log(_TINY)  # log of the widest float ratio


class _Grid:
    """The state of one pass, shared by copies that differ only in their shift.

    Position ``p = i*q + j`` is class i of copy j, with copy j's floor
    ``gamma**(i + deltas[j])``, which :meth:`_floor` alone computes.
    ``top`` is the fine cell of w_max, ``alive + q - 1`` that of the
    threshold, and positions below ``alive`` are pruned.  Three tables
    share the index ``p - base``: ``slots`` lists the edges stored at p,
    bit ``p - base`` of ``cover[x]`` is set when one of them ends at vertex
    x, and ``floors`` holds p's floor up to ``top + q``, each checked
    against the one below it, so a weight is placed by binary search of
    it.  Copy j reads only its column, every q-th slot from its lowest
    live position (:meth:`column`).  ``peaks[j]`` is the most edges copy j
    stored just before a move that pruned some of them, its count read
    once per such move, before any of its slots is cleared.
    """

    def __init__(self, gamma: float, epsilon: float, num_vertices: int,
                 deltas: tuple[float, ...]):
        check_parameters(gamma, epsilon, deltas)
        q = len(deltas)
        ratio = num_vertices / (2.0 * epsilon)  # w_max over the threshold
        span = q * (min(math.log(max(ratio, 3.0)), _LOG_RANGE) / math.log(gamma) + 2)
        if span > MAX_WINDOW_POSITIONS:
            raise ValueError(
                f"gamma={gamma}, epsilon={epsilon}, num_vertices={num_vertices} and q={q} "
                f"give a window of up to {math.ceil(span)} grid positions, more than the "
                f"limit of {MAX_WINDOW_POSITIONS}")
        self.gamma, self.epsilon, self.num_vertices = gamma, epsilon, num_vertices
        self.deltas, self.q = deltas, q
        self._scale = q / math.log(gamma)  # positions per unit of log(w)
        self.w_max = 0.0
        self.edges_processed = 0
        self.top: Optional[int] = None
        self.alive = self.base = 0
        self.slots: list[list[Edge]] = []
        self.cover: dict[int, int] = {}
        self.floors: list[float] = []
        self.peaks = [0] * q

    @property
    def threshold(self) -> float:
        """Discard threshold 2*epsilon*w_max/n below which classes die.

        A product 2*epsilon*w_max that overflows is divided by n first and
        read as at least max_float/n, the most a finite product gives, so
        the threshold, and the window, never fall as w_max rises.  A
        quotient that underflows to 0 reads as ulp(0), below which no
        weight lies.  Capping at w_max keeps the edge that raised w_max
        from discarding itself when epsilon > n/2.
        """
        n = self.num_vertices
        threshold = 2.0 * self.epsilon * self.w_max / n
        if threshold == math.inf:
            threshold = max(self.w_max / n * (2.0 * self.epsilon), sys.float_info.max / n)
        return min(threshold, self.w_max) or _TINY

    def column(self, j: int) -> list[list[Edge]]:
        """Copy j's live slots, its class matchings, lowest class first."""
        if self.top is None:
            return []
        start = self.alive + (j - self.alive) % self.q
        return self.slots[start - self.base:self.top + 1 - self.base:self.q]

    def count(self, j: int) -> int:
        """The number of edges copy j stores."""
        return sum(map(len, self.column(j)))

    def copies(self) -> list[BucketState]:
        """Each copy, in shift order."""
        return [BucketState(self, j) for j in range(self.q)]

    def _floor(self, p: int) -> float:
        """Position p's floor: from the table where it holds p, else computed."""
        if 0 <= p - self.base < len(self.floors):
            return self.floors[p - self.base]
        return _power(self.gamma, p // self.q + self.deltas[p % self.q])

    def _cell(self, w: float) -> int:
        """The fine cell K of w, floor(K) <= w < floor(K + 1).

        Inside the floor table a binary search of it; past its ends (a fresh
        grid, or a jump out of it) one log, then :func:`_last` over
        :meth:`_floor`.  Copy j's class of w is then ``(K - j) // q``.
        """
        floors = self.floors
        if floors and floors[0] <= w < floors[-1]:
            return bisect_right(floors, w) + self.base - 1
        return _last(math.floor(math.log(w) * self._scale), lambda k: self._floor(k) <= w)

    def _move(self, threshold: float) -> None:
        """Move the window to the cells of w_max and the threshold; prune below it.

        The floor table is then extended to ``top + q``, the highest
        position an edge's classes depend on.
        """
        q, first = self.q, self.top is None
        top, alive = self._cell(self.w_max), self._cell(threshold) - q + 1
        slots, floors, base = self.slots, self.floors, self.base
        if first:
            base = alive
        else:
            counted = set()  # copies whose count this move has read
            for p in range(self.alive, min(alive, self.top + 1)):
                if slots[p - base]:
                    if (j := p % q) not in counted:  # before any of its slots is cleared
                        counted.add(j)
                        self.peaks[j] = max(self.peaks[j], self.count(j))
                    slots[p - base] = []
            if alive - base > top - alive:  # more stale positions than live ones
                shift = alive - base
                del slots[:shift], floors[:shift]
                self.cover = {x: bits >> shift for x, bits in self.cover.items() if bits >> shift}
                base = alive
        self.base, self.alive, self.top = base, alive, top
        slots.extend([] for _ in range(top - base + 1 - len(slots)))
        for p in range(base + len(floors), top + q + 1):
            floor = self._floor(p)
            if floors and floors[-1] > floor:
                raise ValueError(
                    f"gamma={self.gamma}, q={q}: the class floors decrease at grid position "
                    f"{p}, and the grid needs floors that never decrease")
            floors.append(floor)

    def feed(self, rows: Iterable[_Row]) -> None:
        """The one pass loop: classify each ``(u, v, weight, edge)`` row once, for every copy.

        An edge in fine cell K lies at positions K-q+1 .. K, one per copy;
        those at or above ``alive`` are the copies whose window holds its
        class.  The loop works in table indices ``p - base``: the live ones
        run from ``start`` (alive) to below ``stop`` (top + 1), and an edge
        that does not raise w_max finds ``K + 1`` by binary search of the
        floors between them.  An edge that raises w_max moves the window
        when w_max reaches ``floors[stop]`` or the threshold reaches
        ``floors[start + q]``, the floors just above their cells; the first
        edge always does.  One bit test against both ends' bitsets finds
        the copies whose class matching takes it, which all store one Edge:
        the row's, else one made then (a lazy read's is None).
        """
        q, full, count = self.q, (1 << self.q) - 1, 0
        w_max, cover, slots, floors = self.w_max, self.cover, self.slots, self.floors
        start = stop = 0
        top_ceil = bottom_ceil = 0.0
        if self.top is not None:
            start, stop = self.alive - self.base, self.top + 1 - self.base
            top_ceil, bottom_ceil = floors[stop], floors[start + q]
        for u, v, w, edge in rows:
            count += 1
            if w > w_max:
                self.w_max = w_max = w
                threshold = self.threshold
                if w >= top_ceil or threshold >= bottom_ceil:
                    self._move(threshold)
                    start, stop = self.alive - self.base, self.top + 1 - self.base
                    cover = self.cover
                    top_ceil, bottom_ceil = floors[stop], floors[start + q]
                end = stop  # one past the index of K
            else:
                end = bisect_right(floors, w, start, stop)
                if end <= start:
                    continue
            shift = end - q  # the index of K-q+1, the lowest position of the edge
            if shift >= start:
                mask = full
            else:
                shift, mask = start, (1 << (end - start)) - 1
            cu, cv = cover.get(u, 0), cover.get(v, 0)
            free = mask & ~((cu | cv) >> shift)
            if not free:
                continue
            cover[u] = cu | free << shift
            cover[v] = cv | free << shift
            if edge is None:
                edge = _edge(u, v, w)
            if free == mask:
                for slot in slots[shift:end]:
                    slot.append(edge)
            else:
                while free:
                    low = free & -free
                    slots[shift + low.bit_length() - 1].append(edge)
                    free ^= low
        self.edges_processed += count


def best_copy(states: list[BucketState]) -> tuple[Matching, list[Matching]]:
    """Finalize each copy: the heaviest matching, then every copy's in copy order.

    Ties go to the earliest copy; copies come in grid order, so that is
    the smallest delta.
    """
    per_copy = [state.finalize() for state in states]
    return max(per_copy, key=lambda m: m.weight), per_copy


def stream_bucket_run(stream: StreamSource, gamma: float, epsilon: float,
                      delta: float = 0.0) -> BucketState:
    """One pass over the stream feeding a grid of one copy, shifted by delta."""
    grid = _Grid(gamma, epsilon, stream.num_vertices, (delta,))
    grid.feed(stream.rows())
    return grid.copies()[0]


def run_deterministic(stream: StreamSource, gamma: float, epsilon: float) -> Matching:
    """Single pass with delta = 0 (phi = 1), then greedy finalize."""
    return stream_bucket_run(stream, gamma, epsilon).finalize()


def choose_q(gamma: float, epsilon: float) -> int:
    """Smallest number of grid copies q with gamma^(1/q) <= 1 + epsilon/5.

    That keeps the grid-rounding degradation factor gamma^(1/q) inside
    the epsilon budget.  gamma^(1/q) falls as q grows, so q is one above
    the last q that fails the test, which :func:`_last` finds from 0 in
    O(log q) powers.  A q above MAX_COPIES raises ValueError.
    """
    _check_gamma(gamma)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target = 1.0 + epsilon / 5.0
    if target == 1.0:
        raise ValueError(f"epsilon={epsilon} is too small: 1 + epsilon/5 rounds to 1")
    q = 1 + _last(0, lambda q: q < 1 or gamma ** (1.0 / q) > target)
    if q > MAX_COPIES:
        raise ValueError(
            f"gamma={gamma}, epsilon={epsilon} needs q={q} grid copies, "
            f"more than the limit of {MAX_COPIES}")
    return q


def delta_grid(q: int) -> list[float]:
    """The grid {0, 1/q, ..., (q-1)/q} of shift values."""
    if not 1 <= q <= MAX_COPIES:
        raise ValueError(f"q must lie in [1, {MAX_COPIES}], got {q}")
    return [i / q for i in range(q)]


def ensemble_states(
    stream: StreamSource, gamma: float, epsilon: float, q: int,
) -> list[BucketState]:
    """One pass over the stream feeding q shifted copies, one per grid delta."""
    grid = _Grid(gamma, epsilon, stream.num_vertices, tuple(delta_grid(q)))
    grid.feed(stream.rows())
    return grid.copies()


def run_ensemble(
    stream: StreamSource, gamma: float, epsilon: float, q: int,
) -> tuple[Matching, list[Matching]]:
    """Best of q grid-shifted copies (see :func:`best_copy`), plus every copy's result."""
    return best_copy(ensemble_states(stream, gamma, epsilon, q))


def expected_rounded_weight(w: float, gamma: float) -> float:
    """Mean class-floor rounding of w under a uniform shift: w*(1 - 1/gamma)/ln(gamma)."""
    _check_weight(w)
    _check_gamma(gamma)
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
