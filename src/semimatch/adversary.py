"""Adversarial lower-bound machinery for deterministic preemptive matching.

A target ratio C below the critical constant R (the unique real root of
x^3 = 4(x^2 + x + 1), about 4.967) determines two weight sequences

    w_1 = 1,   w_{k+1} = ((C^2+1) w_k - C S_{k-1}) / (2C+1),
    w'_{k+1} = ((C+1) w_{k+1} - w_k) / C,

with prefix sums S_i.  The sequence is cut at the first decrease
(w_k < w_{k-1}), one extra term is computed, and n = k+1.  The prefix
sums obey a two-term linear recurrence whose characteristic roots are
complex for C < R, giving the closed form S_j = -2A r^j sin(j*theta);
the sine factor forces a sign change, so the construction is finite.

The game presents edges from these sequences to any deterministic
preemptive algorithm and tracks alongside a matching of the presented
edges, a lower bound on OPT (not OPT itself); at every decision point
where the algorithm declines the mandated switch, or at the final step,
the tracked-to-algorithm ratio is at least C.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, count
from typing import Optional

from .core import Edge, Matching
from .preemptive import PreemptiveAlgorithm

__all__ = [
    "AdversaryConfig",
    "SequenceTable",
    "ClosedFormParams",
    "IdentityReport",
    "GameResult",
    "ContractViolationError",
    "solve_R",
    "generate_sequences",
    "closed_form_params",
    "closed_form_S",
    "first_nonpositive_recurrence",
    "first_nonpositive_closed_form",
    "verify_identities",
    "run_adversary",
]


REL_TOL = 1e-9  # relative slack of each identity that verify_identities checks
# The labels of the two identities verify_identities checks, as its first_failure names them.
CHAIN = "chain"
ESCAPE = "escape"


def _cubic(x: float) -> float:
    return x ** 3 - 4.0 * x ** 2 - 4.0 * x - 4.0


@lru_cache(maxsize=1)
def solve_R() -> float:
    """Unique real root of x^3 = 4(x^2 + x + 1), bisected to 1e-12."""
    lo, hi = 4.0, 6.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _cubic(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _check_C(C: float) -> None:
    """Admit 1 < C < R - 1e-9.

    On that range the discriminant C*(C^3 - 4C^2 - 4C - 4) of the
    prefix-sum recurrence stays negative (about -1.5e-7 at the top), so
    its characteristic roots are complex and the sequences turn down.
    """
    if not 1 < C < solve_R() - 1e-9:
        raise ValueError(
            f"C must lie strictly between 1 and the critical constant {solve_R():.6f}, got {C}")


def _finite(value: float, C: float, term: str, j: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"C={C} is too close to the critical constant {solve_R():.6f}: "
                         f"{term} S_{j} leaves the float range")
    return value


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    """Game parameters; C must sit strictly below the critical root."""

    C: float

    def __post_init__(self) -> None:
        _check_C(self.C)


@dataclass(frozen=True, slots=True)
class SequenceTable:
    """1-indexed weight sequences for one C.

    ``w[k]`` is w_k for k = 1..n, ``w_prime[k]`` is w'_k for
    k = 2..n-1, ``S[i]`` is the prefix sum for i = 0..n; unused slots
    hold NaN.
    """

    C: float
    n: int
    w: tuple[float, ...]
    w_prime: tuple[float, ...]
    S: tuple[float, ...]


def generate_sequences(C: float) -> SequenceTable:
    """Iterate the sequences until the first decrease, then one more term.

    Close to the root the terms grow past the float range before they
    turn down; that raises ValueError, so the loop ends within about
    1,400 terms.
    """
    _check_C(C)
    w = [math.nan, 1.0]
    S = [0.0, 1.0]

    def extend() -> None:
        nxt = ((C * C + 1.0) * w[-1] - C * S[-2]) / (2.0 * C + 1.0)
        w.append(nxt)
        S.append(S[-1] + nxt)
        _finite(S[-1], C, "prefix sum", len(S) - 1)

    while not (len(w) >= 3 and w[-1] < w[-2]):
        extend()
    # w[-1] is the first decrease, at index k = len(w)-1; n = k+1.
    extend()
    n = len(w) - 1
    w_prime = [math.nan, math.nan]
    w_prime.extend(((C + 1.0) * w[k] - w[k - 1]) / C for k in range(2, n))
    return SequenceTable(C=C, n=n, w=tuple(w), w_prime=tuple(w_prime), S=tuple(S))


@dataclass(frozen=True, slots=True)
class ClosedFormParams:
    """Characteristic roots of the prefix-sum recurrence for one C.

    x1 and its conjugate solve (2C+1)x^2 - (C^2+2C+2)x + (C^2+C+1) = 0;
    r and theta are the modulus and argument of x1, and the boundary
    coefficient alpha = A*i (with beta = -alpha) is purely imaginary.
    """

    C: float
    x1: complex
    r: float
    theta: float
    A: float


def closed_form_params(C: float) -> ClosedFormParams:
    _check_C(C)
    root = math.sqrt(-C * _cubic(C))
    denom = 2.0 * (2.0 * C + 1.0)
    x1 = complex((C * C + 2.0 * C + 2.0) / denom, root / denom)
    return ClosedFormParams(
        C=C,
        x1=x1,
        r=abs(x1),
        theta=cmath.phase(x1),
        A=-(2.0 * C + 1.0) / root,
    )


def closed_form_S(params: ClosedFormParams, j: int) -> float:
    """Prefix sum from the closed form: -2 A r^j sin(j theta).

    ValueError when the value, or r^j alone, leaves the float range.  Near
    a sign change -2A r^j can overflow while S_j is finite; the small sine
    is then applied first.
    """
    try:
        r_j = params.r ** j
    except OverflowError:
        r_j = math.inf
    value = -2.0 * params.A * r_j * math.sin(j * params.theta)
    if math.isinf(value):
        value = -2.0 * params.A * (r_j * math.sin(j * params.theta))
    return _finite(value, params.C, "closed-form", j)


def first_nonpositive_recurrence(C: float) -> int:
    """First index j >= 1 with S_j <= 0, iterating the recurrence directly.

    The terms grow like r^j with r > 1, so within about 1,400 terms the
    loop finds the sign change or raises ValueError at the float range.
    """
    _check_C(C)
    prev, cur = 0.0, 1.0
    j = 1
    while cur > 0:
        prev, cur = cur, (
            (C * C + 2.0 * C + 2.0) * cur - (C * C + C + 1.0) * prev) / (2.0 * C + 1.0)
        j += 1
        _finite(cur, C, "prefix sum", j)
    return j


def first_nonpositive_closed_form(params: ClosedFormParams) -> int:
    """First index j >= 1 with the closed-form S_j <= 0; ends as the recurrence does."""
    j = 1
    while closed_form_S(params, j) > 0:
        j += 1
    return j


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Result of checking both sequence identities across a table."""

    ok: bool
    first_failure: Optional[tuple[str, int, float, float]] = None
    max_rel_error: float = 0.0


def verify_identities(table: SequenceTable) -> IdentityReport:
    """Check w'_{i+1} + w_{i+1} + S_{i-1} = C w_i  (i = 1..n-2)
    and S_{i-2} + w_i + w_{i+1} + w'_{i+1} = C w'_i  (i = 2..n-2)."""
    C, w, wp, S, n = table.C, table.w, table.w_prime, table.S, table.n
    identities = chain(
        ((CHAIN, i, wp[i + 1] + w[i + 1] + S[i - 1], C * w[i]) for i in range(1, n - 1)),
        ((ESCAPE, i, S[i - 2] + w[i] + w[i + 1] + wp[i + 1], C * wp[i])
         for i in range(2, n - 1)))
    worst = 0.0
    for identity in identities:
        _name, _i, lhs, rhs = identity
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, err)
        if err > REL_TOL:
            return IdentityReport(ok=False, first_failure=identity, max_rel_error=worst)
    return IdentityReport(ok=True, max_rel_error=worst)


# ---------------------------------------------------------------------------
# The game
# ---------------------------------------------------------------------------


class ContractViolationError(RuntimeError):
    """The victim broke the preemptive contract (resurrection or invalid hold)."""


@dataclass(frozen=True, slots=True)
class GameResult:
    """Outcome of one adversary game."""

    achieved_ratio: Optional[float]
    unbounded: bool
    steps_played: int
    violation_step: Optional[int]
    tracked_opt_weight: float
    algorithm_weight: float
    num_vertices: int
    transcript: tuple[dict, ...]
    presented_edges: tuple[Edge, ...]

    def to_json_dict(self) -> dict:
        """Every field but the last, ``presented_edges``, in field order; the
        transcript as a list."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)[:-1]}


def _row(edge: Edge) -> tuple[int, int, float]:
    """Transcript form of an edge: ``(u, v, weight)`` with u < v."""
    return (*edge.key, edge.weight)


def run_adversary(algorithm: PreemptiveAlgorithm, config: AdversaryConfig) -> GameResult:
    """Play the construction against a fresh deterministic victim.

    Terminates when a declined mandated switch certifies a ratio >= C,
    when the final step completes, or when the victim holds nothing
    (unbounded ratio).  Each presented edge gets one transcript record;
    its ``opt_added`` and ``opt_removed`` are the sorted ``(u, v, weight)``
    tuples, u < v, that the answer to that edge added to and evicted from
    the tracked optimum, which starts empty.  Apply ``opt_removed``, then
    ``opt_added``, in record order to rebuild each optimum.
    """
    table = generate_sequences(config.C)
    w, wp, n = table.w, table.w_prime, table.n
    presented: dict[tuple[int, int], Edge] = {}
    transcript: list[dict] = []
    held: Optional[Matching] = None  # the victim's hold, as the last offer checked it
    held_keys: set[tuple[int, int]] = set()  # the keys of ``held``, as the last offer read them
    # The tracked optimum, a matching of presented edges stored under both
    # ends of each edge; it bounds OPT from below.  ``delta`` nets its changes
    # by row since the last record closed: +1 added, -1 evicted, 0 both.
    opt: dict[int, Edge] = {}
    delta: dict[tuple[int, int, float], int] = {}
    alloc = count().__next__  # hands out vertex ids 0, 1, 2, ...
    # The position after finished step ``step``: the victim holds ``holds``, oriented
    # as (y, anchor): the next pair of edges attaches at ``anchor`` and the next escape
    # edge at ``y``.  ``restore`` is the chain edge that the tracked optimum gave up on
    # entering the current escape run; it is None exactly in the chain kind.
    step, restore = 0, None

    def insert(edge: Edge) -> Optional[Edge]:
        """Add an edge to the optimum; evict and return the edge at a shared end."""
        at_u, at_v = opt.get(edge.u), opt.get(edge.v)
        if at_u is not None and at_v is not None:
            raise RuntimeError(f"adversary bug: {edge} would evict {at_u} and {at_v}")
        evicted = at_u or at_v
        if evicted is not None:
            del opt[evicted.u], opt[evicted.v]
            row = _row(evicted)
            delta[row] = delta.get(row, 0) - 1
        opt[edge.u] = opt[edge.v] = edge
        row = _row(edge)
        delta[row] = delta.get(row, 0) + 1
        return evicted

    def close() -> None:
        """Move the optimum's net change into the last record."""
        if not delta:  # nothing to sort; fresh lists, so that no two records share one
            transcript[-1]["opt_added"], transcript[-1]["opt_removed"] = [], []
            return
        added, removed = [], []
        for row, n in delta.items():
            if n > 0:
                added.append(row)
            elif n < 0:
                removed.append(row)
        # sorted() copies to an exact-size list; an appended list keeps its spare slots.
        transcript[-1]["opt_added"], transcript[-1]["opt_removed"] = sorted(added), sorted(removed)
        delta.clear()

    def offer(edge: Edge, label: str) -> set[tuple[int, int]]:
        """Present an edge, check the victim's reply, and return the held keys."""
        nonlocal held, held_keys
        if transcript:
            close()
        new = edge.key
        presented[new] = edge
        algorithm.on_edge(edge)
        previous, held = held, algorithm.current_matching
        if held is previous and transcript:
            # The frozen Matching that the last offer checked: the victim declined this
            # edge, and its keys and rows are the last record's.
            rows = transcript[-1]["held_after"].copy()
        else:
            # Disjoint if a Matching: its constructor or a greedy cover checked it.
            if not isinstance(held, Matching):
                raise ContractViolationError(
                    f"victim's hold after {label} is a {type(held).__name__}, not a Matching")
            # Past these checks it holds only edges it held before and this one.
            keys, rows = set(), []
            for e in held:
                key = e.key
                # Equality is the rule; the identity test skips it for the object given.
                if (given := presented.get(key)) is not e and given != e:
                    raise ContractViolationError(
                        f"victim holds an edge it was never given: {e}")
                if key != new and key not in held_keys:
                    raise ContractViolationError(
                        f"victim resurrected {e} after dropping it ({label})")
                keys.add(key)
                rows.append((*key, e.weight))
            held_keys, rows = keys, sorted(rows)  # sorted() copies to an exact-size list
        transcript.append({
            "step": step + 1,
            "label": label,
            "u": edge.u,
            "v": edge.v,
            "weight": edge.weight,
            "held_after": rows,
        })
        return held_keys

    def relabel() -> None:
        """WLOG: the victim's edge of the symmetric pair is the ``a`` edge."""
        first, second = transcript[-2], transcript[-1]
        first["label"], second["label"] = second["label"], first["label"]

    def finish(steps_played: int, violation_step: Optional[int] = None) -> GameResult:
        close()
        # Summed from ``opt``, so that the optimum rebuilt from the records can be checked.
        opt_weight = math.fsum(e.weight for vertex, e in opt.items() if vertex == e.u)
        alg_weight = held.weight
        return GameResult(
            achieved_ratio=opt_weight / alg_weight if alg_weight > 0 else None,
            unbounded=not alg_weight > 0,
            steps_played=steps_played,
            violation_step=violation_step,
            transcript=tuple(transcript),
            tracked_opt_weight=opt_weight,
            algorithm_weight=alg_weight,
            num_vertices=alloc(),  # ids run 0, 1, ...: the next free id is the count
            presented_edges=tuple(presented.values()),
        )

    # Step 1: two unit edges sharing the vertex x1.
    x1, p, q = alloc(), alloc(), alloc()
    first, second = Edge(p, x1, w[1]), Edge(q, x1, w[1])
    offer(first, "a1-x1")
    keys = offer(second, "b1-x1")
    if not keys:
        insert(first)
        return finish(1)
    if len(keys) == 1 and second.key in keys:  # else first: the two share x1
        relabel()
        a, b = q, p
    else:
        a, b = p, q
    insert(Edge(b, x1, w[1]))
    step, holds = 1, Edge(x1, a, w[1])

    # Steps 2 .. n-1: a symmetric pair at the anchor, then the escape edge.
    for i in range(2, n):
        y, anchor = holds.u, holds.v
        pair_b, pair_a = Edge(anchor, alloc(), w[i]), Edge(anchor, alloc(), w[i])
        offer(pair_b, f"x{i}-b{i}")
        keys = offer(pair_a, f"x{i}-a{i}")
        if not keys:
            return finish(i)
        if len(keys) == 1 and pair_b.key in keys:
            relabel()
            pair_a, pair_b = pair_b, pair_a
        if len(keys) == 1 and pair_a.key in keys:  # the victim switched: (re)enter the chain
            insert(pair_b)
            if restore is not None:
                insert(restore)
            step, holds, restore = i, pair_a, None
            continue
        # Otherwise it still holds its old edge, which shares the anchor with both.

        escape = Edge(y, alloc(), wp[i])
        keys = offer(escape, f"y{i}-c{i}")
        if not keys:
            return finish(i)
        if len(keys) == 1 and escape.key in keys:
            insert(pair_b)
            # Only the run's first escape edge evicts: the chain edge at y.
            restore = insert(escape) or restore
            step, holds = i, escape
            continue

        # Declined both mandated switches (it holds its old edge at y): the checkpoint fires.
        insert(pair_b if restore is None else pair_a)
        insert(escape)
        return finish(i, violation_step=i)

    # Final step n.
    if w[n] > 0:
        final = Edge(holds.v, alloc(), w[n])
        offer(final, f"x{n}-b{n}")
        insert(final)
        if restore is not None:
            insert(restore)
    elif restore is not None and restore.weight > holds.weight:
        # No positive final edge to present; restoring the missing chain
        # edge in place of the shared escape edge certifies S_{n-1}.
        insert(restore)
    return finish(n)
