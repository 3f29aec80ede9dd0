"""Post-hoc numerical certificates for one finished bucketed run.

The certificate ties together four quantities measured on the same
instance: the algorithm's greedy weight w(M), the oracle optimum OPT,
the optimum with weights rounded down to class floors OPT', and the
total associated vertex weight TW built from the per-class vertex sets
(highest class claims a vertex first).  On every valid run they satisfy

    OPT' <= OPT <= gamma * OPT',
    OPT' <= TW,
    TW   <= (2*gamma/(gamma-1)) * w(M),

which chains into OPT <= (2*gamma^2/(gamma-1)) * w(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bucket import BucketState, class_index
from .core import Edge, Matching

__all__ = ["AnalysisCertificate", "build_certificate", "filter_to_final_window", "REL_TOL"]

REL_TOL = 1e-9  # relative slack of every link of the chain


@dataclass(frozen=True, slots=True)
class AnalysisCertificate:
    """Measured inequality-chain ingredients for one run."""

    gamma: float
    alg_weight: float
    opt_weight: float
    opt_rounded: float
    total_associated_weight: float
    per_vertex_association: dict[int, tuple[int, float]]

    def links(self) -> dict[str, bool]:
        """Each link of the inequality chain, checked within REL_TOL slack.

        ``a <= b`` holds when ``a <= b + REL_TOL * max(1, |a|, |b|)``.
        """
        def le(a: float, b: float) -> bool:
            return a <= b + REL_TOL * max(1.0, abs(a), abs(b))

        g = self.gamma
        return {
            "opt_rounded_le_opt": le(self.opt_rounded, self.opt_weight),
            "opt_le_gamma_opt_rounded": le(self.opt_weight, g * self.opt_rounded),
            "opt_rounded_le_tw": le(self.opt_rounded, self.total_associated_weight),
            "tw_le_bound_times_alg": le(self.total_associated_weight,
                                        (2.0 * g / (g - 1.0)) * self.alg_weight),
        }

    def chain_holds(self) -> bool:
        """True when the full inequality chain holds within REL_TOL slack."""
        return all(self.links().values())


def filter_to_final_window(state: BucketState, edges) -> list[Edge]:
    """Edges whose class survived to the run's final window: those at or above its floor.

    This is the instance the analysis speaks about: classes entirely
    below the final discard threshold were dropped from memory, so the
    oracle fed to :func:`build_certificate` must not use them.
    """
    if state.window is None:
        return []
    floor = state.floor(state.window[0])
    return [e for e in edges if e.weight >= floor]


def build_certificate(state: BucketState, oracle_matching: Matching) -> AnalysisCertificate:
    """Assemble the certificate from a finished state and an oracle optimum.

    ``oracle_matching`` must be a maximum-weight matching of the
    streamed graph restricted to edges above the final discard
    threshold; an edge from a pruned class is rejected.
    """
    gamma, delta = state.gamma, state.delta
    lo = state.window[0] if state.window is not None else None

    opt_rounded_terms = []
    for e in oracle_matching:
        i = class_index(e.weight, gamma, delta)
        if lo is None or i < lo:
            raise ValueError(
                f"oracle edge {e} lies below the final discard threshold "
                f"(class {i}, window {state.window})")
        opt_rounded_terms.append(state.floor(i))

    # Vertex association: walk classes top-down; a vertex covered by
    # several class matchings belongs to the highest one.
    per_vertex: dict[int, tuple[int, float]] = {}
    matchings = state.matchings
    for i in sorted(matchings, reverse=True):
        for e in matchings[i]:
            for vertex in (e.u, e.v):
                if vertex not in per_vertex:
                    per_vertex[vertex] = (i, state.floor(i))

    return AnalysisCertificate(
        gamma=gamma,
        alg_weight=state.finalize().weight,
        opt_weight=oracle_matching.weight,
        opt_rounded=math.fsum(opt_rounded_terms),
        total_associated_weight=math.fsum(w for _i, w in per_vertex.values()),
        per_vertex_association=per_vertex,
    )
