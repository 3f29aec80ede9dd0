"""Exact maximum-weight matching, certified by its own LP dual.

:func:`max_weight_matching_exact` runs Edmonds' primal-dual weighted
blossom algorithm in O(n^3) (Edmonds 1965; Galil, "Efficient algorithms
for finding maximum matching in graphs", ACM Computing Surveys 1986) on
exact integers, and checks every result with :func:`verify_dual` before
returning it, so no reported optimum rests on trusting the solver.  There
is no size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Edge, Matching

__all__ = [
    "MatchingDual",
    "max_weight_matching_dual",
    "max_weight_matching_exact",
    "verify_dual",
]


def _scaled(weight: float, scale: int) -> int:
    """``weight * 2**scale`` as an exact integer."""
    numerator, denominator = weight.as_integer_ratio()
    whole, rest = divmod(numerator << scale, denominator)
    if rest:
        raise ValueError(f"weight {weight!r} is not a multiple of 2**-{scale}")
    return whole


@dataclass(frozen=True, slots=True)
class MatchingDual:
    """A solution of the dual of the matching LP, in exact integers.

    With ``W = weight * 2**scale`` for each edge, the dual is feasible when
    every potential and every ``z`` is >= 0 and every edge ``(u, v)`` has
    ``potential[u] + potential[v] + (z of each blossom holding u and v) >= 2W``.
    A vertex missing from ``potential`` has potential 0.  ``blossoms`` holds
    each blossom's vertex set and ``z``, for the blossoms with ``z > 0``.
    """

    scale: int
    potential: dict[int, int]
    blossoms: tuple[tuple[frozenset[int], int], ...]


def verify_dual(edges: Iterable[Edge], matching: Matching, dual: MatchingDual) -> None:
    """Check that ``dual`` proves ``matching`` a maximum-weight matching of ``edges``.

    Raises ValueError naming the first condition that fails:
    - potentials and blossom ``z`` are >= 0;
    - every edge meets its dual constraint, with equality on matched edges,
      and every matched edge is one of ``edges``;
    - a vertex with potential > 0 is matched;
    - a blossom with ``z > 0`` has an odd number of vertices and holds
      ``(size - 1) / 2`` matched edges.
    Together these make the dual objective equal to twice the matching's
    weight, and weak LP duality bounds every matching by it.  No other
    property of the blossoms (such as nesting) is assumed.  Takes
    O(m * depth) time, depth being the most blossoms that hold one vertex.
    """
    potential, blossoms = dual.potential, dual.blossoms
    covered = {vertex for e in matching for vertex in (e.u, e.v)}
    for vertex, y in potential.items():
        if y < 0:
            raise ValueError(f"vertex {vertex} has negative potential {y}")
        if y > 0 and vertex not in covered:
            raise ValueError(f"vertex {vertex} has potential {y} > 0 but is unmatched")
    holding: dict[int, list[int]] = {}
    for index, (members, z) in enumerate(blossoms):
        if z < 0:
            raise ValueError(f"blossom {sorted(members)} has negative z {z}")
        for vertex in members:
            holding.setdefault(vertex, []).append(index)
    inside = [0] * len(blossoms)
    unseen = set(matching.edges)
    for e in edges:
        u, v = e.u, e.v
        slack = potential.get(u, 0) + potential.get(v, 0) - 2 * _scaled(e.weight, dual.scale)
        shared: Sequence[int] = ()
        if u in holding:
            shared = [i for i in holding[u] if v in blossoms[i][0]]
            for i in shared:
                slack += blossoms[i][1]
        if slack < 0:
            raise ValueError(f"edge {e} violates its dual constraint by {-slack}")
        if unseen and e in unseen:
            if slack:
                raise ValueError(f"matched edge {e} has slack {slack}")
            unseen.discard(e)
            for i in shared:
                inside[i] += 1
    if unseen:
        raise ValueError(f"matched edge {next(iter(unseen))} is not an input edge")
    for (members, z), count in zip(blossoms, inside):
        if z > 0 and (len(members) % 2 == 0 or 2 * count != len(members) - 1):
            raise ValueError(f"blossom {sorted(members)} has z {z} but is not odd and full")


class _Blossom:
    """Primal-dual weighted blossom algorithm on vertices ``0..n-1``.

    Edge k joins ``endpoint[2k]`` and ``endpoint[2k+1]``, and ``weight[k]``
    holds 2W, twice its integer weight W, the only form the solver reads;
    endpoint p and ``p ^ 1`` are the two ends of edge ``p >> 1``.  Ids
    ``n..2n-1`` name blossoms, and all state is kept in flat lists indexed
    by vertex or blossom id.  Duals follow the doubled convention of
    :class:`MatchingDual`: ``dual[v] + dual[w] >= 2W`` for an edge outside
    every blossom, vertex duals move by delta and blossom ``z`` by 2*delta.
    Since every weight is an integer and all free vertices share one dual,
    every S-vertex has the same parity, so each delta is an integer and no
    tolerance is needed.
    """

    __slots__ = ("n", "top", "endpoint", "weight", "adjacent", "first", "dual", "mate",
                 "inblossom", "parent", "childs", "endps", "base", "label", "labelend",
                 "bestedge", "bestlist", "queue")

    def __init__(self, n: int, endpoint: list[int], weight: list[int]):
        nb = 2 * n
        self.n, self.endpoint, self.weight = n, endpoint, weight
        # Ids below ``top`` are vertices and the blossom ids add_blossom has handed
        # out; no id at or above it has ever held a blossom.
        self.top = n
        # adjacent[first[v]:first[v + 1]] are the far endpoints of v's edges, by
        # edge index: a counting sort of each far endpoint p ^ 1 by its near end endpoint[p].
        self.first = first = [0] * (n + 1)
        for v in endpoint:
            first[v + 1] += 1
        for v in range(n):
            first[v + 1] += first[v]
        self.adjacent = adjacent = [0] * len(endpoint)
        place = first[:n]
        for p, v in enumerate(endpoint):
            adjacent[place[v]] = p ^ 1
            place[v] += 1
        self.dual = [max(weight, default=0) // 2] * n + [0] * n
        self.mate = [-1] * n               # the endpoint across v's matched edge
        self.inblossom = list(range(n))    # top-level blossom holding each vertex
        self.parent = [-1] * nb
        self.childs: list = [None] * nb    # sub-blossoms around the cycle, base first
        self.endps: list = [None] * nb     # endps[b][i] joins childs i (its end) and i+1
        self.base = list(range(n)) + [-1] * n    # -1 marks a free blossom id
        self.label = bytearray(nb)         # 0 unlabelled, 1 S, 2 T; bit 4 marks a path
        self.labelend = [-1] * nb          # the endpoint across the labelling edge
        self.bestedge = [-1] * nb          # least-slack edge for delta2 and delta3
        self.bestlist: list = [None] * nb  # an S-blossom's least-slack edge to each S-blossom
        self.queue: list[int] = []

    def slack(self, k: int) -> int:
        endpoint, dual = self.endpoint, self.dual
        return dual[endpoint[2 * k]] + dual[endpoint[2 * k + 1]] - self.weight[k]

    def leaves(self, b: int) -> list[int]:
        n, childs = self.n, self.childs
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(self, w: int, t: int, p: int) -> None:
        b = self.inblossom[w]
        self.label[w] = self.label[b] = t
        self.labelend[w] = self.labelend[b] = p
        self.bestedge[w] = self.bestedge[b] = -1
        if t == 1:
            self.queue.extend(self.leaves(b))
        else:
            q = self.mate[self.base[b]]
            self.assign_label(self.endpoint[q], 1, q ^ 1)

    def find_base(self, v: int, w: int) -> int:
        """Base of the blossom that edge (v, w) closes, or -1 for an augmenting path."""
        endpoint, inblossom, label, labelend = (
            self.endpoint, self.inblossom, self.label, self.labelend)
        path, found = [], -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = self.base[b]
                break
            path.append(b)
            label[b] = 5
            v = -1 if labelend[b] == -1 else endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(self, root: int, k: int) -> None:
        """Make an S-blossom of the odd cycle that edge k closes through ``root``."""
        endpoint, inblossom, parent, label, labelend, bestlist = (
            self.endpoint, self.inblossom, self.parent, self.label, self.labelend, self.bestlist)
        bb, bv, bw = inblossom[root], inblossom[endpoint[2 * k]], inblossom[endpoint[2 * k + 1]]
        b = self.base.index(-1, self.n)
        self.top = max(self.top, b + 1)
        self.base[b], parent[b], parent[bb] = root, -1, b
        path, ends = [], []
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            ends.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        ends.reverse()
        ends.append(2 * k)
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            ends.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        self.childs[b], self.endps[b] = path, ends
        label[b], labelend[b], self.dual[b] = 1, labelend[bb], 0
        for x in self.leaves(b):
            if label[inblossom[x]] == 2:
                self.queue.append(x)
            inblossom[x] = b
        best_to = [-1] * len(parent)
        for c in path:
            candidates = (bestlist[c] if bestlist[c] is not None
                          else [p >> 1 for x in self.leaves(c)
                                for p in self.adjacent[self.first[x]:self.first[x + 1]]])
            for e in candidates:
                j = endpoint[2 * e]
                if inblossom[j] == b:
                    j = endpoint[2 * e + 1]
                bj = inblossom[j]
                if bj != b and label[bj] == 1 and (
                        best_to[bj] == -1 or self.slack(e) < self.slack(best_to[bj])):
                    best_to[bj] = e
            bestlist[c], self.bestedge[c] = None, -1
        bestlist[b] = [e for e in best_to if e != -1]
        self.bestedge[b] = min(bestlist[b], key=self.slack, default=-1)

    def expand(self, b: int, endstage: bool) -> None:
        """Dissolve blossom b, and at a stage's end each sub-blossom with z = 0."""
        n, endpoint, inblossom, parent, label, labelend = (
            self.n, self.endpoint, self.inblossom, self.parent, self.label, self.labelend)
        todo = [b]
        while todo:
            b = todo.pop()
            cs = self.childs[b]
            for s in cs:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and self.dual[s] == 0:
                    todo.append(s)
                else:
                    for x in self.leaves(s):
                        inblossom[x] = s
            if not endstage and label[b] == 2:
                # Relabel the even side from the entry child to the base as
                # T, S, ..., T; an odd-side child with a reached vertex gets T.
                p, size, es = labelend[b], len(cs), self.endps[b]
                i = cs.index(inblossom[endpoint[p ^ 1]])
                j = i
                while j % size:
                    self.assign_label(endpoint[p ^ 1], 2, p)
                    if i % 2:
                        p, j = es[j + 1], j + 2
                    else:
                        p, j = es[j - 2] ^ 1, j - 2
                x = endpoint[p ^ 1]
                label[x] = label[cs[0]] = 2
                labelend[x] = labelend[cs[0]] = p
                self.bestedge[cs[0]] = -1
                for c in (cs[1:i] if i % 2 else cs[i + 1:]):
                    if label[c] == 1:
                        continue
                    for x in self.leaves(c):
                        if label[x]:
                            self.assign_label(x, 2, labelend[x])
                            break
            label[b], labelend[b], self.base[b], self.bestedge[b] = 0, -1, -1, -1
            self.childs[b] = self.endps[b] = self.bestlist[b] = None

    def augment_blossom(self, b: int, v: int) -> None:
        """Flip the even path from v's child to the base, making v the base."""
        n, endpoint, parent, childs, endps, mate = (
            self.n, self.endpoint, self.parent, self.childs, self.endps, self.mate)
        work = [(b, v)]
        while work:
            b, v = work.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                work.append((t, v))
            cs, es = childs[b], endps[b]
            size = len(cs)
            i = cs.index(t)
            for j in (range(i + 1, size, 2) if i % 2 else range(i - 2, -1, -2)):
                p = es[j]
                x, y = endpoint[p], endpoint[p ^ 1]
                if cs[j] >= n:
                    work.append((cs[j], x))
                if cs[(j + 1) % size] >= n:
                    work.append((cs[(j + 1) % size], y))
                mate[x], mate[y] = p ^ 1, p
            childs[b], endps[b], self.base[b] = cs[i:] + cs[:i], es[i:] + es[:i], v

    def augment(self, k: int) -> None:
        """Flip the augmenting path through edge k, which joins two S-trees."""
        n, endpoint, inblossom, labelend, mate = (
            self.n, self.endpoint, self.inblossom, self.labelend, self.mate)
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                bt = inblossom[endpoint[labelend[bs]]]
                s, j = endpoint[labelend[bt]], endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    self.augment_blossom(bt, j)
                mate[j], p = labelend[bt], labelend[bt] ^ 1

    def solve(self) -> tuple[list[int], list[int], list[tuple[list[int], int]]]:
        """Run every stage; return ``(mate, vertex duals, [(vertices, z) for z > 0])``."""
        n, endpoint, weight, adjacent, first, dual, mate, inblossom, parent, base, queue = (
            self.n, self.endpoint, self.weight, self.adjacent, self.first, self.dual, self.mate,
            self.inblossom, self.parent, self.base, self.queue)
        label, labelend, bestedge, bestlist = (
            self.label, self.labelend, self.bestedge, self.bestlist)
        nb = 2 * n
        for _ in range(n):
            # One statement each, so that only one fresh list is alive at a time.
            label[:] = bytes(nb)
            bestedge[:] = [-1] * nb
            bestlist[:] = [None] * nb
            queue.clear()
            for v, p in enumerate(mate):
                if p == -1 and label[inblossom[v]] == 0:
                    self.assign_label(v, 1, -1)
            augmented = False
            while not augmented:
                while queue and not augmented:
                    v = queue.pop()
                    for p in adjacent[first[v]:first[v + 1]]:
                        w = endpoint[p]
                        bv, bw = inblossom[v], inblossom[w]
                        if bv == bw:
                            continue
                        k = p >> 1
                        # Slack is written out here and in the delta loops: a call of
                        # slack() per candidate costs more than the sum it computes.
                        kslack = dual[v] + dual[w] - weight[k]
                        if kslack <= 0:
                            if label[bw] == 0:
                                self.assign_label(w, 2, p ^ 1)
                            elif label[bw] == 1:
                                root = self.find_base(v, w)
                                if root == -1:
                                    self.augment(k)
                                    augmented = True
                                    break
                                self.add_blossom(root, k)
                            elif label[w] == 0:
                                # A reached vertex inside a T-blossom, kept for its expansion.
                                label[w], labelend[w] = 2, p ^ 1
                        elif label[bw] == 1:
                            best = bestedge[bv]
                            if best == -1 or kslack < (dual[endpoint[2 * best]]
                                                       + dual[endpoint[2 * best + 1]] - weight[best]):
                                bestedge[bv] = k
                        elif label[w] == 0:
                            best = bestedge[w]
                            if best == -1 or kslack < (dual[endpoint[2 * best]]
                                                       + dual[endpoint[2 * best + 1]] - weight[best]):
                                bestedge[w] = k
                if augmented:
                    break
                top = self.top
                delta, kind, target = min(dual[:n]), 1, -1
                for v in range(n):
                    best = bestedge[v]
                    if best != -1 and label[inblossom[v]] == 0:
                        d = dual[endpoint[2 * best]] + dual[endpoint[2 * best + 1]] - weight[best]
                        if d < delta:
                            delta, kind, target = d, 2, best
                for b in range(top):
                    best = bestedge[b]
                    if best != -1 and parent[b] == -1 and label[b] == 1:
                        d = (dual[endpoint[2 * best]] + dual[endpoint[2 * best + 1]]
                             - weight[best]) >> 1
                        if d < delta:
                            delta, kind, target = d, 3, best
                for b in range(n, top):
                    if (base[b] >= 0 and parent[b] == -1 and label[b] == 2
                            and dual[b] >> 1 < delta):
                        delta, kind, target = dual[b] >> 1, 4, b
                for v, b in enumerate(inblossom):
                    t = label[b]
                    if t == 1:
                        dual[v] -= delta
                    elif t == 2:
                        dual[v] += delta
                for b in range(n, top):
                    if base[b] >= 0 and parent[b] == -1:
                        if label[b] == 1:
                            dual[b] += 2 * delta
                        elif label[b] == 2:
                            dual[b] -= 2 * delta
                if kind == 1:
                    break
                if kind == 2:
                    v = endpoint[2 * target]
                    queue.append(v if label[inblossom[v]] == 1 else endpoint[2 * target + 1])
                elif kind == 3:
                    queue.append(endpoint[2 * target])
                else:
                    self.expand(target, False)
            if not augmented:
                break
            for b in range(n, self.top):
                if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0:
                    self.expand(b, True)
        blossoms = [(self.leaves(b), dual[b]) for b in range(n, self.top)
                    if base[b] >= 0 and dual[b] > 0]
        return mate, dual[:n], blossoms


def _number_vertices(edges: Sequence[Edge]) -> tuple[list[int], list[int]]:
    """Vertex ids in order of first appearance, and each edge's two ends as their indices."""
    index: dict[int, int] = {}
    endpoint = [0] * (2 * len(edges))
    for k, e in enumerate(edges):
        endpoint[2 * k] = index.setdefault(e.u, len(index))
        endpoint[2 * k + 1] = index.setdefault(e.v, len(index))
    return list(index), endpoint


def max_weight_matching_dual(edges: Sequence[Edge]) -> tuple[Matching, MatchingDual]:
    """Maximum-weight matching and its LP dual from the blossom algorithm, unchecked.

    Vertices are numbered by first appearance, so the matching returned
    among several optima depends only on the edge order.
    """
    vertices, endpoint = _number_vertices(edges)
    # One ratio per weight gives the scale, the smallest k >= 0 that makes every weight
    # times 2**k an integer, and the 2W that the solver reads, weight * 2**(k+1).  A
    # float's denominator is 2**(bit_length - 1).
    ratios = [e.weight.as_integer_ratio() for e in edges]
    scale = max((den.bit_length() - 1 for _num, den in ratios), default=0)
    doubled = [num << (scale + 2 - den.bit_length()) for num, den in ratios]
    mate, potential, blossoms = _Blossom(len(vertices), endpoint, doubled).solve()
    matched = sorted({p >> 1 for p in mate if p != -1})
    return Matching(edges[k] for k in matched), MatchingDual(
        scale, dict(zip(vertices, potential)),
        tuple((frozenset(vertices[x] for x in members), z) for members, z in blossoms))


def max_weight_matching_exact(edges: Iterable[Edge]) -> Matching:
    """Globally optimal matching; its ``weight`` is the ``fsum`` of its edges.

    Every result is checked by :func:`verify_dual`; a failed check raises
    RuntimeError.
    """
    edges = edges if isinstance(edges, Sequence) else list(edges)
    matching, dual = max_weight_matching_dual(edges)
    try:
        verify_dual(edges, matching, dual)
    except ValueError as exc:
        raise RuntimeError(f"oracle bug: {exc}") from exc
    return matching
