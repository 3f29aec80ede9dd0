"""Graph primitives shared by every other module: edges, matchings, streams.

Values other than the :class:`GreedyMatching` builder are immutable and
safe to share between concurrent tasks.  The edge-stream text format of
:func:`parse_stream_text` is one edge per line, ``<u> <v> <weight>``
whitespace-separated, ``#`` comment lines, and an optional ``n=<count>``
header (required when vertex labels are non-numeric).  :func:`load_stream`
reads a file, pipe or FIFO once, forward, and checks each line, its
UTF-8 included, as it is read.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO

__all__ = [
    "Edge", "Matching", "GreedyMatching", "StreamSource", "StreamFormatError",
    "parse_stream_text", "format_stream", "load_stream",
]


@dataclass(frozen=True, slots=True)
class Edge:
    """Undirected edge between two distinct vertices with weight > 0."""

    u: int
    v: int
    weight: float

    def __post_init__(self) -> None:
        if type(self.u) is not int or type(self.v) is not int:
            raise ValueError(f"vertex ids must be ints, got ({self.u!r}, {self.v!r})")
        if self.u < 0 or self.v < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({self.u}, {self.v})")
        if self.u == self.v:
            raise ValueError(f"self-loop at vertex {self.u}")
        try:  # an int weight must survive float() exactly, as the text format reads it back
            exact = type(self.weight) is not int or float(self.weight) == self.weight
        except OverflowError:
            exact = False
        if type(self.weight) is bool or not (exact and self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError(f"edge weight must be a positive finite real, got {self.weight}")

    @property
    def key(self) -> tuple[int, int]:
        """Orientation-independent identity of the edge."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


_set_u, _set_v, _set_weight = Edge.u.__set__, Edge.v.__set__, Edge.weight.__set__


def _edge(u: int, v: int, weight: float) -> Edge:
    """An :class:`Edge` whose every check the caller has already made."""
    edge = object.__new__(Edge)
    _set_u(edge, u)
    _set_v(edge, v)
    _set_weight(edge, weight)
    return edge


@dataclass(frozen=True, slots=True)
class Matching:
    """Vertex-disjoint edge set; ``weight`` is their exactly-rounded sum.

    Takes any iterable of edges (``Matching()`` is empty) and raises
    ValueError when two of them share a vertex.
    """

    edges: tuple[Edge, ...] = ()
    weight: float = field(init=False)

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        cover: dict[int, Edge] = {}
        for e in edges:
            for vertex in (e.u, e.v):
                if vertex in cover:
                    raise ValueError(
                        f"not a matching: vertex {vertex} shared by {cover[vertex]} and {e}")
                cover[vertex] = e
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weight", math.fsum(e.weight for e in edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def keys(self) -> set[tuple[int, int]]:
        return {e.key for e in self.edges}


class GreedyMatching:
    """A matching grown greedily in ``edges``, whose endpoints are ``cover``."""

    __slots__ = ("edges", "cover")

    def __init__(self) -> None:
        self.edges: list[Edge] = []
        self.cover: set[int] = set()

    def add(self, edge: Edge) -> bool:
        """Keep the edge if neither end is covered; return whether it was kept."""
        if edge.u in self.cover or edge.v in self.cover:
            return False
        self.edges.append(edge)
        self.cover.add(edge.u)
        self.cover.add(edge.v)
        return True


class StreamSource:
    """A declared vertex count plus a sequence of distinct edges.

    Construction checks each edge's ids against the count and rejects a
    repeated vertex pair in either orientation (ValueError).
    Iterating delivers the edges one at a time, in order.  ``passes``
    counts how many iterations have been requested; single-pass
    algorithms are audited against it.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if type(num_vertices) is not int:
            raise ValueError(f"num_vertices must be an int, got {num_vertices!r}")
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.u >= num_vertices or e.v >= num_vertices:
                raise ValueError(f"vertex id {max(e.u, e.v)} exceeds the largest id "
                                 f"{num_vertices - 1} for num_vertices={num_vertices}")
            key = e.key
            if key in seen:
                raise ValueError(f"duplicate edge between {key[0]} and {key[1]}")
            seen.add(key)
        self.num_vertices, self.edges, self.passes = num_vertices, edges, 0

    @classmethod
    def _checked(cls, num_vertices: int, edges: tuple[Edge, ...]) -> "StreamSource":
        """A stream whose count and edges the caller has already checked."""
        stream = cls.__new__(cls)
        stream.num_vertices, stream.edges, stream.passes = num_vertices, edges, 0
        return stream

    def __iter__(self) -> Iterator[Edge]:
        self.passes += 1
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"StreamSource(n={self.num_vertices}, m={len(self.edges)})"


class StreamFormatError(ValueError):
    """Malformed edge-stream text; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse_stream_text(text: str) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Parse the edge-stream text format.

    Returns the stream plus the label-to-id mapping when vertex labels
    were not ids (None when ids were used verbatim).  A token is an id
    only when it is canonical ASCII decimal (``0`` or ``[1-9][0-9]*``);
    one other token makes every token a label.  A line of three fields is
    an edge line; any other line that starts with ``n=`` is the header,
    whose count must be canonical and positive.  Labels require the
    header and are remapped densely in order of first appearance.  Faults
    within a line are reported first; then the first edge with an id not
    below ``n`` (for labels, the first past ``n`` labels) or a repeated
    vertex pair.  A line ends at LF, CRLF or CR.  A lone surrogate (a
    byte that is not UTF-8, in a file) is a fault within its line.
    """
    return _parse_lines(io.StringIO(text, newline=None))


def _canonical(token: str) -> bool:
    """Whether a token is canonical ASCII decimal: ``0`` or ``[1-9][0-9]*``."""
    return token.isdigit() and token.isascii() and (token[0] != "0" or token == "0")


def _pair(u: int, v: int) -> int:
    """One int per unordered pair of distinct non-negative ids."""
    return u * (u + 1) // 2 + v if u > v else v * (v + 1) // 2 + u


def _parse_lines(handle: TextIO) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Parse a handle in one forward pass that makes each check once, where its value is read.

    ``ids`` maps each token to its vertex in order of first appearance.
    The first edge with an id not below n, the first past n tokens (the
    range fault for labels) and the first repeated pair are held as (edge
    index, line number, line) until the loop ends: in-line faults come first.
    """
    header_n: Optional[int] = None
    ids: dict[str, int] = {}
    labels = False
    edges: list[Edge] = []
    pairs: set[int] = set()
    out_of_range = past_n = repeated = None
    for lineno, raw in enumerate(handle, start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise _not_utf8(raw, exc, lineno) from None
        parts = raw.split()
        if len(parts) != 3 or parts[0][0] == "#":
            if not parts or parts[0][0] == "#":
                continue
            line = raw.strip()
            if not line.startswith("n="):
                raise StreamFormatError(
                    f"expected '<u> <v> <weight>', got {len(parts)} fields", lineno)
            if edges:
                raise StreamFormatError("n= header must precede edge lines", lineno)
            if header_n is not None:
                raise StreamFormatError("duplicate n= header", lineno)
            count = line[2:]
            try:
                if not _canonical(count):
                    raise ValueError(count)
                header_n = int(count)  # also raises past int()'s digit limit
            except ValueError:
                raise StreamFormatError(f"bad vertex count {count!r}", lineno) from None
            if header_n < 1:
                raise StreamFormatError("n= must be positive", lineno)
            continue
        a, b, w = parts
        u, v = ids.get(a), ids.get(b)
        if u is None or v is None:
            if not labels and not ((u is not None or _canonical(a))
                                   and (v is not None or _canonical(b))):
                if header_n is None:
                    raise StreamFormatError(
                        "n= header is required when vertex labels are non-numeric", lineno)
                # Every token becomes a label; a canonical id prints back as its own.
                dense = {vertex: i for i, vertex in enumerate(ids.values())}
                ids = dict(zip(ids, dense.values()))
                edges = [_edge(dense[e.u], dense[e.v], e.weight) for e in edges]
                pairs = {_pair(e.u, e.v) for e in edges}
                labels = True
            if labels:
                u, v = ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))
            else:
                try:
                    u = ids.setdefault(a, int(a)) if u is None else u
                    v = ids.setdefault(b, int(b)) if v is None else v
                except ValueError:  # past int()'s digit limit
                    raise StreamFormatError(
                        f"vertex id of {max(len(a), len(b))} digits is longer than int() reads",
                        lineno) from None
                if out_of_range is None and header_n is not None and max(u, v) >= header_n:
                    out_of_range = (len(edges), lineno, raw.strip())
            if past_n is None and header_n is not None and len(ids) > header_n:
                past_n = (len(edges), lineno, raw.strip())
        try:
            weight = float(w)
        except ValueError:
            raise StreamFormatError(f"bad weight {w!r}", lineno) from None
        if u == v or not 0.0 < weight < math.inf:
            try:
                Edge(u, v, weight)  # raises with the message stated there
            except ValueError as exc:
                raise StreamFormatError(str(exc), lineno) from None
        pair = _pair(u, v)
        if pair in pairs and repeated is None:
            repeated = (len(edges), lineno, raw.strip())
        pairs.add(pair)
        edges.append(_edge(u, v, weight))
    num_vertices = header_n if header_n is not None else 1 + max(ids.values(), default=-1)
    if num_vertices < 1:
        raise StreamFormatError("empty stream needs an n= header")
    faults = [f for f in (past_n if labels else out_of_range, repeated) if f is not None]
    if faults:
        index, lineno, line = min(faults)
        try:  # the public constructor words both: out of range alone, else repeated twice
            StreamSource(num_vertices, [edges[index]] * 2)
        except ValueError as exc:
            raise StreamFormatError(f"{exc}: {line!r}", lineno) from None
    return StreamSource._checked(num_vertices, tuple(edges)), ids if labels else None


def format_stream(stream: StreamSource) -> str:
    """Render a stream in the text format (always with the n= header)."""
    lines = [f"n={stream.num_vertices}"]
    lines.extend(f"{e.u} {e.v} {e.weight!r}" for e in stream.edges)
    return "\n".join(lines) + "\n"


def _not_utf8(line: str, exc: UnicodeEncodeError, lineno: int) -> StreamFormatError:
    """Report the lone surrogate ``exc`` found in a line: the byte that a file's
    ``surrogateescape`` decoder stood it in for, else (text given as a str) itself."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as bad:
        return StreamFormatError(
            f"byte 0x{bad.object[bad.start]:02x} is not UTF-8 ({bad.reason})", lineno)
    except UnicodeEncodeError:
        pass
    return StreamFormatError(f"character {line[exc.start]!r} is not UTF-8 ({exc.reason})", lineno)


class _Sha256File(io.FileIO):
    """A file read in binary that adds every byte read through ``readinto`` to ``digest``."""

    def __init__(self, path: str):
        super().__init__(path)
        self.digest = hashlib.sha256()

    def readinto(self, buffer) -> int:
        count = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:count])
        return count


def load_stream(path: str) -> tuple[StreamSource, Optional[dict[str, int]], str]:
    """Read and parse an edge-stream file, pipe or FIFO in one forward pass.

    Returns the stream, the label mapping of :func:`parse_stream_text`,
    and the SHA-256 (hex) of the bytes parsed, taken in the same read.  A
    byte that is not UTF-8 raises :class:`StreamFormatError` at its line,
    in file order with the other faults within a line.  A leading UTF-8
    byte-order mark is skipped, though hashed; a U+FEFF elsewhere is text.
    """
    raw = _Sha256File(path)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig",
                          errors="surrogateescape") as handle:
        return (*_parse_lines(handle), raw.digest.hexdigest())
