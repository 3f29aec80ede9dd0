"""Graph primitives shared by every other module: edges, matchings, streams.

Values other than the :class:`GreedyMatching` builder and a
:class:`StreamSource` are immutable and safe to share between concurrent
tasks.  :func:`load_stream` is the one way into an edge-stream file, pipe
or FIFO, and states its text format.  It reads the input once, forward,
and checks each line, its UTF-8 included, as it is read; the stream it
returns reads the lines after the header only as a pass iterates their
rows, and makes and holds no Edge unless :meth:`StreamSource.hold` is called.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional

__all__ = [
    "Edge", "Matching", "GreedyMatching", "StreamSource", "StreamFormatError",
    "format_stream", "load_stream",
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
_get_u, _get_v, _get_weight = attrgetter("u"), attrgetter("v"), attrgetter("weight")
_Row = tuple[int, int, float, Optional[Edge]]  # an edge as a pass reads it; the Edge may be None


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


_set_edges, _set_total = Matching.edges.__set__, Matching.weight.__set__


class GreedyMatching:
    """A matching grown greedily in ``edges``, whose endpoints are ``cover``.

    Its cover test keeps no two edges that share a vertex, so it is the
    disjointness check of what it keeps, and :meth:`matching` makes no other.
    """

    __slots__ = ("edges", "cover")

    def __init__(self) -> None:
        self.edges: list[Edge] = []
        self.cover: set[int] = set()

    def extend(self, edges: Iterable[Edge]) -> None:
        """Keep each edge, in order, if neither of its ends is covered yet."""
        keep, covered, cover = self.edges.append, self.cover.add, self.cover
        for e in edges:
            u, v = e.u, e.v
            if u not in cover and v not in cover:
                keep(e)
                covered(u)
                covered(v)

    def add(self, edge: Edge) -> bool:
        """Keep the edge if neither end is covered; return whether it was kept."""
        kept = len(self.edges)
        self.extend((edge,))
        return len(self.edges) > kept

    def matching(self) -> Matching:
        """The edges kept so far, as a :class:`Matching` that the cover test has checked."""
        matching = object.__new__(Matching)
        _set_edges(matching, tuple(self.edges))
        _set_total(matching, math.fsum(map(_get_weight, self.edges)))
        return matching


def _stream_fault(num_vertices: int, key: tuple[int, int]) -> str:
    """What is wrong with the edge of ``key`` in a stream of n vertices that
    refuses it: an id not below n, else a pair that came before."""
    low, high = key
    if high >= num_vertices:
        return (f"vertex id {high} exceeds the largest id {num_vertices - 1} "
                f"for num_vertices={num_vertices}")
    return f"duplicate edge between {low} and {high}"


class StreamSource:
    """A vertex count and a sequence of distinct edges, built from edges or
    read from a file by :func:`load_stream`; ``passes`` counts its passes.

    Building one checks each edge's ids against the count and rejects a
    repeated vertex pair in either orientation (ValueError).  A stream
    built from edges, read from a file without the ``n=`` header, or read
    by :meth:`hold` is held: ``edges`` keeps them under their reported ids,
    and its passes, which may repeat, carry them.  Until then a stream read
    with the header is lazy: its one pass reads the rest of the file as
    ``(u, v, weight, None)`` rows, naming ends by their order of first
    appearance, which ``ids`` maps to the ids reported, and raises a held
    id-range or duplicate fault when the read ends.  Its ``len()`` raises
    ValueError until then.  ``sha256`` and ``labels`` hold once a read ends
    with no fault.  ``ids``, ``labels`` and ``sha256`` are None on a stream
    built from edges.
    """

    __slots__ = ("passes", "edges", "num_vertices", "_parse", "_rest")

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if type(num_vertices) is not int:
            raise ValueError(f"num_vertices must be an int, got {num_vertices!r}")
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        for e in edges:
            key = e.key
            if key[1] >= num_vertices or key in seen:
                raise ValueError(_stream_fault(num_vertices, key))
            seen.add(key)
        self.num_vertices, self.edges, self.passes, self._parse = num_vertices, edges, 0, None

    def hold(self) -> None:
        """Read the edges not yet read and keep them all; call it before the first pass.

        The held edges carry their reported ids, so the read's numbering of
        the tokens is dropped with the read; a label file keeps its labels.
        A held stream is left as it is.
        """
        if self.edges is None:
            if self.passes:
                raise ValueError("a stream whose edges are not held is read once")
            parse = self._parse
            held = tuple(_edge(u, v, w) for u, v, w, _ in self._rest)
            values = parse.values
            if values is not None:  # renamed in place: no one else holds these edges yet
                for e in held:
                    _set_u(e, values[e.u])
                    _set_v(e, values[e.v])
            self.edges, self.num_vertices = held, parse.num_vertices
            del self._rest
            parse.tokens, parse.values = parse.labels, None  # type: ignore[assignment]

    @property
    def ids(self) -> Optional[list[int]]:
        """The reported id of each vertex number the read edges carry; None when
        each number is its vertex's id: from a label file's first label on, and once held."""
        return None if self._parse is None else self._parse.values

    @property
    def labels(self) -> Optional[dict[str, int]]:
        return None if self._parse is None else self._parse.labels

    @property
    def sha256(self) -> Optional[str]:
        return None if self._parse is None else self._parse.sha256

    def rows(self) -> Iterator[_Row]:
        """One pass, counted in ``passes``: the rows of the held edges, each
        carrying its own Edge and built in C, else the rows of the read."""
        if (edges := self.edges) is not None:
            self.passes += 1
            return zip(map(_get_u, edges), map(_get_v, edges), map(_get_weight, edges), edges)
        if self.passes:
            raise ValueError("a stream whose edges are not held is read once")
        self.passes = 1
        return self._rest

    def __len__(self) -> int:
        if self.edges is not None:
            return len(self.edges)
        if self._parse.count is None:
            raise ValueError("a stream has no length until its read ends with no fault")
        return self._parse.count

    def __repr__(self) -> str:
        count = self._parse.count if self.edges is None else len(self.edges)
        return f"StreamSource(n={self.num_vertices}, m={'?' if count is None else count})"


class StreamFormatError(ValueError):
    """Malformed edge-stream text; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _canonical(token: str) -> bool:
    """Whether a token is canonical ASCII decimal: ``0`` or ``[1-9][0-9]*``."""
    return token.isdigit() and token.isascii() and (token[0] != "0" or token == "0")


# Bytes a set of pair keys takes per key, the int and its share of the
# table (69-78 measured under tracemalloc from 1e3 to 1e5 keys, rounded
# down).  Once the set would outweigh a bitmap of every pair below n, the
# keys move to one.
_SET_BYTES_PER_PAIR = 64


class _Sha256File(io.FileIO):
    """A file read in binary that adds every byte read through ``readinto`` to ``digest``."""

    def __init__(self, path: str):
        super().__init__(path)
        self.digest = hashlib.sha256()

    def readinto(self, buffer) -> int:
        count = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:count])
        return count


class _Parse:
    """One forward parse of edge-stream lines, which :meth:`rows` advances.

    ``tokens`` numbers each token in order of first appearance, and the
    rows that :meth:`rows` yields name their ends by those numbers.
    ``values`` holds each numbered vertex's id while every token is an
    id, and is None from the first label on, when a vertex's number is
    its id.  ``header_n`` is known once the first edge is yielded, and
    ``num_vertices`` once the lines end; ``count``, the number of edges,
    and ``sha256``, the hex digest of the bytes read, are None until the
    lines end with no fault.

    It is an object apart from the :class:`StreamSource` it reads for: the
    generator of :meth:`rows` refers to its ``self``, so were that the
    stream, which holds the generator, the two would form a reference
    cycle, and a stream dropped before its read ends would keep its file
    open until the garbage collector ran.
    """

    __slots__ = ("header_n", "tokens", "values", "num_vertices", "count", "sha256")

    def __init__(self) -> None:
        self.header_n: Optional[int] = None
        self.tokens: dict[str, int] = {}
        self.values: Optional[list[int]] = []
        self.num_vertices = 0
        self.count: Optional[int] = None
        self.sha256: Optional[str] = None

    @property
    def labels(self) -> Optional[dict[str, int]]:
        """The label-to-id mapping of a label file; None on a file of ids."""
        return self.tokens if self.values is None else None

    def _reported(self, u: int, v: int, weight: float) -> Edge:
        """The checked Edge of two numbered vertices, under their reported ids."""
        values = self.values
        return Edge(u, v, weight) if values is None else Edge(values[u], values[v], weight)

    def rows(self, file: _Sha256File) -> Iterator[_Row]:
        """Yield each edge's row, with no Edge, once its line of ``file`` is read and checked.

        Each check is made once.  The first edge with an id not below n,
        the first past n tokens (the range fault for labels) and the first
        repeated pair are held as (line number, line, u, v) until the lines
        end, and the first of them is raised then: in-line faults come
        first.  Pair keys go to a set, and to a bitmap over the pairs below
        n once the set would be the larger; a pair with an end past n is
        not looked up there, since the range fault of that end comes
        before it.
        """
        tokens, values = self.tokens, self.values
        header_n: Optional[int] = None
        pairs: set[int] = set()
        bits: Optional[bytearray] = None
        # n, the pairs below n, and the set size at which their bitmap is the smaller
        bound = cells = crowded = inf = math.inf
        out_of_range = past_n = repeated = None
        count = 0
        lines = io.TextIOWrapper(io.BufferedReader(file), encoding="utf-8-sig",
                                 errors="surrogateescape")
        with lines:  # closed when they end, raise or are dropped unread
            for lineno, raw in enumerate(lines, start=1):
                if not raw.isascii():  # a byte that is not UTF-8 was read as a lone surrogate
                    try:
                        raw.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise StreamFormatError(f"byte 0x{bad.object[bad.start]:02x} is not "
                                                f"UTF-8 ({bad.reason})", lineno) from None
                parts = raw.split()
                if len(parts) != 3 or parts[0][0] == "#":
                    if not parts or parts[0][0] == "#":
                        continue
                    line = raw.strip()
                    if not line.startswith("n="):
                        raise StreamFormatError(
                            f"expected '<u> <v> <weight>', got {len(parts)} fields", lineno)
                    if count:
                        raise StreamFormatError("n= header must precede edge lines", lineno)
                    if header_n is not None:
                        raise StreamFormatError("duplicate n= header", lineno)
                    text = line[2:]
                    try:
                        if not _canonical(text):
                            raise ValueError(text)
                        header_n = int(text)  # also raises past int()'s digit limit
                    except ValueError:
                        raise StreamFormatError(f"bad vertex count {text!r}", lineno) from None
                    if header_n < 1:
                        raise StreamFormatError("n= must be positive", lineno)
                    self.header_n = bound = header_n
                    cells = header_n * (header_n + 1) // 2
                    crowded = cells // (8 * _SET_BYTES_PER_PAIR)
                    continue
                a, b, w = parts
                u, v = tokens.get(a), tokens.get(b)
                if u is None or v is None:
                    if values is not None and not ((u is not None or _canonical(a))
                                                   and (v is not None or _canonical(b))):
                        if header_n is None:
                            raise StreamFormatError(
                                "n= header is required when vertex labels are non-numeric", lineno)
                        values = self.values = None  # every token is a label from here on
                    beyond = False  # whether a new id is not below n
                    for token in (a, b):
                        if token not in tokens:
                            if values is not None:
                                try:
                                    value = int(token)
                                except ValueError:  # past int()'s digit limit
                                    raise StreamFormatError(
                                        f"vertex id of {max(len(a), len(b))} digits is longer "
                                        f"than int() reads", lineno) from None
                                beyond = beyond or value >= bound
                                values.append(value)
                            tokens[token] = len(tokens)
                    u, v = tokens[a], tokens[b]
                    if beyond and out_of_range is None:
                        out_of_range = (lineno, raw.strip(), u, v)
                    if past_n is None and len(tokens) > bound:
                        past_n = (lineno, raw.strip(), u, v)
                try:
                    weight = float(w)
                except ValueError:
                    raise StreamFormatError(f"bad weight {w!r}", lineno) from None
                if u == v or not 0.0 < weight < inf:
                    try:
                        self._reported(u, v, weight)  # raises with the message stated there
                    except ValueError as exc:
                        raise StreamFormatError(str(exc), lineno) from None
                pair = u * (u + 1) // 2 + v if u > v else v * (v + 1) // 2 + u
                if bits is not None:
                    if pair < cells:
                        byte, bit = pair >> 3, 1 << (pair & 7)
                        if bits[byte] & bit and repeated is None:
                            repeated = (lineno, raw.strip(), u, v)
                        bits[byte] |= bit
                elif pair not in pairs:
                    pairs.add(pair)
                    if len(pairs) > crowded:
                        bits = bytearray((cells + 7) // 8)
                        for key in pairs:
                            if key < cells:
                                bits[key >> 3] |= 1 << (key & 7)
                        pairs = set()
                elif repeated is None:
                    repeated = (lineno, raw.strip(), u, v)
                count += 1
                yield u, v, weight, None
        self.num_vertices = (header_n if header_n is not None
                             else 1 + max(values, default=-1))  # type: ignore[arg-type]
        if self.num_vertices < 1:
            raise StreamFormatError("empty stream needs an n= header")
        faults = [f for f in (out_of_range if values is not None else past_n, repeated)
                  if f is not None]
        if faults:
            lineno, line, u, v = min(faults)
            key = self._reported(u, v, 1.0).key
            raise StreamFormatError(f"{_stream_fault(self.num_vertices, key)}: {line!r}", lineno)
        self.count, self.sha256 = count, file.digest.hexdigest()


def format_stream(stream: StreamSource) -> str:
    """Render a stream in the text format (always with the n= header)."""
    lines = [f"n={stream.num_vertices}"]
    lines.extend(f"{e.u} {e.v} {e.weight!r}" for e in stream.edges)
    return "\n".join(lines) + "\n"


def load_stream(path: str) -> StreamSource:
    """Open an edge-stream file, pipe or FIFO as a :class:`StreamSource`,
    read through its first edge line.

    The text format is one edge per line, ``<u> <v> <weight>``
    whitespace-separated, ``#`` comment lines, and an optional ``n=<count>``
    header (required when vertex labels are non-numeric).  A token is an
    id only when it is canonical ASCII decimal (``0`` or ``[1-9][0-9]*``);
    one other token makes every token a label.  A line of three fields is
    an edge line; any other line that starts with ``n=`` is the header,
    whose count must be canonical and positive.  Labels require the header
    and are remapped densely in order of first appearance, which
    ``labels`` maps.  Faults within a line are reported first; then the
    first edge with an id not below ``n`` (for labels, the first past ``n``
    labels) or a repeated vertex pair.  A line ends at LF, CRLF or CR.  A
    byte that is not UTF-8 is a fault within its line.  Each fault raises
    :class:`StreamFormatError` with its line number.  A leading UTF-8
    byte-order mark is skipped, though hashed; a U+FEFF elsewhere is text.
    ``sha256`` is the SHA-256 (hex) of the bytes parsed, taken in the same
    read.  A file without the header is held at once.  The rest of a file
    with it is read by the one pass of :meth:`StreamSource.rows`, or by
    :meth:`StreamSource.hold`, which keeps every edge for passes and
    readers after it.
    """
    stream = object.__new__(StreamSource)
    stream.passes, stream.edges, stream._parse = 0, None, _Parse()
    rest = stream._parse.rows(_Sha256File(path))
    first = next(rest, None)  # the header, if any, precedes it
    stream._rest = itertools.chain(() if first is None else (first,), rest)
    stream.num_vertices = stream._parse.header_n
    if stream.num_vertices is None:
        stream.hold()
    return stream
