"""The ``ugg`` text format for gain graphs.

    # optional comment lines start with '#'
    ugg <n>
    u v theta
    ...

One edge per line with 0 <= u < v < n and theta a decimal angle in radians;
the edge carries gain e^{i theta} from u to v (and the conjugate back).
Blank lines are ignored.  Angles are written with 17 significant digits, so
a serialize/parse round trip reproduces every gain to within 1e-12.

Parsing has two paths with one result.  The bulk path reads a whole file
with numpy's text reader: it takes an ASCII file of leading '#' lines, then
``ugg <n>``, then a body whose bytes are digits, '.', '+', '-', 'e', 'E',
' ' and '\n', with three single-space fields on every non-blank line; the
validating constructors then check ranges and ascending (u, v) order.  Any
other file, and any file failing one of those checks, goes through the line
loop, which accepts the general format and is the only source of error
messages, so the error text does not depend on the path.

Writing has one path: a generator formats the header, then the edge lines
a fixed number of edges at a time.  ``save_gain_graph`` and the command
line write each piece as it comes, so their memory follows that chunk, not
the edge count; ``serialize_gain_graph`` joins the pieces.
"""

from __future__ import annotations

import cmath
import io
import math
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from .gains import GainGraph, unit_from_angle
from .graphs import Graph

# Longest vertex count the bulk path reads: 15 digits keep it below 2**53.
MAX_DIGITS = 15
# Bytes the body of a bulk-parsed file may hold, and one row of it.
_EDGE_BYTES = b"0123456789.+-eE \n"
_EDGE_ROW = [("u", np.intp), ("v", np.intp), ("theta", np.float64)]
# Edges formatted per piece of written text, so writing holds one piece, not the file.
_CHUNK_EDGES = 1024


class GainGraphParseError(ValueError):
    """Malformed ugg input; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_gain_graph(text: str) -> GainGraph:
    """The gain graph in ``ugg`` text; ``GainGraphParseError`` names the
    first offending line."""
    phi = _parse_canonical(text)
    return _parse_lines(text) if phi is None else phi


def _parse_canonical(text: str) -> GainGraph | None:
    """The gain graph of a file the bulk path takes, or None when the file
    is outside what it takes or fails any check of ``_parse_lines``."""
    if not text.isascii():
        return None
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    # ``str.splitlines`` also breaks lines at \r, \v, \f and \x1c-\x1e.
    if len(text[:start].splitlines()) != text.count("\n", 0, start):
        return None
    stop = text.find("\n", start)
    count = text[start + 4 : stop]
    if (
        stop < 0
        or not text.startswith("ugg ", start)
        or not count.isdigit()
        or len(count) > MAX_DIGITS
    ):
        return None
    body = text[stop + 1 :]
    # Only bytes that numpy's reader and the line loop read alike: no line
    # break but '\n', no blank but ' ', and no '#', '_', 'nan' or 'inf'.
    if body.encode("ascii").translate(None, _EDGE_BYTES):
        return None
    rows = np.empty(0, dtype=_EDGE_ROW)
    try:
        # A warning falls back too: numpy warns of "no data" on a blank-only
        # body, so an empty one, which has no edge, is not read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if body:
                rows = np.loadtxt(io.StringIO(body), dtype=_EDGE_ROW, delimiter=" ",
                                  comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    theta = rows["theta"]
    if not np.isfinite(theta).all():
        return None
    gains = np.empty(len(rows), dtype=complex)
    gains.real, gains.imag = np.cos(theta), np.sin(theta)
    # the constructors check range, strict order (so no duplicate) and unit gains
    try:
        graph = Graph.from_arrays(int(count), rows["u"], rows["v"])
        return GainGraph.from_gains(graph, gains)
    except ValueError:
        return None


def _parse_lines(text: str) -> GainGraph:
    """The general parser: one line at a time, with line-numbered errors."""
    header: tuple[int, int] | None = None  # (line_no, n)
    edges: dict[tuple[int, int], complex] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if header is None:
            if fields[0] != "ugg" or len(fields) != 2:
                raise GainGraphParseError(line_no, "expected header 'ugg <n>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise GainGraphParseError(line_no, f"bad vertex count {fields[1]!r}")
            if n < 0:
                raise GainGraphParseError(line_no, "vertex count must be >= 0")
            header = (line_no, n)
            continue
        if len(fields) != 3:
            raise GainGraphParseError(line_no, "expected 'u v theta'")
        n = header[1]
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GainGraphParseError(line_no, "endpoints must be integers")
        try:
            theta = float(fields[2])
        except ValueError:
            raise GainGraphParseError(line_no, f"bad angle {fields[2]!r}")
        if not math.isfinite(theta):
            raise GainGraphParseError(line_no, "angle must be finite")
        if u == v:
            raise GainGraphParseError(line_no, f"self-loop at vertex {u}")
        if not 0 <= u < v < n:
            raise GainGraphParseError(
                line_no, f"edge ({u}, {v}) must satisfy 0 <= u < v < {n}"
            )
        if (u, v) in edges:
            raise GainGraphParseError(line_no, f"duplicate edge ({u}, {v})")
        edges[(u, v)] = unit_from_angle(theta)
    if header is None:
        raise GainGraphParseError(1, "missing header 'ugg <n>'")
    return GainGraph(Graph(header[1], edges), edges)


def serialize_gain_graph(phi: GainGraph, comment: str | None = None) -> str:
    """The ``ugg`` text of ``phi``, edges in ascending (u, v) order."""
    return "".join(_ugg_chunks(phi, comment))


def _ugg_chunks(phi: GainGraph, comment: str | None) -> Iterator[str]:
    """The ``ugg`` text of ``phi`` in pieces: the comment and header lines,
    then the lines of at most ``_CHUNK_EDGES`` edges at a time."""
    head = [f"# {c}" for c in comment.splitlines()] if comment else []
    yield "\n".join([*head, f"ugg {phi.graph.n}"]) + "\n"
    us, vs, gains = phi.graph.us, phi.graph.vs, phi.gains
    for a in range(0, phi.graph.m, _CHUNK_EDGES):
        b = a + _CHUNK_EDGES
        # cmath.phase per gain: numpy's angle differs from it in the last bit
        angles = map(cmath.phase, gains[a:b].tolist())
        lines = zip(us[a:b].tolist(), vs[a:b].tolist(), angles)
        yield "".join(map("%d %d %.17g\n".__mod__, lines))


def load_gain_graph(path: str | Path) -> GainGraph:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, numbered as the parser numbers lines.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise GainGraphParseError(
            line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    return parse_gain_graph(text)


def save_gain_graph(phi: GainGraph, path: str | Path, comment: str | None = None) -> None:
    """Write the ``ugg`` text of ``phi`` to ``path``, one chunk of edges at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_ugg_chunks(phi, comment))
