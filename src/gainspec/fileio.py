"""The ``ugg`` text format for gain graphs.

    # optional comment lines start with '#'
    ugg <n>
    u v theta
    ...

One edge per line with 0 <= u < v < n and theta a decimal angle in radians;
the edge carries gain e^{i theta} from u to v (and the conjugate back).
Blank lines are ignored.  Angles are written with 17 significant digits, so
a serialize/parse round trip reproduces every gain to within 1e-12.

Parsing has two paths with one result.  A file in the layout that
``serialize_gain_graph`` writes (leading '#' lines, then ``ugg <n>``, then
``u v theta`` lines with single spaces, '\n' endings and edges in ascending
(u, v) order) is parsed and checked on whole arrays.  Any other layout, and
any file failing one of those checks, goes through the line loop, which
accepts the general format and is the only source of error messages, so
the error text does not depend on the path.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gains import GainGraph, gain_angle, unit_from_angle
from .graphs import Graph

# Longest endpoint (or vertex count) the array path reads: 15 digits keep
# every value below 2**53.  Longer angle fields than ANGLE_WIDTH also go to
# the line loop; a 17-significant-digit angle takes at most 24 characters.
MAX_DIGITS = 15
ANGLE_WIDTH = 32
# Bytes an edge line of the canonical layout may hold.
_EDGE_BYTES = b"0123456789.+-eE \n"


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
    """The gain graph of a file in the canonical layout, or None when the
    file is in another layout or fails any check of ``_parse_lines``."""
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
    n = int(count)
    body = text[stop + 1 :].encode("ascii")
    # Zero padding lets every field be read as a fixed-width window.
    buf = np.zeros(len(body) + ANGLE_WIDTH, dtype=np.uint8)
    buf[: len(body)] = np.frombuffer(body, dtype=np.uint8)
    line_end = np.flatnonzero(buf == ord("\n"))
    spaces = np.flatnonzero(buf == ord(" "))
    m = len(line_end)
    if (
        (body and body[-1:] != b"\n")
        or len(spaces) != 2 * m
        or body.translate(None, _EDGE_BYTES)
    ):
        return None
    line_start = np.concatenate(([0], line_end + 1))[:m]
    s1, s2 = spaces[0::2], spaces[1::2]
    # Exactly two spaces per line, and three nonempty fields.
    if not ((line_start < s1) & (s1 + 1 < s2) & (s2 + 1 < line_end)).all():
        return None
    us = _endpoints(buf, line_start, s1 - line_start)
    vs = _endpoints(buf, s1 + 1, s2 - s1 - 1)
    theta = _angles(buf, s2 + 1, line_end - s2 - 1)
    if us is None or vs is None or theta is None or not np.isfinite(theta).all():
        return None
    gains = np.empty(m, dtype=complex)
    gains.real, gains.imag = np.cos(theta), np.sin(theta)
    # the constructors check range, strict order (so no duplicate) and unit gains
    try:
        return GainGraph.from_gains(Graph.from_arrays(n, us, vs), gains)
    except ValueError:
        return None


def _field_bytes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One row per field: its bytes, then zeros up to the longest field."""
    width = int(lengths.max(initial=0))
    rows = sliding_window_view(buf, max(width, 1))[starts, :width]
    rows[np.arange(width) >= lengths[:, None]] = 0
    return rows


def _endpoints(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Decimal values of ASCII-digit fields, or None if any field is longer
    than MAX_DIGITS or holds another byte."""
    if lengths.max(initial=0) > MAX_DIGITS:
        return None
    rows = _field_bytes(buf, starts, lengths)
    values = np.zeros(len(starts), dtype=np.intp)
    for j in range(rows.shape[1]):
        live = j < lengths
        digit = rows[:, j] - ord("0")
        if (live & (digit > 9)).any():
            return None
        values = np.where(live, values * 10 + digit, values)
    return values


def _angles(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Angle fields as floats, each rounded exactly as ``float`` rounds it,
    or None if one is longer than ANGLE_WIDTH or is not a number."""
    if lengths.max(initial=0) > ANGLE_WIDTH:
        return None
    rows = _field_bytes(buf, starts, lengths)
    try:
        return rows.view(f"S{max(rows.shape[1], 1)}").ravel().astype(np.float64)
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
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"ugg {phi.graph.n}")
    us, vs, gains = phi.graph.us, phi.graph.vs, phi.gains
    # gain_angle per edge: numpy's angle differs from it in the last bit
    angles = map(gain_angle, gains.tolist())
    lines.extend(map("{} {} {:.17g}".format, us.tolist(), vs.tolist(), angles))
    return "\n".join(lines) + "\n"


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
    Path(path).write_text(serialize_gain_graph(phi, comment), encoding="utf-8")
