"""Clouds as whitespace XYZ or ASCII PLY files, and tables as CSV files.

Writers emit coordinates with repr-exact precision (%.17g), so a
write/read round trip reproduces every float64 bit for bit.

Both cloud formats share one row reader. It streams the rows through
numpy's C text reader; rows that reader refuses, or that come out the
wrong width, too few or non-finite, are read again by the line-by-line
parser, which raises the ParseError naming the first bad line.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from itertools import islice

import numpy as np

from .cloud import PointCloud

FORMATS = ("xyz", "ply-ascii")

_SUFFIX_FORMATS = {".xyz": "xyz", ".ply": "ply-ascii"}

_PLY_HEADER = (
    "ply\n"
    "format ascii 1.0\n"
    "element vertex {}\n"
    "property float x\n"
    "property float y\n"
    "property float z\n"
    "end_header\n"
)
_ROW_FORMAT = "%.17g %.17g %.17g\n"
_WRITE_CHUNK_ROWS = 4096  # rows formatted per write


class ParseError(ValueError):
    """Malformed cloud file. Message carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        prefix = f"{path}:{line}" if line > 0 else f"{path}"
        super().__init__(f"{prefix}: {message}")
        self.path = str(path)
        self.line = line


def _resolve_format(path, format: str | None) -> str:
    if format is None:
        suffix = os.path.splitext(str(path))[1].lower()
        format = _SUFFIX_FORMATS.get(suffix)
        if format is None:
            raise ValueError(
                f"cannot infer format from {path!r}; pass format='xyz' or 'ply-ascii'"
            )
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    return format


def read_cloud(path, format: str | None = None) -> PointCloud:
    """Read a cloud from path. Format inferred from the suffix unless given.

    An ASCII PLY file must give its vertex element scalar float or double
    properties named x, y and z; extra scalar properties and other
    elements are skipped. Binary PLY and list properties on the vertex
    element are rejected. Lines break where XYZ lines do, at newlines only.
    """
    fmt = _resolve_format(path, format)
    with open(path, "r", encoding="ascii") as fh:
        if fmt == "xyz":
            pts = _read_rows(path, fh, 0, 3, [0, 1, 2])
        else:
            pts = _read_rows(path, fh, *_read_ply_header(path, fh))
        # decode the rest, so a non-ASCII byte anywhere still fails the read
        while fh.read(1 << 16):
            pass
    if not len(pts):
        raise ParseError(path, 0, "file contains no points")
    return PointCloud(pts)


def write_cloud(cloud: PointCloud, path, format: str | None = None) -> None:
    fmt = _resolve_format(path, format)
    pts = cloud.points
    with open(path, "w", encoding="ascii") as fh:
        if fmt == "ply-ascii":
            fh.write(_PLY_HEADER.format(len(cloud)))
        # one % and one write per chunk of rows; the chunk bounds the text
        # held in memory at once
        for start in range(0, len(pts), _WRITE_CHUNK_ROWS):
            chunk = pts[start : start + _WRITE_CHUNK_ROWS]
            fh.write((_ROW_FORMAT * len(chunk)) % tuple(chunk.ravel().tolist()))


def _parse_coord(path, lineno: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"unparseable coordinate {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"non-finite coordinate {token!r}")
    return value


def _parse_rows(path, numbered_lines, width: int, cols) -> np.ndarray:
    """Parse (lineno, line) pairs of non-blank lines into an (n, 3) array.

    Every line must hold width values; cols picks x, y and z.
    """
    pts = []
    for lineno, line in numbered_lines:
        fields = line.split()
        if len(fields) != width:
            raise ParseError(path, lineno, f"expected {width} values, got {len(fields)}")
        # one flat list: per-row lists would be live objects the garbage
        # collector keeps rescanning while the file is read
        pts += [_parse_coord(path, lineno, fields[c]) for c in cols]
    return np.array(pts).reshape(-1, 3)


def _loadtxt_rows(fh, width: int, count: int | None = None) -> np.ndarray | None:
    """The rows of fh, or its next count non-blank rows, read by numpy's C reader.

    Returns None unless there is at least one row (exactly count if given),
    every row holds width values and all of them are finite; the caller
    then reads the rows again with _parse_rows. Where both accept a row
    they agree bit for bit: the C reader parses with the routine float()
    uses, accepts no token float() rejects, and splits at the whitespace
    str.split() splits at. Some tokens float() takes, such as "1_000",
    it refuses, so those files take the line-by-line route.
    """
    try:
        with warnings.catch_warnings():
            # "input contained no data" and blank lines within count rows
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2, max_rows=count)
    except ValueError:  # also a UnicodeDecodeError
        return None
    if not len(rows) or (count is not None and len(rows) != count):
        return None
    return rows if rows.shape[1] == width and np.isfinite(rows).all() else None


def _read_rows(path, fh, lineno: int, width: int, cols, count: int | None = None) -> np.ndarray:
    """Columns cols (x, y and z) of fh's next count non-blank rows, or of all of them.

    lineno is the number of lines before fh's position. The rows go to
    numpy's C reader first; if it refuses them, they are read again from
    the same position by the line loop, which raises the ParseError
    naming the first bad line.
    """
    start = fh.tell()
    rows = _loadtxt_rows(fh, width, count)
    if rows is not None:
        return rows[:, cols]
    fh.seek(start)
    numbered = ((no, line) for no, line in enumerate(fh, start=lineno + 1) if line.strip())
    pts = _parse_rows(path, islice(numbered, count), width, cols)
    if count is not None and len(pts) < count:
        fh.seek(0)
        raise ParseError(path, sum(1 for _ in fh), "file ends inside element 'vertex'")
    return pts


def _read_ply_header(path, fh) -> tuple[int, int, list[int], int]:
    """Read the header and the rows of elements before the vertex element.

    Returns the arguments that make _read_rows read the vertex rows:
    lines read so far, values per row, the x/y/z columns, and the count.
    """
    if fh.readline().strip() != "ply":
        raise ParseError(path, 1, "not a PLY file (missing 'ply' magic line)")

    elements: list[tuple[str, int, list[str]]] = []  # (name, count, property names)
    has_list_prop: dict[str, bool] = {}
    format_seen = False
    lineno = 1
    while raw := fh.readline():
        lineno += 1
        fields = raw.split()
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "format":
            if len(fields) < 2 or fields[1] != "ascii":
                raise ParseError(path, lineno, "only ASCII PLY is supported")
            format_seen = True
        elif fields[0] == "element":
            if len(fields) != 3:
                raise ParseError(path, lineno, "malformed element declaration")
            try:
                count = int(fields[2])
            except ValueError:
                raise ParseError(path, lineno, f"bad element count {fields[2]!r}") from None
            if count < 0:
                raise ParseError(path, lineno, "negative element count")
            elements.append((fields[1], count, []))
            has_list_prop.setdefault(fields[1], False)
        elif fields[0] == "property":
            if not elements:
                raise ParseError(path, lineno, "property before any element")
            name, count, props = elements[-1]
            if len(fields) >= 2 and fields[1] == "list":
                has_list_prop[name] = True
            elif len(fields) == 3:
                props.append(fields[2])
            else:
                raise ParseError(path, lineno, "malformed property declaration")
        elif fields[0] == "end_header":
            break
        else:
            raise ParseError(path, lineno, f"unexpected header keyword {fields[0]!r}")
    else:
        raise ParseError(path, lineno, "missing end_header")

    if not format_seen:
        raise ParseError(path, lineno, "missing format declaration")
    vertex = next((e for e in elements if e[0] == "vertex"), None)
    if vertex is None:
        raise ParseError(path, lineno, "no vertex element declared")
    _, n_vertices, props = vertex
    if n_vertices == 0:
        raise ParseError(path, lineno, "vertex element declares zero vertices")
    if has_list_prop["vertex"]:
        raise ParseError(path, lineno, "list properties on the vertex element are not supported")
    try:
        cols = [props.index(c) for c in ("x", "y", "z")]
    except ValueError:
        raise ParseError(
            path, lineno, f"vertex element lacks x/y/z properties (has {props})"
        ) from None

    for name, count, _ in elements[: elements.index(vertex)]:
        while count:  # rows of elements before the vertex element carry no point data
            raw = fh.readline()
            if not raw:
                raise ParseError(path, lineno, f"file ends inside element {name!r}")
            lineno += 1
            count -= bool(raw.strip())
    return lineno, len(props), cols, n_vertices


def write_csv(path, header, rows) -> None:
    """Write a table as ASCII CSV: the header, then one line per row.

    Cells go through the csv module, so rows end in "\\r\\n". A float
    cell, a numpy float included, is written repr-exact, so float() reads
    back every bit; None is an empty cell; any other value is str()'d.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )
