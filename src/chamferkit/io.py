"""Reading and writing clouds as whitespace XYZ or ASCII PLY files.

Writers emit coordinates with repr-exact precision (%.17g), so a
write/read round trip reproduces every float64 bit for bit.
"""

from __future__ import annotations

import math
import os
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
    """Read a cloud from path. Format inferred from the suffix unless given."""
    fmt = _resolve_format(path, format)
    if fmt == "xyz":
        return _read_xyz(path)
    return _read_ply(path)


def write_cloud(cloud: PointCloud, path, format: str | None = None) -> None:
    fmt = _resolve_format(path, format)
    with open(path, "w", encoding="ascii") as fh:
        if fmt == "ply-ascii":
            fh.write(_PLY_HEADER.format(len(cloud)))
        for x, y, z in cloud.points:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def _parse_coord(path, lineno: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"unparseable coordinate {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"non-finite coordinate {token!r}")
    return value


def _parse_rows(path, numbered_lines, width: int, cols) -> np.ndarray:
    """Parse (lineno, line) pairs into an (n, 3) array, skipping blank lines.

    Every other line must hold width values; cols picks x, y and z.
    """
    pts = []
    for lineno, line in numbered_lines:
        fields = line.split()
        if not fields:
            continue  # blank lines tolerated
        if len(fields) != width:
            raise ParseError(path, lineno, f"expected {width} values, got {len(fields)}")
        # one flat list: per-row lists would be live objects the garbage
        # collector keeps rescanning while the file is read
        pts += [_parse_coord(path, lineno, fields[c]) for c in cols]
    return np.array(pts).reshape(-1, 3)


def _read_xyz(path) -> PointCloud:
    with open(path, "r", encoding="ascii") as fh:
        pts = _parse_rows(path, enumerate(fh, start=1), 3, (0, 1, 2))
    if not len(pts):
        raise ParseError(path, 0, "file contains no points")
    return PointCloud(pts)


def _read_ply(path) -> PointCloud:
    """ASCII PLY reader covering the vertex element; other elements skipped.

    The vertex element must carry scalar float or double properties named
    x, y and z; extra scalar properties are ignored. Binary PLY and list
    properties on the vertex element are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, 1, "not a PLY file (missing 'ply' magic line)")

    elements: list[tuple[str, int, list[str]]] = []  # (name, count, property names)
    has_list_prop: dict[str, bool] = {}
    format_seen = False
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
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
        raise ParseError(path, len(lines), "missing end_header")

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

    body = (
        (no, raw) for no, raw in enumerate(lines[lineno:], start=lineno + 1) if raw.strip()
    )
    for name, count, eprops in elements:
        rows = islice(body, count)
        pts = _parse_rows(path, rows, len(eprops), cols) if name == "vertex" else list(rows)
        if len(pts) < count:
            raise ParseError(path, len(lines), f"file ends inside element {name!r}")
        if name == "vertex":
            return PointCloud(pts)  # remaining elements carry no point data

