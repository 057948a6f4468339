from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import chamferkit.io
from chamferkit import ParseError, PointCloud, gen_shape, read_cloud, write_cloud
from chamferkit.io import write_csv

# characters str.split() treats as whitespace but str.splitlines() as
# line breaks
SPLITLINES_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

PLY_XYZ_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {}\n"
    "property float x\nproperty float y\nproperty float z\nend_header\n"
)


def tricky_cloud():
    """Values that expose precision loss: non-representable decimals,
    subnormals, large magnitudes, negative zero."""
    return PointCloud(
        [
            [0.1, 0.2, 0.3],
            [1e-300, -1e150, 5e-324],
            [1 / 3, np.pi, np.e],
            [-0.0, 123456789.123456789, -2.2250738585072014e-308],
        ]
    )


class TestXyz:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(10):
            c = PointCloud(rng.normal(scale=10.0 ** rng.integers(-5, 5), size=(50, 3)))
            p = tmp_path / f"c{i}.xyz"
            write_cloud(c, p)
            np.testing.assert_array_equal(read_cloud(p).points, c.points)

    def test_roundtrip_tricky_values(self, tmp_path):
        c = tricky_cloud()
        p = tmp_path / "t.xyz"
        write_cloud(c, p)
        np.testing.assert_array_equal(read_cloud(p).points, c.points)

    def test_single_origin_file_content(self, tmp_path):
        p = tmp_path / "o.xyz"
        write_cloud(PointCloud([[0, 0, 0]]), p)
        assert p.read_text() == "0 0 0\n"
        assert p.stat().st_size > 0

    def test_two_line_parse(self, tmp_path):
        p = tmp_path / "two.xyz"
        p.write_text("0 0 0\n1 0 0")
        c = read_cloud(p)
        np.testing.assert_array_equal(c.points, [[0, 0, 0], [1, 0, 0]])

    def test_wrong_arity_reports_line(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("1 2\n")
        with pytest.raises(ParseError, match=r"bad\.xyz:1: expected 3"):
            read_cloud(p)

    def test_bad_token_reports_line(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("0 0 0\n0 zero 0\n")
        with pytest.raises(ParseError, match=r":2: unparseable"):
            read_cloud(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "nan.xyz"
        p.write_text("0 nan 0\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_cloud(p)
        p.write_text("inf 0 0\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_cloud(p)

    @pytest.mark.parametrize("suffix", [".xyz", ".ply"])
    def test_coordinate_beyond_range_names_the_file(self, tmp_path, suffix):
        # the parsers accept any finite value; the cloud's range check
        # rejects it, and the error still names the file
        p = tmp_path / f"far{suffix}"
        body = "0 0 0\n0 -2e151 0\n"
        p.write_text(PLY_XYZ_HEADER.format(2) + body if suffix == ".ply" else body)
        with pytest.raises(ParseError) as exc_info:
            read_cloud(p)
        assert str(exc_info.value) == (
            f"{p}: point cloud has a coordinate of magnitude 2e+151, beyond the supported 1e+150"
        )
        assert (exc_info.value.path, exc_info.value.line) == (str(p), 0)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.xyz"
        p.write_text("")
        with pytest.raises(ParseError, match="no points"):
            read_cloud(p)

    def test_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "blank.xyz"
        p.write_text("0 0 0\n\n1 1 1\n")
        assert len(read_cloud(p)) == 2


class TestPly:
    def test_roundtrip_exact(self, tmp_path):
        c = tricky_cloud()
        p = tmp_path / "t.ply"
        write_cloud(c, p)
        np.testing.assert_array_equal(read_cloud(p).points, c.points)

    def test_header_shape(self, tmp_path):
        p = tmp_path / "h.ply"
        write_cloud(PointCloud([[1, 2, 3]]), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert "element vertex 1" in lines
        assert lines[-1] == "1 2 3"

    def test_extra_properties_ignored(self, tmp_path):
        p = tmp_path / "extra.ply"
        p.write_text(
            "ply\nformat ascii 1.0\ncomment with confidence\n"
            "element vertex 2\n"
            "property float confidence\nproperty float x\n"
            "property float y\nproperty float z\n"
            "end_header\n"
            "0.9 1 2 3\n0.1 4 5 6\n"
        )
        np.testing.assert_array_equal(read_cloud(p).points, [[1, 2, 3], [4, 5, 6]])

    def test_obj_info_lines_skipped(self, tmp_path):
        # obj_info lines are free text, as comment lines are
        p = tmp_path / "info.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nobj_info scanner 7; units mm\n"
            "element vertex 1\nobj_info\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n1 2 3\n"
        )
        np.testing.assert_array_equal(read_cloud(p).points, [[1, 2, 3]])

    def test_repeated_vertex_name_reads_the_first_block(self, tmp_path):
        # the second block's list property is not the first block's; it
        # was once judged in its place
        p = tmp_path / "two.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
            "element vertex 1\nproperty list uchar int ids\n"
            "end_header\n"
            "1 2 3\n2 7 8\n"
        )
        np.testing.assert_array_equal(read_cloud(p).points, [[1, 2, 3]])

    def test_list_property_on_the_first_vertex_block_rejected(self, tmp_path):
        p = tmp_path / "two.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 1\nproperty list uchar int ids\n"
            "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
            "end_header\n"
            "2 7 8\n1 2 3\n"
        )
        with pytest.raises(ParseError, match="list properties on the vertex element"):
            read_cloud(p)

    def test_extra_elements_skipped(self, tmp_path):
        p = tmp_path / "faces.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element edge 1\nproperty int a\nproperty int b\n"
            "element vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n"
            "0 1\n"
            "1 0 0\n0 1 0\n"
        )
        np.testing.assert_array_equal(read_cloud(p).points, [[1, 0, 0], [0, 1, 0]])

    def test_binary_rejected(self, tmp_path):
        p = tmp_path / "bin.ply"
        p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ParseError, match="ASCII"):
            read_cloud(p)

    def test_missing_magic(self, tmp_path):
        p = tmp_path / "not.ply"
        p.write_text("plyx\n")
        with pytest.raises(ParseError, match=":1: not a PLY"):
            read_cloud(p)

    def test_missing_vertex_element(self, tmp_path):
        p = tmp_path / "nov.ply"
        p.write_text("ply\nformat ascii 1.0\nelement face 0\nend_header\n")
        with pytest.raises(ParseError, match="no vertex element"):
            read_cloud(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "short.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="ends inside"):
            read_cloud(p)

    def test_truncated_element_before_vertex(self, tmp_path):
        p = tmp_path / "edges.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element edge 3\nproperty int a\nproperty int b\n"
            "element vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
            "0 1\n\n1 2\n"
        )
        with pytest.raises(ParseError, match=r"edges\.ply:13: file ends inside element 'edge'$"):
            read_cloud(p)

    def test_body_errors_name_the_file_line(self, tmp_path):
        # blank lines and a preceding element's rows still count toward
        # the reported line number
        p = tmp_path / "lines.ply"
        header = (
            "ply\nformat ascii 1.0\n"
            "element edge 1\nproperty int a\nproperty int b\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        p.write_text(header + "\n0 1\n\n1 0 0\n0 nan 0\n")
        with pytest.raises(ParseError, match=r":15: non-finite"):
            read_cloud(p)
        p.write_text(header + "0 1\n1 0 0\n\n0 0\n")
        with pytest.raises(ParseError, match=r":14: expected 3 values"):
            read_cloud(p)

    def test_row_arity_error_names_line(self, tmp_path):
        p = tmp_path / "arity.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(ParseError, match=":8: expected 3 values"):
            read_cloud(p)

    @pytest.mark.parametrize(
        "header,line,message",
        [
            ("ply\nformat ascii 1.0\nelement vertex\n", 3, "malformed element declaration"),
            ("ply\nformat ascii 1.0\nelement vertex many\n", 3, "bad element count 'many'"),
            ("ply\nformat ascii 1.0\nelement vertex -1\n", 3, "negative element count"),
            ("ply\nformat ascii 1.0\nproperty float x\n", 3, "property before any element"),
            (
                "ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n",
                4,
                "malformed property declaration",
            ),
            (
                "ply\nformat ascii 1.0\nelement vertex 1\nvertices 1\n",
                4,
                "unexpected header keyword 'vertices'",
            ),
            (
                "ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n",
                6,
                "missing end_header",
            ),
            (
                "ply\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n",
                6,
                "missing format declaration",
            ),
            (
                "ply\nformat ascii 1.0\nelement vertex 1\nproperty list uchar int ids\n"
                "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n",
                8,
                "list properties on the vertex element are not supported",
            ),
            (
                "ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nend_header\n0 0\n",
                6,
                "vertex element lacks x/y/z properties (has ['x', 'y'])",
            ),
        ],
    )
    def test_header_errors_name_the_file_line(self, tmp_path, header, line, message):
        p = tmp_path / "head.ply"
        p.write_text(header)
        with pytest.raises(ParseError) as exc_info:
            read_cloud(p)
        assert str(exc_info.value) == f"{p}:{line}: {message}"
        assert exc_info.value.line == line

    @pytest.mark.parametrize(
        "decl,line,message",
        [
            # "foo z" read as a valid cloud
            ("property float x\nproperty float y\nproperty foo z\n", 6, "unknown property type 'foo'"),
            ("property float32 x\nproperty double y\nproperty real z\n", 6, "unknown property type 'real'"),
            ("property list uchar string ids\n", 4, "unknown property type 'string'"),
            # a list names two types, its count's and its items'
            ("property list uchar ids\n", 4, "malformed property declaration"),
        ],
    )
    def test_unknown_property_type_names_its_line(self, tmp_path, decl, line, message):
        p = tmp_path / "types.ply"
        p.write_text(f"ply\nformat ascii 1.0\nelement vertex 1\n{decl}end_header\n1 2 3\n")
        with pytest.raises(ParseError) as exc_info:
            read_cloud(p)
        assert str(exc_info.value) == f"{p}:{line}: {message}"

    def test_every_scalar_type_is_read(self, tmp_path):
        types = "char uchar short ushort int uint float double int8 uint8 int16 uint16 int32 uint32"
        header = "".join(f"property {t} {t}_col\n" for t in types.split())
        p = tmp_path / "types.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement edge 1\nproperty list uint8 int32 ids\n"
            f"element vertex 1\n{header}property float32 x\nproperty float64 y\nproperty int z\n"
            f"end_header\n2 0 1\n{'0 ' * 14}0.5 -2.25 7\n"
        )
        assert read_cloud(p) == PointCloud([[0.5, -2.25, 7.0]])


class TestFormatSelection:
    def test_inferred_from_suffix(self, tmp_path):
        c = gen_shape("sphere-surface", 8, seed=0)
        for name in ("a.xyz", "a.ply"):
            p = tmp_path / name
            write_cloud(c, p)
            assert read_cloud(p) == c

    def test_explicit_format_overrides_suffix(self, tmp_path):
        c = PointCloud([[1, 2, 3]])
        p = tmp_path / "cloud.dat"
        write_cloud(c, p, format="xyz")
        assert read_cloud(p, format="xyz") == c

    def test_unknown_suffix_needs_format(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            read_cloud(tmp_path / "cloud.dat")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            read_cloud(tmp_path / "a.xyz", format="obj")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_cloud(tmp_path / "nothing.xyz")


class TestLineHandling:
    @pytest.mark.parametrize("char", SPLITLINES_BREAKS)
    def test_ply_row_splits_like_xyz(self, tmp_path, char):
        row = f"1 2{char}3\n"
        (tmp_path / "t.xyz").write_text(row)
        (tmp_path / "t.ply").write_text(PLY_XYZ_HEADER.format(1) + row)
        for name in ("t.xyz", "t.ply"):
            np.testing.assert_array_equal(read_cloud(tmp_path / name).points, [[1, 2, 3]])

    def test_tokens_numpy_refuses_take_the_line_loop(self, tmp_path):
        # numpy's reader refuses "1_000"; the line loop reads it as float() does
        (tmp_path / "u.xyz").write_text("0 0 0\n1_000 2 3\n")
        (tmp_path / "u.ply").write_text(PLY_XYZ_HEADER.format(2) + "0 0 0\n1_000 2 3\n")
        for name in ("u.xyz", "u.ply"):
            np.testing.assert_array_equal(
                read_cloud(tmp_path / name).points, [[0, 0, 0], [1000, 2, 3]]
            )

    def test_late_bad_row_names_its_line(self, tmp_path):
        rows = "0.5 0.25 0.125\n" * 9999
        (tmp_path / "late.xyz").write_text(rows + "0 x 0\n")
        with pytest.raises(ParseError, match=r"late\.xyz:10000: unparseable"):
            read_cloud(tmp_path / "late.xyz")
        (tmp_path / "late.ply").write_text(PLY_XYZ_HEADER.format(10000) + rows + "0 0 inf\n")
        with pytest.raises(ParseError, match=r"late\.ply:10007: non-finite"):
            read_cloud(tmp_path / "late.ply")

    def test_non_ascii_after_vertices_still_rejected(self, tmp_path):
        # the byte sits far past any read-ahead of the vertex rows
        p = tmp_path / "face.ply"
        head = PLY_XYZ_HEADER.format(1).replace(
            "end_header",
            "element face 50001\nproperty list uchar int vertex_indices\nend_header",
        )
        faces = "1 0\n" * 50000
        p.write_bytes((head + "1 2 3\n" + faces + "1 0\n").encode("ascii"))
        np.testing.assert_array_equal(read_cloud(p).points, [[1, 2, 3]])
        p.write_bytes((head + "1 2 3\n" + faces + "1 \xe9\n").encode("latin-1"))
        with pytest.raises(ParseError, match=r"face\.ply"):
            read_cloud(p)

    def test_byte_order_mark_names_the_file(self, tmp_path):
        p = tmp_path / "bom.xyz"
        p.write_bytes(b"\xef\xbb\xbf1 2 3\n")
        with pytest.raises(ParseError, match=r"bom\.xyz: non-ASCII byte 0xef$"):
            read_cloud(p)

    def test_non_ascii_header_line_names_the_file(self, tmp_path):
        p = tmp_path / "head.ply"
        head = PLY_XYZ_HEADER.format(1).replace("end_header", "comment caf\xe9\nend_header")
        p.write_bytes((head + "1 2 3\n").encode("latin-1"))
        with pytest.raises(ParseError, match=r"head\.ply: non-ASCII byte 0xe9$"):
            read_cloud(p)


def read_by_line_loop(path) -> PointCloud:
    """read_cloud with numpy's C reader refusing every file."""
    with mock.patch.object(chamferkit.io, "_loadtxt_rows", lambda *args: None):
        return read_cloud(path)


def outcome(read, path):
    try:
        return read(path).points.tobytes()
    except ParseError as exc:
        return str(exc)


_SEPARATORS = (" ", "\t", " \t ", "\x1f") + SPLITLINES_BREAKS
_LINE_ENDS = ("\n", "\r\n", "\r")
_ODD_TOKENS = ("nan", "-inf", "Infinity", "1e400", "1_000", "+.5", "-0", "5.", "0x10", "#", "1#")
_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite_token = st.one_of(
    _finite.map(repr),
    st.tuples(st.sampled_from(("%.17g", "%.6g", "%.3e")), _finite).map(lambda p: p[0] % p[1]),
)
_any_token = st.one_of(
    _finite_token,
    st.sampled_from(_ODD_TOKENS),
    st.text("0123456789.eE+-_#\x00", min_size=1, max_size=6),
)


@st.composite
def bodies(draw, width: int, max_rows: int = 8) -> tuple[str, int]:
    """Text of up to max_rows rows of width tokens, and the row count.

    Half the bodies hold finite numbers only, with blank lines between
    rows; the rest add odd tokens, ragged rows and whitespace-only lines.
    """
    clean = draw(st.booleans())
    token = _finite_token if clean else _any_token
    n_rows = draw(st.integers(0, max_rows))
    text = ""
    for _ in range(n_rows):
        if draw(st.integers(0, 5)) == 0:
            blank = "" if clean else draw(st.sampled_from(_SEPARATORS))
            text += blank + draw(st.sampled_from(_LINE_ENDS))
        n = width if clean or draw(st.integers(0, 5)) else draw(st.integers(1, width + 1))
        tokens = [draw(token) for _ in range(n)]
        line = tokens[0]
        for tok in tokens[1:]:
            line += draw(st.sampled_from(_SEPARATORS)) + tok
        text += draw(st.sampled_from(("", " ", "\t"))) + line + draw(st.sampled_from(_LINE_ENDS))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text, n_rows


@st.composite
def ply_files(draw) -> str:
    props = ["x", "y", "z"]
    for extra in draw(st.lists(st.sampled_from(("nx", "confidence")), max_size=2)):
        props.insert(draw(st.integers(0, len(props))), extra)
    body, n_rows = draw(bodies(len(props)))
    declared = max(0, n_rows + draw(st.sampled_from((-1, 0, 0, 0, 1))))  # short and overlong
    header = ["ply", "format ascii 1.0"]
    before = ""
    if draw(st.booleans()):
        header += ["element edge 1", "property int a", "property int b"]
        before = "0 1\n"
    header.append(f"element vertex {declared}")
    header += [f"property float {p}" for p in props]
    header.append("end_header")
    return "\n".join(header) + "\n" + before + body


class TestFastPathMatchesLineLoop:
    @seed(20261018)
    @settings(
        max_examples=300,
        deadline=2000,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.one_of(bodies(3).map(lambda b: ("c.xyz", b[0])), ply_files().map(lambda t: ("c.ply", t))))
    def test_same_bits_or_same_error(self, tmp_path, case):
        name, text = case
        path = tmp_path / name
        path.write_bytes(text.encode("ascii"))
        assert outcome(read_cloud, path) == outcome(read_by_line_loop, path)


class TestWriteBytes:
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("suffix", [".xyz", ".ply"])
    def test_bytes_equal_per_row_reference(self, tmp_path, n, suffix):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 150, (n, 3))
        specials = [-0.0, 5e-324, 1e150, -1e150]
        flat = pts.reshape(-1)
        flat[-min(4, flat.size) :] = specials[: flat.size]
        path = tmp_path / f"w{suffix}"
        write_cloud(PointCloud(pts), path)
        expected = PLY_XYZ_HEADER.replace("float", "double").format(n) if suffix == ".ply" else ""
        expected += "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pts)
        assert path.read_bytes() == expected.encode("ascii")
        assert read_cloud(path).points.tobytes() == pts.tobytes()


# every float class the writer must carry: signed zeros, subnormals, the
# normal range's ends, the coordinate range's ends and anything between
_EXACT_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]),
    st.floats(-1e-307, 1e-307, allow_subnormal=True),
    st.floats(-1e150, 1e150),
)


class TestRoundTripProperty:
    @seed(20261019)
    @settings(
        max_examples=100,
        deadline=2000,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.tuples(_EXACT_FLOATS, _EXACT_FLOATS, _EXACT_FLOATS), min_size=1, max_size=20),
        st.sampled_from([".xyz", ".ply"]),
    )
    def test_write_read_is_bit_exact(self, tmp_path, rows, suffix):
        pts = np.array(rows, dtype=np.float64)
        path = tmp_path / f"r{suffix}"
        write_cloud(PointCloud(pts), path)
        assert read_cloud(path).points.tobytes() == pts.tobytes()


class TestWriteCsv:
    def test_cell_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["a,b", np.float32(0.1), None], [np.int64(3), 1e-300, -0.0], ["", 1 / 3, 7]]
        write_csv(path, ["name", "value", "missing"], rows)
        assert path.read_bytes() == (
            b"name,value,missing\r\n"
            b'"a,b",0.10000000149011612,\r\n'
            b"3,1e-300,-0.0\r\n"
            b",0.3333333333333333,7\r\n"
        )
