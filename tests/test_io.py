import numpy as np
import pytest

from chamferkit import ParseError, PointCloud, gen_shape, read_cloud, write_cloud


def tricky_cloud():
    """Values that expose precision loss: non-representable decimals,
    subnormals, large magnitudes, negative zero."""
    return PointCloud(
        [
            [0.1, 0.2, 0.3],
            [1e-300, -1e300, 5e-324],
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
