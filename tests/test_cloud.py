import numpy as np
import pytest

from mlop import cloud
from mlop.cloud import PointCloud, load_cloud, save_cloud, write_table
from mlop.errors import CloudFormatError


def test_parse_basic(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    cloud = load_cloud(path)
    assert cloud.size == 3
    assert cloud.ambient_dim == 2
    assert np.array_equal(cloud.points, [[0, 0], [1, 0], [0, 1]])


def test_ragged_rows_reports_location(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n1,2,3\n")
    with pytest.raises(CloudFormatError, match="row 2"):
        load_cloud(path)


def test_non_numeric_cell_reports_location(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n1,zap\n")
    with pytest.raises(CloudFormatError, match="row 2, column 2"):
        load_cloud(path)


@pytest.mark.parametrize("body, where, what", [
    (b"1,2\n3,4\xc3\xa9\n", "row 2, column 2", r"non-numeric cell '4\\xc3\\xa9'"),
    (b"1,2\nnan,4\n", "row 2, column 1", "non-finite cell 'nan'"),
    (b"1,2\n3,-inf\n", "row 2, column 2", "non-finite cell '-inf'"),
    (b"1,2\n0#note,4\n", "row 2, column 1", "non-numeric cell '0#note'"),
    (b"1,2\n\n3, \n", "row 2, column 2", "non-numeric cell ' '"),
    (b"1,2\n1_0,3\n", "row 2, column 1", "non-numeric cell '1_0'"),
], ids=["non-ascii", "nan", "inf", "comment", "blank-cell", "digit-separator"])
def test_bad_cell_names_file_row_and_column(tmp_path, body, where, what):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    with pytest.raises(CloudFormatError) as err:
        load_cloud(path)
    assert str(err.value) == f"{path}: {where}: {what}"


def test_defect_not_located_keeps_the_reader_message(tmp_path, monkeypatch):
    # no file is known that the reader rejects and _defect cannot place, so
    # the locator is stubbed to find nothing
    monkeypatch.setattr(cloud, "_defect", lambda path: None)
    path = tmp_path / "p.csv"
    path.write_text("1,2\n1,zap\n")
    with pytest.raises(CloudFormatError, match=f"^{path}: could not convert string 'zap'"):
        load_cloud(path)


def test_line_endings_and_padding_accepted(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"1,2\r\n 3 ,\t4\r\n\n5,6")
    assert np.array_equal(load_cloud(path).points, [[1, 2], [3, 4], [5, 6]])


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n\n")
    with pytest.raises(CloudFormatError, match="no data"):
        load_cloud(path)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(CloudFormatError):
        load_cloud(tmp_path / "nope.csv")


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(37, 5)) * np.logspace(-12, 12, 5)
    pts[0, 0] = 1.0 / 3.0
    pts[1, 1] = -0.0
    cloud = PointCloud(pts)
    path = tmp_path / "p.csv"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert np.array_equal(back.points, cloud.points)


def test_single_point_body(tmp_path):
    path = tmp_path / "p.csv"
    save_cloud(PointCloud([[1.5]]), path)
    assert path.read_text() == "1.5\n"


def test_empty_cloud_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        PointCloud(np.empty((0, 2)))


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud([[0.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud([[np.inf, 1.0]])


def test_points_are_immutable():
    cloud = PointCloud([[1.0, 2.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 3.0


def test_subset_keeps_point_order():
    cloud = PointCloud([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    sub = cloud.subset([2, 0, 2])
    assert np.array_equal(sub.points, [[3.0, 30.0], [1.0, 10.0], [3.0, 30.0]])
    assert not sub.points.flags.writeable


def test_write_table(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["name", "x", "n", "ms"],
                [["a", 0.1, 3, "1.500"], ["b", np.float64(1) / 3, None, "nan"]])
    assert path.read_bytes() == (b"name,x,n,ms\n"
                                 b"a,0.10000000000000001,3,1.500\n"
                                 b"b,0.33333333333333331,None,nan\n")
