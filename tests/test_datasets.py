import pytest

from statecov.datasets import gaussian_blobs, load_csv, save_csv


def _csv_with(tmp_path, value):
    path = tmp_path / "data.csv"
    save_csv(gaussian_blobs(2, 2, 3, seed=0), path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = value
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "2.5", "-0.1"])
def test_rejects_non_finite_or_out_of_range_feature(tmp_path, value):
    path = _csv_with(tmp_path, value)
    with pytest.raises(ValueError, match=r"data\.csv:4: column f1"):
        load_csv(path)


def test_rejects_non_numeric_feature_with_line(tmp_path):
    path = _csv_with(tmp_path, "abc")
    with pytest.raises(ValueError, match=r"data\.csv:4"):
        load_csv(path)
