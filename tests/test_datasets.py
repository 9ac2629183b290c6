import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecov.datasets import gaussian_blobs, load_csv, save_csv
from statecov.qnn import LabeledDataset


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


@given(n=st.integers(1, 6), d=st.integers(1, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, n, d, data):
    feats = data.draw(st.lists(
        st.lists(st.floats(-0.0, 1.0), min_size=d, max_size=d), min_size=n, max_size=n
    ))
    labels = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    original = LabeledDataset(feats, labels)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(original, path)
    loaded = load_csv(path)
    assert loaded.features.dtype == np.float64 and loaded.labels.dtype == np.int64
    assert loaded.features.tobytes() == original.features.tobytes()
    assert loaded.labels.tobytes() == original.labels.tobytes()
    assert loaded.digest() == original.digest()
