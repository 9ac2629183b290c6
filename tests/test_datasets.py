import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecov.datasets import load_csv, save_csv
from statecov.qnn import LabeledDataset

from fixtures import gaussian_blobs
from oracles import load_csv_rows, save_csv_rows


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


_FEATURE_CELLS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1.0).map(lambda v: f"{v:.3f}"),
    st.floats(0.0, 1.0).map(lambda v: f' {v!r} '),
    st.floats(0.0, 1.0).map(lambda v: f'"{v!r}"'),
    st.floats(0.0, 1.0).map(lambda v: f"+{v!r}"),
    st.sampled_from(
        ["0.1_5", "1_0", "nan", "-nan", "inf", "-inf", "Infinity", "-0.0", "2.5", "-0.1", "1e400",
         "", " ", "abc", '""', '"0.5', '0.5"', '"0".5', ".5", "5.", "1e-3", "\t0.25\t", "0.5\xa0",
         "١", "0x1p-1", "0.5 # c"]
    ),
)
_LABEL_CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(
        ["+1", " 2 ", '"1"', "1.0", "1e0", "1_0", "", " ", "x", "-0", "007", "١", "1.5", "nan"]
    ),
)


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(0, 3))
    last = draw(st.sampled_from(["label"] * 5 + ["lbl", '"label"', ""]))
    header = [f"f{i}" for i in range(d)] + [last]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long", "noise"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        elif kind == "noise":
            lines.append(draw(st.text(alphabet='0123456789.,+-_e "\r\n\tnaif', max_size=12)))
        else:
            width = d + {"row": 0, "short": -1, "long": 1}[kind]
            cells = [draw(_FEATURE_CELLS) for _ in range(max(width, 0))]
            if width >= 0:
                cells.append(draw(_LABEL_CELLS))
            lines.append(",".join(cells))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(loader, path):
    try:
        data = loader(path)
    except Exception as exc:  # noqa: BLE001 - the exact error is the outcome
        return type(exc), str(exc)
    feats, labels = data.features, data.labels
    return feats.dtype, feats.shape, feats.tobytes(), labels.dtype, labels.tobytes()


@given(text=_csv_texts())
@settings(max_examples=400, deadline=None)
def test_load_matches_row_by_row_oracle(tmp_path_factory, text):
    """The columnar reader gives the row-by-row reader's arrays bit for bit,
    or its exact error."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert _outcome(load_csv, path) == _outcome(load_csv_rows, path)


@given(
    n=st.integers(0, 8),
    d=st.integers(0, 4),
    block=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_save_writes_the_csv_writer_bytes(tmp_path_factory, n, d, block, data):
    """Byte for byte what csv.writer wrote, across write blocks, for any
    float (nan, inf, -0.0) and any int64 label."""
    import statecov.qnn as qnn

    feats = data.draw(st.lists(
        st.lists(st.floats(allow_nan=True), min_size=d, max_size=d), min_size=n, max_size=n
    ))
    labels = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    original = LabeledDataset(np.array(feats, dtype=np.float64).reshape(n, d), labels)
    folder = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnn, "BLOCK_AMPS", block * (d + 1))  # block rows per write
        save_csv(original, folder / "new.csv")
    save_csv_rows(original, folder / "old.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_saved_file_is_read_without_the_row_loop(tmp_path, monkeypatch):
    import statecov.datasets as datasets

    path = tmp_path / "data.csv"
    original = gaussian_blobs(2, 30, 5, seed=1)
    save_csv(original, path)
    monkeypatch.setattr(datasets, "_load_rows", None)  # calling it would fail
    loaded = load_csv(path)
    assert loaded.features.flags.c_contiguous and loaded.labels.flags.c_contiguous
    assert loaded.digest() == original.digest()


@pytest.mark.parametrize("label", [2**63, 2**64 - 1, -(2**63) - 1])
@pytest.mark.parametrize("loader", [load_csv, load_csv_rows])
def test_label_outside_int64_is_an_error(tmp_path, loader, label):
    path = tmp_path / "data.csv"
    path.write_text(f"f0,label\n0.5,0\n0.5,{label}\n")
    with pytest.raises(ValueError, match=rf"data\.csv:3: label {label} does not fit in int64"):
        loader(path)


@pytest.mark.parametrize("loader", [load_csv, load_csv_rows])
def test_blank_first_line_is_an_error(tmp_path, loader):
    # csv.reader gives an empty row for it: no header, so no label column
    path = tmp_path / "data.csv"
    path.write_text("\nf0,label\n0.5,0\n")
    with pytest.raises(ValueError, match=r"data\.csv: expected header ending in 'label'"):
        loader(path)
