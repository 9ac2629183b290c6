"""The model and profile file layouts, pinned by golden files, and the one
reader's field checks."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from statecov.coverage import StateProfile
from statecov.files import FileFormatError, InputError
from statecov.qnn import AnsatzSpec, EncoderSpec, build_model, load_model, save_model

DATA = Path(__file__).resolve().parent / "data"


def _golden_model():
    model = build_model(
        EncoderSpec("angle", 3), AnsatzSpec("entangling", 1, "cyclic"), 3, 2, seed=5
    )
    model = replace(model, readout_qubits=(2, 0), train_data_digest="0123456789abcdef")
    return model


def _golden_profile():
    return StateProfile(
        lower=[0.0, 0.1, 1 / 3, 1e-300],
        upper=[0.25, 0.5, 2 / 3, 1.0],
        sigma=[0.0, 0.05, 1e-17, 0.3],
        mad_lower=[0.0, 0.2, 0.4, 0.5],
        mad_upper=[0.125, 0.3, 0.6, 1.0],
        provenance="golden é",
    )


PROFILE_ARRAYS = ("lower", "upper", "sigma", "mad_lower", "mad_upper")


class TestGoldenFiles:
    """tests/data holds files written by the writers before the field tables
    existed; the layout must not drift from them."""

    def test_model_written_byte_for_byte(self, tmp_path):
        save_model(_golden_model(), tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (DATA / "model_v1.json").read_bytes()

    def test_profile_written_byte_for_byte(self, tmp_path):
        _golden_profile().to_json(tmp_path / "profile.json")
        assert (tmp_path / "profile.json").read_bytes() == (DATA / "profile_v1.json").read_bytes()

    def test_model_loads_to_equal_object(self):
        want, got = _golden_model(), load_model(DATA / "model_v1.json")
        assert got.params.tobytes() == want.params.tobytes()
        for field in ("encoder", "ansatz", "num_qubits", "circuit", "readout_qubits",
                      "num_classes", "train_data_digest"):
            assert getattr(got, field) == getattr(want, field)

    def test_profile_loads_to_equal_object(self):
        want, got = _golden_profile(), StateProfile.from_json(DATA / "profile_v1.json")
        for name in PROFILE_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.provenance == want.provenance


class TestReader:
    def _written(self, tmp_path, source, edit):
        doc = json.loads((DATA / source).read_text())
        edit(doc)
        path = tmp_path / source
        path.write_text(json.dumps(doc))
        return path

    def test_one_error_type_names_the_file(self, tmp_path):
        assert issubclass(FileFormatError, InputError) and issubclass(InputError, ValueError)
        path = self._written(tmp_path, "profile_v1.json", lambda doc: doc.pop("upper"))
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'profile {path}: missing field: upper')}$"):
            StateProfile.from_json(path)

    def test_optional_fields_may_be_null_or_absent(self, tmp_path):
        def drop(doc):
            for name in ("sigma", "mad_lower", "mad_upper"):
                doc[name] = None
            del doc["provenance"]

        prof = StateProfile.from_json(self._written(tmp_path, "profile_v1.json", drop))
        assert prof.sigma is None and prof.mad_lower is None and prof.mad_upper is None
        assert prof.provenance == ""
        model = load_model(
            self._written(tmp_path, "model_v1.json", lambda doc: doc.pop("train_data_digest"))
        )
        assert model.train_data_digest is None

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(encoder=5), "encoder must be an object, got 5"),
            (lambda doc: doc["ansatz"].pop("preset"), "missing field: ansatz.preset"),
            (lambda doc: doc.update(format_version=2), "unsupported format_version: 2"),
            (lambda doc: doc.update(params=None), "params must be a list, got None"),
            (lambda doc: doc["encoder"].update(kind="dense"), "unknown encoder kind 'dense'"),
        ],
        ids=["parent-not-object", "nested-missing", "version", "null-required", "invariant"],
    )
    def test_bad_model_field_named(self, tmp_path, edit, message):
        path = self._written(tmp_path, "model_v1.json", edit)
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'model {path}: {message}')}$"):
            load_model(path)

    def test_num_qubits_above_the_limit_refused(self, tmp_path):
        # a consistent angle model, so that only the width is at fault; at 30
        # qubits any stage would ask for 16 GiB a row, so none is run
        def widen(q):
            def edit(doc):
                doc.update(num_qubits=q, params=[0.5] * (3 * q))
                doc["encoder"]["input_dim"] = q
            return edit

        assert load_model(self._written(tmp_path, "model_v1.json", widen(20))).num_qubits == 20
        path = self._written(tmp_path, "model_v1.json", widen(30))
        message = f"model {path}: num_qubits 30 is above MAX_QUBITS = 20"
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_sizes_refused_before_the_circuit_is_built(self, tmp_path, monkeypatch):
        # 10^5 layers of 3 qubits, or 1000 fully entangled qubits (about 500 000
        # gates), took seconds to build before their sizes were checked
        from statecov import qnn

        built = []

        def record(*args):
            built.append(args)
            raise AssertionError("the circuit was built")

        def widen(doc):
            doc.update(num_qubits=1000)
            doc["ansatz"]["entanglement"] = "full"

        monkeypatch.setattr(qnn, "build_ansatz_circuit", record)
        for edit, message in [
            (lambda doc: doc["ansatz"].update(num_layers=10**5), "params: expected 900000 values, got 9"),
            (widen, "num_qubits 1000 is above MAX_QUBITS = 20"),
        ]:
            path = self._written(tmp_path, "model_v1.json", edit)
            with pytest.raises(FileFormatError, match=f"^{re.escape(f'model {path}: {message}')}$"):
                load_model(path)
        assert built == []

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("[0.5]")
        with pytest.raises(FileFormatError, match="must hold a JSON object"):
            StateProfile.from_json(path)

    def test_bounds_stay_float64(self, tmp_path):
        path = self._written(tmp_path, "profile_v1.json", lambda doc: doc.update(upper=[1, 1, 1, 1]))
        assert StateProfile.from_json(path).upper.dtype == np.float64
