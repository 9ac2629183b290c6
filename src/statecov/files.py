"""The package's JSON and small-CSV files: the model and profile field
tables, one reader, one kind check, and one writer for each format.

A table lists a file's fields in order as (path, kind) or (path, kind,
absent); the dotted path is the JSON location and the attribute path on the
object written. A field with a third entry may be null, and reads as that
entry when absent; a key no field declares is an error. check() knows every
kind the package reads, the CLI's config file included: int, float, str,
bool, a tuple of choices, [int] and [float]. int takes JSON integers only,
never true or 4.0, and float takes JSON numbers within the float range.
"""

import csv
import json
import sys
from operator import attrgetter
from typing import NamedTuple

import numpy as np


class InputError(ValueError):
    """A bad user value; the message names the field, and for data the 1-based data row."""


class FileFormatError(InputError):
    """A malformed model or profile file; the message names the file and the field."""


class Schema(NamedTuple):
    what: str  # the file's name in messages
    version: int
    fields: tuple


MODEL = Schema("model", 1, (
    ("encoder.kind", str),
    ("encoder.input_dim", int),
    ("ansatz.preset", str),
    ("ansatz.num_layers", int),
    ("ansatz.entanglement", str),
    ("num_qubits", int),
    ("num_classes", int),
    ("readout_qubits", [int]),
    ("params", [float]),
    ("train_data_digest", str, None),
))

PROFILE = Schema("profile", 1, (
    ("lower", [float]),
    ("upper", [float]),
    ("sigma", [float], None),
    ("mad_lower", [float], None),
    ("mad_upper", [float], None),
    ("provenance", str, ""),
))

_NOUNS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def write_json(path, doc) -> None:
    """doc as two-space indented JSON plus a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write(path, schema: Schema, obj) -> None:
    """format_version, then each field read off obj by its path; arrays as lists."""
    doc = {"format_version": schema.version}
    for name, kind, *_ in schema.fields:
        value = attrgetter(name)(obj)
        if isinstance(kind, list) and value is not None:
            value = np.asarray(value, dtype=kind[0]).tolist()
        *parents, last = name.split(".")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = value
    write_json(path, doc)


def write_csv(path, header, rows) -> None:
    """header, then each row, through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def check(name: str, value, kind):
    """value, a float if kind is float; ValueError naming name if value is not of kind."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        return value
    listed = isinstance(kind, list)
    if listed and type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    entry, values = (kind[0], value) if listed else (kind, [value])
    allowed = {int, float} if entry is float else {entry}
    types = set(map(type, values))  # exact types: JSON's true and false load as bool, an int
    if not types <= allowed:
        i = next(i for i, v in enumerate(values) if type(v) not in allowed)
        problem = f"must be {_NOUNS[entry]}, got {values[i]!r}"
    else:
        i = None
        if entry is float and int in types:  # JSON integers are unbounded
            i = next((i for i, v in enumerate(values) if abs(v) > sys.float_info.max), None)
        if i is None:
            return float(value) if kind is float else value
        problem = "is outside the float range"
    raise ValueError(f"{name}: entry {i} {problem}" if listed else f"{name} {problem}")


def _field(doc: dict, name: str, kind, *absent):
    """The value of field name in doc, checked against kind; ValueError names the field."""
    *parents, last = name.split(".")
    for i, key in enumerate(parents):
        doc = doc.get(key, {})
        if type(doc) is not dict:
            raise ValueError(f"{'.'.join(parents[: i + 1])} must be an object, got {doc!r}")
    if last not in doc:
        if absent:
            return absent[0]
        raise ValueError(f"missing field: {name}")
    if doc[last] is None and absent:
        return None
    return check(name, doc[last], kind)


def load(path, what: str) -> dict:
    """The JSON object in the file at path; FileFormatError names the file as what path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON or bad text encoding
        raise FileFormatError(f"{what} {path}: not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise FileFormatError(f"{what} {path}: must hold a JSON object")
    return doc


def read(path, schema: Schema, build):
    """build({path: checked value}) over the schema's fields of the file at
    path, which may hold no other key. Any ValueError, build's included, is
    raised as FileFormatError naming the file."""
    doc = load(path, schema.what)
    try:
        if _field(doc, "format_version", int) != schema.version:
            raise ValueError(f"unsupported format_version: {doc['format_version']}")
        values = {field[0]: _field(doc, *field) for field in schema.fields}
        nested = {name.split(".")[0] for name in values if "." in name}
        for key in doc:  # the fields above have checked that nested keys hold objects
            for name in [f"{key}.{sub}" for sub in doc[key]] if key in nested else [key]:
                if name not in values and name != "format_version":
                    raise ValueError(f"unknown field: {name}")
        return build(values)
    except ValueError as exc:
        raise FileFormatError(f"{schema.what} {path}: {exc}") from exc
