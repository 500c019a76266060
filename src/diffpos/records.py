"""The record codec of the package's JSON files.

A scene/1, sweep-report/1 or materials/1 file, and each line of an
mpc-dataset/1 file, is a dataclass record tree with each record's fields
in declaration order, so the dataclasses are its only schema. A malformed
file raises ValueError naming the JSON path of the offending value, such
as ``windows[3].z_lo`` or ``materials.concrete.a``. Each file is parsed with
``_unique_keys`` as its ``object_pairs_hook``, so a repeated key is refused
too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum, EnumMeta
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

# The JSON types a leaf of each annotated type accepts (a JSON boolean is a
# Python int, so numeric leaves reject it separately).
_LEAF_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               str: (str, "a string"), bool: (bool, "a boolean")}

# {key: (type hint, required)} per record class or closed-key dict type,
# filled on first use; not functools.cache, whose __wrapped__ reads as a
# leftover tracer wrapper.
_RECORDS: dict = {}


def _record(hint) -> dict:
    """{key: (type hint, required)} of a record class, or of a dict type
    whose keys are the member names of an enum or the strings of a Literal,
    every one required."""
    rec = _RECORDS.get(hint)
    if rec is None:
        if is_dataclass(hint):
            hints = get_type_hints(hint)
            rec = {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                   for f in fields(hint)}
        else:
            keys, value = get_args(hint)
            names = [k.name for k in keys] if isinstance(keys, EnumMeta) else get_args(keys)
            rec = {name: (value, True) for name in names}
        _RECORDS[hint] = rec
    return rec


def _unique_keys(pairs: list) -> dict:
    """The JSON object of the (key, value) ``pairs`` that ``json.load``
    parsed, as its ``object_pairs_hook``; a key given twice raises
    ValueError naming it, where ``json`` would keep the last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def _object(doc, where: str) -> dict:
    """``doc`` when it is a JSON object, else ValueError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    return doc


def _checked(hint, doc, where: str) -> dict:
    """The JSON object ``doc`` of a ``hint`` record, after checking its keys.

    An unknown or missing key raises ValueError naming the record and the key.
    """
    rec = _record(hint)
    for key in _object(doc, where):
        if key not in rec:
            raise ValueError(f"{where}: unexpected key {key!r}")
    for name, (_, required) in rec.items():
        if required and name not in doc:
            raise ValueError(f"{where}: missing key {name!r}")
    return doc


def _encode(value):
    """The JSON value of a leaf (a NumPy scalar as its Python value), None,
    a tuple or list, an array, a dict (an enum key by its name) or a
    record, which leaves out an optional field whose value is None."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k.name if isinstance(k, Enum) else k: _encode(v) for k, v in value.items()}
    return {name: _encode(v) for name, (_, required) in _record(type(value)).items()
            if (v := getattr(value, name)) is not None or required}


def _decode(hint, doc, where: str, prefix: str | None = None):
    """The value of type ``hint`` that the JSON value ``doc`` at path
    ``where`` holds: a checked record, whose fields are at ``prefix`` +
    name (``where`` + "." unless given); a leaf of the right JSON type,
    unchanged; None or the value of ``X`` for ``X | None``; a dict of any
    string keys for ``dict[str, V]``, or with every key of its enum or
    Literal key type, matched by name; an array of floats from a list of
    numbers; a list; or a tuple from a list (of the tuple's length when it
    is fixed). Anything else, and a non-finite number, raises ValueError
    naming the path."""
    if type(doc) is hint:  # a leaf of its own type, the common case
        if hint is float and not math.isfinite(doc):
            raise ValueError(f"{where}: expected a finite number, got {doc}")
        return doc
    if hint in _LEAF_TYPES:
        types, expected = _LEAF_TYPES[hint]
        if not isinstance(doc, types) or (isinstance(doc, bool) and hint is not bool):
            raise ValueError(f"{where}: expected {expected}, got {type(doc).__name__}")
        if hint is float and abs(doc) > sys.float_info.max:  # an int, compared exactly
            raise ValueError(f"{where}: expected a finite number, got an integer too large "
                             "for a float")
        return doc
    if is_dataclass(hint):
        doc = _checked(hint, doc, where)
        prefix = f"{where}." if prefix is None else prefix
        return hint(**{name: _decode(h, doc[name], prefix + name)
                       for name, (h, _) in _record(hint).items() if name in doc})
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return None if doc is None else _decode(args[0], doc, where)
    if origin is dict and args[0] is str:
        return {k: _decode(args[1], v, f"{where}.{k}") for k, v in _object(doc, where).items()}
    if origin is dict:
        doc = _checked(hint, doc, where)
        key = args[0].__getitem__ if isinstance(args[0], EnumMeta) else str
        return {key(k): _decode(args[1], doc[k], f"{where}.{k}") for k in _record(hint)}
    if hint is np.ndarray:
        # One pass; item by item only to name the first bad item, and for
        # integers, which may be too large for a float.
        if type(doc) is list and set(map(type, doc)) <= {float}:
            array = np.array(doc, dtype=float)
            if np.isfinite(array).all():
                return array
        return np.array(_decode(list[float], doc, where), dtype=float)
    if not isinstance(doc, list):
        raise ValueError(f"{where}: expected a list, got {type(doc).__name__}")
    if origin is list:
        return [_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(doc)]
    if args[-1] is Ellipsis:
        args = args[:1] * len(doc)
    elif len(doc) != len(args):
        raise ValueError(f"{where}: expected {len(args)} items, got {len(doc)}")
    return tuple(_decode(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(args, doc)))


def _from_dict(cls, doc, schema: str, name: str):
    """The ``cls`` record that the JSON object ``doc`` of schema ``schema``
    holds; a malformed one raises ValueError naming the path of the
    offending value, or ``name`` for the top record."""
    if _object(doc, name).get("schema") != schema:
        raise ValueError(f"unsupported {name} schema {doc.get('schema')!r}")
    return _decode(cls, {k: v for k, v in doc.items() if k != "schema"}, name, "")
