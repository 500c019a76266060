"""The record codec of the package's JSON files.

A scene/1, sweep-report/1 or materials/1 file, and each line of an
mpc-dataset/1 file, is a dataclass record tree with each record's fields
in declaration order, so the dataclasses are its only schema. A malformed
file raises ValueError naming the JSON path of the offending value, such
as ``windows[3].z_lo`` or ``materials.concrete.a``. Each file is parsed with
``_unique_keys`` as its ``object_pairs_hook``, so a repeated key is refused
too, naming the path of its object (``materials.air: repeated key 'a'``).

Each numeric field declares its ``Range`` in its annotation, and
``_check_ranges``, run first by each record's ``__post_init__``, refuses a
value outside it, or a non-integer in an ``int`` field; ``_decode`` puts
the JSON path of a nested record in front of a ValueError of its
constructor. ``_check_range`` is that one check, for function arguments
too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum, EnumMeta
from types import UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import numpy as np

# The JSON types a leaf of each annotated type accepts (a JSON boolean is a
# Python int, so numeric leaves reject it separately).
_LEAF_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               str: (str, "a string"), bool: (bool, "a boolean")}

# ({key: (type hint, required)}, {field: (Range, item depth, integer,
# levels that may be None)}) per record class or closed-key dict type,
# read in one walk of its hints on first use; not functools.cache, whose
# __wrapped__ reads as a leftover tracer wrapper.
_RECORDS: dict = {}


@dataclass(frozen=True)
class Range:
    """The values [lo, hi] that a numeric field may take, an end left out
    when open. An infinite end is open and NaN lies in no range, so
    ``Range()`` holds exactly the finite numbers."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "open_lo", self.open_lo or self.lo == -math.inf)
        object.__setattr__(self, "open_hi", self.open_hi or self.hi == math.inf)

    def holds(self, value):
        """Whether ``value`` lies in the range, entry by entry for an array."""
        return ((self.lo < value if self.open_lo else self.lo <= value)
                & (value < self.hi if self.open_hi else value <= self.hi))

    __contains__ = holds

    def __str__(self) -> str:
        return f"{'(['[not self.open_lo]}{self.lo:g}, {self.hi:g}{')]'[not self.open_hi]}"


# Ranges that fields of several records and function arguments share.
FINITE, POSITIVE, NON_NEGATIVE, AT_LEAST_ONE = Range(), Range(0, open_lo=True), Range(0), Range(1)
Finite = Annotated[float, FINITE]
Positive = Annotated[float, POSITIVE]
NonNegative = Annotated[float, NON_NEGATIVE]
Count = Annotated[int, NON_NEGATIVE]
AtLeastOne = Annotated[int, AT_LEAST_ONE]


def _plain(hint):
    """``hint`` without the ``Annotated`` ranges in it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType, tuple, dict, list):
        return (Union if origin is UnionType else origin)[tuple(map(_plain, args))]
    return args[0] if origin is Annotated else hint


def _record(hint, ranges: bool = False) -> dict:
    """{key: (type hint, required)} of a record class, or of a dict type whose
    keys, every one required, name an enum's members or a Literal's strings.
    With ``ranges``: {field: (Range, depth, integer, nullable)} of each field
    whose type (``X | None``: X), or whose items ``depth`` tuple or dict
    levels down, declare a range, ``integer`` when that type is ``int``;
    ``nullable`` holds the levels (0 for the field) whose type is
    ``X | None``."""
    memo = _RECORDS.get(hint)
    if memo is None:
        rec, declared = {}, {}
        if is_dataclass(hint):
            hints = get_type_hints(hint, include_extras=True)
            for f in fields(hint):
                leaf, depth, nullable = hints[f.name], 0, set()
                rec[f.name] = (_plain(leaf), f.default is MISSING and f.default_factory is MISSING)
                while (origin := get_origin(leaf)) in (Union, UnionType, tuple, dict):
                    if origin in (tuple, dict):
                        depth += 1
                    else:
                        nullable.add(depth)
                    leaf = get_args(leaf)[1 if origin is dict else 0]
                if origin is Annotated:
                    declared[f.name] = (leaf.__metadata__[0], depth, leaf.__origin__ is int,
                                        frozenset(nullable))
        else:
            keys, value = get_args(hint)
            names = [k.name for k in keys] if isinstance(keys, EnumMeta) else get_args(keys)
            rec = {name: (value, True) for name in names}
        memo = _RECORDS[hint] = rec, declared
    return memo[ranges]


def declared_ranges(cls) -> dict:
    """{field: (Range, depth, integer, nullable)} of the record class ``cls``
    (see ``_record``)."""
    return _record(cls, ranges=True)


def _items(value) -> list:
    """The (path, item) of each item of a tuple or dict, an enum key by name."""
    if isinstance(value, dict):
        return [(f".{getattr(k, 'name', k)}", v) for k, v in value.items()]
    return [(f"[{i}]", v) for i, v in enumerate(value)]


def _check_range(name: str, value, rng: Range, where=None, integer: bool = False):
    """``value`` when it lies in ``rng``, else ValueError ``{name} must lie
    in {rng}, got {value!r}`` (None lies in no range); with ``integer`` it
    must be a Python or NumPy integer (a bool is not) too. Given ``where``,
    ``value`` is an array, checked where ``where`` holds, that fails (with
    a dimension) as ``{name} must lie in {rng}; row {i} is not``, naming
    its first bad row."""
    if where is not None:
        bad = ~rng.holds(value) & where
        if not np.count_nonzero(bad):
            return value
        if value.ndim:
            row = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
            raise ValueError(f"{name} must lie in {rng}; row {row} is not")
        value = value.item()  # a number, as np.asarray gives it
    elif integer and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    elif value is not None and value in rng:
        return value
    raise ValueError(f"{name} must lie in {rng}, got {value!r}")


def _check_ranges(record) -> None:
    """Raise ValueError naming the record's class, the field and the item
    of the first value outside its declared range, or not an integer in an
    ``int`` field; None passes only where the type is ``X | None``."""
    for name, (rng, depth, integer, nullable) in _record(type(record), ranges=True).items():
        value = getattr(record, name)
        if not depth and (0 in nullable if value is None
                          else (not integer or type(value) is int) and value in rng):
            continue  # the common case, fast
        values = [(f"{type(record).__name__}.{name}", value)]
        for level in range(depth + 1):
            values = [(path, value) for path, value in values
                      if value is not None or level not in nullable]
            for path, value in values:
                if value is None or level == depth:
                    _check_range(path, value, rng, integer=integer)
            if level < depth:
                values = [(path + key, item) for path, value in values
                          for key, item in _items(value)]


def _named(where: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ValueError gets ``where`` in front."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class _Repeated(dict):
    """A JSON object that names ``key`` more than once; ``_object`` refuses
    it, naming its path."""

    key: str


def _unique_keys(pairs: list) -> dict:
    """The JSON object of the (key, value) ``pairs`` that ``json.load``
    parsed, as its ``object_pairs_hook``; a key given twice, which ``json``
    would keep the last value of, gives a ``_Repeated`` holding it."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        doc = _Repeated(doc)
        doc.key = next(k for k in keys if keys.count(k) > 1)
    return doc


def _object(doc, where: str) -> dict:
    """``doc`` when it is a JSON object that names each key once, else
    ValueError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    if type(doc) is _Repeated:
        raise ValueError(f"{where}: repeated key {doc.key!r}")
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
    name (``where`` + "." unless given, and then a ValueError of the
    record's constructor gets ``where`` in front); a leaf of the right JSON
    type, unchanged; None or the value of ``X`` for ``X | None``; a dict of any
    string keys for ``dict[str, V]``, or with every key of its enum or
    Literal key type, matched by name; an array of floats from a list of
    numbers; a list; or a tuple from a list (of the tuple's length when it
    is fixed). Anything else, and a non-finite number, raises ValueError
    naming the path."""
    if type(doc) is hint:  # a leaf of its own type, the common case
        if hint is float and not math.isfinite(doc):
            raise ValueError(f"{where}: expected a finite number, got {doc}")
        return doc
    if type(doc) is _Repeated:  # refused where a leaf or a list belongs too
        _object(doc, where)
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
        at = f"{where}." if prefix is None else prefix
        values = {name: _decode(h, doc[name], at + name)
                  for name, (h, _) in _record(hint).items() if name in doc}
        return hint(**values) if prefix is not None else _named(where, hint, **values)
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType or origin is Union:  # X | None
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
