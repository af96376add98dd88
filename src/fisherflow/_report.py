"""Report text: the one JSON emitter that writes every command's report.

``_report_text`` gives the bytes of ``json.dumps(report, indent=2,
sort_keys=True, allow_nan=False)`` plus a final newline, in one walk that
converts numpy values and tuple keys as it goes. A list of records
of a few shapes, such as ``scan.json``'s violations, can be handed to it
as :class:`_Records`, which it writes by one template per shape.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import NumericalAccuracyError


def _report_key(key) -> str:
    if isinstance(key, tuple):
        return "<-".join(map(str, map(int, key)))
    return str(key)


class _Column:
    """Placeholder leaf of a record template: the record's value in column ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _Records:
    """A list of records of a few shapes, which :func:`_json_text` writes by one template per shape.

    ``shapes[s]`` is a record whose leaves are :class:`_Column` placeholders.
    Record ``r`` is ``shapes[kinds[r]]`` with column ``c`` holding
    ``values[starts[r] + c]``.
    """

    __slots__ = ("shapes", "kinds", "starts", "values")

    def __init__(self, shapes: list, kinds: np.ndarray, starts: np.ndarray, values: np.ndarray):
        self.shapes = shapes
        self.kinds = kinds
        self.starts = starts
        self.values = values


def _filled(shape, row: list):
    """The record ``shape`` with each :class:`_Column` replaced by its value in ``row``."""
    if isinstance(shape, _Column):
        return row[shape.index]
    if isinstance(shape, dict):
        return {key: _filled(item, row) for key, item in shape.items()}
    return shape


class _NonFinite(ValueError):
    """A float that JSON cannot hold; ``path`` locates it in the value being encoded."""

    path = ""


def _json_text(value, pad: str) -> str:
    """JSON text of a report value whose first line starts at indentation ``pad``.

    The bytes are those of ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` once ndarrays and numpy scalars are turned
    into plain values and keys into strings (``(i, j)`` as ``"i<-j"``). The
    walk visits the entries of a dict in insertion order and sorts only the
    finished texts, so a non-finite float is reported at the first place
    it occurs in insertion order. Finite floats, the bulk of a report, are
    formatted in the loops instead of by a call each. :class:`_Records`
    are written as the list of their records (see :func:`_records_text`).
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise _NonFinite()
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        pairs = []
        keyed = {k if type(k) is str else _report_key(k): v for k, v in value.items()}
        for key, item in keyed.items():
            if type(item) is float and math.isfinite(item):
                pairs.append((key, float.__repr__(item)))
                continue
            try:
                pairs.append((key, _json_text(item, inner)))
            except _NonFinite as exc:
                exc.path = f".{key}{exc.path}"
                raise
        pairs.sort()
        body = ("," + inner).join([f"{encode_basestring_ascii(k)}: {text}" for k, text in pairs])
        return "{" + inner + body + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        texts = []
        for item in value:
            if type(item) is float and math.isfinite(item):
                texts.append(float.__repr__(item))
                continue
            try:
                texts.append(_json_text(item, inner))
            except _NonFinite as exc:
                exc.path = f"[{len(texts)}]{exc.path}"
                raise
        return "[" + inner + ("," + inner).join(texts) + pad + "]"
    if isinstance(value, _Records):
        return _records_text(value, pad)
    if isinstance(value, _Column):
        return f"\0{value.index}\0"
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist(), pad)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _json_text(value.item(), pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _records_text(records: _Records, pad: str) -> str:
    """JSON text of the list of ``records`` whose first line starts at indentation ``pad``.

    Each shape is written once by :func:`_json_text`, at the records'
    indentation, and the markers its placeholders leave become ``%r``
    fields, so key order, indentation and layout come from the one
    emitter. Every record is then its shape's template, and all of them
    are filled by one ``%`` with the values in the order their fields
    appear (``%r`` of a float is ``float.__repr__``). A non-finite value
    has no text: the first record holding one is walked with its values in
    place, which names the path of its first non-finite value.
    """
    kinds, starts, values = records.kinds, records.starts, records.values
    if not kinds.size:
        return "[]"
    inner = pad + "  "
    widths = np.diff(starts, append=values.size)
    if not np.isfinite(values).all():
        r = int(np.searchsorted(starts, np.flatnonzero(~np.isfinite(values))[0], side="right")) - 1
        row = values[starts[r] : starts[r] + widths[r]].tolist()
        try:
            _json_text(_filled(records.shapes[kinds[r]], row), inner)
        except _NonFinite as exc:
            exc.path = f"[{r}]{exc.path}"
            raise
    templates = []
    order = np.zeros((len(records.shapes), widths.max()), dtype=np.intp)
    for s, shape in enumerate(records.shapes):
        pieces = _json_text(shape, inner).split("\0")
        templates.append("%r".join([text.replace("%", "%%") for text in pieces[0::2]]))
        order[s, : len(pieces) // 2] = [int(c) for c in pieces[1::2]]
    # field f of record r holds the value of column order[kinds[r], f]
    record = np.repeat(np.arange(kinds.size), widths)
    first = starts[record]
    fields = values[first + order[kinds[record], np.arange(values.size) - first]]
    body = ("," + inner).join([templates[s] for s in kinds.tolist()])
    return "[" + inner + body % tuple(fields.tolist()) + pad + "]"


def _report_text(report: dict) -> str:
    """The report file's text: indented JSON with sorted keys and a final newline.

    Any NaN or infinity raises :class:`NumericalAccuracyError` naming its path.
    """
    try:
        return _json_text(report, "\n") + "\n"
    except _NonFinite as exc:
        raise NumericalAccuracyError(f"non-finite value at {exc.path[1:]}") from None
