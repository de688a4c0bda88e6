"""JSON wire formats.

Groupoid file:     {"name": str, "size": n, "product": [[int|-1]xn]xn,
                    "inverse": [int]xn}          (-1 marks undefined)
Action file:       {"group": <groupoid object>, "space": m,
                    "act": [[int]x|T|]xm}
Monoid export:     {"side": "S"|"S'", "elements": [[int]xn...],
                    "identity": i, "op": [[int]]}
Operator export:   {"groupoid": name, "side": "S"|"S'",
                    "operators": [{"fn": [int]xn, "matrix": [[0|1]xn]xn}...]}
Census manifest:   {"order": n, "count": k, "names": [...]}
Probe row:         {"order", "name", "principal", "intersection_size",
                    "candidate"}

Reading a groupoid or action object is a key lookup plus ``make_groupoid``
or ``make_action``, whose typing rule (a JSON integer wherever an integer is
meant, a string name, nothing coerced) refuses the rest with ``ShapeError``.

All dumps are canonical: exactly
``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` in UTF-8, so identical
inputs give identical files.  ``dump_bytes`` writes these bytes through the
standard library's C encoder, one call per list of scalars.  An integer
``np.ndarray`` with values in ``0 .. size - 1`` is written as its
``tolist()`` without building that list of ints: one gather from a table of
the decimal strings of ``0 .. max`` gives its innermost rows, and it is
joined one nesting depth at a time over the whole stack (``_nested``).  Any
other array (0-d, empty, negative, bool, float, or a value >= its size) is
written from its ``tolist()``.  A ``Rows`` value is a list of records held
column by column (record k is ``{key: column[k]}``): each column is joined
as one stack, and each record's fields are glued in one comprehension.  The
operator export is one ``Rows`` over the stack of maps and of matrices.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .census import Census, ProbeReport
from .endo import Members, MonoidTable
from .errors import ShapeError
from .groupoid import GroupAction, Groupoid, make_action, make_groupoid


_SCALARS = frozenset({str, int, float, bool, type(None)})
_encode_scalar = json.JSONEncoder().encode


@functools.lru_cache(maxsize=None)
def _flat_encoder(pad: str):
    return json.JSONEncoder(separators=(",\n" + pad, ": ")).encode


def _tokens(arr: np.ndarray, lead: int = 0):
    """The innermost rows of ``arr`` as lists of decimal strings, or None unless
    it is an integer array of more than ``lead`` axes with values in ``0 .. size - 1``."""
    if arr.dtype.kind in "iu" and arr.ndim > lead and arr.size:
        top = int(arr.max())
        if top < arr.size and arr.min() >= 0:  # the token table is no larger than arr
            return np.array([str(v) for v in range(top + 1)], dtype=object)[arr.reshape(-1, arr.shape[-1])].tolist()
    return None


def _text(obj: Any, pad: str) -> str:
    out: list = []
    _write(obj, pad, out)
    return "".join(out)


def _nested(arr: np.ndarray, pad: str, lead: int = 0) -> tuple[str, list, str]:
    """(head, texts, tail): head + texts[k] + tail is the JSON text, indented
    at ``pad``, of the k-th sub-array along the first ``lead`` axes of ``arr``.
    Token rows are joined one depth at a time over the whole stack; the
    brackets around each node of a depth are the same, so they are folded
    into the next depth's separator and into head and tail, and every text
    is one ``str.join``.  Any other array is written from its list."""
    rows = _tokens(arr, lead)
    if rows is None:
        return "", [_text(v, pad) for v in (arr.tolist() if lead else [arr.tolist()])], ""
    pads = [pad + "  " * j for j in range(arr.ndim - lead + 1)]
    texts, head, tail = list(map((",\n" + pads[-1]).join, rows)), "[\n" + pads[-1], "\n" + pads[-2] + "]"
    for j in range(arr.ndim - lead - 2, -1, -1):  # nodes at relative depth j, of shape[lead + j] children
        sep = tail + ",\n" + pads[j + 1] + head
        texts = list(map(sep.join, zip(*[iter(texts)] * arr.shape[lead + j])))
        head, tail = "[\n" + pads[j + 1] + head, tail + "\n" + pads[j] + "]"
    return head, texts, tail


def _write_items(head: str, texts: list, tail: str, pad: str, out: list):
    """Append the JSON list of the items head + texts[k] + tail, indented at
    ``pad``, as one piece per item and one per gap: no text of it all is built."""
    inner = pad + "  "
    pieces = [tail + ",\n" + inner + head] * (2 * len(texts) - 1)
    pieces[::2] = texts
    out.append("[\n" + inner + head)
    out += pieces
    out.append(tail + "\n" + pad + "]")


@dataclasses.dataclass(frozen=True)
class Rows:
    """A list of records held as columns of equal length: record k is
    ``{key: column[k] for key, column in columns.items()}``."""

    columns: dict

    def __post_init__(self):
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError("Rows columns differ in length")

    def tolist(self) -> list:
        values = zip(*(column.tolist() for column in self.columns.values()))
        return [dict(zip(self.columns, record)) for record in values]


def _write_rows(rows: Rows, pad: str, out: list):
    keys = sorted(rows.columns) if {str}.issuperset(map(type, rows.columns)) else ()
    if not keys or not len(rows.columns[keys[0]]):  # no records, or keys only json.dumps sorts
        _write(rows.tolist(), pad, out)
        return
    field, parts, glue = pad + "    ", [], "{\n"
    for key in keys:  # record k: each key's head, texts[k] and tail, glued
        head, texts, tail = _nested(rows.columns[key], field, lead=1)
        parts += (repeat(glue + field + encode_basestring_ascii(key) + ": " + head), texts)
        glue = tail + ",\n"
    _write_items("", list(map("".join, zip(*parts))), tail + "\n" + pad + "  }", pad, out)


def _write(obj: Any, pad: str, out: list):
    """Append ``json.dumps(obj, indent=2, sort_keys=True)``, indented by ``pad``, to ``out``."""
    kind, inner = type(obj), pad + "  "
    if kind in _SCALARS:
        out.append(_encode_scalar(obj))
    elif kind in (list, tuple) and obj and _SCALARS.issuperset(map(type, obj)):  # one C call
        out += ("[\n", inner, _flat_encoder(inner)(obj)[1:-1], "\n", pad, "]")
    elif kind in (list, tuple) and obj:
        for n, value in enumerate(obj):
            out += (",\n" if n else "[\n", inner)
            _write(value, inner, out)
        out += ("\n", pad, "]")
    elif kind is dict and obj and {str}.issuperset(map(type, obj)):
        for n, key in enumerate(sorted(obj)):
            out += (",\n" if n else "{\n", inner, encode_basestring_ascii(key), ": ")
            _write(obj[key], inner, out)
        out += ("\n", pad, "}")
    elif kind is np.ndarray and obj.ndim > 1 and len(obj):  # by sub-arrays of the first axis
        _write_items(*_nested(obj, inner, lead=1), pad, out)
    elif kind is np.ndarray:
        head, (text,), tail = _nested(obj, pad)
        out += (head, text, tail)
    elif kind is Rows:
        _write_rows(obj, pad, out)
    else:  # empty containers, non-str keys, subclasses, unserializable values
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad))


def dump_bytes(obj: Any) -> bytes:
    out: list = []
    _write(obj, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def write_json(path, obj: Any):
    with open(path, "wb") as fh:
        fh.write(dump_bytes(obj))


def _load(path) -> Any:
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    # ValueError: bad UTF-8, bad JSON or an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ShapeError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# groupoids


def groupoid_to_dict(g: Groupoid) -> dict:
    return {
        "name": g.name,
        "size": g.size,
        "product": [list(row) for row in g.product],
        "inverse": list(g.inverse),
    }


def groupoid_from_dict(obj: Any) -> Groupoid:
    if not isinstance(obj, dict):
        raise ShapeError("groupoid object must be a JSON object")
    try:
        fields = obj["size"], obj["product"], obj["inverse"], obj.get("name", "")
    except KeyError as exc:
        raise ShapeError(f"malformed groupoid object: {exc!r}") from None
    return make_groupoid(*fields)


def load_groupoid(path) -> Groupoid:
    return groupoid_from_dict(_load(path))


def save_groupoid(path, g: Groupoid):
    write_json(path, groupoid_to_dict(g))


# ---------------------------------------------------------------------------
# actions


def action_to_dict(a: GroupAction) -> dict:
    return {
        "group": groupoid_to_dict(a.group),
        "space": a.space,
        "act": [list(row) for row in a.act],
    }


def action_from_dict(obj: Any) -> GroupAction:
    if not isinstance(obj, dict):
        raise ShapeError("action object must be a JSON object")
    try:
        group, space, act = obj["group"], obj["space"], obj["act"]
    except KeyError as exc:
        raise ShapeError(f"malformed action object: {exc!r}") from None
    return make_action(groupoid_from_dict(group), space, act)


def load_action(path) -> GroupAction:
    return action_from_dict(_load(path))


def save_action(path, a: GroupAction):
    write_json(path, action_to_dict(a))


# ---------------------------------------------------------------------------
# monoids, operators


def monoid_to_dict(t: MonoidTable) -> dict:
    return {
        "side": t.side,
        "elements": t.maps,
        "identity": t.identity,
        "op": t.op,
    }


def rep_to_dict(t: Members) -> dict:
    """Every member's map and operator matrix, as two stacks gathered at once."""
    g = t.groupoid
    matrices = np.eye(g.size, dtype=np.int8)[t.trans]  # row x has its 1 in column tau(x)
    return {"groupoid": g.name, "side": t.side,
            "operators": Rows({"fn": t.maps, "matrix": matrices})}


# ---------------------------------------------------------------------------
# census and probe


def census_manifest(c: Census) -> dict:
    return {
        "order": c.order,
        "count": c.count,
        "names": [g.name for g in c.representatives],
    }


def probe_to_dict(report: ProbeReport) -> dict:
    return {
        "max_order": report.max_order,
        "forward_holds": report.forward_holds,
        "candidates": list(report.candidates),
        "rows": [dataclasses.asdict(row) for row in report.rows],
    }
