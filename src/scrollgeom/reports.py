"""Report envelopes and exact JSON / CSV / text rendering.

Every report is a plain dict with the fixed key order

    command, config, versions, wall_clock_ms, result

and every scalar inside it is serialized exactly: integers stay
integers, field elements and fractions become decimal strings, the EMPTY
sentinel becomes the string "EMPTY".  Floats are rejected outright.  The
wall_clock_ms field is the only part of a report that may differ between
two runs of the same config; normalize_for_comparison blanks it so tests
and callers can compare reports byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .fields import FpElement, scalar_to_str
from .forms import BinaryForm
from .scrolls import EMPTY

PACKAGE_VERSION = "0.1.0"
REPORT_FORMAT_VERSION = 1


def exact(value):
    """Recursively convert experiment data to JSON-safe exact values."""
    return _exact(value)


def _exact(value):
    # the plain types that make up nearly every report come first, by type
    t = type(value)
    if t is str or t is int or t is bool or value is None:
        return value
    if t is dict:
        return {str(k): _exact(v) for k, v in value.items()}
    if t is list or t is tuple:
        return [_exact(v) for v in value]
    if value is EMPTY:
        return "EMPTY"
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, FpElement)):
        return scalar_to_str(value)
    if isinstance(value, float):
        raise TypeError("floating point values are banned from reports")
    if isinstance(value, str):
        return value
    if isinstance(value, BinaryForm):
        return {
            "degree": value.degree,
            "coeffs": [scalar_to_str(c) for c in value.values],
        }
    raise TypeError(f"cannot serialize {type(value).__name__} exactly")


def build_report(command: str, config: dict, result: dict) -> dict:
    """Assemble the envelope; the caller fills wall_clock_ms afterwards."""
    config, result = exact((config, result))
    return {
        "command": command,
        "config": config,
        "versions": {
            "scrollgeom": PACKAGE_VERSION,
            "report_format": REPORT_FORMAT_VERSION,
        },
        "wall_clock_ms": 0,
        "result": result,
    }


def _is_table(value) -> bool:
    if not isinstance(value, list) or not value:
        return False
    if not all(isinstance(r, dict) for r in value):
        return False
    keys = tuple(value[0].keys())
    return all(tuple(r.keys()) == keys for r in value)


def csv_projection(report: dict):
    """Tabular slice of a report: the result's rows, else its scalars.

    Commands place their per-trial (or per-stratum, per-k) table under
    result["rows"] with one fixed set of columns; reports without a rows
    table fall back to a single line of the result's scalar fields.
    """
    result = report.get("result", {})
    if not isinstance(result, dict):
        result = {}
    rows = result.get("rows")
    if _is_table(rows):
        return list(rows[0].keys()), rows
    scalars = {
        k: v
        for k, v in result.items()
        if not isinstance(v, (dict, list))
    }
    if not scalars:
        scalars = {"note": "empty result"}
    return list(scalars.keys()), [scalars]


# the scalar types exact() emits, by exact type: a table cell's text and
# the value's JSON
_CELL_TEXT = {
    str: str,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "",
}
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _cell(value) -> str:
    text = _CELL_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    # containers inside a table cell: compact deterministic JSON
    return json.dumps(value, separators=(",", ":"))


def render_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2) + "\\n", in one pass.

    Only what exact() emits renders: str keys, and str, int, bool, None,
    dict and list values; anything else raises TypeError.
    """
    out = []
    _json_value(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_value(value, newline: str, out: list):
    """Append value's JSON at the indent that newline ends with.

    Scalars inside a container are encoded in its loop, so the recursion
    runs once per container.
    """
    scalars = _JSON_SCALARS
    encode = scalars.get(type(value))
    if encode is not None:
        out.append(encode(value))
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError(f"report keys must be str, got {type(k).__name__}")
            head = sep + encode_basestring_ascii(k) + ": "
            encode = scalars.get(type(v))
            if encode is not None:
                out.append(head + encode(v))
            else:
                out.append(head)
                _json_value(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(value) is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            encode = scalars.get(type(v))
            if encode is not None:
                out.append(sep + encode(v))
            else:
                out.append(sep)
                _json_value(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} as report JSON")


def render_csv(report: dict) -> str:
    fields, rows = csv_projection(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_cell(row.get(f)) for f in fields])
    return buf.getvalue()


def _text_lines(key, value, indent: int, out: list):
    pad = "  " * indent
    label = f"{pad}{key}:" if key is not None else pad.rstrip()
    if _is_table(value):
        out.append(label)
        fields = list(value[0].keys())
        # every row of a table has the fields' keys in the fields' order
        cells = [list(map(_cell, r.values())) for r in value]
        widths = [max(len(f), *map(len, col)) for f, col in zip(fields, zip(*cells))]
        inner = "  " * (indent + 1)
        out.append(inner + "  ".join(map(str.ljust, fields, widths)))
        for row in cells:
            out.append(inner + "  ".join(map(str.ljust, row, widths)).rstrip())
        return
    if isinstance(value, dict):
        if not value:
            out.append(f"{label} {{}}")
            return
        out.append(label)
        for k, v in value.items():
            _text_lines(k, v, indent + 1, out)
        return
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append(f"{label} [{', '.join(_cell(v) for v in value)}]")
            return
        out.append(label)
        for i, v in enumerate(value):
            _text_lines(str(i), v, indent + 1, out)
        return
    out.append(f"{label} {_cell(value)}")


def render_text(report: dict) -> str:
    out = []
    for key, value in report.items():
        _text_lines(key, value, 0, out)
    return "\n".join(out) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def render_report(report: dict, fmt: str) -> str:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}") from None
    return renderer(report)


def normalize_for_comparison(text: str, fmt: str) -> str:
    """Blank the wall-clock field so two runs of one config compare equal."""
    if fmt == "json":
        doc = json.loads(text)
        if "wall_clock_ms" in doc:
            doc["wall_clock_ms"] = 0
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "text":
        lines = [ln for ln in text.splitlines() if not ln.startswith("wall_clock_ms:")]
        return "\n".join(lines) + "\n"
    return text
