"""Deterministic text serialization for result artifacts.

Every float we write goes through %.17g, which is enough digits for an
exact binary round-trip, and the JSON emitter below is a tiny recursive
writer so the byte output is fully under our control (the stdlib encoder
picks shortest-round-trip digits, which is lossless but not the fixed
17-significant-digit contract the file formats promise).  Output bytes are
a pure function of the document, which is what the reproducibility checks
diff against.

The writer renders each container by one join over its rendered members.
It dispatches on the exact type of each value first (float, str, int,
dict, list, tuple, bool, None), and only a value of another type goes
through the isinstance tests: numpy scalars and arrays, then subclasses of
the built-in types.  Strings are quoted by the C encoder behind
json.dumps(str), so they read exactly as json.dumps writes them.
"""

from __future__ import annotations

import json

import numpy as np

INDENT = "  "

# json.dumps(text) for a str text, without the encoder object around it
_quote = json.encoder.encode_basestring_ascii


def format_float(x: float) -> str:
    """%.17g with a guaranteed decimal point or exponent, so the token reads
    back as a float."""
    text = "%.17g" % x
    if "." in text or "e" in text:
        return text
    # only inf, -inf and nan print with an "n"
    if "n" in text:
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return text + ".0"


def dumps(doc, indent: int = 0) -> str:
    """JSON text of a document of dicts/lists/strs/numbers/bools/None."""
    return _dump(doc, INDENT * indent)


def _dump(doc, pad: str) -> str:
    kind = type(doc)
    if kind is float:
        return format_float(doc)
    if kind is str:
        return _quote(doc)
    if kind is int:
        return str(doc)
    if kind is dict:
        return _dump_dict(doc, pad)
    if kind is list or kind is tuple:
        return _dump_list(doc, pad)
    if kind is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    return _dump_other(doc, pad)


def _dump_dict(doc, pad: str) -> str:
    if not doc:
        return "{}"
    inner = pad + INDENT
    items = (",\n" + inner).join([
        f"{_quote(k if type(k) is str else str(k))}: {_dump(v, inner)}" for k, v in doc.items()
    ])
    return f"{{\n{inner}{items}\n{pad}}}"


def _dump_list(doc, pad: str) -> str:
    if not doc:
        return "[]"
    inner = pad + INDENT
    items = (",\n" + inner).join([_dump(v, inner) for v in doc])
    return f"[\n{inner}{items}\n{pad}]"


def _dump_other(doc, pad: str) -> str:
    """Values whose exact type is not a JSON type: numpy scalars and arrays
    first, then subclasses of dict, list, tuple, float, int and str."""
    if isinstance(doc, np.ndarray):
        return _dump(doc.tolist(), pad)
    if isinstance(doc, np.bool_):
        return "true" if doc else "false"
    if isinstance(doc, np.integer):
        return str(int(doc))
    if isinstance(doc, np.floating):
        return format_float(float(doc))
    if isinstance(doc, dict):
        return _dump_dict(doc, pad)
    if isinstance(doc, (list, tuple)):
        return _dump_list(doc, pad)
    if isinstance(doc, float):
        return format_float(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, str):
        return _quote(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def write_json(path, doc) -> None:
    """Write the document, or raise before creating the file if it cannot be
    serialized."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
