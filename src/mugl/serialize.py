"""Deterministic text serialization for result artifacts.

Every float we write goes through %.17g, which is enough digits for an
exact binary round-trip, and the JSON emitter below is a tiny recursive
writer so the byte output is fully under our control (the stdlib encoder
picks shortest-round-trip digits, which is lossless but not the fixed
17-significant-digit contract the file formats promise).  Output bytes are
a pure function of the document, which is what the reproducibility checks
diff against.
"""

from __future__ import annotations

import json
import math

import numpy as np

INDENT = "  "


def format_float(x: float) -> str:
    """%.17g with a guaranteed decimal point or exponent, so the token reads
    back as a float."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def dumps(doc, indent: int = 0) -> str:
    """JSON text of a document of dicts/lists/strs/numbers/bools/None."""
    if isinstance(doc, np.ndarray):
        doc = doc.tolist()
    elif isinstance(doc, np.bool_):
        doc = bool(doc)
    elif isinstance(doc, np.integer):
        doc = int(doc)
    elif isinstance(doc, np.floating):
        doc = float(doc)
    pad = INDENT * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            f"{pad}{INDENT}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
            for k, v in doc.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [f"{pad}{INDENT}{dumps(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, float):
        return format_float(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def write_json(path, doc) -> None:
    """Write the document, or raise before creating the file if it cannot be
    serialized."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
