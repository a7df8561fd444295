"""Deterministic text serialization for result artifacts.

JSON documents are written by the standard library encoder with two-space
indentation.  It spells every float as its shortest repr, which reads back
to the same bits, and refuses NaN and infinities, so output bytes are a pure
function of the document, which is what the reproducibility checks diff
against.  ``format_float`` is the fixed %.17g spelling of the summary CSV.
"""

from __future__ import annotations

import json


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


def dumps(doc) -> str:
    """JSON text of a document of dicts/lists/strs/numbers/bools/None."""
    return json.dumps(doc, indent=2, allow_nan=False)


def write_json(path, doc) -> None:
    """Write the document, or raise before creating the file if it cannot be
    serialized."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
