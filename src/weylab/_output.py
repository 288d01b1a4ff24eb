"""Deterministic file emission: atomic writes, canonical number text.

Every file goes to a temp name in the target directory first and is
renamed into place, so a crashed run never leaves a partial output.
Floats are printed with %.17g, enough to round-trip doubles, so a rerun
with identical inputs produces byte-identical bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = ["fmt_cell", "write_csv_atomic", "write_json_atomic", "write_bytes_atomic",
           "canonical_json"]


def fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def write_bytes_atomic(path, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write and return the body's content hash."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(header))
    for row in rows:
        w.writerow([fmt_cell(c) for c in row])
    data = buf.getvalue().encode("utf-8")
    write_bytes_atomic(path, data)
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def write_json_atomic(path, obj) -> str:
    data = (canonical_json(obj) + "\n").encode("utf-8")
    write_bytes_atomic(path, data)
    return hashlib.sha256(data).hexdigest()
