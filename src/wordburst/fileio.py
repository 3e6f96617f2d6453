"""Atomic text-file writing and the output table and JSON formats shared by every emitter."""
from __future__ import annotations

import contextlib
import csv
import json
import os
import tempfile


@contextlib.contextmanager
def atomic_writer(path, newline="\n"):
    """Write to ``path`` via a temp file and rename, so readers never see
    a half-written file and a failed write leaves nothing behind.

    Each writer gets its own temp file next to the target, so concurrent
    writers to one path cannot clobber each other's data.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600; match open()
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_table(path, header, rows, plot=False) -> None:
    """Write ``rows`` under column names ``header``: CSV in the ``csv`` module's
    default dialect (CRLF line ends) or, with ``plot``, space separated under a
    ``# `` header line.  Floats are written as ``%.12g``, integers exactly."""
    import numpy as np  # loaded by the time a table is written; importing it here keeps it out of start-up
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh, delimiter=" ", lineterminator="\n") if plot else csv.writer(fh)
        writer.writerow(["#", *header] if plot else header)
        for row in rows:
            writer.writerow([str(v) if isinstance(v, (int, np.integer)) else f"{v:.12g}" for v in row])


def write_json(path, document) -> None:
    """Write ``document`` as JSON: two-space indent, sorted keys, final newline."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
