"""Atomic write-then-rename behaviour."""
import os
import stat

import numpy as np
import pytest

from wordburst.fileio import atomic_writer, write_table


def test_successful_write_replaces_target(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old", encoding="utf-8")
    with atomic_writer(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert not os.path.exists(f"{path}.tmp")


def test_failed_write_leaves_target_untouched(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("precious", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as fh:
            fh.write("half-finished")
            raise RuntimeError("boom")
    assert path.read_text(encoding="utf-8") == "precious"
    assert not os.path.exists(f"{path}.tmp")


def test_interleaved_writers_do_not_clobber_each_other(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_writer(path) as first:
        first.write("first\n")
        with atomic_writer(path) as second:
            second.write("second\n")
        assert path.read_text(encoding="utf-8") == "second\n"
        first.write("more\n")
    assert path.read_text(encoding="utf-8") == "first\nmore\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_file_mode_is_what_open_gives(tmp_path):
    umask = os.umask(0o022)
    try:
        with atomic_writer(tmp_path / "out.csv") as fh:
            fh.write("x")
        (tmp_path / "plain.csv").write_text("x", encoding="utf-8")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode)


def test_table_formats(tmp_path):
    rows = [(10**15, 0.1, np.float64(0.1)), (np.int64(2**63 - 1), 1 / 3, np.float64(1 / 3))]
    write_table(tmp_path / "t.csv", ["a", "b", "c"], rows)
    write_table(tmp_path / "p.csv", ["a", "b", "c"], rows, plot=True)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c\r\n1000000000000000,0.1,0.1\r\n9223372036854775807,0.333333333333,0.333333333333\r\n")
    assert (tmp_path / "p.csv").read_bytes() == (
        b"# a b c\n1000000000000000 0.1 0.1\n9223372036854775807 0.333333333333 0.333333333333\n")
