"""Atomic write-then-rename behaviour."""
import os
import stat

import pytest

from wordburst.fileio import atomic_writer


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
