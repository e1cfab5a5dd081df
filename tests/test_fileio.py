from __future__ import annotations

import pytest

from vodprefetch.fileio import atomic_write


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "x.csv"
    atomic_write(target, "old\n")
    atomic_write(str(target), "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_failed_write_leaves_no_temp_file_and_keeps_target(tmp_path):
    target = tmp_path / "x.csv"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(target, "a\ud800")  # a lone surrogate cannot be encoded as UTF-8
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    assert target.read_text(encoding="utf-8") == "old\n"


def test_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(OSError):
        atomic_write(target, "text")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []
