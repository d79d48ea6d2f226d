import os
import threading

import pytest

from infrasense.outputs import new_file


def written(path, text, **kwargs):
    with new_file(path, **kwargs) as fh:
        fh.write(text)


class TestNewFile:
    def test_replaces_a_file_without_renaming_over_it(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old")
        targets = []
        real_replace = os.replace

        def replace(src, dst):
            targets.append(os.path.lexists(dst))
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        written(path, "new")
        written(path, "newer", rename_over=True)
        assert targets == [False, True]
        assert path.read_text() == "newer"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with new_file(path) as fh:
                fh.write("partial")
                raise RuntimeError("stop")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_directory_fails_and_stays(self, tmp_path):
        path = tmp_path / "out"
        (path / "kept").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            written(path, "new")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept", "out"]

    def test_pipe_is_written_as_it_is(self, tmp_path):
        # a device or a pipe is never unlinked: /dev/null must stay /dev/null
        path = tmp_path / "pipe"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_text()), daemon=True)
        reader.start()
        written(path, "through")
        reader.join(timeout=10)
        assert received == ["through"]
        assert path.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]
