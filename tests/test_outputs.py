import os
import threading

import pytest

from infrasense.outputs import new_dir, new_file


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


class TestNewDir:
    def test_success_moves_every_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a")
        (out / "kept.txt").write_text("kept")
        with new_dir(out) as tmp:
            for name in ("a.txt", "b.txt"):
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write("new " + name)
        assert {p.name: p.read_text() for p in out.iterdir()} == {
            "a.txt": "new a.txt", "b.txt": "new b.txt", "kept.txt": "kept"}

    def test_exception_keeps_the_old_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a")
        with pytest.raises(RuntimeError):
            with new_dir(out) as tmp:
                with open(os.path.join(tmp, "a.txt"), "w") as fh:
                    fh.write("partial")
                raise RuntimeError("stop")
        assert {p.name: p.read_text() for p in out.iterdir()} == {"a.txt": "old a"}

    def test_directory_namesake_fails_and_nothing_moves(self, tmp_path):
        out = tmp_path / "out"
        (out / "b.txt" / "kept").mkdir(parents=True)
        (out / "a.txt").write_text("old a")
        with pytest.raises(IsADirectoryError):
            with new_dir(out) as tmp:
                for name in ("a.txt", "b.txt"):
                    with open(os.path.join(tmp, name), "w") as fh:
                        fh.write("new " + name)
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt"]
        assert (out / "a.txt").read_text() == "old a"
        assert [p.name for p in (out / "b.txt").iterdir()] == ["kept"]
