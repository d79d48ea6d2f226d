"""How a command puts a file it writes in place.

An output is written to a temporary file beside its target (`new_file`),
or with the other outputs of its command into a temporary directory inside
their directory (`new_dir`); then the old target, if there is one, is
unlinked and the temporary file renamed to the target. So a write that
fails part-way leaves the old file as it was, and a new output never
replaces an old one by a rename over it or by truncating it: on ext4 both
make the call wait until the new data is on disk (``auto_da_alloc``),
which on a slow disk costs more than the run's computation. Unlinking an old file is quick while its data is still in
the page cache, as it is when a run is repeated within the kernel's
writeback delay; once the data is on disk, the unlink can wait as long.
Outputs get no ``fsync``, so a power loss soon after a run may leave an
empty output, as a first run into a new path always could.

Only a regular file or a symlink at the target is unlinked. A device or a
pipe (``--out /dev/null``) is written to as it is, and a directory fails.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import stat
import tempfile


def replaceable(path) -> bool:
    """True when nothing is at `path`, or a regular file or a symlink, which
    unlinking removes and nothing else."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return True
    return stat.S_ISREG(mode) or stat.S_ISLNK(mode)


def put_in_place(src, dst) -> None:
    """Move the file `src` to `dst`, unlinking an old `dst` first."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(dst)
    os.replace(src, dst)


@contextlib.contextmanager
def new_file(path, newline=None, *, binary=False, rename_over=False):
    """A text file (with `binary`, a binary one) open for writing that takes
    the place of `path` once the block ends without an exception; otherwise
    `path` is left as it was and the temporary file removed.

    With `rename_over`, the temporary file is renamed over the old one
    instead of unlinking it first. ext4 then writes the new data before the
    rename commits, so a crash leaves the old file or the new one, never an
    empty one; that is worth its wait only for a file that cannot be
    rebuilt.
    """
    mode = "wb" if binary else "w"
    if not replaceable(path):
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        if rename_over:
            os.replace(tmp, path)
        else:
            put_in_place(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def new_dir(path):
    """A temporary directory inside the directory `path` (made if missing)
    whose files are put in place in `path` once the block ends without an
    exception and every namesake is `replaceable`; otherwise nothing moves,
    and a namesake raises `IsADirectoryError`, or `FileExistsError` if it is
    no directory. The temporary directory is removed in every case."""
    os.makedirs(path, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".infrasense-", dir=path)
    try:
        yield tmp
        moves = [(os.path.join(tmp, name), os.path.join(path, name))
                 for name in sorted(os.listdir(tmp))]
        for _, dst in moves:
            if not replaceable(dst):
                code = errno.EISDIR if os.path.isdir(dst) else errno.EEXIST
                raise OSError(code, os.strerror(code), dst)
        for src, dst in moves:
            put_in_place(src, dst)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
