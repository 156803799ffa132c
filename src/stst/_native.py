"""Compile and load the package's C helpers on first use.

load("name") compiles name.c, beside this file, with the system C compiler
(cc) and returns it as a ctypes.CDLL, or None when there is no compiler or
the build fails; callers then keep to their Python code. Nothing is
compiled at import.

The library goes into the user's cache, $XDG_CACHE_HOME/stst (default
~/.cache/stst), created mode 0700 and used only while it is the user's own
and writable by no one else. Its file name carries the sha256 of the
source, the flags and the platform, so a changed source builds anew, and
it is written by an atomic os.replace, so a concurrent process never loads
half a file. When that directory cannot be used, the library is compiled
into a private tempfile.mkdtemp() directory, loaded, and the directory
removed. Deleting ~/.cache/stst clears every build.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

__all__ = ["FLAGS", "load"]

# -ffp-contract=off: no fused multiply-add, so arithmetic rounds as written
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120


def _cache_dir() -> Path | None:
    """The stst folder of the user's cache, made if missing; None unless
    it is this user's own and no one else can write to it."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    folder = Path(root, "stst")
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = folder.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022 or not os.access(folder, os.W_OK):
        return None
    return folder


def _compile(compiler: str, source: Path, target: Path) -> bool:
    """Build source into target through a temporary file beside it."""
    import subprocess  # here: importing stst starts no process and loads no subprocess

    try:
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.part")
    except OSError:  # a full disk, say
        return False
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", partial, str(source)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        if done.returncode != 0:
            return False
        os.replace(partial, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def load(name: str) -> ctypes.CDLL | None:
    """name.c compiled and loaded, or None without a working C compiler."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    source = Path(__file__).with_name(f"{name}.c")
    try:
        key = hashlib.sha256(source.read_bytes())
    except OSError:  # an install that left the source out
        return None
    key.update(" ".join([*FLAGS, sys.platform, platform.machine()]).encode())
    filename = f"{name}-{key.hexdigest()[:32]}.so"
    folder = _cache_dir()
    if folder is not None:
        target = folder / filename
        if target.exists() or _compile(compiler, source, target):
            try:
                return ctypes.CDLL(str(target))
            except OSError:  # a cache on a noexec mount, say
                pass
    with tempfile.TemporaryDirectory() as private:
        target = Path(private, filename)
        if _compile(compiler, source, target):
            try:
                return ctypes.CDLL(str(target))  # stays mapped once the file is gone
            except OSError:
                pass
    return None
