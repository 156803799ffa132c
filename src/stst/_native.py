"""Compile, load and type the package's C helpers on first use.

load("name", function=(argtypes, restype), ...) compiles name.c, beside
this file, with the system C compiler (cc), loads it as a ctypes.CDLL and
gives each named function its argument and result types. It returns None
when there is no compiler or the compiler fails; callers then keep to
their Python code. Nothing is compiled at import, and no other module
types a helper.

The library goes into the user's cache, $XDG_CACHE_HOME/stst (default
~/.cache/stst); a root that is not an absolute path, such as a home that
cannot be resolved, means no cache. The folder is created mode 0700 and
used only while it is the user's own and writable by no one else. The
file name carries the sha256 of the source, the flags and the platform,
so a changed source builds anew, and it is written by an atomic
os.replace, so a concurrent process never loads half a file. When there is
no usable cache, or it cannot take or map the file, the library is
compiled into a private tempfile.mkdtemp() directory, loaded, and the
directory removed. The compiler runs at most once per helper and process:
a compiler that fails is not run again elsewhere. Deleting ~/.cache/stst
clears every build.
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
    its root is an absolute path, and the folder this user's own and
    writable by no one else."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):  # no home: expanduser left "~" as it was
        return None
    folder = Path(root, "stst")
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = folder.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022 or not os.access(folder, os.W_OK):
        return None
    return folder


def _build(compiler: str, source: Path, target: Path) -> ctypes.CDLL | None:
    """The library at target, compiled from source through a temporary file
    beside it unless it is there already. None when the compiler fails;
    OSError when target's folder cannot take or map the file (a full disk
    or a noexec mount, say)."""
    import subprocess  # here: importing stst starts no process and loads no subprocess

    if not target.exists():
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.part")
        os.close(handle)
        try:
            try:
                done = subprocess.run(
                    [compiler, *FLAGS, "-o", partial, str(source)],
                    stdin=subprocess.DEVNULL,
                    capture_output=True,
                    timeout=_COMPILE_TIMEOUT_S,
                )
            except (OSError, subprocess.SubprocessError):  # cc did not start, or ran past the timeout
                return None
            if done.returncode != 0:
                return None
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return ctypes.CDLL(str(target))


def load(name: str, **signatures: tuple) -> ctypes.CDLL | None:
    """name.c compiled and loaded, or None without a working C compiler.
    Each keyword names a function of name.c and gives its (argtypes,
    restype), which the returned library's function is given."""
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
    lib, folder = None, _cache_dir()
    if folder is not None:
        try:
            lib = _build(compiler, source, folder / filename)
        except OSError:  # the cache cannot take or map the file
            folder = None
    if folder is None:  # never after a failed compile: cc runs once
        with tempfile.TemporaryDirectory() as private:
            try:
                lib = _build(compiler, source, Path(private, filename))  # stays mapped once the file is gone
            except OSError:
                pass
    if lib is not None:
        for function, (argtypes, restype) in signatures.items():
            typed = getattr(lib, function)
            typed.argtypes, typed.restype = argtypes, restype
    return lib
